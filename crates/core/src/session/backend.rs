//! Execution backends: what runs a monitoring session.
//!
//! A [`Backend`] consumes a [`SessionPlan`] (resolved source input, config
//! and lifeguard factory) and produces a [`RunOutcome`]. Two backends are
//! bundled:
//!
//! * [`DeterministicBackend`] — the paper's cycle-accurate discrete-event
//!   simulation. A workload input is co-simulated end to end (application
//!   cores, capture, rings, lifeguard cores); a stream input is ingested
//!   lifeguard-only by one serial loop, enforcing the captured dependence
//!   arcs but without timing (externally captured logs have no machine to
//!   time). That loop is the reference every concurrent replay is compared
//!   against, so it stays separate from the lane engine;
//! * [`ThreadedBackend`] — real OS threads replaying the streams against the
//!   lifeguard's `Send + Sync` concurrent form. It is a scheduler, not a
//!   replay loop of its own: it starts a [`CoopSession`] and gives each of
//!   its [`CoopLane`]s one OS thread. The per-record protocol — §5.2 arc
//!   gates, §5.4 ConflictAlert serialization and range-table policing,
//!   §5.5 produce/consume, apply, advertise — and the deadlock rule live in
//!   the lane engine (see [`coop`](super::coop)), which the daemon's worker
//!   pool schedules too. A workload input is first captured
//!   deterministically; the capture's fingerprint is recorded as
//!   [`RunMetrics::reference_fingerprint`](crate::RunMetrics) so
//!   `matches_reference()` states whether genuine concurrency reproduced the
//!   deterministic metadata.
//!
//! Both backends consume stream input **incrementally**: records are pulled
//! from each thread's [`RecordStream`] in bounded batches and delivered as
//! they arrive, so ingestion is online and source-side memory stays within
//! the source's chunk budget. A thread whose next record has not been
//! produced yet ([`StreamStatus::Blocked`]) parks the session; only when
//! no input can ever satisfy a gated record is the run declared a
//! [`SessionError::Deadlock`].

use super::coop::{CoopLane, CoopSession, LaneStep};
use super::source::{RecordStream, StreamStatus};
use super::{SessionError, SessionPlan};
use crate::config::{MonitorConfig, MonitoringMode};
use crate::metrics::{PhaseBreakdown, RunMetrics};
use crate::platform::lg::deliver_ingested;
use crate::platform::{RunOutcome, Sim};
use crate::reference::Reference;
use crate::session::SourceInput;
use paralog_events::{CaRecord, EventPayload, EventRecord, ThreadId};
use paralog_lifeguards::{
    CostModel, Lifeguard, LifeguardFactory, LifeguardFamily, LifeguardKind, Violation,
};
use paralog_order::{Gate, OrderEnforcer, ProgressTable, RangeTable};
use paralog_workloads::Workload;
use std::fmt;

/// Records pulled from a stream per refill — the backend-side buffering
/// bound (each thread holds at most one batch).
pub(crate) const INGEST_BATCH: usize = 256;

/// Runs one resolved monitoring session.
pub trait Backend: fmt::Debug {
    /// Human-readable backend name.
    fn name(&self) -> &'static str;

    /// Consumes the plan and produces the run's outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] when the plan asks for something this
    /// backend cannot provide (e.g. concurrent replay of a lifeguard without
    /// a concurrent form), when a streaming source turns out malformed, or
    /// when ingestion deadlocks on a truncated capture.
    fn run(&self, plan: SessionPlan) -> Result<RunOutcome, SessionError>;
}

/// The deterministic discrete-event backend (the paper's simulator).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeterministicBackend;

impl Backend for DeterministicBackend {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn run(&self, plan: SessionPlan) -> Result<RunOutcome, SessionError> {
        match plan.input {
            SourceInput::Workload(ref w) => Ok(run_deterministic(
                w,
                &plan.config,
                plan.factory.build(plan.heap),
                plan.shorthand,
            )),
            SourceInput::Streams(streams) => {
                let family = plan.factory.build(plan.heap);
                let metrics = replay_streams(&family, streams, &plan.config.cost)?;
                Ok(RunOutcome { metrics })
            }
        }
    }
}

/// Borrowing shim behind [`Platform::run`](crate::Platform::run): the same
/// deterministic workload session the builder composes (bundled
/// `config.lifeguard`, [`DeterministicBackend`] semantics), minus the owned
/// source — so the classic entry point keeps borrowing the workload instead
/// of cloning its instruction streams every run.
pub(crate) fn run_platform(workload: &Workload, config: &MonitorConfig) -> RunOutcome {
    run_deterministic(
        workload,
        config,
        config.lifeguard.build(workload.heap),
        Some(config.lifeguard),
    )
}

/// Co-simulates `workload` under `config` with an already-built family.
fn run_deterministic(
    workload: &Workload,
    config: &MonitorConfig,
    family: LifeguardFamily,
    shorthand: Option<LifeguardKind>,
) -> RunOutcome {
    let k = workload.thread_count();
    let monitored = config.mode != MonitoringMode::None;
    // The in-line sequential reference exists only for the bundled analyses
    // (it is a re-implementation keyed by kind).
    let reference = match shorthand {
        Some(kind)
            if config.check_equivalence
                && monitored
                && kind != LifeguardKind::LockSet
                && kind != LifeguardKind::HappensBefore =>
        {
            Some(Reference::new(kind, k, config.machine_for(k).is_tso()))
        }
        _ => None,
    };
    let mut sim = Sim::new(workload, config, family, reference);
    if config.warm_caches {
        sim.warm();
    }
    sim.drive();
    RunOutcome {
        metrics: sim.into_metrics(),
    }
}

/// §5.4 ConflictAlert serialization for replay: a *non-issuer* copy of a
/// broadcast CA record (barrier or syscall-range class) may not be
/// delivered until the issuer's lifeguard has applied its own copy — the
/// issuer's copy is the one that performs the metadata update (taint the
/// read() buffer, clear the allocation, ...), and every remote stream's
/// copy marks where that update is ordered relative to the remote thread's
/// accesses. The live co-simulation enforces this through the `CaBarrier`
/// and the application-side broadcast serialization; replay enforces it by
/// gating on the issuer's advertised progress (`progress[issuer] >=
/// issuer_rid` ⇔ the issuer applied its copy). Broadcasts are globally
/// sequence-ordered, so these gates cannot cycle.
///
/// Returns `rec`'s CA when its gate is *unmet* (the caller must stall
/// until `ca.issuer` advertises `ca.issuer_rid`).
pub(crate) fn ca_gate_unmet<'r>(
    rec: &'r EventRecord,
    tid: usize,
    ca_policy: &paralog_order::CaPolicy,
    satisfied: impl Fn(ThreadId, paralog_events::Rid) -> bool,
) -> Option<&'r CaRecord> {
    let EventPayload::Ca(ca) = &rec.payload else {
        return None;
    };
    if ca.seq == u64::MAX || ca.issuer.index() == tid {
        return None; // own-stream-only record, or the issuer's copy itself
    }
    let actions = ca_policy.actions(ca.what, ca.phase);
    if !actions.barrier && !actions.track_range {
        return None; // flush-only classes order via data arcs (§5.4)
    }
    (!satisfied(ca.issuer, ca.issuer_rid)).then_some(ca)
}

/// One thread's ingestion state in the streaming replay loop.
struct IngestLane {
    stream: Box<dyn RecordStream>,
    /// The last pulled batch, decoded straight into this buffer; records
    /// are delivered in place from `batch[head..]`.
    batch: Vec<EventRecord>,
    /// Cursor of the next record to deliver.
    head: usize,
    exhausted: bool,
    enforcer: OrderEnforcer,
    range_table: RangeTable,
}

/// Lifeguard-only ingestion of per-thread streams under the deterministic
/// backend: records are pulled incrementally (bounded batches) and
/// delivered in an order that satisfies every captured dependence arc
/// (run-to-block round-robin over threads), through the same
/// [`Lifeguard`] handlers the co-simulation drives. There is no simulated
/// application to time, but lifeguard-side time *is* modeled: each record
/// is charged under `cost` and the run reports a Figure-7-style
/// [`PhaseBreakdown`] (capture / transport / order-wait / analysis /
/// publish) in [`RunMetrics::phases`], with
/// [`RunMetrics::lg_finish`](crate::RunMetrics) set to the phase total.
/// Analysis results (violations, fingerprints, version traffic) are
/// full-fidelity.
///
/// The loop distinguishes the two ways a thread can fail to advance:
///
/// * its stream is [`StreamStatus::Blocked`] — the producer exists but has
///   not caught up; the session parks (yielding the CPU) and retries;
/// * its head record's arc is unmet while **every** stream is exhausted —
///   no producer can ever satisfy it: [`SessionError::Deadlock`].
fn replay_streams(
    family: &LifeguardFamily,
    streams: Vec<Box<dyn RecordStream>>,
    cost: &CostModel,
) -> Result<RunMetrics, SessionError> {
    let k = streams.len();
    if k == 0 {
        return Err(SessionError::EmptySource);
    }
    let mut lgs: Vec<Box<dyn Lifeguard>> =
        (0..k).map(|t| family.thread(ThreadId(t as u16))).collect();
    let ca_policy = lgs[0].spec().ca_policy.clone();
    let mut progress = ProgressTable::new(k);
    let mut versions = paralog_meta::VersionTable::new();
    let mut lanes: Vec<IngestLane> = streams
        .into_iter()
        .map(|stream| IngestLane {
            stream,
            batch: Vec::with_capacity(INGEST_BATCH),
            head: 0,
            exhausted: false,
            enforcer: OrderEnforcer::new(),
            range_table: RangeTable::new(k),
        })
        .collect();

    let mut records = 0u64;
    let mut delivered_ops = 0u64;
    let mut stalls = 0u64;
    let mut idle_rounds = 0u32;
    let mut violations: Vec<Violation> = Vec::new();
    let mut analysis = 0u64;
    let mut publish = 0u64;
    loop {
        let mut any_progress = false;
        let mut producer_pending = false;
        for (t, lane) in lanes.iter_mut().enumerate() {
            // Run this thread until its head blocks, its producer lags, or
            // its stream drains.
            loop {
                if lane.head == lane.batch.len() {
                    if lane.exhausted {
                        break;
                    }
                    lane.batch.clear();
                    lane.head = 0;
                    let status = lane.stream.next_batch(&mut lane.batch, INGEST_BATCH)?;
                    // Deliver whatever arrived regardless of status (a
                    // stream may deliver a partial batch and *then* report
                    // Blocked).
                    let got_records = !lane.batch.is_empty();
                    match status {
                        StreamStatus::Yielded | StreamStatus::Blocked if got_records => {}
                        StreamStatus::Yielded | StreamStatus::Blocked => {
                            // (An empty `Yielded` is a protocol violation;
                            // treat it like a lagging producer rather than
                            // spinning on the misbehaving stream.)
                            producer_pending = true;
                            break;
                        }
                        StreamStatus::Exhausted => {
                            lane.exhausted = true;
                            if !got_records {
                                break;
                            }
                        }
                    }
                }
                let mut arc_blocked = false;
                while let Some(rec) = lane.batch.get(lane.head) {
                    if let Gate::Blocked { .. } = lane.enforcer.regate(rec, &progress) {
                        stalls += 1;
                        arc_blocked = true;
                        break;
                    }
                    if ca_gate_unmet(rec, t, &ca_policy, |src, rid| progress.get(src) >= rid)
                        .is_some()
                    {
                        stalls += 1;
                        arc_blocked = true;
                        break;
                    }
                    let (a, p) = PhaseBreakdown::record_cycles(cost, rec, t);
                    analysis += a;
                    publish += p;
                    deliver_ingested(
                        rec,
                        t,
                        &mut lgs,
                        &mut lane.range_table,
                        &mut versions,
                        &ca_policy,
                        &mut violations,
                        &mut delivered_ops,
                    )?;
                    progress.advertise(ThreadId(t as u16), rec.rid);
                    lane.head += 1;
                    records += 1;
                    any_progress = true;
                }
                if arc_blocked {
                    break;
                }
            }
        }
        if lanes.iter().all(|l| l.exhausted && l.head == l.batch.len()) {
            break;
        }
        if any_progress {
            idle_rounds = 0;
        } else {
            if producer_pending {
                // Streams blocked on live producers: park and retry — this
                // is online ingestion waiting for input, not a deadlock.
                // Back off to short sleeps so an idle feed does not burn a
                // core; resume eagerly once records flow again.
                if idle_rounds < 64 {
                    idle_rounds += 1;
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                continue;
            }
            let stuck: Vec<String> = lanes
                .iter()
                .enumerate()
                .filter_map(|(t, lane)| {
                    lane.batch.get(lane.head).map(|head| {
                        format!(
                            "thread {t} blocked at rid {} arcs {:?}",
                            head.rid, head.arcs
                        )
                    })
                })
                .collect();
            return Err(SessionError::Deadlock(stuck.join("; ")));
        }
    }

    let wire_bytes: u64 = lanes.iter().map(|l| l.stream.transport_bytes()).sum();
    let phases = PhaseBreakdown {
        capture: records * cost.record_drain,
        transport: PhaseBreakdown::transport_cycles(wire_bytes),
        order_wait: stalls * cost.stall_poll,
        analysis,
        publish,
    };
    Ok(RunMetrics {
        app_threads: k,
        records,
        delivered_ops,
        dependence_stalls: stalls,
        versions_produced: versions.produced(),
        versions_consumed: versions.consumed(),
        violations,
        fingerprint: family.fingerprint(),
        lg_finish: phases.total(),
        phases: Some(phases),
        ..RunMetrics::default()
    })
}

/// The real-thread backend: the session's [`CoopLane`]s, one OS thread
/// each, over lock-free shared metadata.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedBackend;

/// How real-thread replay (the [`ThreadedBackend`] and the daemon's
/// cooperative lanes) applies records to the concurrent lifeguard — the
/// [`MonitorSessionBuilder::backend_mode`](super::MonitorSessionBuilder::backend_mode)
/// knob, resolved per session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendMode {
    /// Let the lifeguard factory pick
    /// ([`LifeguardFactory::preferred_mode`], thresholds recorded from the
    /// measured `BENCH_concurrent.json` matrix), falling back to
    /// CAS-per-access when the analysis ships no delta form.
    #[default]
    Auto,
    /// Publish every metadata write into the shared tables immediately —
    /// §5.3's per-access atomicity discipline
    /// ([`ConcurrentLifeguard::apply`](paralog_lifeguards::ConcurrentLifeguard::apply)).
    CasPerAccess,
    /// Buffer metadata writes in a worker-private shadow delta and publish
    /// them only at dependence-arc and sync boundaries
    /// ([`DeltaLifeguard`](paralog_lifeguards::DeltaLifeguard)). Fingerprints
    /// and violation reports are bit-identical to
    /// [`CasPerAccess`](Self::CasPerAccess); an explicit request fails with
    /// [`SessionError::Unsupported`] when the lifeguard has no delta form.
    DeltaMerge,
}

impl fmt::Display for BackendMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendMode::Auto => "auto",
            BackendMode::CasPerAccess => "cas",
            BackendMode::DeltaMerge => "delta",
        })
    }
}

impl Backend for ThreadedBackend {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn run(&self, plan: SessionPlan) -> Result<RunOutcome, SessionError> {
        let (streams, expected): (Vec<Box<dyn RecordStream>>, Option<u64>) = match plan.input {
            SourceInput::Workload(ref w) => {
                // Capture the fully annotated streams deterministically —
                // including §5.5 produce/consume version annotations under
                // TSO; the capture's fingerprint becomes the expected
                // reference.
                let mut cfg = plan.config.clone();
                cfg.mode = MonitoringMode::Parallel;
                cfg.collect_streams = true;
                let metrics =
                    run_deterministic(w, &cfg, plan.factory.build(plan.heap), plan.shorthand)
                        .metrics;
                let streams = metrics.streams.expect("collect_streams was set");
                let fingerprint = metrics.fingerprint;
                match SourceInput::from_buffered(streams) {
                    SourceInput::Streams(streams) => (streams, Some(fingerprint)),
                    SourceInput::Workload(_) => unreachable!("buffered input"),
                }
            }
            SourceInput::Streams(s) => (s, None),
        };
        let (session, lanes) = CoopSession::launch(
            &*plan.factory,
            plan.heap,
            streams,
            plan.observer,
            plan.mode,
            plan.config.cost,
        )?;
        std::thread::scope(|scope| {
            for lane in lanes {
                scope.spawn(move || drive_lane(lane));
            }
        });
        let mut metrics = session
            .report()
            .expect("every lane stepped to a terminal state")?;
        metrics.reference_fingerprint = expected;
        Ok(RunOutcome { metrics })
    }
}

/// One lane's OS-thread scheduler: re-step at once while the lane makes
/// progress; while it is gated on a peer or idle on its producer, yield
/// for a short while, then back off to short sleeps so a waiting lane does
/// not burn a core.
fn drive_lane(mut lane: CoopLane) {
    let mut waits = 0u32;
    loop {
        match lane.step(INGEST_BATCH) {
            LaneStep::Progressed => waits = 0,
            LaneStep::Gated | LaneStep::Idle if waits < 64 => {
                waits += 1;
                std::thread::yield_now();
            }
            LaneStep::Gated | LaneStep::Idle => {
                std::thread::sleep(std::time::Duration::from_micros(200))
            }
            LaneStep::Finished | LaneStep::Failed => return,
        }
    }
}
