//! Cross-mode replay parity: delta-merge vs. CAS-per-access (the tentpole
//! invariant).
//!
//! A backend running in [`BackendMode::DeltaMerge`] buffers each worker's
//! metadata writes in private overlays and publishes them only at
//! dependence-arc and sync boundaries. The contract is that this is purely
//! a *publication-cadence* change: fingerprints and violations must come
//! out **bit-identical** to CAS-per-access replay. MemCheck is the only
//! bundled analysis with a delta form, so every row here is MemCheck's:
//!
//! * SC captures replayed on `ThreadedBackend` in both modes — from the
//!   live capture, the raw record streams, and the codec wire form;
//! * §5.5 TSO captures (versioned metadata flowing through produce/consume
//!   points) through both modes;
//! * the cooperative (`CoopSession`) lane state machine in both modes;
//! * racing private-slab writers (proptest): arbitrary per-thread streams
//!   replayed on real OS threads with arbitrary flush cadences — the
//!   schedule-independence half of the contract (the nightly TSan job runs
//!   this file instrumented);
//! * the explicit-mode error path: `DeltaMerge` on a factory without a
//!   delta form is `SessionError::Unsupported`, on both backends.

use paralog::core::{
    BackendMode, CoopSession, DeterministicBackend, MonitorConfig, MonitorSession, MonitoringMode,
    Platform, RecordStream, ReplaySource, SessionError, StreamingReplaySource, ThreadedBackend,
};
use paralog::events::codec::encode;
use paralog::events::{
    AddrRange, CaPhase, CaRecord, EventRecord, HighLevelKind, Instr, MemRef, Op, Reg, Rid, ThreadId,
};
use paralog::lifeguards::{
    ConcurrentLifeguard, DeltaLifeguard, LifeguardFactory, LifeguardFamily, LifeguardKind,
    Violation, ViolationKind,
};
use paralog::workloads::{Benchmark, Workload, WorkloadSpec};
use proptest::prelude::*;

const HEAP: AddrRange = AddrRange {
    start: 0x1000_0000,
    len: 0x1000_0000,
};

fn workload(bench: Benchmark, threads: usize) -> Workload {
    WorkloadSpec::benchmark(bench, threads).scale(0.05).build()
}

fn violation_keys(violations: &[Violation]) -> Vec<(u16, u64, ViolationKind)> {
    let mut keys: Vec<_> = violations
        .iter()
        .map(|v| (v.tid.0, v.rid.0, v.kind))
        .collect();
    keys.sort_by_key(|&(tid, rid, _)| (tid, rid));
    keys
}

/// Captures `bench` under `kind` and returns (streams, live fingerprint).
fn capture(kind: LifeguardKind, w: &Workload, tso: bool) -> (Vec<Vec<EventRecord>>, u64) {
    let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, kind);
    if tso {
        cfg = cfg.with_tso();
    }
    cfg.collect_streams = true;
    let live = Platform::run(w, &cfg).metrics;
    (live.streams.expect("collection enabled"), live.fingerprint)
}

/// Replays `streams` on `ThreadedBackend` in `mode`.
fn threaded(
    kind: LifeguardKind,
    streams: Vec<Vec<EventRecord>>,
    heap: AddrRange,
    mode: BackendMode,
) -> paralog::core::RunMetrics {
    MonitorSession::builder()
        .source(ReplaySource::new(streams, heap))
        .lifeguard(kind)
        .backend(ThreadedBackend)
        .backend_mode(mode)
        .build()
        .expect("session builds")
        .run()
        .expect("replay succeeds")
        .metrics
}

// ---------------------------------------------------------------------------
// SC captures: threaded backend, both modes, raw and wire form
// ---------------------------------------------------------------------------

/// MemCheck replays SC captures in delta-merge mode with fingerprints and
/// violations identical to CAS-per-access and to the deterministic backend
/// — from the raw capture and from the codec wire form.
#[test]
fn sc_captures_replay_identically_across_modes() {
    let (kind, bench) = (LifeguardKind::MemCheck, Benchmark::Fluidanimate);
    let w = workload(bench, 4);
    let (streams, live_fp) = capture(kind, &w, false);

    let det = MonitorSession::builder()
        .source(ReplaySource::new(streams.clone(), w.heap))
        .lifeguard(kind)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap()
        .metrics;
    assert_eq!(
        det.fingerprint, live_fp,
        "{bench}: ingestion diverged from the live run"
    );

    let cas = threaded(kind, streams.clone(), w.heap, BackendMode::CasPerAccess);
    let delta = threaded(kind, streams.clone(), w.heap, BackendMode::DeltaMerge);
    assert_eq!(
        delta.fingerprint, cas.fingerprint,
        "{bench}: modes diverged on final metadata"
    );
    assert_eq!(
        cas.fingerprint, det.fingerprint,
        "{bench}: threaded replay diverged from deterministic"
    );
    assert_eq!(
        violation_keys(&delta.violations),
        violation_keys(&cas.violations),
        "{bench}: modes diverged on violations"
    );

    // Delta-merge over the codec wire form, streamed in small chunks.
    let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
    let src = StreamingReplaySource::from_encoded(encoded, w.heap).with_chunk_bytes(256);
    let wire = MonitorSession::builder()
        .source(src)
        .lifeguard(kind)
        .backend(ThreadedBackend)
        .backend_mode(BackendMode::DeltaMerge)
        .build()
        .unwrap()
        .run()
        .unwrap()
        .metrics;
    assert_eq!(
        wire.fingerprint, det.fingerprint,
        "{bench}: codec-decoded delta-merge replay diverged"
    );
    assert_eq!(
        violation_keys(&wire.violations),
        violation_keys(&det.violations),
        "{bench}: codec-decoded violations diverged"
    );
}

// ---------------------------------------------------------------------------
// TSO captures: §5.5 versioned metadata through both modes
// ---------------------------------------------------------------------------

/// The Figure 5 Dekker pattern under MEMCHECK (each side mallocs its flag
/// region, defines its own flag, reads the other's — under TSO the read may
/// consume the producer's pre-store, still-undefined version).
fn dekker_memcheck(pad: usize) -> Workload {
    let a = MemRef::new(0x2000_0000, 8);
    let b = MemRef::new(0x2000_0100, 8);
    let side = |mine: MemRef, theirs: MemRef| {
        let mut ops = vec![Op::Malloc {
            range: AddrRange::new(mine.addr, 8),
        }];
        for _ in 0..pad {
            ops.push(Op::Instr(Instr::Nop));
        }
        ops.push(Op::Instr(Instr::MovRI { dst: Reg(0) }));
        ops.push(Op::Instr(Instr::Store {
            dst: mine,
            src: Reg(0),
        }));
        ops.push(Op::Instr(Instr::Load {
            dst: Reg(1),
            src: theirs,
        }));
        ops.push(Op::Instr(Instr::Store {
            dst: MemRef::new(mine.addr + 0x40, 8),
            src: Reg(1),
        }));
        ops
    };
    Workload {
        name: "figure5-memcheck".into(),
        benchmark: None,
        threads: vec![side(a, b), side(b, a)],
        heap: HEAP,
        locks: 0,
    }
}

/// §5.5 TSO captures replay identically in both modes: the delta overlay
/// must flush ahead of produce points so consumed snapshots see published
/// metadata, and versioned reads must bypass the overlay exactly as they
/// bypass the live shadow.
#[test]
fn tso_captures_replay_identically_across_modes() {
    let mut any_versions = 0u64;
    for pad in [0usize, 2, 5, 8] {
        let w = dekker_memcheck(pad);
        let mut cfg =
            MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::MemCheck).with_tso();
        cfg.collect_streams = true;
        let live = Platform::run(&w, &cfg).metrics;
        let streams = live.streams.clone().expect("collection enabled");
        any_versions += live.versions_produced;

        let cas = threaded(
            LifeguardKind::MemCheck,
            streams.clone(),
            w.heap,
            BackendMode::CasPerAccess,
        );
        let delta = threaded(
            LifeguardKind::MemCheck,
            streams,
            w.heap,
            BackendMode::DeltaMerge,
        );
        assert_eq!(
            delta.fingerprint, cas.fingerprint,
            "pad={pad}: TSO modes diverged on final metadata"
        );
        assert_eq!(cas.fingerprint, live.fingerprint);
        assert_eq!(
            violation_keys(&delta.violations),
            violation_keys(&cas.violations),
            "pad={pad}: TSO modes diverged on violations"
        );
        assert_eq!(delta.versions_consumed, cas.versions_consumed);
    }
    assert!(
        any_versions > 0,
        "the pad sweep never produced a version — the TSO path went untested"
    );
}

// ---------------------------------------------------------------------------
// Cooperative lanes: both modes through the pull state machine
// ---------------------------------------------------------------------------

/// The `CoopSession` lane state machine produces identical results in both
/// modes (this is the form `paralogd` runs, so it gets its own parity
/// check rather than inheriting `ThreadedBackend`'s).
#[test]
fn coop_lanes_agree_across_modes() {
    let (kind, bench) = (LifeguardKind::MemCheck, Benchmark::Swaptions);
    let w = workload(bench, 4);
    let (streams, live_fp) = capture(kind, &w, false);
    let mut fps = Vec::new();
    let mut keys = Vec::new();
    for mode in [BackendMode::CasPerAccess, BackendMode::DeltaMerge] {
        let boxed: Vec<Box<dyn RecordStream>> = streams
            .iter()
            .cloned()
            .map(|s| Box::new(paralog::core::BufferedStream::new(s)) as Box<dyn RecordStream>)
            .collect();
        let (session, mut lanes) =
            CoopSession::start_with_mode(&kind, w.heap, boxed, None, mode).expect("session starts");
        while !session.is_complete() {
            for lane in &mut lanes {
                lane.step(64);
            }
        }
        let metrics = session.report().expect("complete").expect("clean drain");
        fps.push(metrics.fingerprint);
        keys.push(violation_keys(&metrics.violations));
    }
    assert_eq!(fps[0], live_fp, "{bench}: coop cas diverged from live");
    assert_eq!(fps[0], fps[1], "{bench}: coop modes diverged");
    assert_eq!(keys[0], keys[1], "{bench}: coop violations diverged");
}

// ---------------------------------------------------------------------------
// Explicit-mode error path
// ---------------------------------------------------------------------------

/// `BackendMode::DeltaMerge` on a factory without a delta form fails with
/// `SessionError::Unsupported` — on the threaded backend and on coop lanes.
/// `Auto` on the same factory silently falls back to CAS.
#[test]
fn explicit_delta_without_a_delta_form_is_unsupported() {
    #[derive(Debug)]
    struct CasOnly;
    impl LifeguardFactory for CasOnly {
        fn name(&self) -> &str {
            "CasOnly"
        }
        fn build(&self, heap: AddrRange) -> LifeguardFamily {
            LifeguardKind::MemCheck.build(heap)
        }
        fn concurrent(
            &self,
            heap: AddrRange,
            threads: usize,
        ) -> Option<Box<dyn ConcurrentLifeguard>> {
            let _ = heap;
            Some(Box::new(paralog::lifeguards::MemCheckConcurrent::new(
                threads,
            )))
        }
    }

    let w = workload(Benchmark::Swaptions, 2);
    let err = MonitorSession::builder()
        .source(w.clone())
        .lifeguard_factory(CasOnly)
        .backend(ThreadedBackend)
        .backend_mode(BackendMode::DeltaMerge)
        .build()
        .and_then(|s| s.run())
        .expect_err("delta-merge without a delta form must be refused");
    assert!(
        matches!(err, SessionError::Unsupported(_)),
        "wrong error: {err:?}"
    );

    let streams: Vec<Box<dyn RecordStream>> =
        vec![Box::new(paralog::core::BufferedStream::new(Vec::new()))];
    let err = CoopSession::start_with_mode(&CasOnly, HEAP, streams, None, BackendMode::DeltaMerge)
        .expect_err("coop lanes refuse too");
    assert!(matches!(err, SessionError::Unsupported(_)));

    // Auto on the same factory silently falls back to CAS-per-access.
    MonitorSession::builder()
        .source(w)
        .lifeguard_factory(CasOnly)
        .backend(ThreadedBackend)
        .backend_mode(BackendMode::Auto)
        .build()
        .expect("auto builds")
        .run()
        .expect("auto falls back to cas");
}

// ---------------------------------------------------------------------------
// Racing private-slab writers (proptest; raced under TSan nightly)
// ---------------------------------------------------------------------------

/// One thread's stream: a malloc of a private slab, then loads/stores at
/// the generated slots. Private slabs make the final metadata
/// schedule-independent, so racing replays must agree exactly.
fn private_stream(tid: u16, slots: &[u64]) -> Vec<EventRecord> {
    let slab = AddrRange::new(HEAP.start + u64::from(tid) * 0x10_000, 0x1000);
    let mut recs = vec![EventRecord::ca(
        Rid(1),
        CaRecord {
            what: HighLevelKind::Malloc,
            phase: CaPhase::End,
            range: Some(slab),
            issuer: ThreadId(tid),
            issuer_rid: Rid(1),
            seq: u64::MAX, // own-stream record: no cross-thread ordering
        },
    )];
    for (i, slot) in slots.iter().enumerate() {
        let mem = MemRef::new(slab.start + (slot % (slab.len / 8 - 1)) * 8, 8);
        let instr = if i % 2 == 0 {
            Instr::Load {
                dst: Reg(0),
                src: mem,
            }
        } else {
            Instr::Store {
                dst: mem,
                src: Reg(0),
            }
        };
        recs.push(EventRecord::instr(Rid(i as u64 + 2), instr));
    }
    recs
}

/// Replays one pre-built stream per racing OS thread in CAS mode.
fn race_cas(conc: &dyn ConcurrentLifeguard, streams: &[Vec<EventRecord>]) {
    std::thread::scope(|scope| {
        for (t, stream) in streams.iter().enumerate() {
            scope.spawn(move || {
                let tid = ThreadId(t as u16);
                for rec in stream {
                    conc.apply(tid, rec, None);
                }
            });
        }
    });
}

/// Replays one pre-built stream per racing OS thread in delta mode,
/// publishing every `flush_every` records and at stream end.
fn race_delta(lg: &dyn DeltaLifeguard, streams: &[Vec<EventRecord>], flush_every: usize) {
    std::thread::scope(|scope| {
        for (t, stream) in streams.iter().enumerate() {
            scope.spawn(move || {
                let tid = ThreadId(t as u16);
                for (i, rec) in stream.iter().enumerate() {
                    lg.apply_delta(tid, rec, None);
                    if (i + 1) % flush_every == 0 {
                        lg.flush_delta(tid);
                    }
                }
                lg.flush_delta(tid);
            });
        }
    });
}

fn check_racing_parity(slots: &[Vec<u64>], flush_every: usize) {
    let kind = LifeguardKind::MemCheck;
    let streams: Vec<Vec<EventRecord>> = slots
        .iter()
        .enumerate()
        .map(|(t, s)| private_stream(t as u16, s))
        .collect();
    let cas = kind.concurrent(HEAP, streams.len()).expect("cas form");
    race_cas(&*cas, &streams);
    let delta = kind
        .concurrent_delta(HEAP, streams.len())
        .expect("delta form");
    race_delta(&*delta, &streams, flush_every);
    let delta: &dyn ConcurrentLifeguard = &*delta;
    assert_eq!(
        cas.fingerprint(),
        delta.fingerprint(),
        "racing modes diverged on final metadata (flush_every={flush_every})"
    );
    assert_eq!(
        violation_keys(&cas.violations()),
        violation_keys(&delta.violations()),
        "racing modes diverged on violations (flush_every={flush_every})"
    );
}

fn slots_strategy() -> impl Strategy<Value = (Vec<Vec<u64>>, usize)> {
    (2usize..=4)
        .prop_flat_map(|n| {
            (0..n)
                .map(|_| proptest::collection::vec(0u64..512, 24..160))
                .collect::<Vec<_>>()
        })
        .prop_flat_map(|slots| (Just(slots), 1usize..96))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn racing_memcheck_modes_agree((slots, flush) in slots_strategy()) {
        check_racing_parity(&slots, flush);
    }
}
