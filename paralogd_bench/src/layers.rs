//! The traced per-layer run (`--trace 1`).
//!
//! Four passes over the same captures:
//!
//! 1. **untraced daemon** — the end-to-end loop as `--trace 0` runs it,
//!    the baseline for the tracing overhead;
//! 2. **traced daemon** — the same loop with spans around
//!    `Producer::attach`/`Producer::send`, WATCH lines as instants, and a
//!    [`TimingFactory`] registered in the daemon's registry; its
//!    fingerprints must equal pass 1's;
//! 3. **replica** — each session rebuilt in-process from the daemon's own
//!    parts: `ByteFeed` writers fed frame by frame like the pump,
//!    `StreamingReplaySource` behind [`TimingStream`]s, and `CoopLane::step`
//!    run as `PoolTask`s on a `WorkerPool` of the daemon's size. Every step
//!    is logged with its `LaneStep`, queue wait and the decode/apply time
//!    inside it, so worker time splits into layers;
//! 4. **drivers** — `MonitorSession::run` on the deterministic and threaded
//!    backends.
//!
//! Spans are written as Chrome trace-event JSON to
//! `out/trace-<workload>-<seed>.json`.

use crate::e2e::{Harness, SessionResult};
use crate::spec::{violation_line, Capture, Workload};
use crate::stats::{median, Outcomes};
use crate::trace::{track, LayerCounters, TimingFactory, TimingStream, Tracer};
use crate::{run_sessions, Metric, Run, Setup, Summary};
use paralog_core::{
    BackendMode, CoopLane, CoopSession, DeterministicBackend, EventSource, LaneStep,
    MonitorSession, ReplaySource, SourceInput, StreamingReplaySource, ThreadedBackend,
};
use paralog_daemon::pool::{PoolTask, TaskPoll, WorkerPool};
use paralog_daemon::transport::{ByteFeed, SessionBuffer};
use paralog_lifeguards::{LifeguardRegistry, ReplayMode};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-layer metrics on the result line (`BENCHMARK.json`'s `per_layer`).
/// Printed but left off: `lifeguard.flush_ns_per_rec` (a time that is
/// exactly zero on every CAS-mode workload) and `lifeguard.delta_mode` (the
/// resolved mode, a setting rather than a quantity).
pub const REPORTED: &[&str] = &[
    "capture.s",
    "codec.encode_ns_per_rec",
    "codec.decode_ns_per_rec",
    "codec.bytes_per_rec",
    "socket.send_blocked_frac",
    "socket.mb_per_s",
    "daemon.overhead_frac",
    "pool.queue_wait_us_p50",
    "pool.idle_step_frac",
    "lane.busy_ns_per_rec",
    "lane.self_ns_per_rec",
    "lane.gated_step_frac",
    "lane.useful_step_frac",
    "order.stalls_per_krec",
    "versions.produced_per_krec",
    "versions.consumed_per_krec",
    "versions.peak_resident",
    "lifeguard.apply_ns_per_rec",
    "driver.deterministic_rec_per_s",
    "driver.threaded_rec_per_s",
    "driver.threaded_failed_frac",
    "model.share.capture",
    "model.share.transport",
    "model.share.order_wait",
    "model.share.analysis",
    "model.share.publish",
    "measured.share.decode",
    "measured.share.gated",
    "measured.share.apply",
    "measured.share.lane_self",
    "measured.share.publish",
    "measured.share.idle",
    "trace.residual_frac",
    "trace.overhead_frac",
    "trace.records_per_s",
];

/// The daemon's fairness quantum (`LANE_BUDGET` in the supervisor).
const LANE_BUDGET: usize = 512;

/// The daemon's default per-session buffered-byte cap.
const SESSION_BUFFER_BYTES: usize = 1 << 20;

/// Daemon sessions whose every send is kept as a span.
const TRACED_SESSIONS: usize = 2;

pub struct LayerOutput {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub correct: bool,
    pub outcomes: Outcomes,
}

pub fn run(w: &Workload, setup: &Setup, seed: u64, seconds: f64, dir: &Path) -> LayerOutput {
    let tracer = Tracer::new();
    let caps = &setup.captures;
    let records: u64 = caps.iter().map(|c| c.records).sum();
    let mut notes = Vec::new();
    let mut m = Vec::new();

    // Set-up layers: capture and encode.
    let capture_s: Vec<f64> = caps.iter().map(|c| c.timings.capture_s).collect();
    m.push(Metric::new("capture.s", median(&capture_s), "s", caps.len()));
    let encode_s: f64 = caps.iter().map(|c| c.timings.encode_s).sum();
    m.push(Metric::new(
        "codec.encode_ns_per_rec",
        encode_s * 1e9 / records as f64,
        "ns/rec",
        caps.len(),
    ));
    let wire: usize = caps.iter().map(Capture::wire_bytes).sum();
    m.push(Metric::new("codec.bytes_per_rec", wire as f64 / records as f64, "B/rec", caps.len()));

    // Passes 1 and 2: the daemon untraced, then traced.
    let plain =
        daemon_pass(w, caps, seconds * 0.3, LifeguardRegistry::builtin(), None, dir, "plain");
    let mut registry = LifeguardRegistry::builtin();
    registry.register(TimingFactory::new(Arc::new(w.lifeguard)));
    let traced = daemon_pass(w, caps, seconds * 0.3, registry, Some(&tracer), dir, "traced");
    let (plain_sum, traced_sum) = (Summary::of(&plain.run), Summary::of(&traced.run));
    let socket_s = plain_sum.window_s.max(f64::MIN_POSITIVE);
    let sessions = plain_sum.outcomes.sessions as usize;
    m.push(Metric::new("socket.send_blocked_frac", plain_sum.send_s / socket_s, "ratio", sessions));
    m.push(Metric::new(
        "socket.mb_per_s",
        plain_sum.bytes as f64 / socket_s / 1e6,
        "MB/s",
        sessions,
    ));
    let fingerprints_agree = same_fingerprints(&plain.run.sessions, &traced.run.sessions);
    notes.push(format!(
        "  traced daemon fingerprints equal the untraced run's: {fingerprints_agree} \
         ({} untraced, {} traced sessions)",
        plain.run.sessions.len(),
        traced.run.sessions.len()
    ));

    // Pass 3: the in-process replica.
    let workers = plain.workers.max(1);
    let pool = WorkerPool::new(workers);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.25);
    let mut replicas: Vec<Replica> = Vec::new();
    while replicas.len() < caps.len() || Instant::now() < deadline {
        let cap = &caps[replicas.len() % caps.len()];
        // Per-step spans for the first replica only: the trace stays small.
        let r = replica(w, cap, &pool, replicas.is_empty().then_some(&tracer));
        let failed = r.error.is_some();
        replicas.push(r);
        if failed && replicas.len() >= caps.len() {
            break;
        }
    }
    pool.shutdown();
    let rep = ReplicaTotals::of(&replicas, workers);
    // Against the traced daemon: both sides run the timing factory.
    let daemon_window = medians_by_label(
        traced.run.sessions.iter().filter(|r| r.ok).map(|r| (r.label.as_str(), r.window_s)),
    );
    let replica_wall = medians_by_label(
        replicas.iter().filter(|r| r.error.is_none()).map(|r| (r.label.as_str(), r.wall_s)),
    );
    let (mut replica_s, mut daemon_s) = (0.0, 0.0);
    for (label, wall) in &replica_wall {
        if let Some(window) = daemon_window.get(label) {
            replica_s += wall;
            daemon_s += window;
        }
    }
    let overhead = if daemon_s > 0.0 { 1.0 - replica_s / daemon_s } else { f64::NAN };
    m.push(Metric::new("daemon.overhead_frac", overhead, "ratio", replica_wall.len()));
    rep.push_metrics(&mut m);

    // Pass 4: the replay drivers.
    let drivers = drivers_pass(w, caps, seconds * 0.15, &tracer);
    m.push(Metric::new(
        "driver.deterministic_rec_per_s",
        drivers.deterministic_rps,
        "rec/s",
        drivers.runs,
    ));
    m.push(Metric::new("driver.threaded_rec_per_s", drivers.threaded_rps, "rec/s", drivers.runs));
    m.push(Metric::new(
        "driver.threaded_failed_frac",
        drivers.threaded_failed as f64 / drivers.runs as f64,
        "ratio",
        drivers.runs,
    ));
    if let Some(e) = &drivers.first_error {
        notes.push(format!("  threaded driver failure: {e}"));
    }

    // Tracing overhead and the end-to-end throughput under tracing.
    let (plain_rps, traced_rps) = (plain_sum.records_per_s(), traced_sum.records_per_s());
    m.push(Metric::new(
        "trace.overhead_frac",
        1.0 - traced_rps / plain_rps,
        "ratio",
        traced.run.sessions.len(),
    ));
    m.push(Metric::new("trace.records_per_s", traced_rps, "rec/s", traced.run.sessions.len()));
    m.push(Metric::new(
        "trace.untraced_records_per_s",
        plain_rps,
        "rec/s",
        plain.run.sessions.len(),
    ));

    notes.extend(rep.figure7_table());
    notes.push(format!(
        "  layer sum vs wall: {:.3} of {} workers x {:.3} s wall attributed, residual {:.4}",
        1.0 - rep.residual(),
        workers,
        rep.wall_s,
        rep.residual()
    ));
    notes.push(format!(
        "  tracing overhead: {:.1}% of records_per_s ({plain_rps:.0} untraced, {traced_rps:.0} traced)",
        (1.0 - traced_rps / plain_rps) * 100.0
    ));
    let path = dir.join(format!("trace-{}-{seed}.json", w.name));
    match tracer.write_chrome(&path) {
        Ok(()) => notes.push(format!(
            "  chrome trace: {} ({} events, {} dropped)",
            path.display(),
            tracer.len(),
            tracer.dropped()
        )),
        Err(e) => notes.push(format!("  chrome trace not written: {e}")),
    }

    let mut outcomes = plain_sum.outcomes;
    for o in [traced_sum.outcomes, rep.outcomes] {
        outcomes.sessions += o.sessions;
        outcomes.sessions_failed += o.sessions_failed;
        outcomes.violations += o.violations;
        outcomes.violations_missing += o.violations_missing;
    }
    for s in [&plain_sum, &traced_sum] {
        if let Some(e) = &s.first_error {
            notes.push(format!("  first daemon failure: {e}"));
        }
    }
    if let Some(e) = replicas.iter().find_map(|r| r.error.as_ref()) {
        notes.push(format!("  first replica failure: {e}"));
    }
    LayerOutput {
        metrics: m,
        notes,
        correct: outcomes.sessions > 0 && outcomes.failed() == 0 && fingerprints_agree,
        outcomes,
    }
}

struct DaemonPass {
    run: Run,
    workers: usize,
}

fn daemon_pass(
    w: &Workload,
    caps: &[Capture],
    seconds: f64,
    registry: LifeguardRegistry,
    tracer: Option<&Tracer>,
    dir: &Path,
    tag: &str,
) -> DaemonPass {
    let Ok(mut harness) = Harness::spawn(dir, tag, registry) else {
        return DaemonPass { run: Run { sessions: Vec::new(), cpu_s: None }, workers: 0 };
    };
    let run = run_sessions(&mut harness, w, caps, seconds, tracer, TRACED_SESSIONS);
    let workers = harness.workers();
    harness.shutdown();
    DaemonPass { run, workers }
}

/// Per-capture median of `(label, value)` pairs.
fn medians_by_label<'a>(items: impl Iterator<Item = (&'a str, f64)>) -> BTreeMap<&'a str, f64> {
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (label, v) in items {
        by.entry(label).or_default().push(v);
    }
    by.into_iter().map(|(l, v)| (l, median(&v))).collect()
}

/// Every capture both passes verified reports one fingerprint in both.
fn same_fingerprints(a: &[SessionResult], b: &[SessionResult]) -> bool {
    let prints = |rs: &[SessionResult]| {
        let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for r in rs {
            if let Some(f) = r.fingerprint {
                map.entry(r.label.clone()).or_default().push(f);
            }
        }
        map
    };
    let (a, b) = (prints(a), prints(b));
    let mut compared = 0;
    for (label, fa) in &a {
        if let Some(fb) = b.get(label) {
            if fa.iter().chain(fb).any(|f| *f != fa[0]) {
                return false;
            }
            compared += 1;
        }
    }
    compared > 0
}

/// One logged lane step.
#[derive(Debug, Clone, Copy)]
struct Step {
    worker: u32,
    start: Instant,
    end: Instant,
    kind: LaneStep,
    /// Decode/apply/flush time inside the step.
    inside: LayerCounters,
    /// Requeue (or submit) → this pickup.
    queue_wait: Duration,
    /// Live-feed publication after the step (the daemon's lane task
    /// publishes new violations after every progressing step).
    publish: Duration,
}

/// A `CoopLane` as a pool task that logs each step, mirroring the
/// daemon's lane task.
struct TimedLane {
    lane: CoopLane,
    session: CoopSession,
    /// Violations already published, shared by the session's lanes as the
    /// daemon shares its live-feed cursor.
    cursor: Arc<Mutex<usize>>,
    steps: Vec<Step>,
    last: Instant,
    done: Sender<Vec<Step>>,
}

impl PoolTask for TimedLane {
    fn run(&mut self) -> TaskPoll {
        let start = Instant::now();
        let before = LayerCounters::now();
        let kind = self.lane.step(LANE_BUDGET);
        let end = Instant::now();
        let inside = LayerCounters::now().since(&before);
        let mut publish = Duration::ZERO;
        if matches!(kind, LaneStep::Progressed | LaneStep::Finished | LaneStep::Failed) {
            let t = Instant::now();
            let mut cursor = self.cursor.lock().expect("poisoned");
            let live = self.session.violations_live();
            for v in &live[*cursor..] {
                std::hint::black_box(violation_line(v));
            }
            *cursor = live.len();
            publish = t.elapsed();
        }
        self.steps.push(Step {
            worker: track(),
            start,
            end,
            kind,
            inside,
            queue_wait: start.saturating_duration_since(self.last),
            publish,
        });
        self.last = Instant::now();
        match kind {
            LaneStep::Progressed => TaskPoll::Again,
            LaneStep::Idle | LaneStep::Gated => TaskPoll::AgainIdle,
            LaneStep::Finished | LaneStep::Failed => {
                let _ = self.done.send(std::mem::take(&mut self.steps));
                TaskPoll::Done
            }
        }
    }
}

/// One replica session.
struct Replica {
    label: String,
    error: Option<String>,
    wall_s: f64,
    records: u64,
    steps: Vec<Step>,
    stalls: u64,
    versions_produced: u64,
    versions_consumed: u64,
    versions_peak: usize,
    mode: ReplayMode,
    phases: [u64; 5],
}

fn replica(w: &Workload, cap: &Capture, pool: &WorkerPool, tracer: Option<&Tracer>) -> Replica {
    let factory = TimingFactory::new(Arc::new(w.lifeguard));
    let buffered = Arc::new(SessionBuffer::default());
    let (writers, readers): (Vec<_>, Vec<_>) = (0..cap.threads())
        .map(|_| ByteFeed::pair(Arc::clone(&buffered)))
        .map(|(wr, rd)| (wr, Box::new(rd) as Box<dyn Read + Send>))
        .unzip();
    let source = StreamingReplaySource::new(readers, cap.heap);
    let SourceInput::Streams(streams) = Box::new(source).open() else {
        unreachable!("streaming sources resolve to streams")
    };
    let streams = streams.into_iter().map(TimingStream::wrap).collect();
    let mut out = Replica {
        label: cap.label.clone(),
        error: None,
        wall_s: 0.0,
        records: 0,
        steps: Vec::new(),
        stalls: 0,
        versions_produced: 0,
        versions_consumed: 0,
        versions_peak: 0,
        mode: ReplayMode::CasPerAccess,
        phases: [0; 5],
    };
    let (session, lanes) =
        match CoopSession::start_with_mode(&factory, cap.heap, streams, None, BackendMode::Auto) {
            Ok(s) => s,
            Err(e) => {
                out.error = Some(e.to_string());
                return out;
            }
        };
    out.mode = session.mode();
    let cursor = Arc::new(Mutex::new(0));
    let (done, finished) = channel();
    let lane_count = lanes.len();
    let start = Instant::now();
    for lane in lanes {
        pool.submit(Box::new(TimedLane {
            lane,
            session: session.clone(),
            cursor: Arc::clone(&cursor),
            steps: Vec::new(),
            last: start,
            done: done.clone(),
        }));
    }
    // The feeder plays the pump: frames in plan order, paced like the
    // producer, held back while the session buffers more than the cap. A
    // session that already ended (failed) takes no more bytes.
    let pace = w.pace_rec_per_s;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for frame in &cap.frames {
                if let Some(rate) = pace {
                    let due = start + Duration::from_secs_f64(frame.records_through as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                }
                while buffered.bytes() > SESSION_BUFFER_BYTES && !session.is_complete() {
                    std::thread::sleep(Duration::from_micros(200));
                }
                if session.is_complete() {
                    break;
                }
                writers[frame.tid as usize].write(cap.payload(frame));
            }
            for w in &writers {
                w.close();
            }
        });
        for _ in 0..lane_count {
            match finished.recv_timeout(Duration::from_secs(30)) {
                Ok(steps) => out.steps.extend(steps),
                Err(_) => {
                    session.abort("replica lane never finished");
                    out.error = Some("replica lane never finished".into());
                    break;
                }
            }
        }
    });
    let end = Instant::now();
    out.wall_s = (end - start).as_secs_f64();
    out.versions_peak = session.version_peak_resident();
    // Counters from the live snapshot, so a failed session still shows the
    // work (and the version traffic) it did before failing.
    let snapshot = session.snapshot_metrics();
    out.records = snapshot.records;
    out.stalls = snapshot.dependence_stalls;
    out.versions_produced = snapshot.versions_produced;
    out.versions_consumed = snapshot.versions_consumed;
    if let Some(p) = snapshot.phases {
        out.phases = [p.capture, p.transport, p.order_wait, p.analysis, p.publish];
    }
    match session.report() {
        Some(Ok(metrics)) => {
            let mut lines: Vec<String> = metrics.violations.iter().map(violation_line).collect();
            lines.sort();
            let matches = cap.reference.result.as_ref().is_ok_and(|v| {
                v.fingerprint == metrics.fingerprint
                    && v.records == metrics.records
                    && v.violations == lines
            });
            if !matches && out.error.is_none() {
                out.error = Some(format!("{}: replica disagrees with the reference", cap.label));
            }
        }
        Some(Err(e)) => out.error = Some(format!("{}: {e}", cap.label)),
        None => out.error = out.error.take().or(Some("replica report missing".into())),
    }
    if let Some(tracer) = tracer {
        let id = tracer.reserve();
        for s in &out.steps {
            tracer.span(format!("lane.step {:?}", s.kind), 0, Some(id), s.start, s.end);
        }
        tracer.span_as(id, format!("replica {}", cap.label), 0, None, start, end);
    }
    out
}

/// Replica steps folded into per-layer totals.
#[derive(Debug, Default)]
struct ReplicaTotals {
    outcomes: Outcomes,
    workers: usize,
    wall_s: f64,
    records: u64,
    steps: usize,
    gated: usize,
    idle: usize,
    useful: usize,
    inside: LayerCounters,
    busy_ns: f64,
    gated_ns: f64,
    idle_ns: f64,
    gap_ns: f64,
    publish_ns: f64,
    queue_wait_us: Vec<f64>,
    stalls: u64,
    versions_produced: u64,
    versions_consumed: u64,
    versions_peak: usize,
    delta: bool,
    phases: [u64; 5],
}

impl ReplicaTotals {
    fn of(replicas: &[Replica], workers: usize) -> ReplicaTotals {
        let mut t = ReplicaTotals { workers, ..ReplicaTotals::default() };
        for r in replicas {
            t.outcomes.sessions += 1;
            // A failed replica still counts toward the layers: its steps,
            // stalls and version traffic happened.
            if r.error.is_some() {
                t.outcomes.sessions_failed += 1;
            }
            t.wall_s += r.wall_s;
            t.records += r.records;
            t.stalls += r.stalls;
            t.versions_produced += r.versions_produced;
            t.versions_consumed += r.versions_consumed;
            t.versions_peak = t.versions_peak.max(r.versions_peak);
            t.delta |= r.mode == ReplayMode::DeltaMerge;
            for (acc, p) in t.phases.iter_mut().zip(r.phases) {
                *acc += p;
            }
            let mut last_end: BTreeMap<u32, Instant> = BTreeMap::new();
            let mut steps = r.steps.clone();
            steps.sort_by_key(|s| s.start);
            for s in &steps {
                let ns = (s.end - s.start).as_nanos() as f64;
                let layered = (s.inside.decode_ns + s.inside.apply_ns + s.inside.flush_ns) as f64;
                t.steps += 1;
                t.busy_ns += ns;
                t.inside.add(&s.inside);
                t.publish_ns += s.publish.as_nanos() as f64;
                t.queue_wait_us.push(s.queue_wait.as_nanos() as f64 / 1e3);
                match s.kind {
                    LaneStep::Gated => {
                        t.gated += 1;
                        t.gated_ns += ns - layered;
                    }
                    LaneStep::Idle => {
                        t.idle += 1;
                        t.idle_ns += ns - layered;
                    }
                    _ => {}
                }
                if s.inside.applied > 0 {
                    t.useful += 1;
                }
                // Worker time between two steps on one worker: queue
                // handling, idle back-off sleeps, waiting for work.
                if let Some(prev) = last_end.insert(s.worker, s.end + s.publish) {
                    t.gap_ns += s.start.saturating_duration_since(prev).as_nanos() as f64;
                }
            }
        }
        t
    }

    fn worker_ns(&self) -> f64 {
        (self.workers as f64 * self.wall_s * 1e9).max(1.0)
    }

    /// Steps' own time outside decode, apply, gated and idle steps.
    fn lane_self_ns(&self) -> f64 {
        let layered = (self.inside.decode_ns + self.inside.apply_ns + self.inside.flush_ns) as f64;
        self.busy_ns - layered - self.gated_ns - self.idle_ns
    }

    /// Measured shares of worker time, in the order the Figure-7 table
    /// pairs them with modeled phases.
    fn measured(&self) -> [(&'static str, f64); 6] {
        let w = self.worker_ns();
        [
            ("idle", (self.idle_ns + self.gap_ns) / w),
            ("decode", self.inside.decode_ns as f64 / w),
            ("gated", self.gated_ns / w),
            ("apply", (self.inside.apply_ns + self.inside.flush_ns) as f64 / w),
            ("lane_self", self.lane_self_ns() / w),
            ("publish", self.publish_ns / w),
        ]
    }

    fn residual(&self) -> f64 {
        1.0 - self.measured().iter().map(|(_, v)| v).sum::<f64>()
    }

    fn modeled(&self) -> [(&'static str, f64); 5] {
        let total = self.phases.iter().sum::<u64>().max(1) as f64;
        let names = ["capture", "transport", "order_wait", "analysis", "publish"];
        std::array::from_fn(|i| (names[i], self.phases[i] as f64 / total))
    }

    fn push_metrics(&self, m: &mut Vec<Metric>) {
        let rec = self.records.max(1) as f64;
        let steps = self.steps.max(1) as f64;
        let applied = self.inside.applied.max(1) as f64;
        let queue_wait =
            if self.queue_wait_us.is_empty() { f64::NAN } else { median(&self.queue_wait_us) };
        let rows = [
            ("codec.decode_ns_per_rec", self.inside.decode_ns as f64 / rec, "ns/rec"),
            ("pool.queue_wait_us_p50", queue_wait, "us"),
            ("pool.idle_step_frac", self.idle as f64 / steps, "ratio"),
            ("lane.busy_ns_per_rec", self.busy_ns / rec, "ns/rec"),
            ("lane.self_ns_per_rec", self.lane_self_ns() / rec, "ns/rec"),
            ("lane.gated_step_frac", self.gated as f64 / steps, "ratio"),
            ("lane.useful_step_frac", self.useful as f64 / steps, "ratio"),
            ("order.stalls_per_krec", self.stalls as f64 * 1e3 / rec, "1/krec"),
            ("versions.produced_per_krec", self.versions_produced as f64 * 1e3 / rec, "1/krec"),
            ("versions.consumed_per_krec", self.versions_consumed as f64 * 1e3 / rec, "1/krec"),
            ("versions.peak_resident", self.versions_peak as f64, "chunks"),
            ("lifeguard.apply_ns_per_rec", self.inside.apply_ns as f64 / applied, "ns/rec"),
            ("lifeguard.flush_ns_per_rec", self.inside.flush_ns as f64 / rec, "ns/rec"),
            ("lifeguard.delta_mode", f64::from(u8::from(self.delta)), "bool"),
            ("trace.residual_frac", self.residual(), "ratio"),
        ];
        for (name, value, unit) in rows {
            m.push(Metric::new(name, value, unit, self.steps));
        }
        let shares = self.modeled().map(|(name, v)| (format!("model.share.{name}"), v));
        let measured = self.measured().map(|(name, v)| (format!("measured.share.{name}"), v));
        for (name, share) in shares.into_iter().chain(measured) {
            m.push(Metric::new(name, share, "share", self.steps));
        }
    }

    /// Modeled Figure-7 phases beside the measured layers they stand for;
    /// pairs more than 2x apart are flagged.
    fn figure7_table(&self) -> Vec<String> {
        let measured = self.measured();
        let mut lines = vec![
            "  Figure-7 modeled vs measured (share of time):".to_string(),
            format!("    {:<11} {:>8}   {:<10} {:>8}  flag", "model", "share", "measured", "share"),
        ];
        for (i, (phase, modeled)) in self.modeled().into_iter().enumerate() {
            let (part, share) = measured[i];
            let ratio =
                (modeled.max(1e-9) / share.max(1e-9)).max(share.max(1e-9) / modeled.max(1e-9));
            let flag = if ratio > 2.0 { format!("DIFFERS {ratio:.1}x") } else { String::new() };
            lines.push(format!("    {phase:<11} {modeled:>8.4}   {part:<10} {share:>8.4}  {flag}"));
        }
        let (part, share) = measured[5];
        lines.push(format!("    {:<11} {:>8}   {part:<10} {share:>8.4}", "-", "-"));
        lines
    }
}

struct Drivers {
    runs: usize,
    deterministic_rps: f64,
    threaded_rps: f64,
    threaded_failed: usize,
    first_error: Option<String>,
}

/// `MonitorSession::run` per driver on each capture (at least once each,
/// more while time remains).
fn drivers_pass(w: &Workload, caps: &[Capture], seconds: f64, tracer: &Tracer) -> Drivers {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut d = Drivers {
        runs: 0,
        deterministic_rps: 0.0,
        threaded_rps: 0.0,
        threaded_failed: 0,
        first_error: None,
    };
    let (mut det, mut thr) = ((0u64, 0.0), (0u64, 0.0));
    while d.runs < caps.len() || Instant::now() < deadline {
        let cap = &caps[d.runs % caps.len()];
        d.runs += 1;
        let expected = cap.reference.result.as_ref().ok().map(|v| v.fingerprint);
        for threaded in [false, true] {
            // Decoding happens here, outside the timed run.
            let Ok(source) = ReplaySource::from_encoded(&cap.wire, cap.heap) else {
                continue;
            };
            let builder = MonitorSession::builder()
                .source(source)
                .lifeguard(w.lifeguard)
                .backend_mode(BackendMode::Auto);
            let session = if threaded {
                builder.backend(ThreadedBackend).build()
            } else {
                builder.backend(DeterministicBackend).build()
            };
            let Ok(session) = session else { continue };
            let t = Instant::now();
            let outcome = session.run();
            let end = Instant::now();
            let name = if threaded { "driver.threaded" } else { "driver.deterministic" };
            tracer.span(format!("{name} {}", cap.label), 0, None, t, end);
            let secs = (end - t).as_secs_f64();
            let ok = matches!(&outcome, Ok(o) if Some(o.metrics.fingerprint) == expected);
            match (threaded, ok) {
                (false, _) => {
                    det.0 += cap.records;
                    det.1 += secs;
                }
                (true, true) => {
                    thr.0 += cap.records;
                    thr.1 += secs;
                }
                (true, false) => {
                    d.threaded_failed += 1;
                    if d.first_error.is_none() {
                        d.first_error = Some(match outcome {
                            Err(e) => format!("{}: {e}", cap.label),
                            Ok(_) => {
                                format!("{}: fingerprint differs from the reference", cap.label)
                            }
                        });
                    }
                }
            }
        }
    }
    d.deterministic_rps = if det.1 > 0.0 { det.0 as f64 / det.1 } else { 0.0 };
    d.threaded_rps = if thr.1 > 0.0 { thr.0 as f64 / thr.1 } else { 0.0 };
    d
}
