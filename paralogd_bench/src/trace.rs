//! In-memory spans written out as Chrome trace-event JSON, per-thread
//! layer counters, and the timing wrappers that feed them.
//!
//! The wrappers sit at layer boundaries the benchmark can reach from its
//! own code: a [`TimingFactory`] around any `LifeguardFactory` (times
//! `apply`, `apply_delta`, `flush_delta`) and a [`TimingStream`] around a
//! `RecordStream` (times `next_batch`, i.e. transport read plus decode).
//! Both add into thread-local [`LayerCounters`], so a pool-task wrapper can
//! attribute each lane step's time by reading the counters before and
//! after the step, without one span per record.

use paralog_core::{RecordStream, SessionError, StreamStatus};
use paralog_events::{AddrRange, EventRecord, Rid, ThreadId};
use paralog_lifeguards::{
    ConcurrentLifeguard, DeltaLifeguard, LifeguardFactory, LifeguardFamily, LifeguardKind,
    MetadataShape, ReplayMode, SessionEvent, SessionEventObserver, VersionedMeta, Violation,
};
use paralog_order::{CaPolicy, RangeEntry};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cap on recorded trace events; later ones are counted, not kept.
const MAX_EVENTS: usize = 200_000;

#[derive(Debug, Clone)]
struct Event {
    name: String,
    /// `'X'` (complete span) or `'i'` (instant).
    phase: char,
    start_ns: u64,
    dur_ns: u64,
    id: u64,
    parent: Option<u64>,
    session: u64,
    track: u32,
}

/// Collects spans in memory; [`Tracer::write_chrome`] renders them.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    events: Mutex<Vec<Event>>,
    next_id: AtomicU64,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer whose timestamps count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, event: Event) {
        let mut events = self.events.lock().expect("poisoned");
        if events.len() < MAX_EVENTS {
            events.push(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reserves a span id, so children recorded first can name their
    /// parent before it ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span and returns its id.
    pub fn span(
        &self,
        name: impl Into<String>,
        session: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.span_as(id, name, session, parent, start, end);
        id
    }

    /// Records a finished span under a [`reserve`](Self::reserve)d id.
    pub fn span_as(
        &self,
        id: u64,
        name: impl Into<String>,
        session: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        self.push(Event {
            name: name.into(),
            phase: 'X',
            start_ns: self.ns(start),
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            id,
            parent,
            session,
            track: track(),
        });
    }

    /// Records a point event (a WATCH line as it was read).
    pub fn instant(&self, name: impl Into<String>, session: u64, parent: Option<u64>, at: Instant) {
        let id = self.reserve();
        self.push(Event {
            name: name.into(),
            phase: 'i',
            start_ns: self.ns(at),
            dur_ns: 0,
            id,
            parent,
            session,
            track: track(),
        });
    }

    pub fn len(&self) -> usize {
        self.events.lock().expect("poisoned").len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes every kept event as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let events = self.events.lock().expect("poisoned");
        let mut out = String::with_capacity(events.len() * 120 + 64);
        out.push_str("{\"traceEvents\":[\n");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
                crate::stats::json_string(&e.name),
                e.phase,
                e.start_ns as f64 / 1e3,
                e.track
            );
            if e.phase == 'X' {
                let _ = write!(out, ",\"dur\":{:.3}", e.dur_ns as f64 / 1e3);
            } else {
                out.push_str(",\"s\":\"t\"");
            }
            let _ = write!(out, ",\"args\":{{\"id\":{},\"session\":{}", e.id, e.session);
            if let Some(p) = e.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        std::fs::write(path, out)
    }
}

thread_local! {
    static TRACK: Cell<u32> = const { Cell::new(0) };
    static COUNTERS: Cell<LayerCounters> = const { Cell::new(LayerCounters::ZERO) };
}

/// A small per-OS-thread id for the trace's `tid` column.
pub fn track() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    TRACK.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Monotone per-thread totals of time spent inside wrapped layer calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounters {
    pub decode_ns: u64,
    pub decoded: u64,
    pub apply_ns: u64,
    pub applied: u64,
    pub flush_ns: u64,
    pub flushes: u64,
}

impl LayerCounters {
    const ZERO: LayerCounters = LayerCounters {
        decode_ns: 0,
        decoded: 0,
        apply_ns: 0,
        applied: 0,
        flush_ns: 0,
        flushes: 0,
    };

    /// This thread's totals so far.
    pub fn now() -> LayerCounters {
        COUNTERS.with(Cell::get)
    }

    pub fn since(&self, earlier: &LayerCounters) -> LayerCounters {
        LayerCounters {
            decode_ns: self.decode_ns - earlier.decode_ns,
            decoded: self.decoded - earlier.decoded,
            apply_ns: self.apply_ns - earlier.apply_ns,
            applied: self.applied - earlier.applied,
            flush_ns: self.flush_ns - earlier.flush_ns,
            flushes: self.flushes - earlier.flushes,
        }
    }

    pub fn add(&mut self, other: &LayerCounters) {
        self.decode_ns += other.decode_ns;
        self.decoded += other.decoded;
        self.apply_ns += other.apply_ns;
        self.applied += other.applied;
        self.flush_ns += other.flush_ns;
        self.flushes += other.flushes;
    }
}

fn bump(f: impl FnOnce(&mut LayerCounters)) {
    COUNTERS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

/// Wraps a `RecordStream`, timing each `next_batch` (transport read plus
/// decode) into the calling thread's counters.
#[derive(Debug)]
pub struct TimingStream {
    inner: Box<dyn RecordStream>,
}

impl TimingStream {
    pub fn wrap(inner: Box<dyn RecordStream>) -> Box<dyn RecordStream> {
        Box::new(TimingStream { inner })
    }
}

impl RecordStream for TimingStream {
    fn next_batch(
        &mut self,
        out: &mut Vec<EventRecord>,
        max: usize,
    ) -> Result<StreamStatus, SessionError> {
        let before = out.len();
        let t = Instant::now();
        let status = self.inner.next_batch(out, max);
        let ns = t.elapsed().as_nanos() as u64;
        let got = (out.len() - before) as u64;
        bump(|c| {
            c.decode_ns += ns;
            c.decoded += got;
        });
        status
    }

    fn transport_bytes(&self) -> u64 {
        self.inner.transport_bytes()
    }
}

/// Wraps a `LifeguardFactory` so the lifeguards it builds time their
/// apply and flush calls. Every trait method is forwarded, the defaulted
/// ones included, so mode resolution, metadata shape and reclamation
/// behave exactly as with the wrapped factory.
#[derive(Debug, Clone)]
pub struct TimingFactory {
    inner: Arc<dyn LifeguardFactory>,
}

impl TimingFactory {
    pub fn new(inner: Arc<dyn LifeguardFactory>) -> TimingFactory {
        TimingFactory { inner }
    }
}

impl LifeguardFactory for TimingFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(&self, heap: AddrRange) -> LifeguardFamily {
        self.inner.build(heap)
    }

    fn concurrent(&self, heap: AddrRange, threads: usize) -> Option<Box<dyn ConcurrentLifeguard>> {
        let inner = self.inner.concurrent(heap, threads)?;
        Some(Box::new(TimedConcurrent { inner }))
    }

    fn concurrent_delta(&self, heap: AddrRange, threads: usize) -> Option<Box<dyn DeltaLifeguard>> {
        let inner = self.inner.concurrent_delta(heap, threads)?;
        Some(Box::new(TimedDelta { inner }))
    }

    fn preferred_mode(&self, threads: usize) -> ReplayMode {
        self.inner.preferred_mode(threads)
    }

    fn builtin_kind(&self) -> Option<LifeguardKind> {
        self.inner.builtin_kind()
    }

    fn metadata_shape(&self) -> MetadataShape {
        self.inner.metadata_shape()
    }
}

#[derive(Debug)]
struct TimedConcurrent {
    inner: Box<dyn ConcurrentLifeguard>,
}

#[derive(Debug)]
struct TimedDelta {
    inner: Box<dyn DeltaLifeguard>,
}

fn timed_apply(f: impl FnOnce()) {
    let t = Instant::now();
    f();
    let ns = t.elapsed().as_nanos() as u64;
    bump(|c| {
        c.apply_ns += ns;
        c.applied += 1;
    });
}

/// Forwards every `ConcurrentLifeguard` method to `self.inner`, timing
/// `apply`.
macro_rules! forward_concurrent {
    ($ty:ty) => {
        impl ConcurrentLifeguard for $ty {
            fn apply(&self, tid: ThreadId, rec: &EventRecord, versioned: Option<&VersionedMeta>) {
                timed_apply(|| self.inner.apply(tid, rec, versioned));
            }

            fn ca_policy(&self) -> CaPolicy {
                self.inner.ca_policy()
            }

            fn on_syscall_race(
                &self,
                tid: ThreadId,
                access: AddrRange,
                entry: &RangeEntry,
                rid: Rid,
            ) {
                self.inner.on_syscall_race(tid, access, entry, rid);
            }

            fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
                self.inner.snapshot_meta(range)
            }

            fn fingerprint(&self) -> u64 {
                self.inner.fingerprint()
            }

            fn violations(&self) -> Vec<Violation> {
                self.inner.violations()
            }

            fn epoch_boundary(&self, tid: ThreadId) {
                self.inner.epoch_boundary(tid);
            }

            fn stream_done(&self, tid: ThreadId) {
                self.inner.stream_done(tid);
            }

            fn session_events(&self) -> Vec<SessionEvent> {
                self.inner.session_events()
            }

            fn set_event_observer(&self, observer: SessionEventObserver) {
                self.inner.set_event_observer(observer);
            }
        }
    };
}

forward_concurrent!(TimedConcurrent);
forward_concurrent!(TimedDelta);

impl DeltaLifeguard for TimedDelta {
    fn apply_delta(&self, tid: ThreadId, rec: &EventRecord, versioned: Option<&VersionedMeta>) {
        timed_apply(|| self.inner.apply_delta(tid, rec, versioned));
    }

    fn flush_delta(&self, tid: ThreadId) {
        let t = Instant::now();
        self.inner.flush_delta(tid);
        let ns = t.elapsed().as_nanos() as u64;
        bump(|c| {
            c.flush_ns += ns;
            c.flushes += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_core::{BackendMode, CoopSession, LaneStep, StreamingReplaySource};
    use paralog_core::{EventSource, SourceInput};

    /// Steps every lane to completion on the calling thread.
    fn drive(
        factory: &dyn LifeguardFactory,
        wire: &[Vec<u8>],
        heap: AddrRange,
        wrap_streams: bool,
    ) -> (u64, Vec<Violation>, ReplayMode, u64) {
        let source = StreamingReplaySource::from_encoded(wire.to_vec(), heap);
        let SourceInput::Streams(mut streams) = Box::new(source).open() else {
            unreachable!("streaming sources resolve to streams")
        };
        if wrap_streams {
            streams = streams.into_iter().map(TimingStream::wrap).collect();
        }
        let (session, mut lanes) =
            CoopSession::start_with_mode(factory, heap, streams, None, BackendMode::Auto).unwrap();
        let mut live = lanes.len();
        while live > 0 {
            live = 0;
            for lane in &mut lanes {
                if !matches!(lane.step(512), LaneStep::Finished | LaneStep::Failed) {
                    live += 1;
                }
            }
        }
        let m = session.report().unwrap().unwrap();
        let mut v = m.violations.clone();
        v.sort_by_key(|v| (v.tid.0, v.rid.0));
        (m.fingerprint, v, session.mode(), session.version_reclaimed())
    }

    #[test]
    fn wrapped_runs_match_unwrapped() {
        use crate::spec::Workload;
        let cases = [
            ("fleet", ReplayMode::DeltaMerge),
            ("race", ReplayMode::CasPerAccess),
            ("ingest", ReplayMode::CasPerAccess),
        ];
        for (name, mode) in cases {
            let w = Workload::by_name(name).unwrap();
            let cap = w.capture(11, 0);
            let plain: Arc<dyn LifeguardFactory> = Arc::new(w.lifeguard);
            let timed = TimingFactory::new(Arc::clone(&plain));
            let before = LayerCounters::now();
            let a = drive(plain.as_ref(), &cap.wire, cap.heap, false);
            let b = drive(&timed, &cap.wire, cap.heap, true);
            let used = LayerCounters::now().since(&before);
            assert_eq!(a.0, b.0, "{name}: fingerprint");
            assert_eq!(a.1, b.1, "{name}: violations");
            assert_eq!(a.2, b.2, "{name}: resolved mode");
            assert_eq!(a.2, mode, "{name}: Auto resolves as the factory prefers");
            assert_eq!(a.3, b.3, "{name}: reclamation");
            assert_eq!(used.applied, cap.records, "{name}: every record applied");
            assert_eq!(used.decoded, cap.records, "{name}: every record decoded");
            if mode == ReplayMode::DeltaMerge {
                assert!(used.flushes > 0, "{name}: delta flushes forwarded");
            }
            let verdict = cap.reference.result.as_ref().unwrap();
            assert_eq!(a.0, verdict.fingerprint, "{name}: matches the reference");
        }
    }
}
