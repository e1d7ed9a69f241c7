//! Workloads, seeded capture generation, the causal frame plan, and the
//! deterministic reference every daemon session is checked against.

use paralog_core::{
    DeterministicBackend, MonitorConfig, MonitorSession, MonitoringMode, Platform, ReplaySource,
};
use paralog_events::codec::Encoder;
use paralog_events::{AddrRange, EventPayload, EventRecord, VersionId};
use paralog_lifeguards::{LifeguardFactory, LifeguardKind, Violation};
use paralog_order::CaPolicy;
use paralog_workloads::{Benchmark, WorkloadSpec};
use std::collections::HashMap;
use std::time::Instant;

/// Records per frame in the causal send order ("a few dozen").
pub const FRAME_RECORDS: usize = 32;

/// One named benchmark workload: a `WorkloadSpec` preset plus how the
/// producer feeds it.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    spec: WorkloadSpec,
    pub lifeguard: LifeguardKind,
    pub tso: bool,
    /// Open-loop record rate; `None` is a closed loop (as fast as
    /// back-pressure allows).
    pub pace_rec_per_s: Option<f64>,
}

impl Workload {
    pub fn all() -> Vec<Workload> {
        vec![
            Workload {
                name: "ingest",
                why: "cheap byte-shadow apply, few arcs: decode, socket, pump, ByteFeed and pool dominate",
                spec: WorkloadSpec::benchmark(Benchmark::Blackscholes, 4)
                    .scale(1.0)
                    .inject_bugs(true),
                lifeguard: LifeguardKind::TaintCheck,
                tso: false,
                pace_rec_per_s: None,
            },
            Workload {
                name: "race",
                why: "arc gating, WordTable apply and violation publication dominate \
                      (some sessions fail the reference check; see NOTES.md)",
                spec: WorkloadSpec::benchmark(Benchmark::Radiosity, 4)
                    .scale(1.0)
                    .zipf(1.2)
                    .race_rate(0.002),
                lifeguard: LifeguardKind::HappensBefore,
                tso: false,
                pace_rec_per_s: None,
            },
            Workload {
                name: "fleet",
                why: "16 lanes on 2 workers, paced open loop: per-session set-up, idle wake-ups, CA gates, delta-merge",
                spec: WorkloadSpec::benchmark(Benchmark::Swaptions, 16)
                    .scale(0.1)
                    .inject_bugs(true),
                lifeguard: LifeguardKind::MemCheck,
                tso: false,
                pace_rec_per_s: Some(500_000.0),
            },
            Workload {
                name: "tso",
                why: "the only workload with section 5.5 version traffic \
                      (every session deadlocks; see NOTES.md)",
                spec: WorkloadSpec::benchmark(Benchmark::Radiosity, 4)
                    .scale(0.25)
                    .zipf(1.2),
                lifeguard: LifeguardKind::TaintCheck,
                tso: true,
                pace_rec_per_s: None,
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// Co-simulates input `index` of a run seeded with `seed` and returns
    /// its annotated per-thread streams and heap.
    pub fn record_streams(&self, seed: u64, index: u64) -> (Vec<Vec<EventRecord>>, AddrRange) {
        let workload = self.spec.clone().seed(derive_seed(seed, index)).build();
        let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, self.lifeguard);
        if self.tso {
            cfg = cfg.with_tso();
        }
        cfg.collect_streams = true;
        let streams =
            Platform::run(&workload, &cfg).metrics.streams.expect("stream collection enabled");
        (streams, workload.heap)
    }

    /// Captures, encodes, plans and reference-replays input `index` of a
    /// run seeded with `seed`. Only the wire form is kept.
    pub fn capture(&self, seed: u64, index: u64) -> Capture {
        let t = Instant::now();
        let (streams, heap) = self.record_streams(seed, index);
        let capture_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut wire = Vec::with_capacity(streams.len());
        let mut offsets = Vec::with_capacity(streams.len());
        for stream in &streams {
            let mut enc = Encoder::new();
            let mut ends = Vec::with_capacity(stream.len() + 1);
            ends.push(0);
            for rec in stream {
                enc.push(rec);
                ends.push(enc.bytes());
            }
            wire.push(enc.finish());
            offsets.push(ends);
        }
        let encode_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let reference = Reference::replay(self.lifeguard, &streams, heap);
        let reference_s = t.elapsed().as_secs_f64();

        let ca_policy = self
            .lifeguard
            .concurrent(heap, streams.len())
            .map(|l| l.ca_policy())
            .unwrap_or_default();
        let plan = plan_frames(&streams, FRAME_RECORDS, &ca_policy);
        let mut frames = Vec::with_capacity(plan.frames.len());
        let mut rec_frame: Vec<Vec<u32>> = streams.iter().map(|s| vec![0; s.len()]).collect();
        let mut cumulative = 0u64;
        for (i, &(tid, a, b)) in plan.frames.iter().enumerate() {
            cumulative += (b - a) as u64;
            rec_frame[tid][a..b].fill(i as u32);
            frames.push(Frame {
                tid: tid as u16,
                bytes: offsets[tid][a]..offsets[tid][b],
                records_through: cumulative,
            });
        }
        Capture {
            label: format!("{}#{index}", self.name),
            heap,
            records: cumulative,
            rids: streams.iter().map(|s| s.iter().map(|r| r.rid.0).collect()).collect(),
            wire,
            frames,
            rec_frame,
            relaxed: plan.relaxed,
            forced: plan.forced,
            reference,
            timings: SetupTimings { capture_s, encode_s, reference_s },
        }
    }
}

/// SplitMix64 of the run seed and the capture index: distinct captures per
/// run, identical across runs with the same seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    pub capture_s: f64,
    pub encode_s: f64,
    pub reference_s: f64,
}

impl SetupTimings {
    pub fn total(&self) -> f64 {
        self.capture_s + self.encode_s + self.reference_s
    }
}

/// One data frame of the send plan: a contiguous byte run of one thread's
/// wire stream, ending on a record boundary.
#[derive(Debug, Clone)]
pub struct Frame {
    pub tid: u16,
    pub bytes: std::ops::Range<usize>,
    /// Records written once this frame is (the open-loop schedule key).
    pub records_through: u64,
}

/// One session's input, ready to stream.
#[derive(Debug)]
pub struct Capture {
    pub label: String,
    pub heap: AddrRange,
    pub records: u64,
    /// Codec wire bytes, one stream per thread.
    pub wire: Vec<Vec<u8>>,
    pub frames: Vec<Frame>,
    /// Per thread: the rid of each record, and the frame completing it.
    rids: Vec<Vec<u64>>,
    rec_frame: Vec<Vec<u32>>,
    /// The plan's `relaxed` and `forced` counts (see [`FramePlan`]).
    pub relaxed: usize,
    pub forced: usize,
    pub reference: Reference,
    pub timings: SetupTimings,
}

impl Capture {
    pub fn threads(&self) -> usize {
        self.wire.len()
    }

    pub fn wire_bytes(&self) -> usize {
        self.wire.iter().map(Vec::len).sum()
    }

    pub fn payload(&self, frame: &Frame) -> &[u8] {
        &self.wire[frame.tid as usize][frame.bytes.clone()]
    }

    /// Index of the frame that completes thread `tid`'s record `rid`.
    pub fn frame_of(&self, tid: usize, rid: u64) -> Option<usize> {
        let rids = self.rids.get(tid)?;
        let i = rids.binary_search(&rid).ok()?;
        Some(self.rec_frame[tid][i] as usize)
    }
}

/// The `DeterministicBackend` replay of a capture: the verdict every
/// daemon session must reproduce.
#[derive(Debug, Clone)]
pub struct Reference {
    pub result: Result<ReferenceVerdict, String>,
}

#[derive(Debug, Clone)]
pub struct ReferenceVerdict {
    pub records: u64,
    pub fingerprint: u64,
    /// WATCH-format violation lines, sorted (a multiset).
    pub violations: Vec<String>,
    pub versions_produced: u64,
    pub versions_consumed: u64,
}

impl Reference {
    pub fn replay(kind: LifeguardKind, streams: &[Vec<EventRecord>], heap: AddrRange) -> Self {
        let result = MonitorSession::builder()
            .source(ReplaySource::new(streams.to_vec(), heap))
            .lifeguard(kind)
            .backend(DeterministicBackend)
            .build()
            .and_then(|s| s.run())
            .map(|o| {
                let m = o.metrics;
                let mut violations: Vec<String> = m.violations.iter().map(violation_line).collect();
                violations.sort();
                ReferenceVerdict {
                    records: m.records,
                    fingerprint: m.fingerprint,
                    violations,
                    versions_produced: m.versions_produced,
                    versions_consumed: m.versions_consumed,
                }
            })
            .map_err(|e| e.to_string());
        Reference { result }
    }

    pub fn violations(&self) -> usize {
        self.result.as_ref().map_or(0, |r| r.violations.len())
    }
}

/// The daemon's WATCH rendering of a violation.
pub fn violation_line(v: &Violation) -> String {
    match v.addr {
        Some(addr) => format!("violation {} {} {:#x} {}", v.tid.0, v.rid.0, addr, v.kind),
        None => format!("violation {} {} - {}", v.tid.0, v.rid.0, v.kind),
    }
}

/// The causal send order: frames of up to `per_frame` records, one thread
/// each, round-robin over threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramePlan {
    /// `(thread, first record index, end record index)`.
    pub frames: Vec<(usize, usize, usize)>,
    /// Records sent before the producer of a §5.5 version they consume,
    /// because waiting would close a cycle with the dependence arcs.
    pub relaxed: usize,
    /// Records sent with an arc or ConflictAlert dependence still unsent
    /// (zero for any capture a deterministic replay accepts).
    pub forced: usize,
}

/// What a record must follow, as `(thread, rid)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dependencies {
    /// Its dependence arcs and, for a remote ConflictAlert copy the
    /// lifeguard serializes (barrier or range-tracking classes), the
    /// issuer's copy.
    pub hard: Vec<(usize, u64)>,
    /// The producer of the §5.5 version it consumes.
    pub version: Option<(usize, u64)>,
}

/// The records `rec` (of thread `tid`) must follow.
pub fn dependencies(
    tid: usize,
    rec: &EventRecord,
    producers: &HashMap<VersionId, (usize, u64)>,
    ca_policy: &CaPolicy,
) -> Dependencies {
    let mut hard: Vec<(usize, u64)> =
        rec.arcs.iter().map(|a| (a.src.index(), a.src_rid.0)).collect();
    // The same rule the replay drivers gate remote copies on; flush-only
    // classes order through data arcs, and `seq == u64::MAX` marks an
    // own-stream-only record.
    if let EventPayload::Ca(ca) = &rec.payload {
        let actions = ca_policy.actions(ca.what, ca.phase);
        if ca.seq != u64::MAX && (actions.barrier || actions.track_range) {
            hard.push((ca.issuer.index(), ca.issuer_rid.0));
        }
    }
    hard.retain(|&(t, _)| t != tid);
    let version = rec
        .consume_version
        .as_ref()
        .and_then(|(vid, _)| producers.get(vid).copied())
        .filter(|&(t, _)| t != tid);
    Dependencies { hard, version }
}

/// Where each §5.5 version is produced.
pub fn version_producers(streams: &[Vec<EventRecord>]) -> HashMap<VersionId, (usize, u64)> {
    let mut producers = HashMap::new();
    for (t, stream) in streams.iter().enumerate() {
        for rec in stream {
            for (vid, _, _) in &rec.produce_versions {
                producers.insert(*vid, (t, rec.rid.0));
            }
        }
    }
    producers
}

/// Plans frames so that every record is written only after the records it
/// depends on. Greedy: each round visits every thread and takes up to
/// `per_frame` records whose dependencies were already planned. When no
/// thread can advance, one record whose only unsent dependence is a
/// version producer goes out alone (counted in `relaxed`).
pub fn plan_frames(
    streams: &[Vec<EventRecord>],
    per_frame: usize,
    ca_policy: &CaPolicy,
) -> FramePlan {
    let producers = version_producers(streams);
    let deps: Vec<Vec<Dependencies>> = streams
        .iter()
        .enumerate()
        .map(|(t, s)| s.iter().map(|r| dependencies(t, r, &producers, ca_policy)).collect())
        .collect();
    let mut sent = vec![0usize; streams.len()];
    let through = |sent: &[usize], &(t, rid): &(usize, u64)| {
        sent[t] > 0 && streams[t][sent[t] - 1].rid.0 >= rid
    };
    let hard_ready =
        |sent: &[usize], t: usize| deps[t][sent[t]].hard.iter().all(|d| through(sent, d));
    let mut plan = FramePlan { frames: Vec::new(), relaxed: 0, forced: 0 };
    loop {
        let mut progressed = false;
        for t in 0..streams.len() {
            let a = sent[t];
            while sent[t] < streams[t].len()
                && sent[t] - a < per_frame
                && hard_ready(&sent, t)
                && deps[t][sent[t]].version.iter().all(|d| through(&sent, d))
            {
                sent[t] += 1;
            }
            if sent[t] > a {
                plan.frames.push((t, a, sent[t]));
                progressed = true;
            }
        }
        let open: Vec<usize> = (0..streams.len()).filter(|&t| sent[t] < streams[t].len()).collect();
        if open.is_empty() {
            break;
        }
        if !progressed {
            let (t, counter) = match open.iter().find(|&&t| hard_ready(&sent, t)) {
                Some(&t) => (t, &mut plan.relaxed),
                // A dependence names a record that never comes: send anyway
                // so the daemon, not the harness, rules on the capture.
                None => (open[0], &mut plan.forced),
            };
            plan.frames.push((t, sent[t], sent[t] + 1));
            sent[t] += 1;
            *counter += 1;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_events::{ArcKind, DependenceArc, Instr, Rid, ThreadId};

    /// Checks the causal-order property: every arc and ConflictAlert
    /// dependency of every record was planned in an earlier frame, and every
    /// version dependency too, except on the plan's `relaxed` records.
    fn assert_causal(streams: &[Vec<EventRecord>], plan: &FramePlan, ca_policy: &CaPolicy) {
        let producers = version_producers(streams);
        let mut sent = vec![0usize; streams.len()];
        let mut early_consumers = 0;
        for &(t, a, b) in &plan.frames {
            assert_eq!(a, sent[t], "frames of one thread are contiguous");
            for i in a..b {
                let through = |&(src, rid): &(usize, u64)| {
                    sent[src] > 0 && streams[src][sent[src] - 1].rid.0 >= rid
                };
                let deps = dependencies(t, &streams[t][i], &producers, ca_policy);
                for d in &deps.hard {
                    assert!(through(d), "thread {t} record {i} sent before {d:?}");
                }
                if !deps.version.iter().all(through) {
                    assert_eq!(b - a, 1, "a relaxed record goes out alone");
                    early_consumers += 1;
                }
            }
            sent[t] = b;
        }
        assert_eq!(early_consumers, plan.relaxed);
        for (t, s) in streams.iter().enumerate() {
            assert_eq!(sent[t], s.len(), "every record planned");
        }
    }

    fn nops(n: u64) -> Vec<EventRecord> {
        (1..=n).map(|i| EventRecord::instr(Rid(i), Instr::Nop)).collect()
    }

    #[test]
    fn arcs_hold_back_the_dependent_record() {
        // Thread 0's record 2 waits on thread 1's record 40, which itself
        // sits past the first frame of thread 1.
        let mut t0 = nops(4);
        t0[1].arcs.push(DependenceArc::new(ThreadId(1), Rid(40), ArcKind::Raw));
        let t1 = nops(50);
        let streams = vec![t0, t1];
        let plan = plan_frames(&streams, 32, &CaPolicy::new());
        assert_eq!((plan.forced, plan.relaxed), (0, 0));
        assert_eq!(plan.frames[0], (0, 0, 1), "stops before the gated record");
        assert_causal(&streams, &plan, &CaPolicy::new());
    }

    #[test]
    fn consumers_follow_their_version_producer() {
        let vid = VersionId { consumer: ThreadId(0), consumer_rid: Rid(2) };
        let mem = paralog_events::MemRef::new(0x100, 4);
        let mut t0 = nops(3);
        t0[1].consume_version = Some((vid, mem));
        let mut t1 = nops(40);
        t1[35].produce_versions.push((vid, mem, 1));
        let streams = vec![t0, t1];
        let plan = plan_frames(&streams, 32, &CaPolicy::new());
        assert_eq!((plan.forced, plan.relaxed), (0, 0));
        assert_causal(&streams, &plan, &CaPolicy::new());
        // A producer that itself waits (by arc) on the consumer's thread
        // past the consumer closes a cycle: the consumer is released early.
        let mut t1 = nops(40);
        t1[35].produce_versions.push((vid, mem, 1));
        t1[35].arcs.push(DependenceArc::new(ThreadId(0), Rid(3), ArcKind::War));
        let streams = vec![streams[0].clone(), t1];
        let plan = plan_frames(&streams, 32, &CaPolicy::new());
        assert_eq!((plan.forced, plan.relaxed), (0, 1));
        assert_causal(&streams, &plan, &CaPolicy::new());
    }

    #[test]
    fn unsatisfiable_arcs_are_forced_not_looped() {
        let mut t0 = nops(2);
        t0[0].arcs.push(DependenceArc::new(ThreadId(1), Rid(99), ArcKind::Raw));
        let plan = plan_frames(&[t0, nops(3)], 32, &CaPolicy::new());
        assert_eq!((plan.forced, plan.relaxed), (1, 0));
    }

    #[test]
    fn captured_streams_plan_causally() {
        for name in ["race", "fleet", "tso"] {
            let mut w = Workload::by_name(name).unwrap();
            w.spec = w.spec.scale(0.05);
            let (streams, heap) = w.record_streams(7, 0);
            let ca_policy = w.lifeguard.concurrent(heap, streams.len()).unwrap().ca_policy();
            let plan = plan_frames(&streams, FRAME_RECORDS, &ca_policy);
            assert_eq!(plan.forced, 0, "{name}");
            if !w.tso {
                assert_eq!(plan.relaxed, 0, "{name}: SC captures carry no versions");
            }
            assert_causal(&streams, &plan, &ca_policy);
            assert!(plan.frames.iter().all(|&(_, a, b)| b - a <= FRAME_RECORDS));
        }
    }

    #[test]
    fn frame_lookup_finds_the_completing_frame() {
        let mut w = Workload::by_name("ingest").unwrap();
        w.spec = w.spec.scale(0.05);
        let cap = w.capture(3, 0);
        let (streams, _) = w.record_streams(3, 0);
        for (t, stream) in streams.iter().enumerate() {
            for rec in stream.iter().step_by(97) {
                let f = &cap.frames[cap.frame_of(t, rec.rid.0).unwrap()];
                assert_eq!(f.tid as usize, t);
                assert!(f.bytes.end <= cap.wire[t].len());
            }
        }
        assert_eq!(cap.records, streams.iter().map(|s| s.len() as u64).sum::<u64>());
    }

    #[test]
    fn seeds_are_reproducible_and_distinct() {
        assert_eq!(derive_seed(5, 1), derive_seed(5, 1));
        assert_ne!(derive_seed(5, 1), derive_seed(5, 2));
        assert_ne!(derive_seed(5, 1), derive_seed(6, 1));
    }
}
