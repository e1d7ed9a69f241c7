//! Streaming ingestion: incremental, bounded-memory event sources.
//!
//! The tentpole invariants:
//!
//! * streaming a codec-encoded log through `StreamingReplaySource` on both
//!   backends produces fingerprints and violations **identical** to the
//!   buffered `ReplaySource` path;
//! * source-side resident buffering stays within the configured chunk
//!   budget even for large streams (asserted against the source's
//!   high-water stats);
//! * the incremental decoder is split-point oblivious (property test over
//!   random chunkings);
//! * a stream truncated at a record boundary still reports `Deadlock`
//!   rather than hanging, on both backends; one truncated mid-record
//!   reports `MalformedStream`;
//! * a bounded, back-pressured push feed drives a live session from a
//!   producer thread and matches the equivalent buffered run;
//! * lanes publish their applied-record count by the end of every step,
//!   including a step that also drains the stream, so live readings and
//!   the final report never miss a delivered record.

use paralog::core::{
    BackendMode, CoopSession, DeterministicBackend, EventSource, LaneStep, MonitorConfig,
    MonitorSession, MonitoringMode, Platform, PushSource, RecordStream, ReplaySource, SessionError,
    SourceInput, StreamStatus, StreamingReplaySource, ThreadedBackend,
};
use paralog::events::codec::{encode, StreamDecoder};
use paralog::events::{
    AddrRange, ArcKind, CaPhase, CaRecord, DependenceArc, EventRecord, HighLevelKind, Instr,
    MemRef, Reg, Rid, SyscallKind, ThreadId,
};
use paralog::lifeguards::{LifeguardKind, Violation, ViolationKind};
use paralog::workloads::{Benchmark, Workload, WorkloadSpec};
use proptest::prelude::*;

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

/// Captures a workload's annotated streams plus the live run's metrics.
fn capture(
    bench: Benchmark,
    threads: usize,
) -> (Workload, Vec<Vec<EventRecord>>, u64, Vec<Violation>) {
    let w = workload(bench, threads);
    let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
    cfg.collect_streams = true;
    let live = Platform::run(&w, &cfg).metrics;
    let streams = live.streams.clone().expect("collection enabled");
    (w, streams, live.fingerprint, live.violations)
}

#[test]
fn streaming_replay_matches_buffered_on_both_backends() {
    let (w, streams, live_fp, live_violations) = capture(Benchmark::Barnes, 4);
    let total: usize = streams.iter().map(Vec::len).sum();
    let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();

    // Buffered baseline.
    let buffered = MonitorSession::builder()
        .source(ReplaySource::new(streams, w.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(buffered.metrics.fingerprint, live_fp);

    // Streaming through the deterministic backend, small chunks.
    let src = StreamingReplaySource::from_encoded(encoded.clone(), w.heap).with_chunk_bytes(512);
    let stats = src.stats();
    let det = MonitorSession::builder()
        .source(src)
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(det.metrics.fingerprint, live_fp, "streamed != buffered");
    assert_eq!(det.metrics.records, total as u64);
    assert_eq!(
        violation_keys(&det.metrics.violations),
        violation_keys(&live_violations)
    );
    assert!(
        stats.peak_buffered_bytes() <= 2 * 512,
        "decode residency {} blew the 512-byte chunk budget",
        stats.peak_buffered_bytes()
    );

    // Streaming through the real-thread backend.
    let src = StreamingReplaySource::from_encoded(encoded, w.heap).with_chunk_bytes(512);
    let thr = MonitorSession::builder()
        .source(src)
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(thr.metrics.fingerprint, live_fp, "threaded streamed replay");
    assert_eq!(
        violation_keys(&thr.metrics.violations),
        violation_keys(&live_violations)
    );
}

#[test]
fn large_stream_stays_within_memory_cap() {
    // ~200k records in one thread: far larger than the 4 KiB cap, so the
    // bound only holds if decoding is genuinely incremental.
    let n = 200_000u64;
    let stream: Vec<EventRecord> = (0..n)
        .map(|i| {
            EventRecord::instr(
                Rid(i + 1),
                Instr::Load {
                    dst: Reg::new((i % 8) as u8),
                    src: MemRef::new(0x1000_0000 + (i % 4096) * 8, 8),
                },
            )
        })
        .collect();
    let encoded = encode(&stream);
    let wire_len = encoded.len();
    let cap = 4096usize;
    assert!(wire_len > 32 * cap, "stream must dwarf the cap");
    let heap = AddrRange::new(0x1000_0000, 0x1000_0000);
    let src = StreamingReplaySource::from_encoded(vec![encoded], heap).with_chunk_bytes(cap);
    let stats = src.stats();
    let out = MonitorSession::builder()
        .source(src)
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.metrics.records, n);
    assert!(
        stats.peak_buffered_bytes() <= 2 * cap,
        "peak residency {} for a {} byte wire stream exceeds the {} byte cap",
        stats.peak_buffered_bytes(),
        wire_len,
        cap
    );
}

#[test]
fn truncated_wire_stream_deadlocks_not_hangs() {
    // Thread 1 depends on a record in thread 0's *tail*; cut thread 0's
    // wire stream at a record boundary so the producer record never
    // arrives. Ingestion must fail loudly with `Deadlock` on both backends.
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let t0: Vec<EventRecord> = (1..=10)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let mut dependent = EventRecord::instr(
        Rid(1),
        Instr::Load {
            dst: Reg::new(0),
            src: MemRef::new(heap.start, 4),
        },
    );
    dependent
        .arcs
        .push(DependenceArc::new(ThreadId(0), Rid(9), ArcKind::Raw));
    let t1 = vec![dependent];

    // Encode only thread 0's first five records (clean truncation).
    let truncated = encode(&t0[..5]);
    let whole_t1 = encode(&t1);
    for threaded in [false, true] {
        let src =
            StreamingReplaySource::from_encoded(vec![truncated.clone(), whole_t1.clone()], heap);
        let builder = MonitorSession::builder()
            .source(src)
            .lifeguard(LifeguardKind::TaintCheck);
        let builder = if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        let err = builder.build().unwrap().run().err();
        assert!(
            matches!(err, Some(SessionError::Deadlock(_))),
            "threaded={threaded}: expected Deadlock, got {err:?}"
        );
    }
}

#[test]
fn mid_record_truncation_is_malformed_not_deadlock() {
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let stream = vec![EventRecord::instr(
        Rid(1),
        Instr::Load {
            dst: Reg::new(0),
            src: MemRef::new(0x7777_7777, 4),
        },
    )];
    let mut bytes = encode(&stream);
    bytes.truncate(bytes.len() - 1); // cut inside the last record
    for threaded in [false, true] {
        let src = StreamingReplaySource::from_encoded(vec![bytes.clone()], heap);
        let builder = MonitorSession::builder()
            .source(src)
            .lifeguard(LifeguardKind::TaintCheck);
        let builder = if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        let err = builder.build().unwrap().run().err();
        assert!(
            matches!(err, Some(SessionError::MalformedStream(_))),
            "threaded={threaded}: expected MalformedStream, got {err:?}"
        );
    }
}

#[test]
fn bounded_push_feed_drives_a_live_session() {
    // The reference: the same records through the buffered PushSource.
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let buf = AddrRange::new(0x1000_0000, 16);
    let records: Vec<EventRecord> = {
        let mut recs = vec![EventRecord::ca(
            Rid(1),
            CaRecord {
                what: HighLevelKind::Syscall(SyscallKind::ReadInput),
                phase: CaPhase::End,
                range: Some(buf),
                issuer: ThreadId(0),
                issuer_rid: Rid(1),
                seq: u64::MAX,
            },
        )];
        recs.push(EventRecord::instr(
            Rid(2),
            Instr::Load {
                dst: Reg::new(0),
                src: MemRef::new(buf.start, 4),
            },
        ));
        recs.push(EventRecord::instr(
            Rid(3),
            Instr::JmpReg {
                target: Reg::new(0),
            },
        ));
        for i in 4..=64 {
            recs.push(EventRecord::instr(Rid(i), Instr::Nop));
        }
        recs
    };
    let mut buffered = PushSource::new(1, heap);
    for rec in &records {
        buffered.push(0, rec.clone());
    }
    let reference = MonitorSession::builder()
        .source(buffered)
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(reference.metrics.violations.len(), 1);

    // Live: a producer thread feeds through a capacity-4 channel, so it is
    // back-pressured dozens of times while the monitor ingests online.
    let (mut feed, source) = PushSource::bounded(1, heap, 4);
    let producer = std::thread::spawn({
        let records = records.clone();
        move || {
            for rec in records {
                feed.push(0, rec).expect("session alive");
            }
            // Dropping the feed ends the stream.
        }
    });
    let live = MonitorSession::builder()
        .source(source)
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    producer.join().expect("producer");
    assert_eq!(live.metrics.records, records.len() as u64);
    assert_eq!(live.metrics.fingerprint, reference.metrics.fingerprint);
    assert_eq!(
        violation_keys(&live.metrics.violations),
        violation_keys(&reference.metrics.violations)
    );
}

#[test]
fn live_push_feed_drives_the_threaded_backend() {
    // Two producer threads feed two monitored streams with a cross-thread
    // arc; the real-thread backend ingests them online.
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let (mut feed, source) = PushSource::bounded(2, heap, 8);
    let producer = std::thread::spawn(move || {
        for i in 1..=100u64 {
            feed.push(0, EventRecord::instr(Rid(i), Instr::Nop))
                .expect("alive");
        }
        let mut dependent = EventRecord::instr(Rid(1), Instr::Nop);
        dependent
            .arcs
            .push(DependenceArc::new(ThreadId(0), Rid(100), ArcKind::Sync));
        feed.push(1, dependent).expect("alive");
    });
    let out = MonitorSession::builder()
        .source(source)
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    producer.join().expect("producer");
    assert_eq!(out.metrics.records, 101);
}

// --- producer-drop determinism ----------------------------------------------

/// A producer that vanishes mid-session with *severed* dependence arcs
/// (a consumer's producer record can never arrive) must resolve to
/// `Deadlock` promptly — on the threaded backend via the severed-input
/// fast path (a fraction of the normal no-progress grace), on the
/// deterministic backend structurally. Never a parked worker waiting out
/// the full grace window, and never a hang.
#[test]
fn dropped_producer_with_severed_arcs_deadlocks_fast() {
    use paralog::daemon::transport::ByteFeed;

    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let t0: Vec<EventRecord> = (1..=10)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let mut dependent = EventRecord::instr(Rid(1), Instr::Nop);
    dependent
        .arcs
        .push(DependenceArc::new(ThreadId(0), Rid(9), ArcKind::Sync));
    // Thread 0's wire stream is cut at record 5 — the arc target (#9)
    // will never arrive once the producer drops.
    let t0_prefix = encode(&t0[..5]);
    let t1_whole = encode(&[dependent]);

    for threaded in [false, true] {
        let total = std::sync::Arc::default();
        let (w0, r0) = ByteFeed::pair(std::sync::Arc::clone(&total));
        let (w1, r1) = ByteFeed::pair(total);
        let producer = std::thread::spawn({
            let t0_prefix = t0_prefix.clone();
            let t1_whole = t1_whole.clone();
            move || {
                // Let the session see live `Blocked` polls first.
                std::thread::sleep(std::time::Duration::from_millis(30));
                w0.write(&t0_prefix);
                w1.write(&t1_whole);
                // Dropping both writers severs the input mid-session.
            }
        });
        let src = StreamingReplaySource::new(vec![Box::new(r0), Box::new(r1)], heap);
        let builder = MonitorSession::builder()
            .source(src)
            .lifeguard(LifeguardKind::TaintCheck);
        let builder = if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        let started = std::time::Instant::now();
        let err = builder.build().unwrap().run().err();
        let elapsed = started.elapsed();
        producer.join().expect("producer");
        assert!(
            matches!(err, Some(SessionError::Deadlock(_))),
            "threaded={threaded}: expected Deadlock, got {err:?}"
        );
        assert!(
            elapsed < std::time::Duration::from_millis(1500),
            "threaded={threaded}: severed input took {elapsed:?} to resolve \
             (the fast path should undercut the 2 s no-progress grace)"
        );
    }
}

/// A producer that vanishes at a record boundary with no dangling arcs is
/// a *clean* end of input: both backends drain and report exactly the
/// delivered prefix.
#[test]
fn dropped_producer_at_record_boundary_drains_clean() {
    use paralog::daemon::transport::ByteFeed;

    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let recs: Vec<EventRecord> = (1..=40)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect();
    let bytes = encode(&recs);
    for threaded in [false, true] {
        let total = std::sync::Arc::default();
        let (w0, r0) = ByteFeed::pair(std::sync::Arc::clone(&total));
        let (w1, r1) = ByteFeed::pair(total);
        let producer = std::thread::spawn({
            let bytes = bytes.clone();
            move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                w0.write(&bytes);
                w1.write(&bytes);
            }
        });
        let src = StreamingReplaySource::new(vec![Box::new(r0), Box::new(r1)], heap);
        let builder = MonitorSession::builder()
            .source(src)
            .lifeguard(LifeguardKind::TaintCheck);
        let builder = if threaded {
            builder.backend(ThreadedBackend)
        } else {
            builder.backend(DeterministicBackend)
        };
        let out =
            builder.build().unwrap().run().unwrap_or_else(|e| {
                panic!("threaded={threaded}: clean drop must drain, got {e:?}")
            });
        producer.join().expect("producer");
        assert_eq!(out.metrics.records, 80, "threaded={threaded}");
    }
}

/// The push-feed flavor of the same contract: a `PushFeed` dropped after
/// pushing a record whose arc target was never pushed resolves to
/// `Deadlock`, not a hang.
#[test]
fn dropped_push_feed_with_severed_arc_deadlocks() {
    let heap = AddrRange::new(0x1000_0000, 0x1000);
    let (mut feed, source) = PushSource::bounded(2, heap, 8);
    let producer = std::thread::spawn(move || {
        for i in 1..=5u64 {
            feed.push(0, EventRecord::instr(Rid(i), Instr::Nop))
                .expect("alive");
        }
        let mut dependent = EventRecord::instr(Rid(1), Instr::Nop);
        dependent
            .arcs
            .push(DependenceArc::new(ThreadId(0), Rid(50), ArcKind::Sync));
        feed.push(1, dependent).expect("alive");
        // Drop the feed with thread 0 stopped at #5: arc to #50 is severed.
    });
    let started = std::time::Instant::now();
    let err = MonitorSession::builder()
        .source(source)
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .err();
    let elapsed = started.elapsed();
    producer.join().expect("producer");
    assert!(
        matches!(err, Some(SessionError::Deadlock(_))),
        "expected Deadlock, got {err:?}"
    );
    assert!(
        elapsed < std::time::Duration::from_millis(1500),
        "severed push feed took {elapsed:?}"
    );
}

/// A stream that hands out at most `chunk` records per pull and returns its
/// last records together with [`StreamStatus::Exhausted`], instead of in a
/// batch of their own followed by an empty `Exhausted` pull.
#[derive(Debug)]
struct TailStream {
    records: std::collections::VecDeque<EventRecord>,
    chunk: usize,
}

impl RecordStream for TailStream {
    fn next_batch(
        &mut self,
        out: &mut Vec<EventRecord>,
        max: usize,
    ) -> Result<StreamStatus, SessionError> {
        let n = max.min(self.chunk).min(self.records.len());
        out.extend(self.records.drain(..n));
        Ok(if self.records.is_empty() {
            StreamStatus::Exhausted
        } else {
            StreamStatus::Yielded
        })
    }
}

fn tail_streams(streams: &[Vec<EventRecord>], chunk: usize) -> Vec<Box<dyn RecordStream>> {
    streams
        .iter()
        .map(|s| {
            Box::new(TailStream {
                records: s.clone().into(),
                chunk,
            }) as Box<dyn RecordStream>
        })
        .collect()
}

#[derive(Debug)]
struct TailSource {
    streams: Vec<Vec<EventRecord>>,
    heap: AddrRange,
    chunk: usize,
}

impl EventSource for TailSource {
    fn thread_count(&self) -> usize {
        self.streams.len()
    }

    fn heap(&self) -> AddrRange {
        self.heap
    }

    fn open(self: Box<Self>) -> SourceInput {
        SourceInput::Streams(tail_streams(&self.streams, self.chunk))
    }
}

/// A lane whose final pull delivers records *and* exhaustion finishes in
/// the same step that applies them: the report it composes must already
/// count them. Checked for the lane engine under both schedulers (a
/// caller's loop and `ThreadedBackend`) against the deterministic loop.
#[test]
fn records_delivered_with_exhaustion_reach_the_report() {
    let (w, streams, live_fp, _) = capture(Benchmark::Barnes, 4);
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    for chunk in [7, 300] {
        for threaded in [false, true] {
            let builder = MonitorSession::builder()
                .source(TailSource {
                    streams: streams.clone(),
                    heap: w.heap,
                    chunk,
                })
                .lifeguard(LifeguardKind::TaintCheck);
            let builder = if threaded {
                builder.backend(ThreadedBackend)
            } else {
                builder.backend(DeterministicBackend)
            };
            let out = builder.build().unwrap().run().unwrap().metrics;
            assert_eq!(out.records, total, "threaded={threaded}, chunk {chunk}");
            assert_eq!(
                out.fingerprint, live_fp,
                "threaded={threaded}, chunk {chunk}"
            );
        }
        let (session, mut lanes) = CoopSession::start_with_mode(
            &LifeguardKind::TaintCheck,
            w.heap,
            tail_streams(&streams, chunk),
            None,
            BackendMode::CasPerAccess,
        )
        .expect("session starts");
        while !session.is_complete() {
            for lane in &mut lanes {
                lane.step(usize::MAX);
            }
        }
        let report = session.report().expect("complete").expect("clean drain");
        assert_eq!(report.records, total, "coop lanes, chunk {chunk}");
        assert_eq!(report.fingerprint, live_fp, "coop lanes, chunk {chunk}");
    }
}

/// `records()` is exact at step granularity: stepping every lane one record
/// at a time on one thread, the session count after each step equals the
/// records delivered so far.
#[test]
fn records_are_published_by_the_end_of_every_step() {
    let (w, streams, live_fp, _) = capture(Benchmark::Barnes, 4);
    let (session, mut lanes) = CoopSession::start_with_mode(
        &LifeguardKind::TaintCheck,
        w.heap,
        tail_streams(&streams, 16),
        None,
        BackendMode::CasPerAccess,
    )
    .expect("session starts");
    // With a budget of one, a `Progressed` step delivered exactly one
    // record; a finished lane delivered its whole stream.
    let mut progressed = vec![0u64; lanes.len()];
    let mut finished = vec![false; lanes.len()];
    let mut steps = 0u64;
    while !session.is_complete() {
        for (t, lane) in lanes.iter_mut().enumerate() {
            match lane.step(1) {
                LaneStep::Progressed => progressed[t] += 1,
                LaneStep::Finished => finished[t] = true,
                LaneStep::Failed => panic!("lane {t} failed: {:?}", session.report()),
                LaneStep::Gated | LaneStep::Idle => {}
            }
            let delivered: u64 = (0..streams.len())
                .map(|i| match finished[i] {
                    true => streams[i].len() as u64,
                    false => progressed[i],
                })
                .sum();
            assert_eq!(session.records(), delivered, "after step {steps}");
            steps += 1;
        }
    }
    let report = session.report().expect("complete").expect("clean drain");
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    assert_eq!(report.records, total);
    assert_eq!(report.fingerprint, live_fp);
}

// --- incremental decoder property tests ------------------------------------

/// A modest record generator: loads/stores walking an address neighborhood
/// (exercising delta encoding), ALU ops, jumps, CA records with and without
/// ranges, and occasional arcs.
fn record_strategy() -> impl Strategy<Value = EventRecord> {
    let mem = || {
        (
            0u64..0x2_0000,
            prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
        )
            .prop_map(|(a, s)| MemRef::new(0x1000_0000 + a, s))
    };
    prop_oneof![
        4 => (0u8..8, mem()).prop_map(|(r, m)| Instr::Load {
            dst: Reg::new(r),
            src: m,
        }),
        4 => (0u8..8, mem()).prop_map(|(r, m)| Instr::Store {
            dst: m,
            src: Reg::new(r),
        }),
        2 => (0u8..8, 0u8..8).prop_map(|(a, b)| Instr::MovRR {
            dst: Reg::new(a),
            src: Reg::new(b),
        }),
        1 => (0u8..8).prop_map(|r| Instr::JmpReg { target: Reg::new(r) }),
        1 => Just(Instr::Nop),
    ]
    .prop_map(|instr| EventRecord::instr(Rid(0), instr))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chopping one wire stream at arbitrary points and feeding the pieces
    /// must reproduce the batch decode exactly.
    #[test]
    fn incremental_decode_is_split_point_oblivious(
        recs in proptest::collection::vec(record_strategy(), 1..120),
        cuts in proptest::collection::vec(0usize..4096, 0..24),
        arc_every in 3usize..9,
    ) {
        // Re-rid sequentially (the codec reconstructs rids from positions)
        // and sprinkle arcs so flag paths are exercised.
        let mut recs = recs;
        for (i, rec) in recs.iter_mut().enumerate() {
            rec.rid = Rid(i as u64 + 1);
            if i % arc_every == 0 {
                rec.arcs.push(DependenceArc::new(
                    ThreadId((i % 3) as u16),
                    Rid((i / 2) as u64 + 1),
                    ArcKind::Raw,
                ));
            }
        }
        let bytes = encode(&recs);
        let batch = paralog::events::codec::decode(&bytes).expect("valid stream");

        // Split points: sorted, deduped offsets into the byte stream.
        let mut points: Vec<usize> = cuts.into_iter().map(|c| c % bytes.len().max(1)).collect();
        points.sort_unstable();
        points.dedup();
        let mut sd = StreamDecoder::new();
        let mut out = Vec::new();
        let mut prev = 0usize;
        for p in points.into_iter().chain(std::iter::once(bytes.len())) {
            sd.feed(&bytes[prev..p]);
            prev = p;
            while let Some(rec) = sd.next_record().expect("valid stream") {
                out.push(rec);
            }
        }
        prop_assert_eq!(&out, &batch);
        prop_assert!(sd.is_clean());
        prop_assert_eq!(out, recs);
    }
}
