//! Online, bounded-memory log ingestion through the streaming session seam.
//!
//! Captures a workload's event streams, compresses them to the codec wire
//! form, then monitors them three ways and checks all agree:
//!
//! 1. buffered `ReplaySource` (the baseline: whole streams in memory);
//! 2. `StreamingReplaySource` — decode-as-you-go from byte readers with a
//!    4 KiB chunk cap — on the deterministic backend;
//! 3. the same streaming source on the real-thread backend;
//!
//! and finally drives a live, back-pressured `PushSource::bounded` feed
//! from a producer thread. Run with `cargo run --release --example
//! streaming_ingestion`.

use paralog::core::{MonitorConfig, MonitoringMode, Platform};
use paralog::core::{
    MonitorSession, PushSource, ReplaySource, StreamingReplaySource, ThreadedBackend,
};
use paralog::events::codec::encode;
use paralog::lifeguards::LifeguardKind;
use paralog::workloads::{Benchmark, WorkloadSpec};

fn main() {
    // 1. Capture + compress.
    let workload = WorkloadSpec::benchmark(Benchmark::Barnes, 4)
        .scale(0.1)
        .build();
    let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
    cfg.collect_streams = true;
    let live = Platform::run(&workload, &cfg).metrics;
    let streams = live.streams.clone().expect("collection enabled");
    let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
    let wire_bytes: usize = encoded.iter().map(Vec::len).sum();
    println!(
        "captured {} records across {} threads -> {} wire bytes ({:.2} B/record)",
        live.records,
        streams.len(),
        wire_bytes,
        wire_bytes as f64 / live.records as f64
    );

    // 2. Buffered baseline.
    let buffered = MonitorSession::builder()
        .source(ReplaySource::new(streams, workload.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();

    // 3. Streaming, deterministic backend, 4 KiB cap.
    const CAP: usize = 4096;
    let src =
        StreamingReplaySource::from_encoded(encoded.clone(), workload.heap).with_chunk_bytes(CAP);
    let stats = src.stats();
    let streamed = MonitorSession::builder()
        .source(src)
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    println!(
        "streamed (deterministic): fingerprint match: {}, peak decode residency {} B of {} wire B (cap {} B)",
        streamed.metrics.fingerprint == buffered.metrics.fingerprint,
        stats.peak_buffered_bytes(),
        wire_bytes,
        CAP,
    );
    assert!(
        stats.peak_buffered_bytes() <= 2 * CAP,
        "residency blew the cap"
    );

    // 4. Streaming, real-thread backend.
    let src = StreamingReplaySource::from_encoded(encoded, workload.heap).with_chunk_bytes(CAP);
    let threaded = MonitorSession::builder()
        .source(src)
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    println!(
        "streamed (threaded)     : fingerprint match: {}, {} gated steps",
        threaded.metrics.fingerprint == buffered.metrics.fingerprint,
        threaded.metrics.dependence_stalls,
    );

    // 5. A live feed: the producer thread pushes through a capacity-64
    // channel and is throttled whenever the monitor falls behind.
    let heap = workload.heap;
    let (mut feed, source) = PushSource::bounded(1, heap, 64);
    let producer = std::thread::spawn(move || {
        use paralog::events::{EventRecord, Instr, MemRef, Reg, Rid};
        for i in 0..20_000u64 {
            let rec = EventRecord::instr(
                Rid(i + 1),
                Instr::Load {
                    dst: Reg::new((i % 8) as u8),
                    src: MemRef::new(heap.start + (i % 512) * 8, 8),
                },
            );
            feed.push(0, rec).expect("session alive");
        }
    });
    let online = MonitorSession::builder()
        .source(source)
        .lifeguard(LifeguardKind::TaintCheck)
        .build()
        .unwrap()
        .run()
        .unwrap();
    producer.join().expect("producer");
    println!(
        "live push feed          : {} records monitored online through a 64-record channel",
        online.metrics.records
    );

    assert_eq!(streamed.metrics.fingerprint, buffered.metrics.fingerprint);
    assert_eq!(threaded.metrics.fingerprint, buffered.metrics.fingerprint);
    println!("\nall three ingestion paths agree on final metadata; memory stayed within the cap.");
}
