//! Replays captured event streams on **real OS threads** — the §5.3
//! synchronization-free fast path under genuine concurrency.
//!
//! The same `MonitorSession` is driven through both bundled backends: the
//! deterministic simulator establishes the expected final metadata, then the
//! real-thread backend races one OS thread per stream over a lock-free
//! atomic shadow, each thread stepping its replay lane and re-stepping
//! whenever the head record is gated on the atomic progress table (§5.2).
//! Whatever the OS scheduler does, the fingerprints must match.
//!
//! ```text
//! cargo run --release --example threaded_replay
//! ```

use paralog::core::{DeterministicBackend, MonitorSession, ThreadedBackend};
use paralog::lifeguards::LifeguardKind;
use paralog::workloads::{Benchmark, WorkloadSpec};

fn main() {
    for bench in [
        Benchmark::Barnes,
        Benchmark::Fluidanimate,
        Benchmark::Radiosity,
    ] {
        let w = WorkloadSpec::benchmark(bench, 4).scale(0.2).build();
        let expected = MonitorSession::builder()
            .source(w.clone())
            .lifeguard(LifeguardKind::TaintCheck)
            .backend(DeterministicBackend)
            .build()
            .expect("session is complete")
            .run()
            .expect("deterministic run")
            .metrics
            .fingerprint;
        let mut stalls = 0;
        for round in 0..5 {
            let m = MonitorSession::builder()
                .source(w.clone())
                .lifeguard(LifeguardKind::TaintCheck)
                .backend(ThreadedBackend)
                .build()
                .expect("session is complete")
                .run()
                .expect("SC captures are replayable")
                .metrics;
            assert_eq!(
                m.fingerprint, expected,
                "{bench} round {round}: concurrent replay diverged \
                 ({:#x} vs {expected:#x})",
                m.fingerprint
            );
            assert!(m.matches_reference());
            stalls += m.dependence_stalls;
        }
        println!(
            "{bench:<12} 5 concurrent replays, all metadata-identical to the deterministic run \
             ({stalls} gated steps observed)"
        );
    }
    println!("\nsynchronization-free fast paths hold under real concurrency (§5.3).");
}
