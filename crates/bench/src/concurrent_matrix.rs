//! The delta-merge vs. CAS-per-access replay matrix.
//!
//! One module feeds three consumers: the `bench_concurrent` binary that
//! regenerates the checked-in `BENCH_concurrent.json`, the CI bench-smoke
//! step that diffs a fresh quick profile against that file, and the
//! `concurrent_micro` criterion group. All three therefore measure the
//! exact same streams: per-thread record sequences whose *shared*-region
//! addresses are Zipf-skewed (`theta`), swept across low/medium/high
//! sharing so the contention knob — not the workload shape — is what
//! separates the two [`ReplayMode`]s.
//!
//! The lifeguard forms are driven directly (no backend, no dependence
//! arcs): CAS mode applies each record through
//! [`ConcurrentLifeguard::apply`]; delta mode buffers through
//! [`DeltaLifeguard::apply_delta`] and publishes every
//! [`FLUSH_EVERY`] records — the arc-boundary cadence the threaded
//! backend exhibits on real captures.
//!
//! MemCheck is the only analysis measured: it is the only one with a delta
//! form, and `LifeguardKind::preferred_mode` reads its 16-worker switch-over
//! off this matrix.

use paralog_events::{
    AddrRange, CaPhase, CaRecord, EventRecord, HighLevelKind, Instr, MemRef, Reg, Rid, ThreadId,
};
use paralog_lifeguards::{
    ConcurrentLifeguard, DeltaLifeguard, LifeguardKind, MemCheckConcurrent, ReplayMode,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Records between delta publishes — the modeled arc-boundary cadence.
pub const FLUSH_EVERY: usize = 256;

/// Thread counts the matrix sweeps.
pub const THREADS: [usize; 2] = [8, 16];

/// Shared-region size in 8-byte words (small enough that the high-sharing
/// profile's Zipf head is genuinely hot).
const SHARED_WORDS: u64 = 1024;

/// Base of the shared region (mirrors the workload generator layout).
const SHARED_BASE: u64 = 0x6000_0000;

/// One point on the sharing axis.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Label used in series keys ("low" / "medium" / "high").
    pub name: &'static str,
    /// Fraction of accesses aimed at the shared region.
    pub shared_fraction: f64,
    /// Zipf exponent over shared words (hotter head as it grows).
    pub theta: f64,
}

/// The low/medium/high sharing sweep.
pub const PROFILES: [Profile; 3] = [
    Profile {
        name: "low",
        shared_fraction: 0.05,
        theta: 0.6,
    },
    Profile {
        name: "medium",
        shared_fraction: 0.35,
        theta: 0.9,
    },
    Profile {
        name: "high",
        shared_fraction: 0.85,
        theta: 1.2,
    },
];

/// The lifeguards with a delta-merge form.
pub const KINDS: [LifeguardKind; 1] = [LifeguardKind::MemCheck];

/// A fresh concurrent form of `kind` for `threads` lanes.
///
/// # Panics
///
/// Panics for kinds outside [`KINDS`].
pub fn build_concurrent(kind: LifeguardKind, threads: usize) -> Box<dyn DeltaLifeguard> {
    match kind {
        LifeguardKind::MemCheck => Box::new(MemCheckConcurrent::new(threads)),
        other => panic!("{other:?} has no delta-merge form to benchmark"),
    }
}

/// Cumulative Zipf weights over `SHARED_WORDS` ranks.
fn zipf_cdf(theta: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(SHARED_WORDS as usize);
    let mut total = 0.0f64;
    for rank in 0..SHARED_WORDS {
        total += 1.0 / ((rank + 1) as f64).powf(theta);
        cdf.push(total);
    }
    cdf
}

/// Builds one thread's MemCheck record stream under `profile`.
///
/// The stream opens with a malloc'd-undefined heap over both the shared
/// region and the thread's private slab, so the replayed accesses move
/// nonzero metadata. Without that, every shadow store writes clean zero,
/// the CAS path never even materializes a chunk, and the "baseline" being
/// compared against is a no-op. Accesses come in load/store pairs over
/// one drawn address (read a location, write it back), the shape that
/// actually propagates metadata through the register file.
pub fn stream(tid: u16, records: u64, profile: Profile) -> Vec<EventRecord> {
    let mut rng = StdRng::seed_from_u64(
        0xC0_FFEE ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(tid) + 1)),
    );
    let cdf = zipf_cdf(profile.theta);
    let total = *cdf.last().expect("non-empty");
    let slab = AddrRange::new(0x0100_0000 + u64::from(tid) * 0x1_0000, 0x8000);
    let mut recs = Vec::with_capacity(records as usize + 2);
    let mut rid = 0u64;
    let mut next_rid = || {
        rid += 1;
        Rid(rid)
    };
    for range in [AddrRange::new(SHARED_BASE, SHARED_WORDS * 8), slab] {
        let rid = next_rid();
        recs.push(EventRecord::ca(
            rid,
            CaRecord {
                what: HighLevelKind::Malloc,
                phase: CaPhase::End,
                range: Some(range),
                issuer: ThreadId(tid),
                issuer_rid: rid,
                seq: u64::MAX, // own-stream record: no cross-thread ordering
            },
        ));
    }
    let mut private_cursor = 0u64;
    let mut addr = slab.start;
    for i in 0..records {
        let mem = if i % 2 == 0 {
            // Draw a fresh target and read it...
            addr = if rng.gen_bool(profile.shared_fraction) {
                let u = rng.gen::<f64>() * total;
                let word = cdf
                    .partition_point(|&c| c < u)
                    .min(SHARED_WORDS as usize - 1) as u64;
                SHARED_BASE + word * 8
            } else {
                private_cursor = (private_cursor + 8) % (slab.len - 8);
                slab.start + private_cursor
            };
            MemRef::new(addr, 8)
        } else {
            // ...then write the same location back.
            MemRef::new(addr, 8)
        };
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
        recs.push(EventRecord::instr(next_rid(), instr));
    }
    recs
}

/// Replays pre-built per-thread streams on real threads in `mode`.
pub fn replay(lg: &dyn DeltaLifeguard, streams: &[Vec<EventRecord>], mode: ReplayMode) {
    std::thread::scope(|scope| {
        for (t, stream) in streams.iter().enumerate() {
            scope.spawn(move || {
                let tid = ThreadId(t as u16);
                match mode {
                    ReplayMode::CasPerAccess => {
                        let conc: &dyn ConcurrentLifeguard = lg;
                        for rec in stream {
                            conc.apply(tid, rec, None);
                        }
                    }
                    ReplayMode::DeltaMerge => {
                        for (i, rec) in stream.iter().enumerate() {
                            lg.apply_delta(tid, rec, None);
                            if (i + 1) % FLUSH_EVERY == 0 {
                                lg.flush_delta(tid);
                            }
                        }
                        lg.flush_delta(tid);
                    }
                }
            });
        }
    });
}

/// The full measured matrix plus the parameters it ran with.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResult {
    /// Records per thread per measurement.
    pub records_per_thread: u64,
    /// `"<Kind>/t<threads>/<profile>/<mode>"` → best-of-iters ns/record.
    pub series: BTreeMap<String, f64>,
}

/// Series key for one matrix cell.
pub fn series_key(
    kind: LifeguardKind,
    threads: usize,
    profile: &Profile,
    mode: ReplayMode,
) -> String {
    format!("{kind:?}/t{threads}/{}/{mode}", profile.name)
}

/// Measures one cell: best-of-`iters` ns/record, fresh lifeguard state per
/// iteration so accumulated metadata never favors the later mode.
pub fn measure_cell(
    kind: LifeguardKind,
    threads: usize,
    profile: Profile,
    mode: ReplayMode,
    records_per_thread: u64,
    iters: usize,
) -> f64 {
    let streams: Vec<Vec<EventRecord>> = (0..threads as u16)
        .map(|t| stream(t, records_per_thread, profile))
        .collect();
    let total_records = (threads as u64 * records_per_thread) as f64;
    // One discarded warm-up round: the first replay after process start
    // pays allocator and page-fault warm-up the committed baselines
    // (measured hot) never see, which made `--check` quick profiles flaky.
    replay(&*build_concurrent(kind, threads), &streams, mode);
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let lg = build_concurrent(kind, threads);
        let start = Instant::now();
        replay(&*lg, &streams, mode);
        let ns = start.elapsed().as_nanos() as f64;
        best = best.min(ns / total_records);
    }
    best
}

/// Measures one cell under both modes with the iterations *interleaved*
/// (cas, delta, cas, delta, …) rather than block-sequential. Scheduler
/// and frequency drift on a shared box then hits both modes roughly
/// equally, so the delta/cas ratio stays meaningful even when absolute
/// numbers wander between runs.
pub fn measure_cell_pair(
    kind: LifeguardKind,
    threads: usize,
    profile: Profile,
    records_per_thread: u64,
    iters: usize,
) -> (f64, f64) {
    let streams: Vec<Vec<EventRecord>> = (0..threads as u16)
        .map(|t| stream(t, records_per_thread, profile))
        .collect();
    let total_records = (threads as u64 * records_per_thread) as f64;
    // One discarded warm-up round per mode before the scored window: the
    // process's first replay of each shape pays allocator and page-fault
    // warm-up that the committed baselines (measured hot) never see, which
    // made `--check` quick profiles regress spuriously on cold runners.
    // The streams are deterministic (see `streams_are_deterministic`), so
    // the warm-up replays exactly the work the scored rounds measure.
    for mode in [ReplayMode::CasPerAccess, ReplayMode::DeltaMerge] {
        replay(&*build_concurrent(kind, threads), &streams, mode);
    }
    let mut best = [f64::INFINITY; 2];
    for _ in 0..iters.max(1) {
        for (slot, mode) in [ReplayMode::CasPerAccess, ReplayMode::DeltaMerge]
            .into_iter()
            .enumerate()
        {
            let lg = build_concurrent(kind, threads);
            let start = Instant::now();
            replay(&*lg, &streams, mode);
            let ns = start.elapsed().as_nanos() as f64;
            best[slot] = best[slot].min(ns / total_records);
        }
    }
    (best[0], best[1])
}

/// Runs the whole matrix.
pub fn run_matrix(records_per_thread: u64, iters: usize) -> MatrixResult {
    let mut series = BTreeMap::new();
    for kind in KINDS {
        for threads in THREADS {
            for profile in PROFILES {
                let (cas, delta) =
                    measure_cell_pair(kind, threads, profile, records_per_thread, iters);
                series.insert(
                    series_key(kind, threads, &profile, ReplayMode::CasPerAccess),
                    cas,
                );
                series.insert(
                    series_key(kind, threads, &profile, ReplayMode::DeltaMerge),
                    delta,
                );
            }
        }
    }
    MatrixResult {
        records_per_thread,
        series,
    }
}

/// Serializes a result as the checked-in `BENCH_concurrent.json` schema.
pub fn to_json(result: &MatrixResult) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!(
        "  \"records_per_thread\": {},\n",
        result.records_per_thread
    ));
    out.push_str("  \"series\": {\n");
    let last = result.series.len().saturating_sub(1);
    for (i, (key, ns)) in result.series.iter().enumerate() {
        out.push_str(&format!("    \"{key}\": {ns:.1}"));
        out.push_str(if i == last { "\n" } else { ",\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Parses the `BENCH_concurrent.json` schema written by [`to_json`].
/// Hand-rolled (the workspace takes no external dependencies) and
/// deliberately strict about shape: `None` on anything unexpected.
pub fn parse_json(text: &str) -> Option<MatrixResult> {
    let field = |name: &str| -> Option<&str> {
        let tag = format!("\"{name}\"");
        let at = text.find(&tag)? + tag.len();
        let rest = text[at..].trim_start().strip_prefix(':')?;
        Some(rest.trim_start())
    };
    if !field("schema")?.starts_with('1') {
        return None;
    }
    let records_per_thread: u64 = {
        let rest = field("records_per_thread")?;
        let end = rest.find(|c: char| !c.is_ascii_digit())?;
        rest[..end].parse().ok()?
    };
    let series_text = field("series")?.strip_prefix('{')?;
    let series_text = &series_text[..series_text.find('}')?];
    let mut series = BTreeMap::new();
    for entry in series_text.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value: f64 = value.trim().parse().ok()?;
        series.insert(key.to_string(), value);
    }
    if series.is_empty() {
        return None;
    }
    Some(MatrixResult {
        records_per_thread,
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let mut series = BTreeMap::new();
        for kind in KINDS {
            for mode in [ReplayMode::CasPerAccess, ReplayMode::DeltaMerge] {
                series.insert(series_key(kind, 8, &PROFILES[2], mode), 12.5);
            }
        }
        let result = MatrixResult {
            records_per_thread: 4096,
            series,
        };
        let parsed = parse_json(&to_json(&result)).expect("own output parses");
        assert_eq!(parsed, result);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("").is_none());
        assert!(parse_json("{\"schema\": 2}").is_none());
        assert!(
            parse_json("{\"schema\": 1, \"records_per_thread\": 4096, \"series\": {}}").is_none()
        );
    }

    #[test]
    fn streams_are_deterministic() {
        // The warm-up round in `measure_cell_pair` is only a valid warm-up
        // (and `--check` only a valid diff against the committed baseline)
        // if stream generation is a pure function of (tid, records,
        // profile): same inputs, bit-identical records, every call.
        for profile in PROFILES {
            for tid in [0u16, 3] {
                let a = stream(tid, 257, profile);
                let b = stream(tid, 257, profile);
                assert_eq!(
                    a, b,
                    "{}/t{tid} streams diverged across calls",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn modes_agree_on_fingerprint_across_the_matrix() {
        // The bench harness itself must preserve the tentpole invariant:
        // both replay modes land on bit-identical metadata for every
        // matrix cell shape. Records are interleaved round-robin on one OS
        // thread — a deterministic schedule, since racing first-touch
        // attribution is explicitly outside the parity contract.
        for kind in KINDS {
            for profile in PROFILES {
                let streams: Vec<Vec<EventRecord>> =
                    (0..4u16).map(|t| stream(t, 192, profile)).collect();
                let longest = streams.iter().map(Vec::len).max().unwrap();
                let cas = build_concurrent(kind, 4);
                let delta = build_concurrent(kind, 4);
                for i in 0..longest {
                    for (t, s) in streams.iter().enumerate() {
                        let Some(rec) = s.get(i) else { continue };
                        let tid = ThreadId(t as u16);
                        let conc: &dyn ConcurrentLifeguard = &*cas;
                        conc.apply(tid, rec, None);
                        delta.apply_delta(tid, rec, None);
                        if (i + 1) % 37 == 0 {
                            delta.flush_delta(tid);
                        }
                    }
                }
                for t in 0..streams.len() {
                    delta.flush_delta(ThreadId(t as u16));
                }
                let cas: &dyn ConcurrentLifeguard = &*cas;
                let delta: &dyn ConcurrentLifeguard = &*delta;
                assert_eq!(
                    cas.fingerprint(),
                    delta.fingerprint(),
                    "{kind:?}/{} fingerprints diverged across modes",
                    profile.name
                );
            }
        }
    }
}
