//! End-to-end `paralogd` benchmark.
//!
//! ```text
//! cargo run --release --manifest-path paralogd_bench/Cargo.toml -- \
//!     --workload <ingest|race|fleet|tso> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates captures from the seed, streams them over the real Unix
//! sockets of an in-process `Daemon`, checks every verdict against a
//! `DeterministicBackend` replay, and prints a human-readable table
//! followed by one JSON line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the traced per-layer pass instead (see `layers.rs`).
//! See `NOTES.md` for the metric definitions and workload rationale.

mod e2e;
mod layers;
mod spec;
mod stats;
mod trace;

use e2e::{Harness, SessionResult};
use paralog_lifeguards::LifeguardRegistry;
use spec::{Capture, Workload};
use stats::{json_string, median, HostTag, Outcomes, Samples};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Distinct inputs generated per run; sessions cycle through them.
pub const CAPTURES: u64 = 8;

/// End-to-end metrics on the result line (`BENCHMARK.json`'s
/// `end_to_end`): those every driver-run workload reports, never zero, and
/// steadiest from run to run on a shared host. The rest are printed in the
/// table only; `NOTES.md` says why for each.
const E2E_REPORTED: &[&str] = &["records_per_s", "verdict_lag_p50_ms", "setup_s"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Where sockets and trace files go: `out/` beside this package, named
/// relative to the working directory when possible (socket paths have a
/// ~108-byte limit).
fn out_dir() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::env::current_dir()
        .ok()
        .and_then(|cwd| manifest.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| manifest.to_path_buf())
        .join("out")
}

/// One metric as printed and serialized.
pub struct Metric {
    pub name: String,
    /// `None` when no finite value exists (every sample failed).
    pub value: Option<f64>,
    pub unit: &'static str,
    pub n: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric { name: name.into(), value: value.is_finite().then_some(value), unit, n }
    }
}

/// The seeded inputs every run shares.
pub struct Setup {
    pub captures: Vec<Capture>,
    /// Median per-input set-up: capture + encode + reference replay. The
    /// end-to-end `setup_s` adds the daemon spawn.
    pub setup_s: f64,
}

pub fn set_up(workload: &Workload, seed: u64) -> Setup {
    let captures: Vec<Capture> = (0..CAPTURES).map(|i| workload.capture(seed, i)).collect();
    let per_input: Vec<f64> = captures.iter().map(|c| c.timings.total()).collect();
    Setup { captures, setup_s: median(&per_input) }
}

/// Runs sessions back to back, cycling through the captures, until
/// `seconds` have passed (after an uncounted warm-up pass).
pub fn run_sessions(
    harness: &mut Harness,
    workload: &Workload,
    captures: &[Capture],
    seconds: f64,
    tracer: Option<&trace::Tracer>,
    traced_sessions: usize,
) -> Run {
    // Warm-up pass, not counted: one session per capture lets the daemon's
    // allocations and the pool settle, as in a long-running daemon.
    for cap in captures {
        harness.run_session(workload, cap, None);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let cpu_before = stats::process_cpu_s();
    let mut sessions = Vec::new();
    while sessions.is_empty() || Instant::now() < deadline {
        let cap = &captures[sessions.len() % captures.len()];
        let tracer = tracer.filter(|_| sessions.len() < traced_sessions);
        sessions.push(harness.run_session(workload, cap, tracer));
    }
    let cpu_s = cpu_before.zip(stats::process_cpu_s()).map(|(before, after)| after - before);
    Run { sessions, cpu_s }
}

/// The sessions of one measured window, and the process CPU time it took.
pub struct Run {
    pub sessions: Vec<SessionResult>,
    pub cpu_s: Option<f64>,
}

/// End-to-end aggregates over a run's sessions.
#[derive(Debug, Default)]
pub struct Summary {
    pub outcomes: Outcomes,
    pub records: u64,
    pub window_s: f64,
    pub attach: Samples,
    pub verdict: Samples,
    pub detect: Samples,
    pub late: Samples,
    pub peak_rss: Samples,
    pub send_s: f64,
    pub bytes: u64,
    pub cpu_s: Option<f64>,
    pub first_error: Option<String>,
}

impl Summary {
    pub fn of(run: &Run) -> Summary {
        let mut s = Summary { cpu_s: run.cpu_s, ..Summary::default() };
        for r in &run.sessions {
            s.outcomes.sessions += 1;
            s.outcomes.violations += r.violations_expected;
            s.outcomes.violations_missing += r.violations_missing;
            s.window_s += r.window_s;
            s.send_s += r.send_s;
            s.bytes += r.bytes;
            for &late in &r.late_ms {
                s.late.push(late);
            }
            if let Some(rss) = r.peak_rss_mb {
                s.peak_rss.push(rss);
            }
            if r.ok {
                s.records += r.records;
                s.attach.push(r.attach_ms.expect("ok sessions attached"));
                s.verdict.push(r.verdict_lag_ms.expect("ok sessions ended"));
                for &d in &r.detect_ms {
                    s.detect.push(d);
                }
            } else {
                // A failed session misses every latency limit.
                s.outcomes.sessions_failed += 1;
                s.attach.push_failed();
                s.verdict.push_failed();
                for _ in 0..r.violations_expected {
                    s.detect.push_failed();
                }
                if s.first_error.is_none() {
                    s.first_error =
                        Some(format!("{}: {}", r.label, r.error.as_deref().unwrap_or("?")));
                }
            }
        }
        s
    }

    pub fn records_per_s(&self) -> f64 {
        if self.window_s > 0.0 {
            self.records as f64 / self.window_s
        } else {
            0.0
        }
    }

    /// Process CPU time per applied record over the measured window.
    pub fn cpu_ns_per_rec(&self) -> f64 {
        match self.cpu_s {
            Some(cpu) if self.records > 0 => cpu * 1e9 / self.records as f64,
            _ => f64::INFINITY,
        }
    }

    pub fn correct(&self) -> bool {
        self.outcomes.sessions > 0 && self.outcomes.failed() == 0
    }
}

/// The end-to-end metrics of one untraced run.
fn end_to_end_metrics(workload: &Workload, s: &Summary, setup_s: f64) -> Vec<Metric> {
    let sessions = s.outcomes.sessions as usize;
    let mut m = vec![Metric::new("records_per_s", s.records_per_s(), "rec/s", sessions)];
    m.push(Metric::new("cpu_ns_per_rec", s.cpu_ns_per_rec(), "ns/rec", sessions));
    let p50 = |x: &Samples| x.p50().unwrap_or(f64::INFINITY);
    m.push(Metric::new("verdict_lag_p50_ms", p50(&s.verdict), "ms", s.verdict.len()));
    let p90 = s.verdict.percentile(90.0).unwrap_or(f64::INFINITY);
    m.push(Metric::new("verdict_lag_p90_ms", p90, "ms", s.verdict.len()));
    if let Some((p, v)) = s.verdict.tail().filter(|&(p, _)| p > 90.0) {
        m.push(Metric::new(format!("verdict_lag_{}_ms", pname(p)), v, "ms", s.verdict.len()));
    }
    // Only inputs with violations have a detection latency (`fleet` and
    // `tso` have none).
    if s.outcomes.violations > 0 {
        m.push(Metric::new("detect_p50_ms", p50(&s.detect), "ms", s.detect.len()));
        if let Some((p, v)) = s.detect.tail() {
            m.push(Metric::new(format!("detect_{}_ms", pname(p)), v, "ms", s.detect.len()));
        }
    }
    m.push(Metric::new("attach_p50_ms", p50(&s.attach), "ms", s.attach.len()));
    if workload.pace_rec_per_s.is_some() {
        let p = s.late.percentile(99.0).unwrap_or(f64::INFINITY);
        m.push(Metric::new("late_p99_ms", p, "ms", s.late.len()));
    }
    m.push(Metric::new(
        "failed_frac",
        s.outcomes.failed_frac(),
        "ratio",
        s.outcomes.attempted() as usize,
    ));
    if let Some(rss) = s.peak_rss.p50() {
        m.push(Metric::new("peak_rss_mb", rss, "MiB", s.peak_rss.len()));
    }
    m.push(Metric::new("setup_s", setup_s, "s", CAPTURES as usize));
    m
}

/// `p90`, `p99`, `p99.9` → `p90`, `p99`, `p999`.
pub fn pname(p: f64) -> String {
    format!("p{}", format!("{p}").replace('.', ""))
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!("  {:<34} {:>16} {:<8} {:>8}", "metric", "value", "unit", "n");
    for m in metrics {
        let value = m.value.map_or("unbounded".to_string(), |v| format!("{v:.6}"));
        println!("  {:<34} {:>16} {:<8} {:>8}", m.name, value, m.unit, m.n);
    }
}

/// The result line: `reported` names the metrics it carries (the rest
/// stay in the printed table).
pub fn result_json(
    correct: bool,
    outcomes: &Outcomes,
    metrics: &[Metric],
    reported: &[&str],
) -> String {
    let body: Vec<String> = reported
        .iter()
        .map(|name| {
            let metric = metrics.iter().find(|m| m.name == *name);
            let value = metric.and_then(|m| m.value).map_or("null".to_string(), |v| v.to_string());
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(metric.map_or("", |m| m.unit))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.attempted().max(1),
        outcomes.failed(),
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paralogd-bench: {e}");
            eprintln!(
                "usage: paralogd-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::all().iter().map(|w| w.name).collect::<Vec<_>>().join("|")
            );
            std::process::exit(2);
        }
    };
    let host = HostTag::detect();
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("paralogd-bench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let w = &args.workload;
    println!(
        "paralogd-bench workload={} seed={} seconds={} trace={} | {host}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  why: {}", w.why);

    let setup = set_up(w, args.seed);
    if args.trace {
        let out = layers::run(w, &setup, args.seed, args.seconds, &dir);
        print_table("per-layer (traced run)", &out.metrics);
        for line in &out.notes {
            println!("{line}");
        }
        println!("{}", result_json(out.correct, &out.outcomes, &out.metrics, layers::REPORTED));
        return;
    }

    let t = Instant::now();
    let mut harness = match Harness::spawn(&dir, "e2e", LifeguardRegistry::builtin()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("paralogd-bench: daemon spawn failed: {e}");
            std::process::exit(1);
        }
    };
    let spawn_s = t.elapsed().as_secs_f64();
    let run = run_sessions(&mut harness, w, &setup.captures, args.seconds, None, 0);
    let workers = harness.workers();
    harness.shutdown();

    let summary = Summary::of(&run);
    let metrics = end_to_end_metrics(w, &summary, setup.setup_s + spawn_s);
    print_table(
        &format!(
            "end-to-end ({} sessions, {} failed; {} violations, {} missing; pool {} workers; \
             send order: {} records ahead of their version producer, {} forced)",
            summary.outcomes.sessions,
            summary.outcomes.sessions_failed,
            summary.outcomes.violations,
            summary.outcomes.violations_missing,
            workers,
            setup.captures.iter().map(|c| c.relaxed).sum::<usize>(),
            setup.captures.iter().map(|c| c.forced).sum::<usize>()
        ),
        &metrics,
    );
    if let Some(e) = &summary.first_error {
        println!("  first failure: {e}");
    }
    println!("{}", result_json(summary.correct(), &summary.outcomes, &metrics, E2E_REPORTED));
}
