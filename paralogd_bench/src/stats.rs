//! Sample summaries, failure accounting, the host tag, and process RSS.

/// Percentiles the tail rule may pick, highest first.
const TAIL_CANDIDATES: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// The highest percentile with at least ten samples beyond it, or `None`
/// when even p90 would rest on fewer (under 100 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
}

/// Samples of one metric (latencies in milliseconds, RSS in MiB). A failed
/// operation is recorded as `f64::INFINITY`: it misses every latency limit,
/// so it lands past every finite percentile.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn push_failed(&mut self) {
        self.0.push(f64::INFINITY);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile; `None` without samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        Some(v[rank.clamp(1, v.len()) - 1])
    }

    pub fn p50(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The tail the sample count supports, as `(percentile, value)`.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let p = tail_percentile(self.len())?;
        self.percentile(p).map(|v| (p, v))
    }
}

/// Sessions and violations attempted against those that failed. A session
/// that errors, times out or disagrees with the reference is failed; a
/// reference violation the WATCH feed never showed is failed too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub sessions: u64,
    pub sessions_failed: u64,
    pub violations: u64,
    pub violations_missing: u64,
}

impl Outcomes {
    pub fn attempted(&self) -> u64 {
        self.sessions + self.violations
    }

    pub fn failed(&self) -> u64 {
        self.sessions_failed + self.violations_missing
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted() == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted() as f64
        }
    }
}

/// Median of a non-empty slice (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct HostTag {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: &'static str,
    pub profile: &'static str,
}

impl HostTag {
    pub fn detect() -> HostTag {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostTag {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("BENCH_RUSTC_VERSION"),
            profile: env!("BENCH_PROFILE"),
        }
    }
}

impl std::fmt::Display for HostTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" rustc=\"{}\" profile={}",
            self.nproc, self.cpu, self.rustc, self.profile
        )
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// CPU time (user + system, every thread, exited ones included) the
/// process has used, in seconds: `/proc/self/stat` fields 14 and 15, in
/// clock ticks of 1/100 s (Linux's `USER_HZ`). Time the host steals from a
/// virtual CPU is not charged, so work per CPU-second stays comparable on
/// an oversubscribed host where wall-clock rates do not.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name, which may hold spaces.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Resets the process's RSS high-water mark (Linux `clear_refs` 5), so the
/// next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's RSS high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.p50(), Some(50.0));
        assert_eq!(s.tail(), Some((90.0, 90.0)));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(Samples::default().p50(), None);
    }

    #[test]
    fn failed_sessions_miss_every_limit() {
        // 60 fast sessions and 40 failed ones: the median is still finite,
        // but p90 lands on a failure, so no finite limit is met there.
        let mut s = Samples::default();
        for _ in 0..60 {
            s.push(1.0);
        }
        for _ in 0..40 {
            s.push_failed();
        }
        assert_eq!(s.p50(), Some(1.0));
        assert_eq!(s.tail().map(|(_, v)| v), Some(f64::INFINITY));
        // A majority of failures pushes the median past every limit too.
        for _ in 0..30 {
            s.push_failed();
        }
        assert_eq!(s.p50(), Some(f64::INFINITY));
    }

    #[test]
    fn failure_fraction_counts_sessions_and_missing_violations() {
        let o = Outcomes { sessions: 8, sessions_failed: 1, violations: 92, violations_missing: 4 };
        assert_eq!(o.attempted(), 100);
        assert_eq!(o.failed(), 5);
        assert!((o.failed_frac() - 0.05).abs() < 1e-12);
        assert_eq!(Outcomes::default().failed_frac(), 0.0);
    }

    #[test]
    fn process_cpu_time_grows_with_work() {
        let before = process_cpu_s().expect("linux /proc/self/stat");
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < std::time::Duration::from_millis(300) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let used = process_cpu_s().unwrap() - before;
        assert!(used > 0.05 && used < 10.0, "{used}");
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
