//! The end-to-end path: an in-process `Daemon`, one producer (this
//! thread) streaming a capture over the data socket, and one WATCH-reader
//! thread timestamping the live feed. At most one data and one control
//! connection are open at a time.

use crate::spec::{Capture, ReferenceVerdict, Workload};
use crate::trace::Tracer;
use paralog_core::BackendMode;
use paralog_daemon::proto::AttachRequest;
use paralog_daemon::{Daemon, DaemonConfig, Producer, SessionReport};
use paralog_lifeguards::LifeguardRegistry;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A session that has not ended this long after its last frame failed.
const SESSION_DEADLINE: Duration = Duration::from_secs(20);

/// What one attach → stream → verdict session measured.
#[derive(Debug, Clone, Default)]
pub struct SessionResult {
    pub label: String,
    /// Matched the reference: `end ok`, fingerprint, record count and the
    /// violation multiset.
    pub ok: bool,
    pub error: Option<String>,
    /// Records the daemon reported applied (0 unless `ok`).
    pub records: u64,
    pub fingerprint: Option<u64>,
    /// First frame written (or scheduled) → `end` line read.
    pub window_s: f64,
    pub attach_ms: Option<f64>,
    /// Last frame written (or scheduled) → `end` line read.
    pub verdict_lag_ms: Option<f64>,
    /// Per observed violation: its completing frame written (or
    /// scheduled) → its WATCH line read.
    pub detect_ms: Vec<f64>,
    pub violations_expected: u64,
    pub violations_missing: u64,
    /// Paced workloads: how late each frame was written.
    pub late_ms: Vec<f64>,
    /// Process RSS high-water mark over the session (attach → verdict).
    pub peak_rss_mb: Option<f64>,
    /// Time inside `Producer::send`, and the payload bytes it wrote.
    pub send_s: f64,
    pub bytes: u64,
}

struct WatchJob {
    reader: BufReader<UnixStream>,
    deadline: Instant,
}

struct WatchLines {
    lines: Vec<(Instant, String)>,
    /// Saw the `.` terminator.
    complete: bool,
}

/// One daemon plus the producer/watcher pair that drives it.
pub struct Harness {
    daemon: Option<Daemon>,
    data: PathBuf,
    control: PathBuf,
    jobs: Option<Sender<WatchJob>>,
    results: Receiver<WatchLines>,
    watcher: Option<JoinHandle<()>>,
    /// Wall time of `Daemon::spawn`.
    pub spawn_s: f64,
}

impl Harness {
    /// Spawns a daemon (default pool size) with sockets under `dir`.
    pub fn spawn(dir: &Path, tag: &str, registry: LifeguardRegistry) -> std::io::Result<Harness> {
        let pid = std::process::id();
        let data = dir.join(format!("{pid}-{tag}.d"));
        let control = dir.join(format!("{pid}-{tag}.c"));
        let mut config = DaemonConfig::new(&data, &control);
        config.registry = registry;
        let t = Instant::now();
        let daemon = Daemon::spawn(config)?;
        let spawn_s = t.elapsed().as_secs_f64();
        let (jobs, job_rx) = channel::<WatchJob>();
        let (result_tx, results) = channel();
        let watcher = std::thread::Builder::new()
            .name("bench-watch".into())
            .spawn(move || watch_loop(&job_rx, &result_tx))?;
        Ok(Harness {
            daemon: Some(daemon),
            data,
            control,
            jobs: Some(jobs),
            results,
            watcher: Some(watcher),
            spawn_s,
        })
    }

    pub fn workers(&self) -> usize {
        self.daemon.as_ref().map_or(0, Daemon::worker_count)
    }

    /// Runs one session and checks it against the capture's reference.
    pub fn run_session(
        &mut self,
        workload: &Workload,
        cap: &Capture,
        tracer: Option<&Tracer>,
    ) -> SessionResult {
        let expected = cap.reference.violations() as u64;
        // Every reference violation counts as missing until the feed shows it.
        let mut r = SessionResult {
            label: cap.label.clone(),
            violations_expected: expected,
            violations_missing: expected,
            ..SessionResult::default()
        };
        let request = AttachRequest {
            name: cap.label.replace('#', "-"),
            lifeguard: workload.lifeguard.name().into(),
            threads: cap.threads(),
            tso: workload.tso,
            heap: cap.heap,
            mode: BackendMode::Auto,
        };
        // Back to back means after the previous session let go of its
        // replay state: its teardown must not overlap this attach.
        self.wait_quiescent();
        let rss_reset = crate::stats::reset_peak_rss();
        let started = Instant::now();
        let mut producer = match Producer::attach(&self.data, &request) {
            Ok(p) => p,
            Err(e) => return r.fail(format!("attach: {e}")),
        };
        let attached = Instant::now();
        let id = producer.session_id();
        let span = tracer.map(|t| {
            let session = t.reserve();
            t.span("producer.attach", id, Some(session), started, attached);
            session
        });
        r.attach_ms = Some(ms(attached - started));

        // WATCH before the first frame. PING first: the control listener
        // polls for connections, and that wait must stay outside every
        // timed window.
        if let Err(e) = self.open_watch(id) {
            return r.fail(format!("watch: {e}"));
        }

        let origin = Instant::now();
        let mut sent_at = Vec::with_capacity(cap.frames.len());
        let mut send = Duration::ZERO;
        for frame in &cap.frames {
            let due = workload
                .pace_rec_per_s
                .map(|rate| origin + Duration::from_secs_f64(frame.records_through as f64 / rate));
            if let Some(due) = due {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                r.late_ms.push(ms(Instant::now().saturating_duration_since(due)));
            }
            let t = Instant::now();
            let payload = cap.payload(frame);
            if let Err(e) = producer.send(frame.tid, payload) {
                return r.fail(format!("send: {e}; {}", self.drain_watch()));
            }
            let written = Instant::now();
            send += written - t;
            r.bytes += payload.len() as u64;
            if let Some(tracer) = tracer {
                tracer.span("producer.send", id, span, t, written);
            }
            sent_at.push(due.unwrap_or(written));
        }
        if let Err(e) = producer.finish() {
            return r.fail(format!("finish: {e}; {}", self.drain_watch()));
        }
        // Open loop: the verdict clock starts when the last frame was due.
        let finished = match workload.pace_rec_per_s {
            Some(_) => sent_at.last().copied().unwrap_or(origin),
            None => Instant::now(),
        };
        drop(producer);
        r.send_s = send.as_secs_f64();

        let Ok(watch) = self.results.recv_timeout(SESSION_DEADLINE + Duration::from_secs(5)) else {
            return r.fail("watch reader never reported".into());
        };
        if let Some(tracer) = tracer {
            for (at, line) in &watch.lines {
                let name = line.split_whitespace().take(2).collect::<Vec<_>>().join(" ");
                tracer.instant(format!("watch {name}"), id, span, *at);
            }
        }
        let Some((ended, end)) = watch.lines.iter().rev().find(|(_, l)| l.starts_with("end "))
        else {
            return r.fail(if watch.complete {
                "feed ended without a verdict".into()
            } else {
                "no verdict before the session deadline".into()
            });
        };
        if let Some((tracer, span)) = tracer.zip(span) {
            tracer.span_as(span, "session", id, None, started, *ended);
        }
        r.window_s = (*ended - origin).as_secs_f64();
        r.peak_rss_mb = rss_reset.then(crate::stats::peak_rss_mb).flatten();
        let mut observed: Vec<String> = Vec::new();
        for (at, line) in &watch.lines {
            if !line.starts_with("violation ") {
                continue;
            }
            let mut parts = line.split_whitespace().skip(1);
            let tid = parts.next().and_then(|s| s.parse::<usize>().ok());
            let rid = parts.next().and_then(|s| s.parse::<u64>().ok());
            if let Some(f) = tid.zip(rid).and_then(|(t, rid)| cap.frame_of(t, rid)) {
                r.detect_ms.push(ms(at.saturating_duration_since(sent_at[f])));
            }
            observed.push(line.clone());
        }
        observed.sort();
        let verdict = match &cap.reference.result {
            Ok(v) => v,
            Err(e) => return r.fail(format!("reference replay failed: {e}")),
        };
        r.violations_missing = missing(&verdict.violations, &observed);
        match check_end(end, verdict, &observed) {
            Ok(fingerprint) => {
                r.ok = true;
                r.records = verdict.records;
                r.fingerprint = Some(fingerprint);
                r.verdict_lag_ms = Some(ms(ended.saturating_duration_since(finished)));
                r
            }
            Err(e) => r.fail(e),
        }
    }

    /// Waits (up to a second) until no session holds replay state.
    fn wait_quiescent(&self) {
        let Some(daemon) = &self.daemon else { return };
        let deadline = Instant::now() + Duration::from_secs(1);
        while daemon.resident_sessions() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Control connection: `PING`, wait for the pong, then `WATCH <id>`
    /// and hand the connection to the watcher thread.
    fn open_watch(&mut self, id: u64) -> std::io::Result<()> {
        let stream = UnixStream::connect(&self.control)?;
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        writer.write_all(b"PING\n")?;
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut line = Vec::new();
        loop {
            match reader.read_until(b'\n', &mut line) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(_) if line.ends_with(b"\n") => {
                    if line == b".\n" {
                        break;
                    }
                    line.clear();
                }
                Ok(_) => {}
                Err(e) if is_timeout(&e) && Instant::now() < deadline => {}
                Err(e) => return Err(e),
            }
        }
        writer.write_all(format!("WATCH {id}\n").as_bytes())?;
        self.jobs
            .as_ref()
            .expect("harness live")
            .send(WatchJob { reader, deadline: Instant::now() + SESSION_DEADLINE })
            .map_err(|_| std::io::Error::other("watcher gone"))
    }

    /// Waits out the watcher after a producer-side failure, so the next
    /// session's feed is not mistaken for this one's; returns the daemon's
    /// verdict line.
    fn drain_watch(&self) -> String {
        self.results
            .recv_timeout(SESSION_DEADLINE + Duration::from_secs(5))
            .ok()
            .and_then(|w| w.lines.into_iter().rev().find(|(_, l)| l.starts_with("end ")))
            .map_or_else(|| "no verdict".into(), |(_, l)| l)
    }

    /// Shuts the daemon down and stops the watcher.
    pub fn shutdown(mut self) -> Vec<SessionReport> {
        self.jobs = None;
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
        self.daemon.take().map(Daemon::shutdown).unwrap_or_default()
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
    }
}

impl SessionResult {
    fn fail(mut self, why: String) -> SessionResult {
        self.ok = false;
        self.error = Some(why);
        self.records = 0;
        self
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Reference violations absent from the observed multiset (both sorted).
fn missing(expected: &[String], observed: &[String]) -> u64 {
    let (mut i, mut j, mut missing) = (0, 0, 0);
    while i < expected.len() {
        if j < observed.len() && observed[j] < expected[i] {
            j += 1;
        } else if j < observed.len() && observed[j] == expected[i] {
            i += 1;
            j += 1;
        } else {
            missing += 1;
            i += 1;
        }
    }
    missing
}

/// Checks the `end` line and the WATCH violation multiset against the
/// reference; returns the daemon's fingerprint on a match.
fn check_end(end: &str, verdict: &ReferenceVerdict, observed: &[String]) -> Result<u64, String> {
    let Some(fields) = end.strip_prefix("end ok ") else {
        return Err(end.to_string());
    };
    let field = |key: &str| {
        fields
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
            .map(str::to_string)
    };
    let records: Option<u64> = field("records").and_then(|v| v.parse().ok());
    let fingerprint = field("fingerprint").and_then(|v| u64::from_str_radix(&v, 16).ok());
    if records != Some(verdict.records) {
        return Err(format!("records {records:?} != reference {}", verdict.records));
    }
    if fingerprint != Some(verdict.fingerprint) {
        return Err(format!(
            "fingerprint {fingerprint:x?} != reference {:016x}",
            verdict.fingerprint
        ));
    }
    if observed != verdict.violations.as_slice() {
        let extra = observed.iter().find(|v| !verdict.violations.contains(v));
        let absent = verdict.violations.iter().find(|v| !observed.contains(v));
        return Err(format!(
            "WATCH showed {} violations, reference has {} (multisets differ: \
             first unexpected {extra:?}, first absent {absent:?})",
            observed.len(),
            verdict.violations.len()
        ));
    }
    Ok(fingerprint.expect("checked"))
}

fn watch_loop(jobs: &Receiver<WatchJob>, results: &Sender<WatchLines>) {
    for mut job in jobs {
        let mut lines = Vec::new();
        let mut buf = Vec::new();
        let mut complete = false;
        loop {
            match job.reader.read_until(b'\n', &mut buf) {
                Ok(0) => break,
                Ok(_) if buf.ends_with(b"\n") => {
                    let at = Instant::now();
                    let line = String::from_utf8_lossy(&buf).trim_end().to_string();
                    buf.clear();
                    if line == "." {
                        complete = true;
                        break;
                    }
                    lines.push((at, line));
                }
                Ok(_) => {}
                Err(e) if is_timeout(&e) && Instant::now() < job.deadline => {}
                Err(_) => break,
            }
        }
        if results.send(WatchLines { lines, complete }).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_counts_multiset_difference() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(missing(&s(&["a", "a", "b"]), &s(&["a", "b"])), 1);
        assert_eq!(missing(&s(&["a", "b"]), &s(&["a", "a", "b", "c"])), 0);
        assert_eq!(missing(&s(&["b"]), &s(&["a"])), 1);
        assert_eq!(missing(&[], &s(&["a"])), 0);
    }

    #[test]
    fn end_line_is_checked_against_the_reference() {
        let verdict = ReferenceVerdict {
            records: 10,
            fingerprint: 0xab,
            violations: vec!["violation 0 3 - x".into()],
            versions_produced: 0,
            versions_consumed: 0,
        };
        let seen = verdict.violations.clone();
        let ok = "end ok records=10 violations=1 fingerprint=00000000000000ab";
        assert_eq!(check_end(ok, &verdict, &seen), Ok(0xab));
        assert!(check_end(ok, &verdict, &[]).is_err(), "missing violation");
        let bad = "end ok records=10 violations=1 fingerprint=00000000000000ac";
        assert!(check_end(bad, &verdict, &seen).is_err(), "fingerprint");
        assert!(check_end("end err deadlock", &verdict, &seen).is_err());
    }
}
