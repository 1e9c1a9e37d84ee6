//! Run bookkeeping shared by every workload: statistics helpers, the
//! in-memory span log, the host fingerprint, and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even counts); `NaN` when
/// empty, which `Report::finish` refuses.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank `p`-quantile of `xs`, `p` in `[0, 1]`.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit being measured, read from `.git` in the working directory
/// when there is one, else `"unknown"`.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Available parallelism of the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One recorded span.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

/// The in-memory span log. Disabled tracers record nothing; spans are
/// written out once, by [`Tracer::write`], when the run ends.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span from `start` to `end` under `parent`.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent: parent.0,
            request,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Write every span as a JSON array to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let req = sp.request.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{req}}}{}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        s.push(']');
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// The run's outcome: verification counts and named metrics.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Count one verified output; `ok == false` counts it failed and
    /// says why on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Print one human-readable line per metric, then the result object
    /// as the last line of stdout. A metric that is not a finite number
    /// fails the run.
    pub fn finish(mut self) {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.failed += 1;
                self.attempted = self.attempted.max(1);
                eprintln!("FAILED: metric {name} is not finite");
            }
        }
        let mut json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            println!("{name:<40} {value:>16.6} {unit}");
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        let correct = self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}
