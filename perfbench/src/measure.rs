//! Measurement plumbing: latency samples and their percentiles, the run
//! report (metrics, operations attempted and failed, check failures), the
//! in-memory span recorder of traced runs, and deltas of the program's own
//! `obs` metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Latency samples of one operation class.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_since(&mut self, start: Instant, unit: Duration) {
        self.0
            .push(start.elapsed().as_secs_f64() / unit.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// One line with the sample count and a few quantiles.
    pub fn summary(&self, name: &str) -> String {
        let mut v = self.0.clone();
        v.sort_unstable_by(f64::total_cmp);
        let q = |q: f64| {
            v.get(((q * v.len() as f64) as usize).min(v.len().saturating_sub(1)))
                .copied()
                .unwrap_or(0.0)
        };
        format!(
            "samples {name:<14} n {:>7} p10 {:>10.3} p25 {:>10.3} p50 {:>10.3} p75 {:>10.3} p90 {:>10.3} p99 {:>10.3} max {:>10.3}",
            v.len(),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            q(0.99),
            q(1.0)
        )
    }

    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len().max(1) as f64
    }

    /// The nearest-rank `q` quantile, or `None` unless at least ten values
    /// lie beyond it (a tail estimated from fewer is no tail).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if n - rank < 10 && q > 0.5 {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_unstable_by(f64::total_cmp);
        Some(v[rank - 1])
    }
}

pub const US: Duration = Duration::from_micros(1);
pub const MS: Duration = Duration::from_millis(1);

/// Everything one run reports.
pub struct Report {
    pub seed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Per operation class: (attempted, failed).
    ops: BTreeMap<&'static str, (u64, u64)>,
    /// First check failure, naming the operation and the seed.
    pub mismatch: Option<String>,
    mismatches: u64,
    errors_shown: u64,
    /// The program's metrics when the measured part began (after set-up).
    pub measured_from: Option<obs::MetricsSnapshot>,
}

impl Report {
    pub fn new(seed: u64) -> Report {
        Report {
            seed,
            metrics: Vec::new(),
            ops: BTreeMap::new(),
            mismatch: None,
            mismatches: 0,
            errors_shown: 0,
            measured_from: None,
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Reports the `q` quantile of `samples` under `name`. Too few samples
    /// for that quantile is a fault of the run's sizing, not a result.
    pub fn quantile(&mut self, name: &str, samples: &Samples, q: f64, unit: &'static str) {
        match samples.quantile(q) {
            Some(v) => self.metric(name, v, unit),
            None => fail(&format!(
                "{name}: {} samples are too few for the {q} quantile",
                samples.len()
            )),
        }
    }

    /// Counts one attempted operation of `class` and whether it failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, class: &'static str, r: &Result<T, E>) -> bool {
        let e = self.ops.entry(class).or_default();
        e.0 += 1;
        if let Err(err) = r {
            e.1 += 1;
            if self.errors_shown < 5 {
                self.errors_shown += 1;
                eprintln!("perfbench: {class} failed: {err}");
            }
            return false;
        }
        true
    }

    /// Folds in the operation counts of another thread's report.
    pub fn merge_ops(&mut self, other: &Report) {
        for (class, (a, f)) in &other.ops {
            let e = self.ops.entry(class).or_default();
            e.0 += a;
            e.1 += f;
        }
        if self.mismatch.is_none() {
            self.mismatch = other.mismatch.clone();
        }
        self.mismatches += other.mismatches;
    }

    /// Records a failed check of an answer against the reference model.
    pub fn check(&mut self, r: &Result<(), String>, op: &str) {
        if let Err(e) = r {
            self.mismatches += 1;
            if self.mismatch.is_none() {
                let msg = format!("seed {}: {op}: {e}", self.seed);
                eprintln!("perfbench: MISMATCH {msg}");
                self.mismatch = Some(msg);
            }
        }
    }

    /// Human-readable lines, then the one-line JSON result.
    pub fn print(&self) {
        for (class, (a, f)) in &self.ops {
            println!("ops {class:<16} attempted {a:>9} failed {f:>6}");
        }
        for (name, v, unit) in &self.metrics {
            println!("metric {name:<36} {v:>16.4} {unit}");
        }
        if let Some(m) = &self.mismatch {
            println!("check FAILED ({} mismatches), first: {m}", self.mismatches);
        }
        let attempted: u64 = self.ops.values().map(|e| e.0).sum();
        let failed: u64 = self.ops.values().map(|e| e.1).sum();
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            self.mismatch.is_none()
        );
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Ends the run without a result.
pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

/// Median of a few set-up (or reopen) times.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    v[v.len() / 2]
}

// ------------------------------------------------------------------ spans

/// One call the benchmark made into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 when the span has no parent.
    pub parent: u64,
    /// Spans of one request share this id.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. A disabled tracer records nothing; traced runs
/// write the spans out once the run ends.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: u64,
    /// Time spent recording spans: what a traced run pays over an
    /// untraced one.
    cost_ns: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `lane` of the run; span ids of different
    /// lanes never collide.
    pub fn new(on: bool, t0: Instant, lane: u64) -> Tracer {
        Tracer {
            on,
            t0,
            next: (lane << 40) + 1,
            cost_ns: 0,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn lane(&self, lane: u64) -> Tracer {
        Tracer::new(self.on, self.t0, lane)
    }

    /// Opens a span; returns its id (0 when tracing is off).
    pub fn begin(&mut self, name: &'static str, parent: u64, req: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.cost_ns += self.t0.elapsed().as_nanos() as u64 - now;
        id
    }

    pub fn end(&mut self, id: u64) {
        if !self.on {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = now;
        }
        self.cost_ns += self.t0.elapsed().as_nanos() as u64 - now;
    }

    /// Recording cost as a share of the run so far, in percent.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * self.cost_ns as f64 / self.t0.elapsed().as_nanos().max(1) as f64
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let r = f();
        self.end(id);
        r
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.cost_ns += other.cost_ns;
        self.spans.extend(other.spans);
    }

    /// Total and self time per layer (the span name up to its first dot):
    /// a span's self time is its duration minus its children's.
    pub fn layer_times(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let mut child_ns: std::collections::HashMap<u64, u64> = Default::default();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let e = out.entry(layer).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += own as f64 / 1e6;
        }
        out
    }

    /// Mean duration in microseconds of the spans called `name`.
    pub fn mean_us(&self, name: &str) -> Option<f64> {
        let durs: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        (!durs.is_empty()).then(|| durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e3)
    }

    /// Writes every span as one tab-separated line and prints each layer's
    /// total and self time.
    pub fn write_out(&self, path: &Path) {
        let mut text = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            );
        }
        if let Err(e) = std::fs::write(path, text) {
            fail(&format!("writing spans to {}: {e}", path.display()));
        }
        println!("spans {} written to {}", self.spans.len(), path.display());
        for (layer, (n, total, own)) in self.layer_times() {
            println!("layer {layer:<14} spans {n:>8} total {total:>12.3} ms self {own:>12.3} ms");
        }
    }
}

// ------------------------------------------------------------ obs deltas

/// The change of the program's own metrics between two snapshots.
pub struct Delta {
    before: obs::MetricsSnapshot,
    after: obs::MetricsSnapshot,
}

impl Delta {
    pub fn new(before: obs::MetricsSnapshot, after: obs::MetricsSnapshot) -> Delta {
        Delta { before, after }
    }

    pub fn counter(&self, name: &str) -> f64 {
        let a = self.after.counter(name).unwrap_or(0);
        let b = self.before.counter(name).unwrap_or(0);
        a.saturating_sub(b) as f64
    }

    /// `(count, sum)` recorded into histogram `name`.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let get = |s: &obs::MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (ca, sa) = get(&self.after);
        let (cb, sb) = get(&self.before);
        (ca.saturating_sub(cb) as f64, sa.saturating_sub(sb) as f64)
    }

    /// Mean of the values recorded into `name`, divided by `scale`.
    pub fn hist_mean(&self, name: &str, scale: f64) -> f64 {
        let (c, s) = self.hist(name);
        if c == 0.0 {
            fail(&format!("histogram {name} recorded nothing"));
        }
        s / c / scale
    }

    /// Like `hist_mean`, but 0 when `name` recorded nothing: the layer
    /// made no such call in this workload.
    pub fn mean_or_zero(&self, name: &str, scale: f64) -> f64 {
        let (c, s) = self.hist(name);
        s / c.max(1.0) / scale
    }

    /// Sum of the values recorded into `name`, divided by `scale`.
    pub fn hist_sum(&self, name: &str, scale: f64) -> f64 {
        self.hist(name).1 / scale
    }
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or_else(|| fail("VmHWM not readable"), |kb| kb / 1024.0)
}

/// Total size of the regular files under `path`.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return std::fs::metadata(path).map_or(0, |m| m.len());
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}
