//! The repository benchmark: three workloads over the Aion stack, each
//! checked against a reference model, with end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload <ingest|history_reads|wire_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--data-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod gen;
mod history;
mod ingest;
mod measure;
mod model;
mod reads;
mod rng;
mod wire;

use measure::{dir_bytes, fail, median, Delta, Report, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What every workload gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's private data directory.
    pub root: PathBuf,
}

impl Ctx {
    /// A fresh directory for one database of this run.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Opens a database or ends the run.
pub fn open(cfg: aion::AionConfig) -> aion::Aion {
    let dir = cfg.dir.display().to_string();
    aion::Aion::open(cfg).unwrap_or_else(|e| fail(&format!("opening {dir}: {e}")))
}

/// Interns the vocabulary into a freshly opened database and insists the
/// ids are the ones the inputs were generated with.
pub fn same_vocab(db: &aion::Aion, vocab: gen::Vocab) {
    if gen::Vocab::intern(db) != vocab {
        fail("the interner assigned different ids after a reopen");
    }
}

/// Counters printed by traced runs, one per layer.
const WORK: [&str; 8] = [
    "server.requests",
    "query.executed",
    "core.commits",
    "timestore.log.appends",
    "timestore.snapshot.replays",
    "lineagestore.updates.applied",
    "btree.page.reads",
    "pagestore.cache.misses",
];

fn remove(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let need = |name: &str| arg(name).unwrap_or_else(|| fail(&format!("missing {name}")));
    let workload = need("--workload");
    let seed: u64 = need("--seed")
        .parse()
        .unwrap_or_else(|_| fail("--seed must be a whole number"));
    let seconds: f64 = need("--seconds")
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| fail("--seconds must be positive"));
    let trace = match need("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => fail("--trace must be 0 or 1"),
    };
    let data = PathBuf::from(arg("--data-dir").unwrap_or_else(|| ".bench_data".into()));
    let root = data.join(format!("{workload}-{seed}-{}", std::process::id()));
    remove(&root);
    std::fs::create_dir_all(&root)
        .unwrap_or_else(|e| fail(&format!("creating {}: {e}", root.display())));
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        root,
    };
    let mut report = Report::new(seed);
    let mut tracer = Tracer::new(trace, Instant::now(), 0);
    match workload.as_str() {
        "ingest" => ingest::run(&ctx, &mut report, &mut tracer),
        "history_reads" => history::run(&ctx, &mut report, &mut tracer),
        "wire_mixed" => wire::run(&ctx, &mut report, &mut tracer),
        other => fail(&format!("unknown workload {other}")),
    }
    if !trace {
        report.metric("peak_rss_mb", measure::peak_rss_mb(), "MiB");
    }
    if trace {
        // Work each layer did after set-up, to compare workloads.
        let before = report.measured_from.take().unwrap_or_default();
        let run = measure::Delta::new(before, obs::snapshot());
        for name in WORK {
            println!("work {name:<32} {:>14}", run.counter(name));
        }
        report.metric("trace.overhead_pct", tracer.overhead_pct(), "%");
        tracer.write_out(&data.join(format!("spans-{workload}-{seed}.tsv")));
    }
    remove(&ctx.root);
    report.print();
}

/// A bulk load of a generated history. Every workload loads one, so every
/// workload reports what it cost.
pub struct Load {
    pub updates: f64,
    /// From the first commit until the last one was acknowledged.
    pub acked_s: f64,
    /// From the first commit until `lineage_barrier` returned.
    pub total_s: f64,
    /// The program's metrics over the load.
    pub delta: Delta,
}

/// Commits a generated history in its batches and waits for the cascade.
/// Set-up only: a refused commit ends the run.
pub fn load_history(db: &aion::Aion, hist: &gen::History) -> Load {
    let before = db.metrics();
    let t0 = Instant::now();
    for (ts, ops) in &hist.commits {
        if let Err(e) = db.write_at(*ts, |txn| gen::apply_ops(txn, ops)) {
            fail(&format!("loading commit {ts}: {e}"));
        }
    }
    let acked_s = t0.elapsed().as_secs_f64();
    db.lineage_barrier(db.latest_ts());
    Load {
        updates: hist.updates as f64,
        acked_s,
        total_s: t0.elapsed().as_secs_f64(),
        delta: Delta::new(before, db.metrics()),
    }
}

/// Sizes of a closed database's files, in bytes.
pub struct Disk {
    total: f64,
    log: f64,
    snapshots: f64,
    lineage: f64,
}

impl Disk {
    pub fn of(dir: &Path) -> Disk {
        let ts = dir.join("timestore");
        Disk {
            total: dir_bytes(dir) as f64,
            log: dir_bytes(&ts.join("timestore.log")) as f64,
            snapshots: dir_bytes(&ts.join("snapshots")) as f64,
            lineage: dir_bytes(&dir.join("lineage.db")) as f64,
        }
    }
}

/// The end-to-end figures of the loads every workload makes: the median
/// load rate over its loads, the data directory per update of the kept
/// one, and the median time to reopen it.
pub fn load_metrics(report: &mut Report, loads: &[Load], disk: &Disk, reopen: Vec<f64>) {
    let rates = loads.iter().map(|l| l.updates / l.total_s).collect();
    report.metric("ingest_updates_per_s", median(rates), "1/s");
    let updates = loads.last().map_or(1.0, |l| l.updates);
    report.metric("disk_bytes_per_update", disk.total / updates, "B");
    report.metric("reopen_s", median(reopen), "s");
}

/// The per-layer figures of the kept load. `after` covers what followed
/// it: the close, the reopens and the measured run.
pub fn load_layers(report: &mut Report, load: &Load, disk: &Disk, after: &Delta) {
    let (n, d) = (load.updates, &load.delta);
    report.metric("core.acked_updates_per_s", n / load.acked_s, "1/s");
    report.metric("core.lineage_catchup_s", load.total_s - load.acked_s, "s");
    let total = |name| d.hist_sum(name, 1e6) + after.hist_sum(name, 1e6);
    report.metric(
        "timestore.snapshot_create_ms_total",
        total("timestore.snapshot.create.latency_ns"),
        "ms",
    );
    report.metric("timestore.log_bytes_per_update", disk.log / n, "B");
    report.metric("timestore.snapshot_bytes_per_update", disk.snapshots / n, "B");
    report.metric("lineagestore.bytes_per_update", disk.lineage / n, "B");
    report.metric(
        "btree.page_reads_per_update",
        d.counter("btree.page.reads") / n,
        "count",
    );
    report.metric(
        "btree.splits_per_1k_updates",
        1e3 * d.counter("btree.splits") / n,
        "count",
    );
    report.metric(
        "pagestore.writeback_ms_total",
        total("pagestore.writeback.latency_ns"),
        "ms",
    );
}

/// The per-layer figures of the server, the query engine and the commit
/// path over the measured part of a run; 0 where it made no such call.
/// `request_us_mean` is the clients' mean round trip, when there were
/// clients.
pub fn run_layers(report: &mut Report, run: &Delta, request_us_mean: Option<f64>) {
    let run_us = run.mean_or_zero("server.request.run.latency_ns", 1e3);
    report.metric("server.run_us_mean", run_us, "us");
    report.metric(
        "server.transport_us_mean",
        request_us_mean.map_or(0.0, |m| m - run_us),
        "us",
    );
    for (metric, hist) in [
        ("query.parse_us_mean", "query.parse.latency_ns"),
        ("query.bind_us_mean", "query.bind.latency_ns"),
        ("query.exec_us_mean", "query.exec.latency_ns"),
        ("query.action_us_mean", "query.action.latency_ns"),
        ("core.commit_us_mean", "core.commit.latency_ns"),
    ] {
        report.metric(metric, run.mean_or_zero(hist, 1e3), "us");
    }
    report.metric(
        "core.commits_per_fsync",
        run.mean_or_zero("core.group_commit.size", 1.0),
        "count",
    );
}
