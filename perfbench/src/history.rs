//! `history_reads`: reads only, one thread, over a DBLP-shaped history with
//! churn whose LineageStore file is several times its page cache: as-of
//! point lookups, 1–2 hop expansions from nodes alive at a random
//! historical `t`, and `get_graph_at(t)` snapshots.

use crate::gen::{self, History, Shape, Vocab};
use crate::ingest::model_of;
use crate::measure::{fail, median, Delta, Report, Tracer};
use crate::model::Model;
use crate::reads::{self, run_op, Class, Draw, Lat, BLOCK};
use crate::rng::Rng;
use crate::{load_history, load_layers, load_metrics, open, run_layers, same_vocab, Ctx, Disk, Load};
use aion::{Aion, AionConfig};
use lpg::{Direction, NodeId};
use std::time::Instant;

/// About 13.5k nodes, 94k relationships and 27k churn updates: a ~26 MiB
/// LineageStore file against its 8 MiB page cache.
pub const SHAPE: Shape = Shape {
    dataset: "DBLP",
    scale: 0.045,
    churn: 0.25,
    batch: 1000,
    updates: 137_000,
};
const SETUPS: usize = 3;
/// Times each set-up closes and reopens the loaded database.
const REOPENS: usize = 3;
/// The run is `ROUNDS` rounds of three phases, one per operation class,
/// each running a fixed number of operations per second of `--seconds`
/// (sized to take about a fifth, three tenths and half of the run at this
/// commit). A class measured in a phase of its own is not slowed by the
/// cache and allocator churn of the others, and with a fixed op sequence
/// for a seed the page-cache and GraphStore states repeat from run to
/// run; spread over rounds, each class is sampled across the whole run,
/// not in one window of it. A phase also stops at four times its share of
/// the time, so a much slower program still ends in time.
const ROUNDS: u64 = 4;
const PHASES: [(Class, f64, f64); 3] = [
    (Class::Point, 0.2, 32_000.0),
    (Class::Expand, 0.3, 800.0),
    (Class::Snapshot, 0.5, 16.0),
];
/// The traced run does the operations of this many seconds, whatever
/// `--seconds` says, so its counters repeat for a seed.
const TRACED_SECONDS: f64 = 3.0;
/// Expansions compared between the LineageStore and the TimeStore.
const AGREEMENT: usize = 12;

/// One set-up: the history built into a fresh directory, closed and
/// reopened `REOPENS` times.
struct Built {
    dir: std::path::PathBuf,
    db: Aion,
    hist: History,
    model: Model,
    load: Load,
    disk: Disk,
    reopen_s: Vec<f64>,
    /// The program's metrics once the load was done.
    after_load: obs::MetricsSnapshot,
}

fn build(ctx: &Ctx, k: usize) -> Built {
    let dir = ctx.dir(&format!("history{k}"));
    let db = open(AionConfig::new(&dir));
    let vocab = Vocab::intern(&db);
    let hist = gen::history(SHAPE, vocab, ctx.seed);
    let load = load_history(&db, &hist);
    let after_load = db.metrics();
    if let Err(e) = db.sync() {
        fail(&format!("sync after load: {e}"));
    }
    drop(db);
    let disk = Disk::of(&dir);
    let mut reopen_s = Vec::new();
    let mut db = None;
    for _ in 0..REOPENS {
        drop(db.take());
        let t = Instant::now();
        db = Some(open(AionConfig::new(&dir)));
        reopen_s.push(t.elapsed().as_secs_f64());
    }
    let db = db.expect("reopened");
    same_vocab(&db, vocab);
    let model = model_of(&hist.commits);
    Built {
        dir,
        db,
        hist,
        model,
        load,
        disk,
        reopen_s,
        after_load,
    }
}

pub fn run(ctx: &Ctx, report: &mut Report, tr: &mut Tracer) {
    let (mut setup, mut loads, mut reopen) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let built = build(ctx, k);
        setup.push(t.elapsed().as_secs_f64());
        reopen.extend_from_slice(&built.reopen_s);
        if k + 1 == SETUPS {
            kept = Some(built);
        } else {
            loads.push(built.load);
            drop(built.db);
            let _ = std::fs::remove_dir_all(built.dir);
        }
    }
    let Built {
        dir,
        db,
        hist,
        model,
        load,
        disk,
        after_load,
        ..
    } = kept.expect("at least one set-up");
    let mut draw = Draw::new(Rng::new(ctx.seed).fork(2), &model, &hist);
    let mut lat = Lat::default();
    let before = db.metrics();
    report.measured_from = Some(before.clone());
    if !ctx.trace {
        let mut req = 0;
        let round_s = ctx.seconds / ROUNDS as f64;
        for _ in 0..ROUNDS {
            for (class, share, per_s) in PHASES {
                let start = Instant::now();
                let blocks = (per_s * round_s / BLOCK as f64).ceil() as u64;
                for _ in 0..blocks {
                    for op in draw.block(class) {
                        req += 1;
                        run_op(&db, &op, &mut draw, &mut lat, report, tr, req);
                    }
                    if start.elapsed().as_secs_f64() > 4.0 * share * round_s {
                        break;
                    }
                }
            }
        }
    } else {
        // A fixed number of operations, so the counters repeat for a seed.
        let plan: Vec<(Class, u64)> = PHASES
            .iter()
            .map(|&(class, _, per_s)| (class, (per_s * TRACED_SECONDS / BLOCK as f64).ceil() as u64))
            .collect();
        let done = reads::phases(&db, &mut draw, &plan, &mut lat, report, tr);
        reads::layers(&db, &draw, &done, report, tr);
    }
    let run = Delta::new(before, db.metrics());
    agreement(&db, &mut draw, report);
    let chains = (0..hist.nodes)
        .filter(|id| model.node_versions(*id) > 4)
        .count();
    println!(
        "history_reads: {} updates, {chains} nodes with more than 4 versions, \
         {} points, {} expands, {} snapshots",
        hist.updates,
        lat.point_us.len(),
        lat.expand_us.len(),
        lat.snapshot_ms.len()
    );
    for (name, s) in [
        ("point_us", &lat.point_us),
        ("expand_us", &lat.expand_us),
        ("snapshot_ms", &lat.snapshot_ms),
    ] {
        println!("{}", s.summary(name));
    }
    if !ctx.trace {
        loads.push(load);
        report.metric("setup_s", median(setup), "s");
        load_metrics(report, &loads, &disk, reopen);
        report.quantile("point_us_p50", &lat.point_us, 0.5, "us");
        report.quantile("expand_us_p50", &lat.expand_us, 0.5, "us");
    } else {
        load_layers(report, &load, &disk, &Delta::new(after_load, db.metrics()));
        run_layers(report, &run, None);
    }
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

/// The LineageStore and the TimeStore must agree: `expand` against
/// `expand_via_snapshot` on a sample of starts.
fn agreement(db: &Aion, draw: &mut Draw, report: &mut Report) {
    for i in 0..AGREEMENT {
        let (id, t) = draw.alive_node();
        let hops = 1 + (i % 2) as u32;
        let lineage = db
            .lineagestore()
            .expand(NodeId::new(id), Direction::Outgoing, hops, t);
        let snapshot = db.expand_via_snapshot(NodeId::new(id), Direction::Outgoing, hops, t);
        if report.op("agreement", &lineage) && report.op("agreement", &snapshot) {
            let mut a: Vec<(u64, u32)> = lineage
                .unwrap_or_default()
                .into_iter()
                .map(|h| (h.node.id.raw(), h.hop))
                .collect();
            let mut b: Vec<(u64, u32)> = snapshot
                .unwrap_or_default()
                .into_iter()
                .map(|(n, h)| (n.raw(), h))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            report.check(
                &if a == b {
                    Ok(())
                } else {
                    Err(format!("{} vs {} results", a.len(), b.len()))
                },
                &format!("LineageStore vs TimeStore expand of {id} at {t}"),
            );
        }
    }
}
