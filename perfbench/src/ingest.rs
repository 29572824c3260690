//! `ingest`: writes, then reads back. A DBLP-shaped stream with churn is bulk-loaded in
//! commits of 1000 updates (asynchronous cascade, no fsync per commit),
//! the database is reopened with `sync_on_commit` and read back, and two
//! writers then commit small transactions, each on its own slice of
//! entities.

use crate::gen::{self, Shape, SliceWriter, Vocab};
use crate::measure::{fail, median, Delta, Report, Samples, Tracer, MS};
use crate::model::Model;
use crate::reads::{self, Class, Draw, Lat};
use crate::rng::Rng;
use crate::{load_layers, load_metrics, open, run_layers, same_vocab, Ctx, Disk, Load};
use aion::{Aion, AionConfig, CheckLevel};
use lpg::{NodeId, RelId, Timestamp, Update};
use std::sync::Arc;
use std::time::Instant;

/// About 30k nodes, 210k relationships and 60k churn updates.
pub const SHAPE: Shape = Shape {
    dataset: "DBLP",
    scale: 0.1,
    churn: 0.25,
    batch: 1000,
    updates: 305_000,
};
const SETUPS: usize = 5;
const REOPENS: usize = 7;
const WRITERS: u64 = 2;
/// Durable commits per run, at least. The phase also lasts at least a
/// quarter of `--seconds`.
const DURABLE_COMMITS: usize = 100;
/// Blocks of as-of point lookups, then of 1–2 hop expansions, read back
/// after the reopen: about three and five seconds at this commit. A
/// window this long evens out the host's second-to-second speed.
const READS: [(Class, u64); 2] = [(Class::Point, 30_000), (Class::Expand, 400)];

/// Builds the model of a generated history.
pub fn model_of(commits: &[(Timestamp, Vec<Update>)]) -> Model {
    let mut model = Model::new();
    for (ts, ops) in commits {
        if let Err(e) = model.apply_commit(*ts, ops) {
            fail(&format!("generated stream is invalid: {e}"));
        }
    }
    model
}

pub fn run(ctx: &Ctx, report: &mut Report, tr: &mut Tracer) {
    // Set-up, several times: an empty database, the input stream and its
    // model. The last one is kept.
    let mut setup = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let dir = ctx.dir(&format!("ingest{k}"));
        let t = Instant::now();
        let db = open(AionConfig::new(&dir));
        let vocab = Vocab::intern(&db);
        let hist = gen::history(SHAPE, vocab, ctx.seed);
        let model = model_of(&hist.commits);
        setup.push(t.elapsed().as_secs_f64());
        if k + 1 == SETUPS {
            kept = Some((dir, db, vocab, hist, model));
        } else {
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (dir, db, vocab, hist, mut model) = kept.expect("at least one set-up");

    // Bulk phase: from the first commit until the cascade caught up.
    let before = db.metrics();
    report.measured_from = Some(before.clone());
    let t0 = Instant::now();
    let mut refused = Vec::new();
    for (i, (ts, ops)) in hist.commits.iter().enumerate() {
        let span = tr.begin("core.write_at", 0, *ts);
        let r = db.write_at(*ts, |txn| gen::apply_ops(txn, ops));
        tr.end(span);
        report.op("bulk_commit", &r);
        match r {
            Ok(got) if got != *ts => {
                report.check(&Err(format!("acked at {got}")), &format!("bulk commit {i}"))
            }
            Ok(_) => {}
            Err(_) => refused.push(i),
        }
    }
    let acked_s = t0.elapsed().as_secs_f64();
    tr.span("core.lineage_barrier", 0, 0, || {
        db.lineage_barrier(db.latest_ts())
    });
    let load = Load {
        updates: hist.updates as f64,
        acked_s,
        total_s: t0.elapsed().as_secs_f64(),
        delta: Delta::new(before, db.metrics()),
    };
    if !refused.is_empty() {
        // The model holds only what the program acknowledged.
        let acked: Vec<_> = hist
            .commits
            .iter()
            .enumerate()
            .filter(|(i, _)| !refused.contains(i))
            .map(|(_, c)| c.clone())
            .collect();
        model = model_of(&acked);
    }
    let after_load = db.metrics();
    let r = tr.span("core.sync", 0, 0, || db.sync());
    report.op("sync", &r);
    drop(db);
    let disk = Disk::of(&dir);

    // Reopen with one fsync per acknowledged commit.
    let mut cfg = AionConfig::new(&dir);
    cfg.sync_on_commit = true;
    let mut reopen = Vec::new();
    let mut db = None;
    for _ in 0..REOPENS {
        drop(db.take());
        let t = Instant::now();
        db = Some(tr.span("core.open", 0, 0, || open(cfg.clone())));
        reopen.push(t.elapsed().as_secs_f64());
    }
    let db = Arc::new(db.expect("reopened"));
    same_vocab(&db, vocab);
    let fsck = tr.span("check.full", 0, 0, || {
        db.check_consistency(CheckLevel::Full)
    });
    if report.op("fsck_full", &fsck) {
        let findings = fsck.map(|r| r.findings).unwrap_or_default();
        report.check(
            &match findings.first() {
                None => Ok(()),
                Some(f) => Err(format!("{} findings, first {f:?}", findings.len())),
            },
            "check_consistency(Full) after reopen",
        );
    }
    verify_reads(&db, &model, &hist, report, ctx.seed);

    // Read phase: the bulk-loaded history read back, several times the
    // LineageStore page cache.
    let mut draw = Draw::new(Rng::new(ctx.seed).fork(2), &model, &hist);
    let mut lat = Lat::default();
    let reads = reads::phases(&db, &mut draw, &READS, &mut lat, report, tr);
    if ctx.trace {
        reads::layers(&db, &draw, &reads, report, tr);
    }
    println!("{}", lat.point_us.summary("point_us"));
    println!("{}", lat.expand_us.summary("expand_us"));

    // Durable phase: two writers, each on its own slice.
    let before = db.metrics();
    let t1 = Instant::now();
    let lanes: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = db.clone();
            let (seed, seconds) = (ctx.seed, ctx.seconds / 4.0);
            let mut tr = tr.lane(w + 1);
            let (nodes, first_rel) = (hist.nodes, hist.rels);
            std::thread::spawn(move || {
                let mut writer = SliceWriter::new(seed, vocab, w, WRITERS, nodes, nodes, first_rel);
                let mut rep = Report::new(seed);
                let mut lat = Samples::default();
                let mut acked = Vec::new();
                let quota = DURABLE_COMMITS / WRITERS as usize;
                let mut i = 0;
                while i < quota || t1.elapsed().as_secs_f64() < seconds {
                    i += 1;
                    let ops = writer.next_txn();
                    let start = Instant::now();
                    let span = tr.begin("core.write", 0, (w << 32) | i as u64);
                    let r = db.write(|txn| gen::apply_ops(txn, &ops));
                    tr.end(span);
                    lat.push_since(start, MS);
                    if rep.op("durable_commit", &r) {
                        acked.push((r.unwrap_or_default(), ops));
                    }
                }
                (rep, tr, lat, acked)
            })
        })
        .collect();
    let mut commit_ms = Samples::default();
    let mut acked = Vec::new();
    for lane in lanes {
        let (rep, lane_tr, lat, a) = lane.join().unwrap_or_else(|_| fail("writer panicked"));
        report.merge_ops(&rep);
        tr.absorb(lane_tr);
        commit_ms.extend(lat);
        acked.extend(a);
    }
    let durable_s = t1.elapsed().as_secs_f64();
    let durable = Delta::new(before, db.metrics());
    let after = Delta::new(after_load, db.metrics());
    acked.sort_by_key(|(ts, _)| *ts);
    let mut touched = Vec::new();
    for (ts, ops) in &acked {
        report.check(&model.apply_commit(*ts, ops), "durable commit order");
        touched.extend(ops.iter().map(Update::entity));
    }
    db.lineage_barrier(db.latest_ts());
    verify_latest(&db, &model, &touched, report);
    println!(
        "ingest: {} updates in {} commits, acked after {acked_s:.3} s, caught up after {:.3} s; \
         {} durable commits in {durable_s:.3} s",
        hist.updates,
        hist.commits.len(),
        load.total_s,
        acked.len(),
    );
    println!("{}", commit_ms.summary("commit_ms"));
    if !ctx.trace {
        report.metric("setup_s", median(setup), "s");
        load_metrics(report, std::slice::from_ref(&load), &disk, reopen);
        report.quantile("point_us_p50", &lat.point_us, 0.5, "us");
        report.quantile("expand_us_p50", &lat.expand_us, 0.5, "us");
    } else {
        load_layers(report, &load, &disk, &after);
        run_layers(report, &durable, None);
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Point reads of random entities at random historical timestamps,
/// checked against the model: the bulk load must read back as written.
fn verify_reads(db: &Aion, model: &Model, hist: &gen::History, report: &mut Report, seed: u64) {
    let mut rng = Rng::new(seed).fork(7);
    for _ in 0..400 {
        let t = rng.between(1, hist.max_ts);
        let id = rng.below(hist.nodes);
        let r = db.get_node(NodeId::new(id), t, t);
        if report.op("verify_read", &r) {
            report.check(
                &model.check_node_point(id, t, &r.unwrap_or_default()),
                "verify node read",
            );
        }
        let id = rng.below(hist.rels);
        let r = db.get_relationship(RelId::new(id), t, t);
        if report.op("verify_read", &r) {
            report.check(
                &model.check_rel_point(id, t, &r.unwrap_or_default()),
                "verify rel read",
            );
        }
    }
}

/// Every entity the writers touched reads back at the latest timestamp
/// exactly as the model has it, and the latest graph has the model's
/// counts.
fn verify_latest(db: &Aion, model: &Model, touched: &[lpg::EntityId], report: &mut Report) {
    let t = db.latest_ts();
    for e in touched.iter().step_by(3) {
        match *e {
            lpg::EntityId::Node(id) => {
                let r = db.get_node(id, t, t);
                if report.op("verify_read", &r) {
                    report.check(
                        &model.check_node_point(id.raw(), t, &r.unwrap_or_default()),
                        "durable node",
                    );
                }
            }
            lpg::EntityId::Rel(id) => {
                let r = db.get_relationship(id, t, t);
                if report.op("verify_read", &r) {
                    report.check(
                        &model.check_rel_point(id.raw(), t, &r.unwrap_or_default()),
                        "durable rel",
                    );
                }
            }
        }
    }
    let g = db.latest_graph();
    let got = (g.node_count(), g.rel_count());
    let want = model.counts_at(t);
    report.check(
        &if got == want {
            Ok(())
        } else {
            Err(format!("{got:?}, want {want:?}"))
        },
        "latest graph counts after the durable phase",
    );
}
