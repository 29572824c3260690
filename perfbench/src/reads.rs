//! In-process reads through the public `Aion` API, shared by the
//! workloads: as-of point lookups, 1–2 hop expansions from nodes alive at
//! a random historical `t`, and `get_graph_at(t)` snapshots, each checked
//! against the model; and the per-layer read figures of a traced run.

use crate::gen::History;
use crate::measure::{Delta, Report, Samples, Tracer, MS, US};
use crate::model::Model;
use crate::rng::Rng;
use aion::Aion;
use lpg::{Direction, NodeId, RelId, Timestamp};
use std::time::Instant;

/// Operations drawn at a time. A block of points is a quarter nodes and
/// the rest relationships, a block of expansions a quarter 2-hop and the
/// rest 1-hop: uneven splits keep each median inside one class of cost
/// rather than in the gap between two. A block of snapshots takes one
/// timestamp from each of `BLOCK` equal slices of the history, so every
/// run covers the timeline evenly.
pub const BLOCK: u64 = 16;

#[derive(Clone, Copy, PartialEq)]
pub enum Class {
    Point,
    Expand,
    Snapshot,
}

/// One operation drawn for a block.
#[derive(Clone)]
pub enum Op {
    Node(u64, Timestamp),
    Rel(u64, Timestamp),
    Expand(u64, u32, Timestamp),
    Snapshot(Timestamp),
}

/// Draws operations. Every entity is drawn alive at its `t`: drawn
/// blindly, many starts would precede their node's creation and only
/// exercise the not-found path.
pub struct Draw<'a> {
    rng: Rng,
    pub model: &'a Model,
    hist: &'a History,
}

impl<'a> Draw<'a> {
    pub fn new(rng: Rng, model: &'a Model, hist: &'a History) -> Draw<'a> {
        Draw { rng, model, hist }
    }

    fn ts(&mut self) -> Timestamp {
        self.rng.between(1, self.hist.max_ts)
    }

    pub fn alive_node(&mut self) -> (u64, Timestamp) {
        loop {
            let t = self.ts();
            for _ in 0..32 {
                let id = self.rng.below(self.hist.nodes);
                if self.model.node_at(id, t).is_some() {
                    return (id, t);
                }
            }
        }
    }

    fn alive_rel(&mut self) -> (u64, Timestamp) {
        loop {
            let t = self.ts();
            for _ in 0..32 {
                let id = self.rng.below(self.hist.rels);
                if self.model.rel_at(id, t).is_some() {
                    return (id, t);
                }
            }
        }
    }

    pub fn block(&mut self, class: Class) -> Vec<Op> {
        (0..BLOCK)
            .map(|i| match class {
                Class::Point if i % 4 == 0 => {
                    let (id, t) = self.alive_node();
                    Op::Node(id, t)
                }
                Class::Point => {
                    let (id, t) = self.alive_rel();
                    Op::Rel(id, t)
                }
                Class::Expand => {
                    let (id, t) = self.alive_node();
                    Op::Expand(id, if i % 4 == 0 { 2 } else { 1 }, t)
                }
                Class::Snapshot => {
                    let slice = self.hist.max_ts / BLOCK;
                    Op::Snapshot(i * slice + self.rng.between(1, slice))
                }
            })
            .collect()
    }

    /// Entities to compare in a snapshot.
    fn sample(&mut self) -> (Vec<u64>, Vec<u64>) {
        let nodes = (0..16).map(|_| self.rng.below(self.hist.nodes)).collect();
        let rels = (0..16).map(|_| self.rng.below(self.hist.rels)).collect();
        (nodes, rels)
    }
}

/// Latencies of the three operation classes.
#[derive(Default)]
pub struct Lat {
    pub point_us: Samples,
    pub expand_us: Samples,
    pub snapshot_ms: Samples,
}

/// Runs one operation through the public `Aion` API, times it, and checks
/// the answer against the model.
pub fn run_op(
    db: &Aion,
    op: &Op,
    d: &mut Draw,
    lat: &mut Lat,
    report: &mut Report,
    tr: &mut Tracer,
    req: u64,
) {
    let model = d.model;
    match *op {
        Op::Node(id, t) => {
            let start = Instant::now();
            let r = tr.span("core.get_node", 0, req, || {
                db.get_node(NodeId::new(id), t, t)
            });
            lat.point_us.push_since(start, US);
            if report.op("point", &r) {
                report.check(
                    &model.check_node_point(id, t, &r.unwrap_or_default()),
                    "get_node",
                );
            }
        }
        Op::Rel(id, t) => {
            let start = Instant::now();
            let r = tr.span("core.get_relationship", 0, req, || {
                db.get_relationship(RelId::new(id), t, t)
            });
            lat.point_us.push_since(start, US);
            if report.op("point", &r) {
                report.check(
                    &model.check_rel_point(id, t, &r.unwrap_or_default()),
                    "get_relationship",
                );
            }
        }
        Op::Expand(id, hops, t) => {
            let start = Instant::now();
            let r = tr.span("core.expand", 0, req, || {
                db.expand(NodeId::new(id), Direction::Outgoing, hops, t)
            });
            lat.expand_us.push_since(start, US);
            if report.op("expand", &r) {
                let got = r.unwrap_or_default();
                report.check(
                    &model.check_expand(id, Direction::Outgoing, hops, t, &got),
                    "expand",
                );
            }
        }
        Op::Snapshot(t) => {
            let start = Instant::now();
            let r = tr.span("core.get_graph_at", 0, req, || db.get_graph_at(t));
            lat.snapshot_ms.push_since(start, MS);
            if report.op("snapshot", &r) {
                let (nodes, rels) = d.sample();
                if let Ok(g) = r {
                    report.check(&model.check_snapshot(t, &g, &nodes, &rels), "get_graph_at");
                }
            }
        }
    }
}

/// One phase of a fixed number of blocks of one class, with the program's
/// metrics over it and the operations it ran.
pub struct Phase {
    pub class: Class,
    pub delta: Delta,
    pub ops: Vec<Op>,
}

/// Runs `blocks` blocks of each class in turn, one phase per class.
pub fn phases(
    db: &Aion,
    draw: &mut Draw,
    plan: &[(Class, u64)],
    lat: &mut Lat,
    report: &mut Report,
    tr: &mut Tracer,
) -> Vec<Phase> {
    let mut req = 0;
    plan.iter()
        .map(|&(class, blocks)| {
            let before = db.metrics();
            let ops: Vec<Op> = (0..blocks).flat_map(|_| draw.block(class)).collect();
            for op in &ops {
                req += 1;
                run_op(db, op, draw, lat, report, tr, req);
            }
            Phase {
                class,
                delta: Delta::new(before, db.metrics()),
                ops,
            }
        })
        .collect()
}

/// The per-layer read figures of a traced run: the points and expansions
/// of `done` are made again directly on the LineageStore, and each
/// phase's counter deltas give the B+Tree and page-store work per
/// operation. Figures of a class no phase ran read 0.
pub fn layers(db: &Aion, draw: &Draw, done: &[Phase], report: &mut Report, tr: &mut Tracer) {
    let ls = db.lineagestore();
    let mut req = 0;
    for op in done.iter().flat_map(|p| &p.ops) {
        req += 1;
        match *op {
            Op::Node(id, t) => {
                let r = tr.span("lineagestore.node_history", 0, req, || {
                    ls.node_history(NodeId::new(id), t, t)
                });
                if report.op("lineage_direct", &r) {
                    report.check(
                        &draw.model.check_node_point(id, t, &r.unwrap_or_default()),
                        "node_history",
                    );
                }
            }
            Op::Expand(id, hops, t) => {
                let r = tr.span("lineagestore.expand", 0, req, || {
                    ls.expand(NodeId::new(id), Direction::Outgoing, hops, t)
                });
                if report.op("lineage_direct", &r) {
                    let got: Vec<(NodeId, u32)> = r
                        .unwrap_or_default()
                        .into_iter()
                        .map(|h| (h.node.id, h.hop))
                        .collect();
                    report.check(
                        &draw
                            .model
                            .check_expand(id, Direction::Outgoing, hops, t, &got),
                        "lineagestore expand",
                    );
                }
            }
            _ => {}
        }
    }
    report.metric(
        "lineagestore.node_history_us_mean",
        tr.mean_us("lineagestore.node_history").unwrap_or(0.0),
        "us",
    );
    report.metric(
        "lineagestore.expand_us_mean",
        tr.mean_us("lineagestore.expand").unwrap_or(0.0),
        "us",
    );
    let phase = |class| done.iter().find(|p| p.class == class);
    let per_op = |class, name| {
        phase(class).map_or(0.0, |p| p.delta.counter(name) / p.ops.len().max(1) as f64)
    };
    report.metric(
        "btree.page_reads_per_point",
        per_op(Class::Point, "btree.page.reads"),
        "count",
    );
    report.metric(
        "btree.page_reads_per_expand",
        per_op(Class::Expand, "btree.page.reads"),
        "count",
    );
    report.metric(
        "pagestore.misses_per_point",
        per_op(Class::Point, "pagestore.cache.misses"),
        "count",
    );
    let reads: Vec<&Delta> = [Class::Point, Class::Expand]
        .into_iter()
        .filter_map(|c| phase(c).map(|p| &p.delta))
        .collect();
    let sum = |name| reads.iter().map(|d| d.counter(name)).sum::<f64>();
    let (hits, misses) = (sum("pagestore.cache.hits"), sum("pagestore.cache.misses"));
    report.metric(
        "pagestore.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    let (c, s) = reads.iter().fold((0.0, 0.0), |(c, s), d| {
        let (dc, ds) = d.hist("pagestore.read.latency_ns");
        (c + dc, s + ds)
    });
    report.metric("pagestore.read_us_mean", s / c.max(1.0) / 1e3, "us");
    let snaps = phase(Class::Snapshot).map(|p| &p.delta);
    let gs = |name| snaps.map_or(0.0, |d| d.counter(name));
    let (gs_hits, gs_misses) = (
        gs("timestore.graphstore.hits"),
        gs("timestore.graphstore.misses"),
    );
    report.metric(
        "timestore.graphstore_hit_ratio",
        gs_hits / (gs_hits + gs_misses).max(1.0),
        "ratio",
    );
    report.metric(
        "timestore.replay_ms_mean",
        snaps.map_or(0.0, |d| {
            d.hist_mean("timestore.snapshot.replay.latency_ns", 1e6)
        }),
        "ms",
    );
}
