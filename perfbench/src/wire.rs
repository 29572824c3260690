//! `wire_mixed`: a closed loop of two `aion_server::Client` connections
//! against an in-process `Server`, over a small Pokec-shaped history. The
//! Fig. 13 mix: AS OF point reads at random historical timestamps, 1-hop
//! `MATCH` at the implicit latest, paged AS OF scans drained page by page,
//! and 10% writes (`SET`, `CREATE`).

use crate::gen::{self, History, Shape, Vocab};
use crate::ingest::model_of;
use crate::measure::{fail, median, Delta, Report, Samples, Tracer, MS, US};
use crate::model::Model;
use crate::reads::{self, Class, Draw, Lat};
use crate::rng::Rng;
use crate::{load_history, load_layers, load_metrics, open, run_layers, same_vocab, Ctx, Disk};
use aion::{Aion, AionConfig};
use aion_server::{Client, ClientConfig, Server};
use lpg::{Direction, Node, NodeId, PropertyValue, Relationship, Timestamp, Update};
use query::Value;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// About 1.6k nodes and 30k relationships (|E|/|V| 18.8, directed): a
/// LineageStore file smaller than its 8 MiB page cache.
pub const SHAPE: Shape = Shape {
    dataset: "Pokec",
    scale: 0.001,
    churn: 0.1,
    batch: 1000,
    updates: 36_000,
};
const SETUPS: usize = 9;
/// Times each set-up closes and reopens the loaded database.
const REOPENS: usize = 3;
/// Blocks of in-process point lookups and expansions the traced run makes
/// after the wire mix, for the per-layer read figures.
const PROBE: [(Class, u64); 2] = [(Class::Point, 200), (Class::Expand, 50)];
const CONNECTIONS: u64 = 2;
const PAGE_SIZE: u32 = 200;
/// One round per connection, 20 statements: 9 point reads, 8 one-hop
/// matches, 1 paged scan, 1 `SET` and 1 `CREATE`.
const POINTS: usize = 9;
const EXPANDS: usize = 8;

/// One commit as the commit listener saw it.
type Commit = (Timestamp, Vec<Update>);

/// Everything the connections share.
struct Shared {
    db: Arc<Aion>,
    /// Separates the read phase of a round from its write turns.
    turns: Barrier,
    /// Set by the last writer of a round once the time is up.
    stop: AtomicBool,
    hist: History,
    model: Model,
    vocab: Vocab,
    seed: u64,
    seconds: f64,
}

/// What one connection measured.
struct Lane {
    report: Report,
    tr: Tracer,
    point_us: Samples,
    expand_us: Samples,
    page_ms: Samples,
    commit_ms: Samples,
    /// Every request's round trip, pages included.
    request_us: Samples,
    statements: u64,
    /// Request id of the last request sent.
    req: u64,
    /// Acked writes: `(node id, value, created)`.
    writes: Vec<(u64, i64, bool)>,
}

impl Lane {
    fn new(seed: u64, tr: Tracer, req: u64) -> Lane {
        Lane {
            report: Report::new(seed),
            tr,
            point_us: Samples::default(),
            expand_us: Samples::default(),
            page_ms: Samples::default(),
            commit_ms: Samples::default(),
            request_us: Samples::default(),
            statements: 0,
            req,
            writes: Vec::new(),
        }
    }
}

/// The query-layer rendering of a model node, as the server returns it.
fn node_value(n: &Node, vocab: &Vocab) -> Value {
    Value::Node {
        id: n.id.raw(),
        labels: n
            .labels
            .iter()
            .filter_map(|l| vocab.name(*l))
            .map(String::from)
            .collect(),
        props: n
            .props
            .iter()
            .filter_map(|(k, v)| Some((vocab.name(*k)?.to_string(), prop_value(v))))
            .collect(),
        valid: None,
    }
}

fn rel_value(r: &Relationship, vocab: &Vocab) -> Value {
    Value::Rel {
        id: r.id.raw(),
        src: r.src.raw(),
        tgt: r.tgt.raw(),
        rel_type: r.label.and_then(|l| vocab.name(l)).map(String::from),
        props: r
            .props
            .iter()
            .filter_map(|(k, v)| Some((vocab.name(*k)?.to_string(), prop_value(v))))
            .collect(),
        valid: None,
    }
}

fn prop_value(v: &PropertyValue) -> Value {
    match v {
        PropertyValue::Int(x) => Value::Int(*x),
        PropertyValue::Float(x) => Value::Float(*x),
        PropertyValue::Bool(x) => Value::Bool(*x),
        other => Value::Str(format!("{other:?}")),
    }
}

/// One row holding `want`, or no row when the entity is absent.
fn check_single(rows: &[Vec<Value>], want: Option<Value>) -> Result<(), String> {
    match (rows, want) {
        ([], None) => Ok(()),
        ([row], Some(w)) if row.len() == 1 && row[0] == w => Ok(()),
        (rows, want) => Err(format!("rows {rows:?}, want {want:?}")),
    }
}

fn int_column(rows: &[Vec<Value>]) -> Result<Vec<u64>, String> {
    rows.iter()
        .map(|r| match r.as_slice() {
            [Value::Int(x)] => Ok(*x as u64),
            other => Err(format!("unexpected row {other:?}")),
        })
        .collect()
}

/// Runs one statement, timing its round trip into `samples` in units of
/// `unit`; `None` when it failed.
fn statement(
    lane: &mut Lane,
    client: &mut Client,
    q: &str,
    class: &'static str,
    samples: fn(&mut Lane) -> &mut Samples,
    unit: Duration,
) -> Option<query::QueryResult> {
    lane.req += 1;
    let t = Instant::now();
    let r = lane
        .tr
        .span("server.run", 0, lane.req, || client.run(q, vec![]));
    let elapsed = t.elapsed();
    lane.request_us.push(elapsed.as_secs_f64() * 1e6);
    samples(lane).push(elapsed.as_secs_f64() / unit.as_secs_f64());
    lane.statements += 1;
    if lane.report.op(class, &r) {
        r.ok()
    } else {
        None
    }
}

/// The written node must have been matched: one row, `affected = 1`.
fn check_affected(r: &query::QueryResult) -> Result<(), String> {
    match r.rows.as_slice() {
        [row] if row.as_slice() == [Value::Int(1)] => Ok(()),
        rows => Err(format!("affected {rows:?}, want 1")),
    }
}

/// One connection's closed loop. Each round has a read phase, in which
/// both connections read concurrently, and a write phase, in which the
/// connections take turns to write and wait for the lineage cascade
/// before the next read phase: reads that race the cascade return wrong
/// answers now and then (see README.md).
fn lane(shared: &Shared, addr: std::net::SocketAddr, c: u64, tr: Tracer) -> Lane {
    // No retries: a read that fails counts as failed, never retried away.
    let cfg = ClientConfig {
        retries: 0,
        ..ClientConfig::default()
    };
    let mut client =
        Client::connect_with(addr, cfg).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let (hist, model, vocab) = (&shared.hist, &shared.model, &shared.vocab);
    let mut rng = Rng::new(shared.seed).fork(10 + c);
    let mut lane = Lane::new(shared.seed, tr, c << 40);
    let own: Vec<u64> = (0..hist.nodes).filter(|id| id % CONNECTIONS == c).collect();
    let mut next_node = hist.nodes + c;
    let mut value = ((c as i64) << 40) + 1;
    let latest = hist.max_ts;
    let start = Instant::now();
    loop {
        for i in 0..POINTS {
            let t = rng.between(1, hist.max_ts);
            if i % 2 == 0 {
                let id = rng.below(hist.nodes);
                let q = format!(
                    "USE GDB FOR SYSTEM_TIME AS OF {t} MATCH (n) WHERE id(n) = {id} RETURN n"
                );
                if let Some(r) =
                    statement(&mut lane, &mut client, &q, "point", |l| &mut l.point_us, US)
                {
                    let want = model.node_at(id, t).map(|n| node_value(n, vocab));
                    lane.report.check(&check_single(&r.rows, want), &q);
                }
            } else {
                let id = rng.below(hist.rels);
                let q = format!("USE GDB FOR SYSTEM_TIME AS OF {t} MATCH ()-[r]->() WHERE id(r) = {id} RETURN r");
                if let Some(r) =
                    statement(&mut lane, &mut client, &q, "point", |l| &mut l.point_us, US)
                {
                    let want = model.rel_at(id, t).map(|r| rel_value(r, vocab));
                    lane.report.check(&check_single(&r.rows, want), &q);
                }
            }
        }
        for _ in 0..EXPANDS {
            let id = rng.below(hist.nodes);
            let q = format!("MATCH (n)-[r]->(m) WHERE id(n) = {id} RETURN id(m)");
            if let Some(r) = statement(
                &mut lane,
                &mut client,
                &q,
                "expand",
                |l| &mut l.expand_us,
                US,
            ) {
                // Writes create isolated nodes and set properties, so the
                // adjacency at the latest commit is that of the history.
                let want: Option<Vec<u64>> = model
                    .expand(id, Direction::Outgoing, 1, latest)
                    .map(|v| v.into_iter().map(|(n, _)| n).collect());
                let got = int_column(&r.rows).map(|mut ids| {
                    ids.sort_unstable();
                    ids
                });
                let r = got.and_then(|g| {
                    if Some(&g) == want.as_ref() {
                        Ok(())
                    } else {
                        Err(format!("{} neighbours, want {want:?}", g.len()))
                    }
                });
                lane.report.check(&r, &q);
            }
        }
        scan(&mut lane, &mut client, &mut rng, model, hist.max_ts);
        shared.turns.wait();
        for turn in 0..CONNECTIONS {
            if turn == c {
                let id = own[rng.skewed(own.len(), 2)];
                value += 1;
                let q = format!("MATCH (n) WHERE id(n) = {id} SET n.v = {value}");
                if let Some(r) = statement(
                    &mut lane,
                    &mut client,
                    &q,
                    "write",
                    |l| &mut l.commit_ms,
                    MS,
                ) {
                    lane.report.check(&check_affected(&r), &q);
                    lane.writes.push((id, value, false));
                }
                let id = next_node;
                next_node += CONNECTIONS;
                value += 1;
                let q = format!("CREATE (n:{} {{_id: {id}, v: {value}}})", gen::NAMES[0]);
                if statement(
                    &mut lane,
                    &mut client,
                    &q,
                    "write",
                    |l| &mut l.commit_ms,
                    MS,
                )
                .is_some()
                {
                    lane.writes.push((id, value, true));
                }
                shared.db.lineage_barrier(shared.db.latest_ts());
                if turn + 1 == CONNECTIONS && start.elapsed().as_secs_f64() >= shared.seconds {
                    shared.stop.store(true, Ordering::Release);
                }
            }
            shared.turns.wait();
        }
        if shared.stop.load(Ordering::Acquire) {
            return lane;
        }
    }
}

/// A paged scan pinned AS OF a random historical timestamp, drained page
/// by page: strictly increasing ids, no duplicates, every node alive.
fn scan(lane: &mut Lane, client: &mut Client, rng: &mut Rng, model: &Model, max_ts: Timestamp) {
    let t = rng.between(1, max_ts);
    let q = format!("USE GDB FOR SYSTEM_TIME AS OF {t} MATCH (n) RETURN id(n)");
    let mut ids = Vec::new();
    let mut cursor = None;
    lane.statements += 1;
    loop {
        lane.req += 1;
        let started = Instant::now();
        let r = lane.tr.span("server.run", 0, lane.req, || {
            client.run_page(&q, vec![], 0, PAGE_SIZE, cursor.take())
        });
        let elapsed = started.elapsed().as_secs_f64();
        lane.page_ms.push(elapsed * 1e3);
        lane.request_us.push(elapsed * 1e6);
        let page = match r {
            Ok(page) => page,
            Err(e) => {
                lane.report.op("page", &Err::<(), _>(e));
                return;
            }
        };
        lane.report.op("page", &Ok::<(), String>(()));
        match int_column(&page.result.rows) {
            Ok(mut v) => ids.append(&mut v),
            Err(e) => return lane.report.check(&Err(e), &q),
        }
        match page.cursor {
            Some(next) => cursor = Some(next),
            None => break,
        }
    }
    lane.report.check(&model.check_scan(t, &ids), &q);
}

pub fn run(ctx: &Ctx, report: &mut Report, tr: &mut Tracer) {
    let (mut setup, mut loads, mut reopen) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let dir = ctx.dir(&format!("wire{k}"));
        let db = open(AionConfig::new(&dir));
        let vocab = Vocab::intern(&db);
        let hist = gen::history(SHAPE, vocab, ctx.seed);
        loads.push(load_history(&db, &hist));
        let after_load = db.metrics();
        if let Err(e) = db.sync() {
            fail(&format!("sync after load: {e}"));
        }
        drop(db);
        let disk = Disk::of(&dir);
        let mut db = None;
        for _ in 0..REOPENS {
            drop(db.take());
            let opened = Instant::now();
            db = Some(open(AionConfig::new(&dir)));
            reopen.push(opened.elapsed().as_secs_f64());
        }
        let db = db.expect("reopened");
        same_vocab(&db, vocab);
        let model = model_of(&hist.commits);
        let db = Arc::new(db);
        let server = Server::start(db.clone()).unwrap_or_else(|e| fail(&format!("server: {e}")));
        setup.push(t.elapsed().as_secs_f64());
        if k + 1 == SETUPS {
            kept = Some((dir, db, server, vocab, hist, model, disk, after_load));
        } else {
            let mut server = server;
            server.shutdown();
            drop(server);
            drop(db);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let (dir, db, mut server, vocab, hist, model, disk, after_load) =
        kept.expect("at least one set-up");
    let events: Arc<Mutex<Vec<Commit>>> = Arc::default();
    let sink = events.clone();
    db.register_listener(move |e| {
        sink.lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((e.ts, e.updates.to_vec()))
    });
    let addr = server.addr();
    let mut control = Client::connect(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let metrics = |control: &mut Client| {
        control
            .metrics()
            .unwrap_or_else(|e| fail(&format!("Client::metrics: {e}")))
    };
    let shared = Arc::new(Shared {
        db: db.clone(),
        turns: Barrier::new(CONNECTIONS as usize),
        stop: AtomicBool::new(false),
        hist,
        model,
        vocab,
        seed: ctx.seed,
        seconds: ctx.seconds,
    });
    let before = metrics(&mut control);
    report.measured_from = Some(before.clone());
    let start = Instant::now();
    let lanes: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let shared = shared.clone();
            let tr = tr.lane(c + 1);
            std::thread::spawn(move || lane(&shared, addr, c, tr))
        })
        .collect();
    let lanes: Vec<Lane> = lanes
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| fail("connection thread panicked"))
        })
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    let delta = Delta::new(before, metrics(&mut control));
    let mut all = Lane::new(ctx.seed, tr.lane(0), 0);
    for l in lanes {
        report.merge_ops(&l.report);
        tr.absorb(l.tr);
        all.point_us.extend(l.point_us);
        all.expand_us.extend(l.expand_us);
        all.page_ms.extend(l.page_ms);
        all.commit_ms.extend(l.commit_ms);
        all.request_us.extend(l.request_us);
        all.statements += l.statements;
        all.writes.extend(l.writes);
    }
    server.shutdown();
    drop(server);
    check_writes(
        &db,
        &shared,
        &events.lock().unwrap_or_else(|e| e.into_inner()),
        &all.writes,
        report,
    );
    println!(
        "wire_mixed: {} statements in {elapsed:.3} s ({:.1}/s), {} pages, {} acked writes",
        all.statements,
        all.statements as f64 / elapsed,
        all.page_ms.len(),
        all.writes.len()
    );
    for (name, s) in [
        ("point_us", &all.point_us),
        ("expand_us", &all.expand_us),
        ("page_ms", &all.page_ms),
        ("commit_ms", &all.commit_ms),
    ] {
        println!("{}", s.summary(name));
    }
    if !ctx.trace {
        report.metric("setup_s", median(setup), "s");
        load_metrics(report, &loads, &disk, reopen);
        report.quantile("point_us_p50", &all.point_us, 0.5, "us");
        report.quantile("expand_us_p50", &all.expand_us, 0.5, "us");
    } else {
        // The read layers of this graph, which fits the caches, through
        // the same in-process probe the other workloads read with.
        let mut draw = Draw::new(Rng::new(ctx.seed).fork(2), &shared.model, &shared.hist);
        let done = reads::phases(&db, &mut draw, &PROBE, &mut Lat::default(), report, tr);
        reads::layers(&db, &draw, &done, report, tr);
        let load = loads.pop().unwrap_or_else(|| fail("no load"));
        load_layers(report, &load, &disk, &Delta::new(after_load, db.metrics()));
        run_layers(report, &delta, Some(all.request_us.mean()));
    }
    drop(control);
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

/// The commits the program reported are exactly the acked writes, in a
/// valid order, and every written node reads back at the latest
/// timestamp as the model has it.
fn check_writes(
    db: &Aion,
    shared: &Shared,
    events: &[Commit],
    writes: &[(u64, i64, bool)],
    report: &mut Report,
) {
    let vocab = &shared.vocab;
    let mut expected: HashSet<(u64, i64, bool)> = writes.iter().copied().collect();
    let mut events = events.to_vec();
    events.sort_by_key(|(ts, _)| *ts);
    let mut model = model_of(&shared.hist.commits);
    for (ts, ops) in &events {
        let key = match ops.as_slice() {
            [Update::SetNodeProp {
                id,
                key,
                value: PropertyValue::Int(v),
            }] if *key == vocab.v => Some((id.raw(), *v, false)),
            [Update::AddNode { id, props, .. }] => match props.as_slice() {
                [(k, PropertyValue::Int(v))] if *k == vocab.v => Some((id.raw(), *v, true)),
                _ => None,
            },
            _ => None,
        };
        let known = key.is_some_and(|k| expected.remove(&k));
        report.check(
            &if known {
                Ok(())
            } else {
                Err(format!("commit {ts} {ops:?} matches no acked write"))
            },
            "wire write commit",
        );
        report.check(&model.apply_commit(*ts, ops), "wire write order");
    }
    report.check(
        &if expected.is_empty() {
            Ok(())
        } else {
            Err(format!("{} acked writes never committed", expected.len()))
        },
        "wire writes",
    );
    db.lineage_barrier(db.latest_ts());
    let t = db.latest_ts();
    let mut seen = HashSet::new();
    for (id, _, _) in writes {
        if seen.insert(*id) {
            let r = db.get_node(NodeId::new(*id), t, t);
            if report.op("verify_read", &r) {
                report.check(
                    &model.check_node_point(*id, t, &r.unwrap_or_default()),
                    "written node at latest",
                );
            }
        }
    }
}
