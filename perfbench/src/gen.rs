//! Input generation. A Table-3-shaped base stream from `workload::generate`
//! is interleaved with churn (property updates, relationship deletions and
//! label changes), and the write phases draw small transactions from
//! per-writer slices. Every stream is valid by construction: an update only
//! ever touches an entity the generator knows to be alive at that point,
//! and concurrent writers never share an entity.

use crate::rng::Rng;
use aion::{Aion, WriteTxn};
use lpg::{NodeId, PropertyValue, RelId, StrId, Timestamp, Update};

/// Label, type and property names the inputs use, with the ids a freshly
/// opened database interns them under.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vocab {
    pub label: StrId,
    pub rel_type: StrId,
    pub weight: StrId,
    pub v: StrId,
    pub hot: StrId,
    pub mark: StrId,
}

pub const NAMES: [&str; 6] = ["Node", "LINK", "w", "v", "Hot", "Mark"];

impl Vocab {
    /// Interns the vocabulary into `db`. The interner is rebuilt at every
    /// open, so this is called after each open; the ids must come out the
    /// same every time or the stored ids would change meaning.
    pub fn intern(db: &Aion) -> Vocab {
        let id = |i: usize| db.intern(NAMES[i]);
        Vocab {
            label: id(0),
            rel_type: id(1),
            weight: id(2),
            v: id(3),
            hot: id(4),
            mark: id(5),
        }
    }

    /// The name of an interned vocabulary id.
    pub fn name(&self, id: StrId) -> Option<&'static str> {
        let ids = [
            self.label,
            self.rel_type,
            self.weight,
            self.v,
            self.hot,
            self.mark,
        ];
        ids.iter().position(|x| *x == id).map(|i| NAMES[i])
    }
}

/// Seed of the base graph of every history.
const DATASET_SEED: u64 = 0x7AB1E3;

/// Size and make-up of a generated history.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Table 3 dataset whose shape the base stream copies.
    pub dataset: &'static str,
    /// Scale factor applied to the dataset's |V| (|E|/|V| is kept).
    pub scale: f64,
    /// Probability that a base update is followed by one churn update.
    pub churn: f64,
    /// Updates per commit.
    pub batch: usize,
    /// Length of the stream: base and churn, padded with churn.
    pub updates: usize,
}

/// A generated history: commits in timestamp order.
pub struct History {
    pub commits: Vec<(Timestamp, Vec<Update>)>,
    pub updates: usize,
    pub max_ts: Timestamp,
    /// Node ids in `[0, nodes)` exist at the end of the history.
    pub nodes: u64,
    /// Relationship ids in `[0, rels)` were created (some since deleted).
    pub rels: u64,
}

/// Alive relationships with O(1) removal of a random one.
struct RelPool {
    ids: Vec<u64>,
    pos: Vec<u32>,
}

impl RelPool {
    fn insert(&mut self, id: u64) {
        let i = id as usize;
        if self.pos.len() <= i {
            self.pos.resize(i + 1, u32::MAX);
        }
        self.pos[i] = self.ids.len() as u32;
        self.ids.push(id);
    }

    fn take(&mut self, k: usize) -> u64 {
        let id = self.ids.swap_remove(k);
        if let Some(&moved) = self.ids.get(k) {
            self.pos[moved as usize] = k as u32;
        }
        self.pos[id as usize] = u32::MAX;
        id
    }
}

/// Churn over the entities created so far, valid by construction.
struct Churn {
    rng: Rng,
    vocab: Vocab,
    /// Nodes in creation order; the earliest (the hubs) churn the most,
    /// so their delta chains pass the K=4 materialisation point.
    nodes: Vec<u64>,
    hot: Vec<bool>,
    rels: RelPool,
    counter: i64,
}

impl Churn {
    fn next(&mut self) -> Update {
        self.counter += 1;
        let kind = self.rng.f64();
        let node = NodeId::new(self.nodes[self.rng.skewed(self.nodes.len(), 3)]);
        if kind < 0.45 || self.rels.ids.is_empty() {
            Update::SetNodeProp {
                id: node,
                key: self.vocab.v,
                value: PropertyValue::Int(self.counter),
            }
        } else if kind < 0.60 {
            let id = self.rels.ids[self.rng.below(self.rels.ids.len() as u64) as usize];
            Update::SetRelProp {
                id: RelId::new(id),
                key: self.vocab.weight,
                value: PropertyValue::Float(self.counter as f64 / 8.0),
            }
        } else if kind < 0.80 {
            let k = self.rng.below(self.rels.ids.len() as u64) as usize;
            Update::DeleteRel {
                id: RelId::new(self.rels.take(k)),
            }
        } else {
            let flag = &mut self.hot[node.raw() as usize];
            *flag = !*flag;
            let label = self.vocab.hot;
            if *flag {
                Update::AddLabel { id: node, label }
            } else {
                Update::RemoveLabel { id: node, label }
            }
        }
    }
}

/// Generates the base stream of `shape` interleaved with churn, padded
/// with churn to exactly `shape.updates` updates and grouped into commits
/// of `shape.batch`. Each update takes one tick; a commit is stamped with
/// the tick of its last update, so random reads at any tick fall between
/// commits. The fixed length puts the last snapshot at the same distance
/// from the end for every seed.
pub fn history(shape: Shape, vocab: Vocab, seed: u64) -> History {
    let dataset = workload::datasets::by_name(shape.dataset)
        .unwrap_or_else(|| panic!("unknown dataset {}", shape.dataset))
        .scaled(shape.scale);
    // The base graph is the dataset: fixed, like the paper's Table 3
    // graphs. The seed draws the churn and, in the workloads, every
    // operation over it; drawn per seed, the hubs alone moved tail
    // latencies by a fifth from seed to seed.
    let base = workload::generate(dataset, DATASET_SEED);
    let mut churn = Churn {
        rng: Rng::new(seed).fork(1),
        vocab,
        nodes: Vec::new(),
        hot: vec![false; base.node_count as usize],
        rels: RelPool {
            ids: Vec::new(),
            pos: Vec::new(),
        },
        counter: 0,
    };
    let mut stream: Vec<Update> = Vec::with_capacity(shape.updates);
    for u in &base.updates {
        // The base generator uses raw ids 0/1/2 for label/type/weight.
        let op = match &u.op {
            Update::AddNode { id, .. } => {
                churn.nodes.push(id.raw());
                Update::AddNode {
                    id: *id,
                    labels: vec![vocab.label],
                    props: vec![],
                }
            }
            Update::AddRel {
                id,
                src,
                tgt,
                props,
                ..
            } => {
                churn.rels.insert(id.raw());
                Update::AddRel {
                    id: *id,
                    src: *src,
                    tgt: *tgt,
                    label: Some(vocab.rel_type),
                    props: props
                        .iter()
                        .map(|(_, v)| (vocab.weight, v.clone()))
                        .collect(),
                }
            }
            other => panic!("base stream holds an unexpected update {other:?}"),
        };
        stream.push(op);
        if churn.rng.f64() < shape.churn && !churn.nodes.is_empty() {
            stream.push(churn.next());
        }
    }
    assert!(
        stream.len() <= shape.updates,
        "{} updates generated, more than the {} of the shape",
        stream.len(),
        shape.updates
    );
    while stream.len() < shape.updates {
        stream.push(churn.next());
    }
    let mut commits = Vec::with_capacity(shape.updates / shape.batch + 1);
    let mut tick = 0;
    let mut ops = stream.into_iter().peekable();
    while ops.peek().is_some() {
        let chunk: Vec<Update> = ops.by_ref().take(shape.batch).collect();
        tick += chunk.len() as u64;
        commits.push((tick, chunk));
    }
    History {
        commits,
        updates: shape.updates,
        max_ts: tick,
        nodes: base.node_count,
        rels: base.rel_ids.len() as u64,
    }
}

/// Replays `ops` inside a write transaction.
pub fn apply_ops(txn: &mut WriteTxn<'_>, ops: &[Update]) -> lpg::Result<()> {
    for op in ops {
        match op {
            Update::AddNode { id, labels, props } => {
                txn.add_node(*id, labels.clone(), props.clone())?
            }
            Update::DeleteNode { id } => txn.delete_node(*id)?,
            Update::AddRel {
                id,
                src,
                tgt,
                label,
                props,
            } => txn.add_rel(*id, *src, *tgt, *label, props.clone())?,
            Update::DeleteRel { id } => txn.delete_rel(*id)?,
            Update::SetNodeProp { id, key, value } => {
                txn.set_node_prop(*id, *key, value.clone())?
            }
            Update::RemoveNodeProp { id, key } => txn.remove_node_prop(*id, *key)?,
            Update::AddLabel { id, label } => txn.add_label(*id, *label)?,
            Update::RemoveLabel { id, label } => txn.remove_label(*id, *label)?,
            Update::SetRelProp { id, key, value } => txn.set_rel_prop(*id, *key, value.clone())?,
            Update::RemoveRelProp { id, key } => txn.remove_rel_prop(*id, *key)?,
        }
    }
    Ok(())
}

/// Small transactions for one of `writers` concurrent writers. Writer `w`
/// owns the existing nodes with `id % writers == w`, the new node and
/// relationship ids `first + k * writers + w`, and only deletes
/// relationships it created itself, so its stream stays valid whatever
/// the other writers do.
pub struct SliceWriter {
    rng: Rng,
    vocab: Vocab,
    stride: u64,
    own: Vec<u64>,
    next_node: u64,
    next_rel: u64,
    created_rels: Vec<u64>,
    marked: std::collections::HashSet<u64>,
    counter: i64,
}

impl SliceWriter {
    /// Writer `w` of `writers` over a graph whose nodes `[0, nodes)` all
    /// exist, with fresh node ids from `first_node` and fresh relationship
    /// ids from `first_rel`.
    pub fn new(
        seed: u64,
        vocab: Vocab,
        w: u64,
        writers: u64,
        nodes: u64,
        first_node: u64,
        first_rel: u64,
    ) -> SliceWriter {
        SliceWriter {
            rng: Rng::new(seed).fork(100 + w),
            vocab,
            stride: writers,
            own: (0..nodes).filter(|id| id % writers == w).collect(),
            next_node: first_node + w,
            next_rel: first_rel + w,
            created_rels: Vec::new(),
            marked: Default::default(),
            counter: ((w as i64) << 40) + 1,
        }
    }

    fn value(&mut self) -> PropertyValue {
        self.counter += 1;
        PropertyValue::Int(self.counter)
    }

    /// The next transaction: one or two updates on this writer's slice.
    pub fn next_txn(&mut self) -> Vec<Update> {
        let node = NodeId::new(self.own[self.rng.skewed(self.own.len(), 2)]);
        let kind = self.rng.f64();
        if kind < 0.40 || (kind >= 0.85 && self.created_rels.is_empty()) {
            vec![Update::SetNodeProp {
                id: node,
                key: self.vocab.v,
                value: self.value(),
            }]
        } else if kind < 0.60 {
            let label = self.vocab.mark;
            if self.marked.insert(node.raw()) {
                vec![Update::AddLabel { id: node, label }]
            } else {
                self.marked.remove(&node.raw());
                vec![Update::RemoveLabel { id: node, label }]
            }
        } else if kind < 0.85 {
            let fresh = NodeId::new(self.next_node);
            self.next_node += self.stride;
            let rel = RelId::new(self.next_rel);
            self.next_rel += self.stride;
            self.created_rels.push(rel.raw());
            self.own.push(fresh.raw());
            let value = self.value();
            vec![
                Update::AddNode {
                    id: fresh,
                    labels: vec![self.vocab.label],
                    props: vec![(self.vocab.v, value)],
                },
                Update::AddRel {
                    id: rel,
                    src: fresh,
                    tgt: node,
                    label: Some(self.vocab.rel_type),
                    props: vec![],
                },
            ]
        } else {
            let k = self.rng.below(self.created_rels.len() as u64) as usize;
            let id = self.created_rels.swap_remove(k);
            vec![Update::DeleteRel { id: RelId::new(id) }]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    const VOCAB: Vocab = Vocab {
        label: StrId::new(2),
        rel_type: StrId::new(3),
        weight: StrId::new(4),
        v: StrId::new(5),
        hot: StrId::new(6),
        mark: StrId::new(7),
    };

    #[test]
    fn churned_history_is_valid_and_has_long_chains() {
        let shape = Shape {
            dataset: "DBLP",
            scale: 0.002,
            churn: 0.25,
            batch: 100,
            updates: 7000,
        };
        let h = history(shape, VOCAB, 5);
        assert_eq!(h.commits.iter().map(|c| c.1.len()).sum::<usize>(), 7000);
        let mut m = Model::new();
        for (ts, ops) in &h.commits {
            m.apply_commit(*ts, ops).unwrap();
        }
        assert!((0..h.nodes).any(|id| m.node_versions(id) > 4));
        // Two writers' streams stay valid however they interleave.
        let mut writers =
            [0, 1].map(|w| SliceWriter::new(5, VOCAB, w, 2, h.nodes, h.nodes, h.rels));
        let mut rng = Rng::new(9);
        for ts in h.max_ts + 1..h.max_ts + 2000 {
            let ops = writers[rng.below(2) as usize].next_txn();
            m.apply_commit(ts, &ops).unwrap();
        }
    }
}
