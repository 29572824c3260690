//! The reference model: every entity's versions and, through them, every
//! timestamp's adjacency, built from the generated inputs and the acked
//! `(ts, updates)` of each commit. It shares no code with the stores: it
//! keeps plain version lists and answers by binary search and BFS. Every
//! answer the benchmark gets from the program is checked against it.

use lpg::{Direction, Graph, Node, NodeId, Relationship, StrId, Timestamp, Update, Version};
use std::collections::{HashMap, HashSet, VecDeque};

/// Versions of one entity: `(commit ts, state after that commit)`, with
/// `None` for "deleted".
type Versions<T> = Vec<(Timestamp, Option<T>)>;

#[derive(Default)]
pub struct Model {
    nodes: HashMap<u64, Versions<Node>>,
    rels: HashMap<u64, Versions<Relationship>>,
    /// Every relationship ever created, by source and by target.
    out: HashMap<u64, Vec<u64>>,
    inc: HashMap<u64, Vec<u64>>,
    /// `(commit ts, alive nodes, alive rels)` after each commit.
    counts: Vec<(Timestamp, usize, usize)>,
    alive_nodes: usize,
    alive_rels: usize,
}

fn state_at<T>(versions: &Versions<T>, t: Timestamp) -> Option<&T> {
    let i = versions.partition_point(|(ts, _)| *ts <= t);
    if i == 0 {
        return None;
    }
    versions[i - 1].1.as_ref()
}

fn set_sorted<V>(bag: &mut Vec<(StrId, V)>, key: StrId, value: V) {
    match bag.binary_search_by_key(&key, |(k, _)| *k) {
        Ok(i) => bag[i].1 = value,
        Err(i) => bag.insert(i, (key, value)),
    }
}

impl Model {
    pub fn new() -> Model {
        Model::default()
    }

    pub fn last_ts(&self) -> Timestamp {
        self.counts.last().map_or(0, |c| c.0)
    }

    /// The mutable current state of an entity for a commit at `ts`: the
    /// version of this commit if it already has one, else a new version
    /// copied from the latest.
    fn current<T: Clone>(versions: &mut Versions<T>, ts: Timestamp) -> &mut Option<T> {
        if versions.last().map(|v| v.0) != Some(ts) {
            let prev = versions.last().and_then(|v| v.1.clone());
            versions.push((ts, prev));
        }
        &mut versions.last_mut().expect("just pushed").1
    }

    fn node_mut(&mut self, id: NodeId, ts: Timestamp) -> Result<&mut Node, String> {
        let versions = self
            .nodes
            .get_mut(&id.raw())
            .ok_or_else(|| format!("node {} does not exist", id.raw()))?;
        Self::current(versions, ts)
            .as_mut()
            .ok_or_else(|| format!("node {} is deleted", id.raw()))
    }

    fn rel_mut(&mut self, id: u64, ts: Timestamp) -> Result<&mut Relationship, String> {
        let versions = self
            .rels
            .get_mut(&id)
            .ok_or_else(|| format!("rel {id} does not exist"))?;
        Self::current(versions, ts)
            .as_mut()
            .ok_or_else(|| format!("rel {id} is deleted"))
    }

    fn node_alive_now(&self, id: u64) -> bool {
        self.nodes
            .get(&id)
            .and_then(|v| v.last())
            .is_some_and(|v| v.1.is_some())
    }

    /// Applies one acked commit. Fails if the commit is out of order or an
    /// update is invalid against the model's state (the program should have
    /// refused it).
    pub fn apply_commit(&mut self, ts: Timestamp, updates: &[Update]) -> Result<(), String> {
        if ts <= self.last_ts() && !self.counts.is_empty() {
            return Err(format!("commit ts {ts} not after {}", self.last_ts()));
        }
        for op in updates {
            self.apply(ts, op)
                .map_err(|e| format!("commit {ts}: {op:?}: {e}"))?;
        }
        self.counts.push((ts, self.alive_nodes, self.alive_rels));
        Ok(())
    }

    fn apply(&mut self, ts: Timestamp, op: &Update) -> Result<(), String> {
        match op {
            Update::AddNode { id, labels, props } => {
                if self.node_alive_now(id.raw()) {
                    return Err("node exists".into());
                }
                let mut labels = labels.clone();
                labels.sort_unstable();
                labels.dedup();
                let mut node = Node {
                    id: *id,
                    labels,
                    props: Vec::new(),
                };
                for (k, v) in props {
                    set_sorted(&mut node.props, *k, v.clone());
                }
                let versions = self.nodes.entry(id.raw()).or_default();
                *Self::current(versions, ts) = Some(node);
                self.alive_nodes += 1;
            }
            Update::DeleteNode { id } => {
                let live = |rels: Option<&Vec<u64>>| {
                    rels.into_iter()
                        .flatten()
                        .any(|r| self.rels[r].last().is_some_and(|v| v.1.is_some()))
                };
                if live(self.out.get(&id.raw())) || live(self.inc.get(&id.raw())) {
                    return Err("node has relationships".into());
                }
                self.node_mut(*id, ts)?;
                let versions = self.nodes.get_mut(&id.raw()).expect("checked");
                *Self::current(versions, ts) = None;
                self.alive_nodes -= 1;
            }
            Update::AddRel {
                id,
                src,
                tgt,
                label,
                props,
            } => {
                if self.rels.get(&id.raw()).is_some_and(|v| !v.is_empty()) {
                    return Err("rel id reused".into());
                }
                if !self.node_alive_now(src.raw()) || !self.node_alive_now(tgt.raw()) {
                    return Err("endpoint missing".into());
                }
                let mut rel = Relationship {
                    id: *id,
                    src: *src,
                    tgt: *tgt,
                    label: *label,
                    props: Vec::new(),
                };
                for (k, v) in props {
                    set_sorted(&mut rel.props, *k, v.clone());
                }
                self.rels.insert(id.raw(), vec![(ts, Some(rel))]);
                self.out.entry(src.raw()).or_default().push(id.raw());
                self.inc.entry(tgt.raw()).or_default().push(id.raw());
                self.alive_rels += 1;
            }
            Update::DeleteRel { id } => {
                self.rel_mut(id.raw(), ts)?;
                let versions = self.rels.get_mut(&id.raw()).expect("checked");
                *Self::current(versions, ts) = None;
                self.alive_rels -= 1;
            }
            Update::SetNodeProp { id, key, value } => {
                set_sorted(&mut self.node_mut(*id, ts)?.props, *key, value.clone())
            }
            Update::RemoveNodeProp { id, key } => {
                self.node_mut(*id, ts)?.props.retain(|(k, _)| k != key)
            }
            Update::AddLabel { id, label } => {
                let labels = &mut self.node_mut(*id, ts)?.labels;
                if let Err(i) = labels.binary_search(label) {
                    labels.insert(i, *label);
                }
            }
            Update::RemoveLabel { id, label } => {
                self.node_mut(*id, ts)?.labels.retain(|l| l != label)
            }
            Update::SetRelProp { id, key, value } => {
                set_sorted(&mut self.rel_mut(id.raw(), ts)?.props, *key, value.clone())
            }
            Update::RemoveRelProp { id, key } => {
                self.rel_mut(id.raw(), ts)?.props.retain(|(k, _)| k != key)
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------ answers

    pub fn node_at(&self, id: u64, t: Timestamp) -> Option<&Node> {
        self.nodes.get(&id).and_then(|v| state_at(v, t))
    }

    pub fn rel_at(&self, id: u64, t: Timestamp) -> Option<&Relationship> {
        self.rels.get(&id).and_then(|v| state_at(v, t))
    }

    /// Number of versions `id` went through (creation and deletion count).
    pub fn node_versions(&self, id: u64) -> usize {
        self.nodes.get(&id).map_or(0, Vec::len)
    }

    /// `(alive nodes, alive rels)` at `t`.
    pub fn counts_at(&self, t: Timestamp) -> (usize, usize) {
        let i = self.counts.partition_point(|c| c.0 <= t);
        if i == 0 {
            (0, 0)
        } else {
            (self.counts[i - 1].1, self.counts[i - 1].2)
        }
    }

    /// The neighbours of `id` at `t` along `dir`.
    fn neighbours(&self, id: u64, dir: Direction, t: Timestamp) -> Vec<u64> {
        let mut out = Vec::new();
        if matches!(dir, Direction::Outgoing | Direction::Both) {
            for r in self.out.get(&id).into_iter().flatten() {
                if let Some(rel) = self.rel_at(*r, t) {
                    out.push(rel.tgt.raw());
                }
            }
        }
        if matches!(dir, Direction::Incoming | Direction::Both) {
            for r in self.inc.get(&id).into_iter().flatten() {
                if let Some(rel) = self.rel_at(*r, t) {
                    out.push(rel.src.raw());
                }
            }
        }
        out
    }

    /// BFS over the graph at `t`: every node reached within `hops`, with
    /// its hop distance, sorted by id. `None` if `id` is not alive at `t`.
    pub fn expand(
        &self,
        id: u64,
        dir: Direction,
        hops: u32,
        t: Timestamp,
    ) -> Option<Vec<(u64, u32)>> {
        self.node_at(id, t)?;
        let mut seen: HashSet<u64> = HashSet::from([id]);
        let mut queue = VecDeque::from([(id, 0u32)]);
        let mut out = Vec::new();
        while let Some((cur, hop)) = queue.pop_front() {
            if hop == hops {
                continue;
            }
            for n in self.neighbours(cur, dir, t) {
                if seen.insert(n) {
                    out.push((n, hop + 1));
                    queue.push_back((n, hop + 1));
                }
            }
        }
        out.sort_unstable();
        Some(out)
    }

    /// Ids of the nodes alive at `t`, ascending.
    pub fn nodes_alive_at(&self, t: Timestamp) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .nodes
            .iter()
            .filter(|(_, v)| state_at(v, t).is_some())
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    // ------------------------------------------------------------- checks

    /// A point lookup `[t, t]` must return exactly the model's state at
    /// `t` as one version covering `t`, or nothing if the entity is absent.
    pub fn check_node_point(
        &self,
        id: u64,
        t: Timestamp,
        got: &[Version<Node>],
    ) -> Result<(), String> {
        check_point(self.node_at(id, t), t, got).map_err(|e| format!("node {id} at {t}: {e}"))
    }

    pub fn check_rel_point(
        &self,
        id: u64,
        t: Timestamp,
        got: &[Version<Relationship>],
    ) -> Result<(), String> {
        check_point(self.rel_at(id, t), t, got).map_err(|e| format!("rel {id} at {t}: {e}"))
    }

    /// An expansion must reach exactly the model's BFS set at `t`.
    pub fn check_expand(
        &self,
        id: u64,
        dir: Direction,
        hops: u32,
        t: Timestamp,
        got: &[(NodeId, u32)],
    ) -> Result<(), String> {
        let want = self
            .expand(id, dir, hops, t)
            .ok_or_else(|| format!("expand {id} at {t}: start node not alive in the model"))?;
        let mut got: Vec<(u64, u32)> = got.iter().map(|(n, h)| (n.raw(), *h)).collect();
        got.sort_unstable();
        if got != want {
            let missing = want.iter().filter(|x| !got.contains(x)).count();
            let extra = got.iter().filter(|x| !want.contains(x)).count();
            return Err(format!(
                "expand {id} {dir:?} {hops} hops at {t}: {} results, want {} ({missing} missing, {extra} unexpected)",
                got.len(),
                want.len()
            ));
        }
        Ok(())
    }

    /// A snapshot must hold the model's counts at `t` and the model's state
    /// of every sampled entity.
    pub fn check_snapshot(
        &self,
        t: Timestamp,
        g: &Graph,
        nodes: &[u64],
        rels: &[u64],
    ) -> Result<(), String> {
        let want = self.counts_at(t);
        let got = (g.node_count(), g.rel_count());
        if got != want {
            return Err(format!(
                "snapshot at {t}: (nodes, rels) = {got:?}, want {want:?}"
            ));
        }
        for id in nodes {
            if g.node(NodeId::new(*id)) != self.node_at(*id, t) {
                return Err(format!("snapshot at {t}: node {id} differs"));
            }
        }
        for id in rels {
            if g.rel(lpg::RelId::new(*id)) != self.rel_at(*id, t) {
                return Err(format!("snapshot at {t}: rel {id} differs"));
            }
        }
        Ok(())
    }

    /// A drained scan must list every node alive at `t` once, in strictly
    /// increasing id order.
    pub fn check_scan(&self, t: Timestamp, ids: &[u64]) -> Result<(), String> {
        if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("scan at {t}: id {} after {}", w[1], w[0]));
        }
        let want = self.nodes_alive_at(t);
        if ids != want.as_slice() {
            return Err(format!(
                "scan at {t}: {} ids, want {} alive",
                ids.len(),
                want.len()
            ));
        }
        Ok(())
    }
}

fn check_point<T: PartialEq + std::fmt::Debug>(
    want: Option<&T>,
    t: Timestamp,
    got: &[Version<T>],
) -> Result<(), String> {
    match (want, got) {
        (None, []) => Ok(()),
        (None, _) => Err(format!("{} versions, want none", got.len())),
        (Some(_), []) => Err("no version, want one".into()),
        (Some(w), [v]) => {
            if v.valid.start > t || v.valid.end <= t {
                Err(format!(
                    "version [{}, {}) misses t",
                    v.valid.start, v.valid.end
                ))
            } else if &v.data != w {
                Err(format!("state {:?}, want {:?}", v.data, w))
            } else {
                Ok(())
            }
        }
        (Some(_), _) => Err(format!("{} versions, want one", got.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{PropertyValue, RelId};

    const L: StrId = StrId::new(2);
    const K: StrId = StrId::new(3);

    fn add_node(id: u64) -> Update {
        Update::AddNode {
            id: NodeId::new(id),
            labels: vec![L],
            props: vec![],
        }
    }

    fn add_rel(id: u64, src: u64, tgt: u64) -> Update {
        Update::AddRel {
            id: RelId::new(id),
            src: NodeId::new(src),
            tgt: NodeId::new(tgt),
            label: None,
            props: vec![],
        }
    }

    /// 1 → 2 → 3 at ts 10; the property of node 1 changes at 20; the
    /// relationship 2 → 3 is deleted at 30 and node 3 at 40.
    fn hand_built() -> Model {
        let mut m = Model::new();
        m.apply_commit(
            10,
            &[
                add_node(1),
                add_node(2),
                add_node(3),
                add_rel(7, 1, 2),
                add_rel(8, 2, 3),
            ],
        )
        .unwrap();
        m.apply_commit(
            20,
            &[Update::SetNodeProp {
                id: NodeId::new(1),
                key: K,
                value: PropertyValue::Int(5),
            }],
        )
        .unwrap();
        m.apply_commit(30, &[Update::DeleteRel { id: RelId::new(8) }])
            .unwrap();
        m.apply_commit(40, &[Update::DeleteNode { id: NodeId::new(3) }])
            .unwrap();
        m
    }

    #[test]
    fn versions_answer_as_of() {
        let m = hand_built();
        assert!(m.node_at(1, 9).is_none());
        assert!(m.node_at(1, 19).unwrap().props.is_empty());
        assert_eq!(
            m.node_at(1, 20).unwrap().props,
            vec![(K, PropertyValue::Int(5))]
        );
        assert!(m.rel_at(8, 29).is_some());
        assert!(m.rel_at(8, 30).is_none());
        assert_eq!(m.counts_at(5), (0, 0));
        assert_eq!(m.counts_at(25), (3, 2));
        assert_eq!(m.counts_at(45), (2, 1));
        assert_eq!(m.node_versions(1), 2);
        assert_eq!(m.nodes_alive_at(35), vec![1, 2, 3]);
        assert_eq!(m.nodes_alive_at(40), vec![1, 2]);
    }

    #[test]
    fn bfs_follows_the_adjacency_of_t() {
        let m = hand_built();
        assert_eq!(
            m.expand(1, Direction::Outgoing, 2, 15),
            Some(vec![(2, 1), (3, 2)])
        );
        assert_eq!(m.expand(1, Direction::Outgoing, 2, 30), Some(vec![(2, 1)]));
        assert_eq!(
            m.expand(3, Direction::Incoming, 2, 15),
            Some(vec![(1, 2), (2, 1)])
        );
        assert_eq!(m.expand(3, Direction::Both, 1, 40), None);
    }

    #[test]
    fn invalid_commits_are_refused() {
        let mut m = hand_built();
        assert!(m.apply_commit(40, &[add_node(9)]).is_err(), "same ts");
        assert!(
            m.apply_commit(50, &[add_rel(9, 1, 3)]).is_err(),
            "dead endpoint"
        );
        assert!(m
            .apply_commit(51, &[Update::DeleteNode { id: NodeId::new(1) }])
            .is_err());
        assert!(
            m.apply_commit(52, &[add_rel(7, 1, 2)]).is_err(),
            "reused id"
        );
    }

    #[test]
    fn checker_accepts_the_right_answers() {
        let m = hand_built();
        let n1 = m.node_at(1, 25).unwrap().clone();
        m.check_node_point(1, 25, &[Version::new(25, 26, n1)])
            .unwrap();
        m.check_node_point(3, 45, &[]).unwrap();
        let got = [(NodeId::new(3), 2), (NodeId::new(2), 1)];
        m.check_expand(1, Direction::Outgoing, 2, 15, &got).unwrap();
        m.check_scan(35, &[1, 2, 3]).unwrap();
        let mut g = Graph::new();
        for op in [add_node(1), add_node(2), add_rel(7, 1, 2)] {
            g.apply(&op).unwrap();
        }
        m.check_snapshot(45, &g, &[1, 2, 3], &[7, 8]).unwrap_err();
        g.apply(&Update::SetNodeProp {
            id: NodeId::new(1),
            key: K,
            value: PropertyValue::Int(5),
        })
        .unwrap();
        m.check_snapshot(45, &g, &[1, 2, 3], &[7, 8]).unwrap();
    }

    #[test]
    fn checker_rejects_wrong_answers() {
        let m = hand_built();
        // The state of ts 25 read back at 15: the property is not set yet.
        let stale = m.node_at(1, 25).unwrap().clone();
        assert!(m
            .check_node_point(1, 15, &[Version::new(15, 16, stale)])
            .is_err());
        // A deleted entity that is still returned.
        let n3 = m.node_at(3, 35).unwrap().clone();
        assert!(m
            .check_node_point(3, 45, &[Version::new(45, 46, n3)])
            .is_err());
        // An expansion that crosses the relationship deleted at 30.
        let got = [(NodeId::new(2), 1), (NodeId::new(3), 2)];
        assert!(m.check_expand(1, Direction::Outgoing, 2, 35, &got).is_err());
        // A scan with a duplicate, and one that misses a node.
        assert!(m.check_scan(35, &[1, 2, 2, 3]).is_err());
        assert!(m.check_scan(35, &[1, 3]).is_err());
        // Counts right but an entity wrong.
        let mut g = Graph::new();
        for op in [add_node(1), add_node(2), add_rel(7, 1, 2)] {
            g.apply(&op).unwrap();
        }
        assert!(m.check_snapshot(45, &g, &[1], &[]).is_err());
    }
}
