//! Candidate cores and the deterministic Horn chase.
//!
//! Following the proof of Theorem 6.3, a satisfiability witness is sought
//! as a finite *core*: one node per query variable plus a fresh simple path
//! per atom (a chosen word of its regular expression), after which the only
//! repairs a Horn TBox can force are deterministic — label closure,
//! `∀`-propagation along both edge directions, and merges of same-role
//! successors demanded by at-most-one constraints. The chase either
//! reaches a fixpoint (a locally consistent core) or fails (this word
//! combination admits no model).
//!
//! The edge set is stored as per-node sorted adjacency (forward and
//! inverse), plus a per-node bitset of incident edge labels — the same
//! layout `gts-exec::IndexedGraph` uses — so neighborhood queries
//! (`incident`, at-most counting) read one node's lists instead of
//! scanning every edge of the core. Merges move the vanishing node's lists
//! onto the survivor; entries referencing merged-away nodes are resolved
//! through the union-find on read.

use crate::types::TypeUniverse;
use gts_graph::{EdgeLabel, EdgeSym, Graph, LabelSet, NodeId};

/// Why a core candidate was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseFail {
    /// Some node's label set became inconsistent (`K ⊑ ⊥`).
    Inconsistent,
    /// Some edge violates a `∄`-constraint.
    ForbiddenEdge,
}

/// A mutable core under construction: a labeled multigraph with a
/// union-find over nodes (merges happen when at-most constraints fire).
#[derive(Clone, Debug, Default)]
pub struct Core {
    parent: Vec<usize>,
    labels: Vec<LabelSet>,
    /// Forward adjacency per node: sorted `(label, target)` pairs. Stored
    /// on the representative; targets may be merged-away nodes and are
    /// resolved via `find` on read.
    out: Vec<Vec<(EdgeLabel, usize)>>,
    /// Inverse adjacency per node: sorted `(label, source)` pairs.
    inc: Vec<Vec<(EdgeLabel, usize)>>,
    /// Edge labels incident to each node (either direction) — a quick
    /// filter for at-most scans.
    touch: Vec<LabelSet>,
}

impl Core {
    /// An empty core.
    pub fn new() -> Self {
        Core::default()
    }

    /// Adds a node with the given seed labels; returns its index.
    pub fn add_node(&mut self, seed: LabelSet) -> usize {
        self.parent.push(self.parent.len());
        self.labels.push(seed);
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        self.touch.push(LabelSet::new());
        self.parent.len() - 1
    }

    /// Adds a label to a node's seed set.
    pub fn add_label(&mut self, node: usize, label: u32) {
        let r = self.find(node);
        self.labels[r].insert(label);
    }

    /// Representative of `node`'s merge class.
    pub fn find(&mut self, mut node: usize) -> usize {
        while self.parent[node] != node {
            self.parent[node] = self.parent[self.parent[node]];
            node = self.parent[node];
        }
        node
    }

    /// Adds an edge along `sym` from `u` to `v` (inverse symbols store the
    /// underlying forward edge).
    pub fn add_sym_edge(&mut self, u: usize, sym: EdgeSym, v: usize) {
        let (src, tgt) = if sym.inverse { (v, u) } else { (u, v) };
        let (src, tgt) = (self.find(src), self.find(tgt));
        insert_sorted(&mut self.out[src], (sym.label, tgt));
        insert_sorted(&mut self.inc[tgt], (sym.label, src));
        self.touch[src].insert(sym.label.0);
        self.touch[tgt].insert(sym.label.0);
    }

    /// Merges the classes of `u` and `v` (identifying two nodes), moving
    /// the vanishing class's adjacency onto the surviving representative.
    pub fn merge(&mut self, u: usize, v: usize) {
        let (ru, rv) = (self.find(u), self.find(v));
        if ru == rv {
            return;
        }
        let (keep, gone) = (ru.min(rv), ru.max(rv));
        self.parent[gone] = keep;
        let moved = std::mem::take(&mut self.labels[gone]);
        self.labels[keep].union_with(&moved);
        let moved_out = std::mem::take(&mut self.out[gone]);
        let moved_inc = std::mem::take(&mut self.inc[gone]);
        self.out[keep].extend(moved_out);
        self.inc[keep].extend(moved_inc);
        self.out[keep].sort_unstable();
        self.out[keep].dedup();
        self.inc[keep].sort_unstable();
        self.inc[keep].dedup();
        let moved_touch = std::mem::take(&mut self.touch[gone]);
        self.touch[keep].union_with(&moved_touch);
    }

    /// Current representatives, sorted.
    pub fn roots(&mut self) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.parent.len()).map(|i| self.find(i)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Labels of a node's class.
    pub fn labels_of(&mut self, node: usize) -> &LabelSet {
        let r = self.find(node);
        &self.labels[r]
    }

    /// Adds labels to a node's class; `true` iff it grew.
    pub fn add_labels(&mut self, node: usize, labels: &LabelSet) -> bool {
        let r = self.find(node);
        let grows = !labels.is_subset(&self.labels[r]);
        self.labels[r].union_with(labels);
        grows
    }

    /// The distinct `(source-root, label, target-root)` edges of the core,
    /// sorted.
    pub fn edge_list(&mut self) -> Vec<(usize, EdgeLabel, usize)> {
        let mut edges = Vec::new();
        for r in self.roots() {
            let pairs = self.out[r].clone();
            for (l, t) in pairs {
                let t = self.find(t);
                edges.push((r, l, t));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// All `(sym, neighbor-root)` pairs incident to a root, *with
    /// multiplicity per distinct edge* (a self-loop contributes both
    /// directions). Used by the extension check, whose at-most counting
    /// needs each distinct edge once per direction.
    pub fn incident(&mut self, root: usize) -> Vec<(EdgeSym, usize)> {
        let root = self.find(root);
        let mut out = Vec::new();
        let fwd = self.out[root].clone();
        for (l, t) in fwd {
            let t = self.find(t);
            out.push((EdgeSym::fwd(l), t));
        }
        let bwd = self.inc[root].clone();
        for (l, s) in bwd {
            let s = self.find(s);
            out.push((EdgeSym::bwd(l), s));
        }
        out.sort();
        out.dedup();
        out
    }

    /// Distinct `role`-successor roots of `root` whose labels include `k`.
    fn labeled_successors(&mut self, root: usize, role: EdgeSym, k: &LabelSet) -> Vec<usize> {
        let root = self.find(root);
        let pairs = if role.inverse { self.inc[root].clone() } else { self.out[root].clone() };
        let mut out: Vec<usize> = pairs
            .into_iter()
            .filter(|(l, _)| *l == role.label)
            .map(|(_, n)| self.find(n))
            .collect();
        out.sort_unstable();
        out.dedup();
        out.retain(|&n| k.is_subset(&self.labels[n]));
        out
    }

    /// Runs the deterministic chase to fixpoint — label closure,
    /// `∀`-propagation, `∄`-checks, and functionality merges — with every
    /// TBox rule application answered by `universe`'s memos: every
    /// candidate core over one TBox closes and propagates the same label
    /// sets.
    pub fn chase_in(&mut self, universe: &mut TypeUniverse) -> Result<(), ChaseFail> {
        loop {
            let mut changed = false;

            // 1) Close labels under K ⊑ A rules; detect ⊥.
            for root in self.roots() {
                let closed = universe.close(&self.labels[root]).ok_or(ChaseFail::Inconsistent)?;
                let closed = universe.labels(closed);
                if *closed != self.labels[root] {
                    self.labels[root] = closed.clone();
                    changed = true;
                }
            }

            // 2) ∀-propagation along both directions of every edge.
            for (s, l, t) in self.edge_list() {
                let (s, t) = (self.find(s), self.find(t));
                let push_fwd = universe.propagate_set(&self.labels[s], EdgeSym::fwd(l));
                if !push_fwd.is_subset(&self.labels[t]) {
                    self.labels[t].union_with(&push_fwd);
                    changed = true;
                }
                let push_bwd = universe.propagate_set(&self.labels[t], EdgeSym::bwd(l));
                if !push_bwd.is_subset(&self.labels[s]) {
                    self.labels[s].union_with(&push_bwd);
                    changed = true;
                }
            }

            // 3) ∄-checks on every edge.
            for (s, l, t) in self.edge_list() {
                let (s, t) = (self.find(s), self.find(t));
                if universe.edge_forbidden(&self.labels[s], EdgeSym::fwd(l), &self.labels[t]) {
                    return Err(ChaseFail::ForbiddenEdge);
                }
            }

            // 4) Functionality merges: two distinct K'-successors under an
            //    at-most-one constraint must be identified.
            'merge_scan: for root in self.roots() {
                let ams = universe.at_most_set(&self.labels[root]);
                for (role, k) in ams.iter() {
                    // Bitset filter: no incident edge with this label means
                    // no successors to count.
                    if !self.touch[root].contains(role.label.0) {
                        continue;
                    }
                    let succs = self.labeled_successors(root, *role, k);
                    if succs.len() >= 2 {
                        self.merge(succs[0], succs[1]);
                        changed = true;
                        break 'merge_scan;
                    }
                }
            }

            if !changed {
                return Ok(());
            }
        }
    }

    /// Freezes the core into a [`Graph`], returning the graph and the map
    /// from original node indices to graph node ids.
    pub fn to_graph(&mut self) -> (Graph, Vec<NodeId>) {
        let roots = self.roots();
        let mut g = Graph::new();
        let mut root_to_id = vec![NodeId(0); self.parent.len()];
        for &r in &roots {
            let id = g.add_node();
            g.add_label_set(id, &self.labels[r]);
            root_to_id[r] = id;
        }
        for (s, l, t) in self.edge_list() {
            g.add_edge(root_to_id[s], l, root_to_id[t]);
        }
        let map = (0..self.parent.len())
            .map(|i| {
                let r = self.find(i);
                root_to_id[r]
            })
            .collect();
        (g, map)
    }
}

/// Inserts into a sorted vector, keeping it sorted and deduplicated.
fn insert_sorted(v: &mut Vec<(EdgeLabel, usize)>, item: (EdgeLabel, usize)) {
    if let Err(pos) = v.binary_search(&item) {
        v.insert(pos, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_dl::{HornCi, HornTbox};
    use gts_graph::NodeLabel;

    fn sym(i: u32) -> EdgeSym {
        EdgeSym::fwd(EdgeLabel(i))
    }
    fn set(labels: &[u32]) -> LabelSet {
        LabelSet::from_iter(labels.iter().copied())
    }

    #[test]
    fn closure_and_propagation() {
        // 0 ⊑ 1;  1 ⊑ ∀r.2
        let mut t = HornTbox::new();
        t.push(HornCi::SubAtom { lhs: set(&[0]), rhs: NodeLabel(1) });
        t.push(HornCi::AllValues { lhs: set(&[1]), role: sym(0), rhs: set(&[2]) });
        let mut c = Core::new();
        let u = c.add_node(set(&[0]));
        let v = c.add_node(LabelSet::new());
        c.add_sym_edge(u, sym(0), v);
        c.chase_in(&mut TypeUniverse::new(&t)).unwrap();
        assert!(c.labels_of(u).contains(1));
        assert!(c.labels_of(v).contains(2));
    }

    #[test]
    fn inverse_propagation() {
        // 0 ⊑ ∀r⁻.1 : labels flow from target to source.
        let mut t = HornTbox::new();
        t.push(HornCi::AllValues { lhs: set(&[0]), role: sym(0).inv(), rhs: set(&[1]) });
        let mut c = Core::new();
        let u = c.add_node(LabelSet::new());
        let v = c.add_node(set(&[0]));
        c.add_sym_edge(u, sym(0), v);
        c.chase_in(&mut TypeUniverse::new(&t)).unwrap();
        assert!(c.labels_of(u).contains(1));
    }

    #[test]
    fn bottom_fails() {
        let mut t = HornTbox::new();
        t.push(HornCi::Bottom { lhs: set(&[0, 1]) });
        let mut c = Core::new();
        c.add_node(set(&[0, 1]));
        assert_eq!(c.chase_in(&mut TypeUniverse::new(&t)), Err(ChaseFail::Inconsistent));
    }

    #[test]
    fn forbidden_edge_fails() {
        let mut t = HornTbox::new();
        t.push(HornCi::NotExists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        let mut c = Core::new();
        let u = c.add_node(set(&[0]));
        let v = c.add_node(set(&[1]));
        c.add_sym_edge(u, sym(0), v);
        assert_eq!(c.chase_in(&mut TypeUniverse::new(&t)), Err(ChaseFail::ForbiddenEdge));
    }

    #[test]
    fn functionality_merges_successors() {
        // 0 ⊑ ∃≤1 r.⊤ with two r-successors → they merge.
        let mut t = HornTbox::new();
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0), rhs: LabelSet::new() });
        let mut c = Core::new();
        let u = c.add_node(set(&[0]));
        let v1 = c.add_node(set(&[5]));
        let v2 = c.add_node(set(&[6]));
        c.add_sym_edge(u, sym(0), v1);
        c.add_sym_edge(u, sym(0), v2);
        c.chase_in(&mut TypeUniverse::new(&t)).unwrap();
        assert_eq!(c.find(v1), c.find(v2));
        // Merged node carries both label sets.
        assert!(c.labels_of(v1).contains(5) && c.labels_of(v1).contains(6));
        let (g, map) = c.to_graph();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(map[v1], map[v2]);
    }

    #[test]
    fn merge_cascade_detects_inconsistency() {
        // Merging forced successors 1 and 2 triggers 1⊓2 ⊑ ⊥.
        let mut t = HornTbox::new();
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0), rhs: LabelSet::new() });
        t.push(HornCi::Bottom { lhs: set(&[1, 2]) });
        let mut c = Core::new();
        let u = c.add_node(set(&[0]));
        let v1 = c.add_node(set(&[1]));
        let v2 = c.add_node(set(&[2]));
        c.add_sym_edge(u, sym(0), v1);
        c.add_sym_edge(u, sym(0), v2);
        assert_eq!(c.chase_in(&mut TypeUniverse::new(&t)), Err(ChaseFail::Inconsistent));
    }

    #[test]
    fn at_most_ignores_differently_labeled_successors() {
        // At-most counts only K'-successors: one labeled, one unlabeled.
        let mut t = HornTbox::new();
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        let mut c = Core::new();
        let u = c.add_node(set(&[0]));
        let v1 = c.add_node(set(&[1]));
        let v2 = c.add_node(set(&[9]));
        c.add_sym_edge(u, sym(0), v1);
        c.add_sym_edge(u, sym(0), v2);
        c.chase_in(&mut TypeUniverse::new(&t)).unwrap();
        assert_ne!(c.find(v1), c.find(v2));
    }

    #[test]
    fn inverse_edge_storage_roundtrip() {
        let mut c = Core::new();
        let u = c.add_node(LabelSet::new());
        let v = c.add_node(LabelSet::new());
        // Adding an r⁻ edge u→v stores the forward edge v→u.
        c.add_sym_edge(u, sym(0).inv(), v);
        let inc_u = c.incident(u);
        assert!(inc_u.contains(&(sym(0).inv(), v)));
        let inc_v = c.incident(v);
        assert!(inc_v.contains(&(sym(0), u)));
    }

    #[test]
    fn self_loop_incident_has_both_directions() {
        let mut c = Core::new();
        let u = c.add_node(LabelSet::new());
        c.add_sym_edge(u, sym(0), u);
        let inc = c.incident(u);
        assert!(inc.contains(&(sym(0), u)));
        assert!(inc.contains(&(sym(0).inv(), u)));
    }

    #[test]
    fn merged_adjacency_is_rewritten_onto_survivor() {
        let mut c = Core::new();
        let a = c.add_node(LabelSet::new());
        let b = c.add_node(LabelSet::new());
        let d = c.add_node(LabelSet::new());
        c.add_sym_edge(a, sym(0), b);
        c.add_sym_edge(b, sym(1), d);
        c.merge(a, b);
        let r = c.find(a);
        // The survivor sees both the incoming self-loop edge and b's
        // outgoing edge.
        let inc = c.incident(r);
        assert!(inc.contains(&(sym(1), c.find(d))));
        assert_eq!(c.edge_list().len(), 2);
        let (g, _) = c.to_graph();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 2);
    }
}
