//! Finite labeled directed multigraphs (the paper's data model, Section 3).
//!
//! A graph is a relational structure over unary relation symbols Γ (node
//! labels) and binary relation symbols Σ (edge labels): nodes may carry any
//! number of labels, edges carry exactly one label, and parallel edges
//! between the same pair of nodes are allowed as long as their labels
//! differ.

use crate::{DeltaTarget, EdgeLabel, EdgeSym, FxHashSet, LabelSet, NodeLabel, Vocab};
use std::fmt::Write as _;

/// A node identifier — an index into its [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

/// A finite labeled directed multigraph.
#[derive(Clone, Default, Debug)]
pub struct Graph {
    labels: Vec<LabelSet>,
    out: Vec<Vec<(EdgeLabel, NodeId)>>,
    inc: Vec<Vec<(EdgeLabel, NodeId)>>,
    edge_set: FxHashSet<(NodeId, EdgeLabel, NodeId)>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a fresh node with no labels.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(LabelSet::new());
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        id
    }

    /// Adds a fresh node carrying the given labels.
    pub fn add_labeled_node<I: IntoIterator<Item = NodeLabel>>(&mut self, labels: I) -> NodeId {
        let n = self.add_node();
        for l in labels {
            self.add_label(n, l);
        }
        n
    }

    /// Adds a label to an existing node; returns `true` if it was new.
    pub fn add_label(&mut self, node: NodeId, label: NodeLabel) -> bool {
        self.labels[node.0 as usize].insert(label.0)
    }

    /// Adds all labels from `set` to `node`.
    pub fn add_label_set(&mut self, node: NodeId, set: &LabelSet) {
        self.labels[node.0 as usize].union_with(set);
    }

    /// Adds an edge `src --label--> tgt`; returns `false` if it already
    /// existed (parallel edges must have distinct labels).
    pub fn add_edge(&mut self, src: NodeId, label: EdgeLabel, tgt: NodeId) -> bool {
        if !self.edge_set.insert((src, label, tgt)) {
            return false;
        }
        self.out[src.0 as usize].push((label, tgt));
        self.inc[tgt.0 as usize].push((label, src));
        true
    }

    /// `true` iff the edge `src --label--> tgt` exists.
    pub fn has_edge(&self, src: NodeId, label: EdgeLabel, tgt: NodeId) -> bool {
        self.edge_set.contains(&(src, label, tgt))
    }

    /// `true` iff the node carries the label.
    pub fn has_label(&self, node: NodeId, label: NodeLabel) -> bool {
        self.labels[node.0 as usize].contains(label.0)
    }

    /// Label set of a node.
    pub fn labels(&self, node: NodeId) -> &LabelSet {
        &self.labels[node.0 as usize]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edge_set.len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// Iterates over all edges as `(src, label, tgt)` in insertion order per
    /// source node.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, EdgeLabel, NodeId)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(src, adj)| adj.iter().map(move |&(l, tgt)| (NodeId(src as u32), l, tgt)))
    }

    /// Successors of `node` along the Σ± symbol `sym` (edge targets for a
    /// forward symbol, edge sources for an inverse symbol).
    pub fn successors(&self, node: NodeId, sym: EdgeSym) -> impl Iterator<Item = NodeId> + '_ {
        let adj = if sym.inverse { &self.inc[node.0 as usize] } else { &self.out[node.0 as usize] };
        adj.iter().filter(move |&&(l, _)| l == sym.label).map(|&(_, n)| n)
    }

    /// All `(EdgeSym, neighbor)` pairs incident to `node`, forward edges
    /// first (used by conformance checks and the chase).
    pub fn incident(&self, node: NodeId) -> impl Iterator<Item = (EdgeSym, NodeId)> + '_ {
        let o = self.out[node.0 as usize].iter().map(|&(l, n)| (EdgeSym::fwd(l), n));
        let i = self.inc[node.0 as usize].iter().map(|&(l, n)| (EdgeSym::bwd(l), n));
        o.chain(i)
    }

    /// Counts successors of `node` along `sym` that carry `target_label`
    /// (the quantity bounded by participation constraints).
    pub fn count_labeled_successors(
        &self,
        node: NodeId,
        sym: EdgeSym,
        target_label: NodeLabel,
    ) -> usize {
        self.successors(node, sym).filter(|&n| self.has_label(n, target_label)).count()
    }

    /// Renders the graph in Graphviz DOT syntax using `vocab` for names.
    pub fn to_dot(&self, vocab: &Vocab) -> String {
        let mut s = String::from("digraph G {\n");
        for n in self.nodes() {
            let labels: Vec<&str> =
                self.labels(n).iter().map(|l| vocab.node_name(NodeLabel(l))).collect();
            let _ = writeln!(s, "  n{} [label=\"{}:{}\"];", n.0, n.0, labels.join(","));
        }
        for (src, l, tgt) in self.edges() {
            let _ = writeln!(s, "  n{} -> n{} [label=\"{}\"];", src.0, tgt.0, vocab.edge_name(l));
        }
        s.push('}');
        s
    }
}

/// `Graph`'s side of [`crate::GraphDelta::apply_in_place`]. Removing an
/// edge is `O(deg)` and keeps the adjacency order of the surviving edges;
/// clearing a node tombstones it, as [`crate::GraphDelta`] documents.
impl DeltaTarget for Graph {
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }

    fn add_node(&mut self) -> NodeId {
        Graph::add_node(self)
    }

    fn add_label(&mut self, node: NodeId, label: NodeLabel) -> bool {
        Graph::add_label(self, node, label)
    }

    fn add_edge(&mut self, src: NodeId, label: EdgeLabel, tgt: NodeId) -> bool {
        Graph::add_edge(self, src, label, tgt)
    }

    fn remove_edge(&mut self, src: NodeId, label: EdgeLabel, tgt: NodeId) -> bool {
        if !self.edge_set.remove(&(src, label, tgt)) {
            return false;
        }
        let out = &mut self.out[src.0 as usize];
        let pos = out.iter().position(|&e| e == (label, tgt)).expect("edge_set and out agree");
        out.remove(pos);
        let inc = &mut self.inc[tgt.0 as usize];
        let pos = inc.iter().position(|&e| e == (label, src)).expect("edge_set and inc agree");
        inc.remove(pos);
        true
    }

    fn remove_label(&mut self, node: NodeId, label: NodeLabel) -> bool {
        self.labels[node.0 as usize].remove(label.0)
    }

    fn clear_node(&mut self, node: NodeId) -> (LabelSet, Vec<(NodeId, EdgeLabel, NodeId)>) {
        let labels = std::mem::take(&mut self.labels[node.0 as usize]);
        let mut dropped: Vec<(NodeId, EdgeLabel, NodeId)> = self.out[node.0 as usize]
            .iter()
            .map(|&(l, tgt)| (node, l, tgt))
            .chain(self.inc[node.0 as usize].iter().map(|&(l, src)| (src, l, node)))
            .collect();
        // A self loop appears in both lists; drop each edge exactly once.
        dropped.sort_unstable();
        dropped.dedup();
        for &(src, l, tgt) in &dropped {
            self.remove_edge(src, l, tgt);
        }
        (labels, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vocab, Graph, NodeId, NodeId, EdgeLabel) {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut g = Graph::new();
        let n0 = g.add_labeled_node([a]);
        let n1 = g.add_node();
        g.add_edge(n0, r, n1);
        (v, g, n0, n1, r)
    }

    #[test]
    fn nodes_edges_and_labels() {
        let (v, g, n0, n1, r) = setup();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(n0, r, n1));
        assert!(!g.has_edge(n1, r, n0));
        assert!(g.has_label(n0, v.find_node_label("A").unwrap()));
        assert!(g.labels(n1).is_empty());
    }

    #[test]
    fn parallel_edges_same_label_deduped() {
        let (_, mut g, n0, n1, r) = setup();
        assert!(!g.add_edge(n0, r, n1));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn parallel_edges_distinct_labels_allowed() {
        let (mut v, mut g, n0, n1, _) = setup();
        let s = v.edge_label("s");
        assert!(g.add_edge(n0, s, n1));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn successors_follow_direction() {
        let (_, g, n0, n1, r) = setup();
        assert_eq!(g.successors(n0, EdgeSym::fwd(r)).collect::<Vec<_>>(), vec![n1]);
        assert_eq!(g.successors(n1, EdgeSym::bwd(r)).collect::<Vec<_>>(), vec![n0]);
        assert!(g.successors(n1, EdgeSym::fwd(r)).next().is_none());
        assert!(g.successors(n0, EdgeSym::bwd(r)).next().is_none());
    }

    #[test]
    fn count_labeled_successors_counts_only_labeled() {
        let (mut v, mut g, n0, n1, r) = setup();
        let b = v.node_label("B");
        assert_eq!(g.count_labeled_successors(n0, EdgeSym::fwd(r), b), 0);
        g.add_label(n1, b);
        assert_eq!(g.count_labeled_successors(n0, EdgeSym::fwd(r), b), 1);
        let n2 = g.add_labeled_node([b]);
        g.add_edge(n0, r, n2);
        assert_eq!(g.count_labeled_successors(n0, EdgeSym::fwd(r), b), 2);
    }

    #[test]
    fn incident_lists_both_directions() {
        let (_, g, n0, n1, r) = setup();
        let inc0: Vec<_> = g.incident(n0).collect();
        assert_eq!(inc0, vec![(EdgeSym::fwd(r), n1)]);
        let inc1: Vec<_> = g.incident(n1).collect();
        assert_eq!(inc1, vec![(EdgeSym::bwd(r), n0)]);
    }

    #[test]
    fn self_loops_work() {
        let (_, mut g, n0, _, r) = setup();
        g.add_edge(n0, r, n0);
        assert!(g.has_edge(n0, r, n0));
        assert!(g.successors(n0, EdgeSym::fwd(r)).any(|n| n == n0));
        assert!(g.successors(n0, EdgeSym::bwd(r)).any(|n| n == n0));
    }

    #[test]
    fn dot_rendering_mentions_everything() {
        let (v, g, _, _, _) = setup();
        let dot = g.to_dot(&v);
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("label=\"r\""));
        assert!(dot.contains("0:A"));
    }
}
