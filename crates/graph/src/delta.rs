//! Graph deltas — batched mutations against an existing instance store.
//!
//! A [`GraphDelta`] is the unit of change for incremental execution
//! (`gts-exec`'s `Incremental::apply_delta`, driven by `gts run --delta`):
//! a set of added/removed nodes, edges, and labels applied atomically to
//! a base instance. Node ids are indices into the base graph, so *removing* a
//! node **tombstones** it — its labels and incident edges are dropped but
//! the id remains as an unlabeled isolated node — rather than renumbering
//! every node after it (which would invalidate every stored relation and
//! every name in the client's instance file).
//!
//! Application order is fixed so overlapping operations have one meaning:
//! nodes are added first (ids `n, n+1, …` in order), then removals (edges,
//! node tombstones, labels), then additions (labels, edges). An edge both
//! removed and added by the same delta therefore ends up present.
//!
//! [`GraphDelta::apply_in_place`] is the one place that validates a delta,
//! orders it and filters its no-ops. It runs over any [`DeltaTarget`]: a
//! [`Graph`](crate::Graph), or `gts-exec`'s CSR index, which the
//! incremental executor patches directly instead of keeping a graph.

use crate::{EdgeLabel, LabelSet, NodeId, NodeLabel};

/// A batch of mutations against a base graph. See the module docs for the
/// tombstone semantics of `removed_nodes` and the application order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Fresh nodes with their labels; the `i`-th gets id `base_nodes + i`.
    pub added_nodes: Vec<LabelSet>,
    /// Nodes to tombstone (labels and incident edges dropped in place).
    pub removed_nodes: Vec<NodeId>,
    /// Edges to add (may reference freshly added node ids).
    pub added_edges: Vec<(NodeId, EdgeLabel, NodeId)>,
    /// Edges to remove (absent edges are ignored).
    pub removed_edges: Vec<(NodeId, EdgeLabel, NodeId)>,
    /// Labels to add to existing or fresh nodes.
    pub added_labels: Vec<(NodeId, NodeLabel)>,
    /// Labels to remove (absent labels are ignored).
    pub removed_labels: Vec<(NodeId, NodeLabel)>,
}

/// The mutation primitives [`GraphDelta::apply_in_place`] drives. Each
/// returns whether it changed the store.
pub trait DeltaTarget {
    /// Number of nodes (tombstones included).
    fn num_nodes(&self) -> usize;
    /// Appends an unlabeled node.
    fn add_node(&mut self) -> NodeId;
    /// Adds a label; `false` if the node already carried it.
    fn add_label(&mut self, node: NodeId, label: NodeLabel) -> bool;
    /// Removes a label; `false` if the node did not carry it.
    fn remove_label(&mut self, node: NodeId, label: NodeLabel) -> bool;
    /// Adds an edge; `false` if it was present.
    fn add_edge(&mut self, src: NodeId, label: EdgeLabel, tgt: NodeId) -> bool;
    /// Removes an edge; `false` if it was absent.
    fn remove_edge(&mut self, src: NodeId, label: EdgeLabel, tgt: NodeId) -> bool;
    /// Tombstones a node, returning the labels and the (deduplicated)
    /// edges it dropped.
    fn clear_node(&mut self, node: NodeId) -> (LabelSet, Vec<(NodeId, EdgeLabel, NodeId)>);
}

/// What a delta application *actually* changed: no-op operations (removing
/// an absent edge, re-adding a present label) are filtered out, and node
/// tombstones are expanded into the concrete labels and edges they
/// dropped. This is the input the incremental executor patches from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaEffects {
    /// Id of the first freshly added node (`== num_nodes` before the
    /// delta; meaningless when `added_nodes == 0`).
    pub first_new_node: u32,
    /// How many fresh nodes were appended.
    pub added_nodes: usize,
    /// Edges that became present.
    pub added_edges: Vec<(NodeId, EdgeLabel, NodeId)>,
    /// Edges that became absent (including those dropped by tombstones).
    pub removed_edges: Vec<(NodeId, EdgeLabel, NodeId)>,
    /// Labels that became present (including labels of fresh nodes).
    pub added_labels: Vec<(NodeId, NodeLabel)>,
    /// Labels that became absent (including those dropped by tombstones).
    pub removed_labels: Vec<(NodeId, NodeLabel)>,
}

impl DeltaEffects {
    /// Total number of effective atomic changes.
    pub fn touched(&self) -> usize {
        self.added_nodes
            + self.added_edges.len()
            + self.removed_edges.len()
            + self.added_labels.len()
            + self.removed_labels.len()
    }
}

impl GraphDelta {
    /// `true` iff the delta contains no operations at all.
    pub fn is_empty(&self) -> bool {
        self.num_ops() == 0
    }

    /// Number of operations listed (before no-op filtering).
    pub fn num_ops(&self) -> usize {
        self.added_nodes.len()
            + self.removed_nodes.len()
            + self.added_edges.len()
            + self.removed_edges.len()
            + self.added_labels.len()
            + self.removed_labels.len()
    }

    /// Applies the delta to `g` in place, returning the effective changes.
    /// Fails, before any mutation, when an operation references a node id
    /// outside `0 .. g.num_nodes() + added_nodes`.
    pub fn apply_in_place<G: DeltaTarget>(&self, g: &mut G) -> Result<DeltaEffects, String> {
        let new_n = g.num_nodes() as u64 + self.added_nodes.len() as u64;
        if new_n > u32::MAX as u64 {
            return Err(format!("delta grows the graph past {} nodes", u32::MAX));
        }
        let check = |what: &str, id: NodeId| {
            if (id.0 as u64) < new_n {
                Ok(())
            } else {
                Err(format!("delta references {what} node {} out of range 0..{new_n}", id.0))
            }
        };
        let old_only = |what: &str, id: NodeId| {
            if (id.0 as usize) < g.num_nodes() {
                Ok(())
            } else {
                Err(format!("delta {what} node {} which is not in the base graph", id.0))
            }
        };
        for &n in &self.removed_nodes {
            old_only("removes", n)?;
        }
        for &(s, _, t) in &self.added_edges {
            check("edge source", s)?;
            check("edge target", t)?;
        }
        for &(s, _, t) in &self.removed_edges {
            old_only("removes an edge at", s)?;
            old_only("removes an edge at", t)?;
        }
        for &(n, _) in &self.added_labels {
            check("label", n)?;
        }
        for &(n, _) in &self.removed_labels {
            old_only("removes a label at", n)?;
        }

        let mut fx = DeltaEffects {
            first_new_node: g.num_nodes() as u32,
            added_nodes: self.added_nodes.len(),
            ..DeltaEffects::default()
        };
        for labels in &self.added_nodes {
            let id = g.add_node();
            for l in labels.iter() {
                g.add_label(id, NodeLabel(l));
                fx.added_labels.push((id, NodeLabel(l)));
            }
        }
        for &(s, l, t) in &self.removed_edges {
            if g.remove_edge(s, l, t) {
                fx.removed_edges.push((s, l, t));
            }
        }
        for &n in &self.removed_nodes {
            let (labels, edges) = g.clear_node(n);
            fx.removed_labels.extend(labels.iter().map(|l| (n, NodeLabel(l))));
            fx.removed_edges.extend(edges);
        }
        for &(n, l) in &self.removed_labels {
            if g.remove_label(n, l) {
                fx.removed_labels.push((n, l));
            }
        }
        for &(n, l) in &self.added_labels {
            if g.add_label(n, l) {
                fx.added_labels.push((n, l));
            }
        }
        for &(s, l, t) in &self.added_edges {
            if g.add_edge(s, l, t) {
                fx.added_edges.push((s, l, t));
            }
        }
        // Tombstoning two nodes joined by an edge reports that edge twice.
        fx.removed_edges.sort_unstable();
        fx.removed_edges.dedup();
        Ok(fx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, Vocab};

    fn base() -> (Vocab, Graph) {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let b = v.node_label("B");
        let r = v.edge_label("r");
        let mut g = Graph::new();
        let n0 = g.add_labeled_node([a]);
        let n1 = g.add_labeled_node([b]);
        g.add_edge(n0, r, n1);
        g.add_edge(n1, r, n1);
        (v, g)
    }

    #[test]
    fn add_remove_roundtrip() {
        let (mut v, g) = base();
        let c = v.node_label("C");
        let r = v.find_edge_label("r").unwrap();
        let delta = GraphDelta {
            added_nodes: vec![LabelSet::from_iter([c.0])],
            added_edges: vec![(NodeId(2), r, NodeId(0))],
            removed_edges: vec![(NodeId(0), r, NodeId(1))],
            ..GraphDelta::default()
        };
        let mut out = g.clone();
        delta.apply_in_place(&mut out).unwrap();
        assert_eq!(out.num_nodes(), 3);
        assert_eq!(out.num_edges(), 2);
        assert!(out.has_edge(NodeId(2), r, NodeId(0)));
        assert!(!out.has_edge(NodeId(0), r, NodeId(1)));
        assert!(out.has_label(NodeId(2), c));
    }

    #[test]
    fn tombstone_drops_labels_and_incident_edges() {
        let (_, g) = base();
        let delta = GraphDelta { removed_nodes: vec![NodeId(1)], ..GraphDelta::default() };
        let mut g2 = g.clone();
        let fx = delta.apply_in_place(&mut g2).unwrap();
        // Node 1 had one label and two incident edges (one a self loop).
        assert_eq!(fx.removed_labels.len(), 1);
        assert_eq!(fx.removed_edges.len(), 2);
        assert_eq!(g2.num_nodes(), 2, "tombstoned nodes keep their id slot");
        assert_eq!(g2.num_edges(), 0);
        assert!(g2.labels(NodeId(1)).is_empty());
    }

    #[test]
    fn noop_operations_are_filtered_from_effects() {
        let (mut v, g) = base();
        let a = v.find_node_label("A").unwrap();
        let s = v.edge_label("s");
        let delta = GraphDelta {
            added_labels: vec![(NodeId(0), a)],             // already present
            removed_edges: vec![(NodeId(1), s, NodeId(0))], // absent
            ..GraphDelta::default()
        };
        let mut g2 = g.clone();
        let fx = delta.apply_in_place(&mut g2).unwrap();
        assert_eq!(fx.touched(), 0);
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    #[test]
    fn out_of_range_ids_are_rejected_before_mutating() {
        let (_, g) = base();
        let delta = GraphDelta { removed_nodes: vec![NodeId(7)], ..GraphDelta::default() };
        let mut g2 = g.clone();
        assert!(delta.apply_in_place(&mut g2).is_err());
        assert_eq!(g2.num_nodes(), g.num_nodes());
    }

    #[test]
    fn remove_then_add_same_edge_leaves_it_present() {
        let (v, g) = base();
        let r = v.find_edge_label("r").unwrap();
        let delta = GraphDelta {
            added_edges: vec![(NodeId(0), r, NodeId(1))],
            removed_edges: vec![(NodeId(0), r, NodeId(1))],
            ..GraphDelta::default()
        };
        let mut out = g.clone();
        delta.apply_in_place(&mut out).unwrap();
        assert!(out.has_edge(NodeId(0), r, NodeId(1)));
    }
}
