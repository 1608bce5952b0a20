//! Query-optimized graph indexes.
//!
//! [`IndexedGraph`] is the execution engine's view of a
//! [`gts_graph::Graph`]: CSR (compressed sparse row) forward and reverse
//! adjacency *per edge label*, plus one node bitset per node label. It is
//! built once per instance and shared read-only by every rule evaluation —
//! the product-BFS of [`crate::rpq`] then walks plain integer slices
//! instead of filtering hash-backed adjacency lists per step.
//!
//! The incremental executor ([`crate::Incremental`]) keeps no graph beside
//! the index: it applies each delta to the index itself, through
//! [`gts_graph::GraphDelta::apply_in_place`] and the index's
//! [`DeltaTarget`] implementation. Each changed edge edits one forward and
//! one reverse row through the CSR's overlay of replaced rows, which folds
//! back into the base arrays once it covers an eighth of the rows. An edit
//! costs the row's length, not the label's edge count; a freshly built
//! index has no overlay, and its row lookups skip it.
//!
//! Million-node instances get two extra affordances:
//!
//! * **chunked parallel construction** ([`IndexBuildOptions::threads`]):
//!   edges are partitioned per label in shards over contiguous node
//!   ranges, then the per-(label, direction) counting-sort fills are
//!   dealt into as many shards, both through [`gts_obs::par`];
//! * **memory-budget accounting** ([`IndexedGraph::approx_bytes`],
//!   [`IndexBuildOptions::budget_bytes`]): the exact CSR footprint is
//!   known from the partition counts *before* the big allocations happen,
//!   so a budgeted build fails with [`IndexError::BudgetExceeded`] instead
//!   of OOM-ing the process mid-fill.
//!
//! Rows are kept sorted by ascending node id: the product-BFS marks every
//! scanned target in a stamped visited table indexed by node id, so
//! ascending rows turn that table's accesses into forward sweeps. The
//! degree array ([`IndexedGraph::degree`]) orders BFS *sources* instead —
//! hubs first — which is where degree ordering actually pays (longest
//! per-source searches scheduled before the tail).

use gts_graph::{
    DeltaEffects, DeltaTarget, EdgeLabel, EdgeSym, FxHashMap, Graph, LabelSet, NodeId, NodeLabel,
};

/// A structured index-construction failure. Carried up to the engine and
/// rendered as a `bad_request`-style wire error by `gts-serve` instead of
/// silently corrupting adjacency or aborting the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexError {
    /// One CSR would need more than `u32::MAX` target slots; 32-bit
    /// offsets would silently truncate past this point.
    TooManyEdges {
        /// Raw edge-label index of the overflowing CSR.
        label: u32,
        /// The target count that no longer fits.
        targets: usize,
    },
    /// A budgeted build ([`IndexBuildOptions::budget_bytes`]) predicted a
    /// footprint past the budget and refused to allocate.
    BudgetExceeded {
        /// Predicted index footprint in bytes.
        approx_bytes: usize,
        /// The configured budget in bytes.
        budget_bytes: usize,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::TooManyEdges { label, targets } => write!(
                f,
                "graph index overflow: edge label {label} has {targets} targets \
                 (the CSR limit is {})",
                u32::MAX
            ),
            IndexError::BudgetExceeded { approx_bytes, budget_bytes } => write!(
                f,
                "graph index over memory budget: needs ~{approx_bytes} bytes, \
                 budget is {budget_bytes}"
            ),
        }
    }
}

impl std::error::Error for IndexError {}

/// Options for [`IndexedGraph::try_build_with`].
#[derive(Clone, Debug, Default)]
pub struct IndexBuildOptions {
    /// Shards for the chunked partition + fill. `0` (the default) takes
    /// one shard per core once the graph has 2^16 edges and builds
    /// serially below; `1` forces the serial path; `n` takes
    /// `n` shards. Shards run on the caller plus the extra threads
    /// [`gts_obs::par`]'s process-wide budget has free.
    pub threads: usize,
    /// Refuse to build when the predicted footprint
    /// ([`IndexedGraph::approx_bytes`]) exceeds this many bytes.
    pub budget_bytes: Option<usize>,
}

/// Below this many edges the chunked build's fan-out costs more than the
/// fill saves; auto mode (`threads == 0`) stays serial under it.
const MIN_CHUNKED_EDGES: usize = 1 << 16;

/// Past `1 / FOLD_DIVISOR` of a [`Csr`]'s rows in its overlay, the next
/// [`Csr::fold_if_due`] writes the overlay back into the base arrays. A
/// fold costs `O(rows + targets)` and comes once per `rows / FOLD_DIVISOR`
/// edited rows, so each edit pays `O(1 + targets / rows)` for it
/// amortized.
const FOLD_DIVISOR: usize = 8;

/// One CSR structure over node-id rows: `targets[offsets[u] ..
/// offsets[u+1]]` are the neighbors of node `u`, unless the overlay holds
/// a replacement for row `u`. Shared by the adjacency index here and by
/// [`crate::rpq::Relation`]'s pair columns.
///
/// Edits ([`Csr::replace_row`], [`Csr::insert`], [`Csr::remove`]) copy
/// the row into the overlay and change it there, so an edit costs the
/// row's length, not the structure's. The owner calls
/// [`Csr::fold_if_due`] once per patch; a freshly built or folded CSR has
/// an empty overlay and [`Csr::row`] reads the base arrays alone.
#[derive(Clone, Debug, Default)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Rows edited since the last fold, each shadowing its base slice.
    overlay: FxHashMap<u32, Vec<u32>>,
}

impl Csr {
    /// Guards the 32-bit offset representation: past `u32::MAX` targets
    /// the prefix sums would wrap and silently corrupt adjacency.
    fn check_len(label: u32, targets: usize) -> Result<(), IndexError> {
        if targets > u32::MAX as usize {
            return Err(IndexError::TooManyEdges { label, targets });
        }
        Ok(())
    }

    /// Counting-sort fill over one or more edge-pair chunks (the chunked
    /// parallel build hands each label its per-shard partitions without
    /// concatenating them first).
    fn try_fill_parts(
        num_nodes: usize,
        label: u32,
        parts: &[&[(u32, u32)]],
    ) -> Result<Csr, IndexError> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        Csr::check_len(label, total)?;
        let mut offsets = vec![0u32; num_nodes + 1];
        for part in parts {
            for &(src, _) in *part {
                offsets[src as usize + 1] += 1;
            }
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0u32; total];
        let mut cursor = offsets.clone();
        for part in parts {
            for &(src, tgt) in *part {
                targets[cursor[src as usize] as usize] = tgt;
                cursor[src as usize] += 1;
            }
        }
        Ok(Csr { offsets, targets, overlay: FxHashMap::default() })
    }

    /// Builds from pair chunks in arbitrary order, sorting each row so
    /// neighbor slices are deterministic regardless of insertion order.
    pub(crate) fn try_build_parts(
        num_nodes: usize,
        label: u32,
        parts: &[&[(u32, u32)]],
    ) -> Result<Csr, IndexError> {
        let mut csr = Csr::try_fill_parts(num_nodes, label, parts)?;
        for u in 0..num_nodes {
            csr.targets[csr.offsets[u] as usize..csr.offsets[u + 1] as usize].sort_unstable();
        }
        Ok(csr)
    }

    /// Builds from pairs already sorted lexicographically (rows come out
    /// sorted without the per-row sort).
    pub(crate) fn from_sorted_pairs(num_nodes: usize, pairs: &[(u32, u32)]) -> Csr {
        Csr::check_len(0, pairs.len()).unwrap_or_else(|e| panic!("{e}"));
        Csr::try_fill_parts(num_nodes, 0, &[pairs]).expect("length checked")
    }

    /// An empty CSR with `num_nodes` rows.
    pub(crate) fn empty(num_nodes: usize) -> Csr {
        Csr { offsets: vec![0; num_nodes + 1], ..Csr::default() }
    }

    /// Appends empty rows until there are `num_nodes` rows.
    pub(crate) fn grow_rows(&mut self, num_nodes: usize) {
        let last = *self.offsets.last().unwrap_or(&0);
        while self.offsets.len() < num_nodes + 1 {
            self.offsets.push(last);
        }
    }

    /// Number of rows.
    pub(crate) fn num_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Approximate heap footprint in bytes: the base arrays, the overlay
    /// table and its rows.
    pub(crate) fn approx_bytes(&self) -> usize {
        let u32s = self.offsets.capacity()
            + self.targets.capacity()
            + self.overlay.values().map(Vec::capacity).sum::<usize>();
        u32s * std::mem::size_of::<u32>()
            + self.overlay.capacity() * (std::mem::size_of::<(u32, Vec<u32>)>() + 1)
    }

    #[inline]
    pub(crate) fn row(&self, u: u32) -> &[u32] {
        if !self.overlay.is_empty() {
            if let Some(row) = self.overlay.get(&u) {
                return row;
            }
        }
        &self.targets[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// Row `u`'s overlay copy, taken from the base arrays on first edit.
    fn overlay_row(&mut self, u: u32) -> &mut Vec<u32> {
        debug_assert!((u as usize) < self.num_rows(), "row {u} past the last row");
        let (offsets, targets) = (&self.offsets, &self.targets);
        self.overlay.entry(u).or_insert_with(|| {
            targets[offsets[u as usize] as usize..offsets[u as usize + 1] as usize].to_vec()
        })
    }

    /// Replaces row `u` with `row` (sorted, deduplicated).
    pub(crate) fn replace_row(&mut self, u: u32, row: Vec<u32>) {
        debug_assert!((u as usize) < self.num_rows(), "row {u} past the last row");
        self.overlay.insert(u, row);
    }

    /// Inserts `v` into row `u`; `false` if it was already there.
    pub(crate) fn insert(&mut self, u: u32, v: u32) -> bool {
        match self.row(u).binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.overlay_row(u).insert(pos, v);
                true
            }
        }
    }

    /// Removes `v` from row `u`; `false` if it was not there.
    pub(crate) fn remove(&mut self, u: u32, v: u32) -> bool {
        match self.row(u).binary_search(&v) {
            Ok(pos) => {
                self.overlay_row(u).remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Folds the overlay into fresh base arrays once it holds more than
    /// `1 / FOLD_DIVISOR` of the rows. A fold past `u32::MAX` targets is
    /// refused with [`IndexError::TooManyEdges`] (reporting `label`); the
    /// overlay then stays in place, so every row still reads correctly.
    pub(crate) fn fold_if_due(&mut self, label: u32) -> Result<(), IndexError> {
        if self.overlay.len() * FOLD_DIVISOR <= self.num_rows() {
            return Ok(());
        }
        let rows = 0..self.num_rows() as u32;
        let total: usize = rows.clone().map(|u| self.row(u).len()).sum();
        Csr::check_len(label, total)?;
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut targets = Vec::with_capacity(total);
        offsets.push(0);
        for u in rows {
            targets.extend_from_slice(self.row(u));
            offsets.push(targets.len() as u32);
        }
        *self = Csr { offsets, targets, overlay: FxHashMap::default() };
        Ok(())
    }
}

/// An index of a finite graph, optimized for regular-path evaluation:
/// per-edge-label CSR adjacency in both directions and per-node-label
/// node bitsets. Read-only during evaluation; only the incremental
/// executor patches it, between evaluations.
#[derive(Clone, Debug)]
pub struct IndexedGraph {
    num_nodes: usize,
    /// `fwd[l]` / `rev[l]`: CSR adjacency of edge label `l` (forward /
    /// reverse orientation). Labels beyond the graph's maximum are absent.
    fwd: Vec<Csr>,
    rev: Vec<Csr>,
    /// `by_label[a]`: bitset of nodes carrying node label `a`.
    by_label: Vec<LabelSet>,
    /// All nodes, as a bitset (the universal frontier).
    all_nodes: LabelSet,
    /// Total (in + out) degree per node — the scheduling hint behind
    /// degree-ordered source iteration in [`crate::rpq::Relation::build`].
    degree: Vec<u32>,
    num_edges: usize,
}

impl IndexedGraph {
    /// Builds the index with default options; `O(|V| + |E| log deg)` time,
    /// touching each edge twice (once per direction). Panics on
    /// [`IndexError`] (only reachable past `u32::MAX` targets per label);
    /// fallible callers use [`IndexedGraph::try_build_with`].
    pub fn build(g: &Graph) -> IndexedGraph {
        IndexedGraph::try_build_with(g, &IndexBuildOptions::default())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the index with explicit thread and budget options,
    /// returning a structured error instead of corrupting adjacency
    /// (offset overflow) or allocating past the budget.
    pub fn try_build_with(g: &Graph, opts: &IndexBuildOptions) -> Result<IndexedGraph, IndexError> {
        let _span = gts_obs::span("index_build");
        let start = gts_obs::enabled().then(std::time::Instant::now);
        let out = IndexedGraph::build_inner(g, opts);
        if let Some(t0) = start {
            crate::exec::phase_metrics().index_build.record(t0.elapsed().as_micros() as u64);
        }
        out
    }

    fn build_inner(g: &Graph, opts: &IndexBuildOptions) -> Result<IndexedGraph, IndexError> {
        let n = g.num_nodes();
        let shards = gts_obs::par::shards(opts.threads, || g.num_edges() >= MIN_CHUNKED_EDGES)
            .clamp(1, n.max(1));
        // Partition edges per label, forward and reverse, each shard
        // scanning a contiguous node range (every edge is seen exactly
        // once per direction via its endpoints' incident lists).
        let chunk = n.div_ceil(shards);
        let parts: Vec<EdgeParts> = gts_obs::par::map(0..shards, |s| {
            partition_range(g, s * chunk, ((s + 1) * chunk).min(n))
        });
        let num_labels = parts.iter().map(|p| p.fwd.len()).max().unwrap_or(0);

        // The budget gate: CSR sizes are exact functions of the partition
        // counts, so the check runs before the big allocations.
        if let Some(budget) = opts.budget_bytes {
            let per_label_targets: usize =
                parts.iter().map(|p| p.fwd.iter().map(Vec::len).sum::<usize>()).sum();
            let u32s = 2 * num_labels * (n + 1)   // fwd+rev offsets
                + 2 * per_label_targets           // fwd+rev targets (rev mirrors fwd)
                + n; // degree array
            let approx = u32s * std::mem::size_of::<u32>() + n / 8; // + all_nodes bitset
            if approx > budget {
                return Err(IndexError::BudgetExceeded {
                    approx_bytes: approx,
                    budget_bytes: budget,
                });
            }
        }

        // Parallel counting-sort fill: one work unit per (label,
        // direction), dealt round-robin into the same number of shards and
        // merged back in unit order (forward, then reverse, per label).
        let units = (0..num_labels).flat_map(|l| [(l, false), (l, true)]);
        let built = gts_obs::par::map_dealt(units, shards, |shard| {
            shard
                .into_iter()
                .map(|(l, is_rev)| {
                    let chunks: Vec<&[(u32, u32)]> = parts
                        .iter()
                        .filter_map(|p| {
                            let side = if is_rev { &p.rev } else { &p.fwd };
                            side.get(l).map(Vec::as_slice)
                        })
                        .collect();
                    Csr::try_build_parts(n, l as u32, &chunks)
                })
                .collect()
        });
        let mut fwd: Vec<Csr> = Vec::with_capacity(num_labels);
        let mut rev: Vec<Csr> = Vec::with_capacity(num_labels);
        for (i, csr) in built.into_iter().enumerate() {
            if i % 2 == 0 {
                fwd.push(csr?);
            } else {
                rev.push(csr?);
            }
        }

        let max_node_label = g
            .nodes()
            .filter_map(|u| g.labels(u).iter().max())
            .max()
            .map(|l| l as usize + 1)
            .unwrap_or(0);
        let mut by_label = vec![LabelSet::new(); max_node_label];
        for u in g.nodes() {
            for l in g.labels(u).iter() {
                by_label[l as usize].insert(u.0);
            }
        }
        let mut degree = vec![0u32; n];
        for csr in fwd.iter().chain(&rev) {
            for (u, d) in degree.iter_mut().enumerate() {
                *d += csr.row(u as u32).len() as u32;
            }
        }
        Ok(IndexedGraph {
            num_nodes: n,
            fwd,
            rev,
            by_label,
            all_nodes: LabelSet::from_iter(0..n as u32),
            degree,
            num_edges: g.num_edges(),
        })
    }

    /// Number of nodes in the indexed graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges in the indexed graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Bitset of every node (shared universal frontier).
    pub fn all_nodes(&self) -> &LabelSet {
        &self.all_nodes
    }

    /// Approximate heap footprint of the index in bytes — the accounting
    /// surface behind [`IndexBuildOptions::budget_bytes`] and the
    /// `scale` benchmark section.
    pub fn approx_bytes(&self) -> usize {
        self.fwd.iter().chain(self.rev.iter()).map(Csr::approx_bytes).sum::<usize>()
            + self.by_label.iter().map(LabelSet::approx_bytes).sum::<usize>()
            + self.all_nodes.approx_bytes()
            + self.degree.capacity() * std::mem::size_of::<u32>()
    }

    /// Total (in + out) degree of `u` across all edge labels.
    #[inline]
    pub fn degree(&self, u: u32) -> u32 {
        self.degree.get(u as usize).copied().unwrap_or(0)
    }

    /// Neighbors of `u` along `sym` as a sorted slice (empty for labels
    /// the graph never uses).
    #[inline]
    pub fn successors(&self, u: u32, sym: EdgeSym) -> &[u32] {
        let table = if sym.inverse { &self.rev } else { &self.fwd };
        match table.get(sym.label.0 as usize) {
            Some(csr) => csr.row(u),
            None => &[],
        }
    }

    /// `true` iff `u` has at least one `sym`-successor.
    #[inline]
    pub fn has_successor(&self, u: u32, sym: EdgeSym) -> bool {
        !self.successors(u, sym).is_empty()
    }

    /// Bitset of nodes carrying `label` (`None` when no node does).
    pub fn nodes_with_label(&self, label: NodeLabel) -> Option<&LabelSet> {
        self.by_label.get(label.0 as usize).filter(|s| !s.is_empty())
    }

    /// `true` iff node `u` carries `label`.
    #[inline]
    pub fn has_label(&self, u: u32, label: NodeLabel) -> bool {
        self.by_label.get(label.0 as usize).is_some_and(|s| s.contains(u))
    }

    /// Iterates node ids as [`NodeId`]s.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes as u32).map(NodeId)
    }

    /// Folds the overlays of the edge labels `fx` changed, once per patch
    /// ([`Csr::fold_if_due`]). On [`IndexError::TooManyEdges`] only the
    /// fold was refused; the index still reads correctly.
    pub(crate) fn fold_touched(&mut self, fx: &DeltaEffects) -> Result<(), IndexError> {
        for &(_, EdgeLabel(l), _) in fx.removed_edges.iter().chain(&fx.added_edges) {
            self.fwd[l as usize].fold_if_due(l)?;
            self.rev[l as usize].fold_if_due(l)?;
        }
        Ok(())
    }
}

/// Deltas reach the index through [`gts_graph::GraphDelta::apply_in_place`]:
/// a changed edge edits one forward and one reverse row and its endpoints'
/// degrees, `O(|Δ| · deg)` plus a share of the folds. A label past the
/// current maximum gets empty CSRs or an empty bitset first.
impl DeltaTarget for IndexedGraph {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn add_node(&mut self) -> NodeId {
        let u = self.num_nodes as u32;
        self.num_nodes += 1;
        for csr in self.fwd.iter_mut().chain(self.rev.iter_mut()) {
            csr.grow_rows(self.num_nodes);
        }
        self.all_nodes.insert(u);
        self.degree.push(0);
        NodeId(u)
    }

    fn add_label(&mut self, node: NodeId, label: NodeLabel) -> bool {
        let l = label.0 as usize;
        if self.by_label.len() <= l {
            self.by_label.resize_with(l + 1, LabelSet::new);
        }
        self.by_label[l].insert(node.0)
    }

    fn remove_label(&mut self, node: NodeId, label: NodeLabel) -> bool {
        self.by_label.get_mut(label.0 as usize).is_some_and(|s| s.remove(node.0))
    }

    fn add_edge(&mut self, s: NodeId, label: EdgeLabel, t: NodeId) -> bool {
        let l = label.0 as usize;
        while self.fwd.len() <= l {
            self.fwd.push(Csr::empty(self.num_nodes));
            self.rev.push(Csr::empty(self.num_nodes));
        }
        if !self.fwd[l].insert(s.0, t.0) {
            return false;
        }
        self.rev[l].insert(t.0, s.0);
        self.degree[s.0 as usize] += 1;
        self.degree[t.0 as usize] += 1;
        self.num_edges += 1;
        true
    }

    fn remove_edge(&mut self, s: NodeId, label: EdgeLabel, t: NodeId) -> bool {
        let l = label.0 as usize;
        if l >= self.fwd.len() || !self.fwd[l].remove(s.0, t.0) {
            return false;
        }
        self.rev[l].remove(t.0, s.0);
        self.degree[s.0 as usize] -= 1;
        self.degree[t.0 as usize] -= 1;
        self.num_edges -= 1;
        true
    }

    fn clear_node(&mut self, node: NodeId) -> (LabelSet, Vec<(NodeId, EdgeLabel, NodeId)>) {
        let u = node.0;
        let labels: Vec<u32> = self
            .by_label
            .iter_mut()
            .enumerate()
            .filter_map(|(l, nodes)| nodes.remove(u).then_some(l as u32))
            .collect();
        let mut dropped: Vec<(NodeId, EdgeLabel, NodeId)> = Vec::new();
        for (l, (fwd, rev)) in self.fwd.iter().zip(&self.rev).enumerate() {
            let l = EdgeLabel(l as u32);
            dropped.extend(fwd.row(u).iter().map(|&t| (node, l, NodeId(t))));
            dropped.extend(rev.row(u).iter().map(|&s| (NodeId(s), l, node)));
        }
        // A self loop appears in both rows; drop each edge exactly once.
        dropped.sort_unstable();
        dropped.dedup();
        for &(s, l, t) in &dropped {
            self.remove_edge(s, l, t);
        }
        (LabelSet::from_iter(labels), dropped)
    }
}

/// Per-shard partition output: per-label forward and reverse edge pairs
/// for one contiguous node range.
struct EdgeParts {
    fwd: Vec<Vec<(u32, u32)>>,
    rev: Vec<Vec<(u32, u32)>>,
}

fn partition_range(g: &Graph, lo: usize, hi: usize) -> EdgeParts {
    let mut parts = EdgeParts { fwd: Vec::new(), rev: Vec::new() };
    for u in lo..hi {
        for (sym, v) in g.incident(NodeId(u as u32)) {
            let l = sym.label.0 as usize;
            if parts.fwd.len() <= l {
                parts.fwd.resize_with(l + 1, Vec::new);
                parts.rev.resize_with(l + 1, Vec::new);
            }
            if sym.inverse {
                parts.rev[l].push((u as u32, v.0));
            } else {
                parts.fwd[l].push((u as u32, v.0));
            }
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::{GraphDelta, Vocab};

    fn fixture() -> (Vocab, Graph) {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let b = v.node_label("B");
        let r = v.edge_label("r");
        let s = v.edge_label("s");
        let mut g = Graph::new();
        let n0 = g.add_labeled_node([a]);
        let n1 = g.add_labeled_node([b]);
        let n2 = g.add_labeled_node([a, b]);
        g.add_edge(n0, r, n1);
        g.add_edge(n0, r, n2);
        g.add_edge(n2, s, n0);
        g.add_edge(n1, r, n1); // self loop
        (v, g)
    }

    #[test]
    fn csr_matches_graph_adjacency() {
        let (v, g) = fixture();
        let idx = IndexedGraph::build(&g);
        let r = v.find_edge_label("r").unwrap();
        let s = v.find_edge_label("s").unwrap();
        for u in g.nodes() {
            for sym in [EdgeSym::fwd(r), EdgeSym::bwd(r), EdgeSym::fwd(s), EdgeSym::bwd(s)] {
                let mut want: Vec<u32> = g.successors(u, sym).map(|n| n.0).collect();
                want.sort_unstable();
                want.dedup();
                assert_eq!(idx.successors(u.0, sym), want.as_slice(), "node {u:?} sym {sym:?}");
            }
        }
        assert_eq!(idx.num_nodes(), 3);
        assert_eq!(idx.num_edges(), 4);
    }

    #[test]
    fn chunked_build_agrees_with_serial() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let s = v.edge_label("s");
        let mut g = Graph::new();
        for i in 0..200u32 {
            let n = g.add_node();
            if i % 3 == 0 {
                g.add_label(n, a);
            }
        }
        for i in 0..200u32 {
            g.add_edge(NodeId(i), r, NodeId((i * 7 + 3) % 200));
            g.add_edge(NodeId((i * 5) % 200), s, NodeId(i));
        }
        let serial =
            IndexedGraph::try_build_with(&g, &IndexBuildOptions { threads: 1, budget_bytes: None })
                .unwrap();
        let chunked =
            IndexedGraph::try_build_with(&g, &IndexBuildOptions { threads: 4, budget_bytes: None })
                .unwrap();
        for u in 0..200u32 {
            for sym in [EdgeSym::fwd(r), EdgeSym::bwd(r), EdgeSym::fwd(s), EdgeSym::bwd(s)] {
                assert_eq!(serial.successors(u, sym), chunked.successors(u, sym));
            }
            assert_eq!(serial.degree(u), chunked.degree(u));
        }
        assert_eq!(serial.num_edges(), chunked.num_edges());
    }

    #[test]
    fn budgeted_build_refuses_oversized_graphs() {
        let (_, g) = fixture();
        let err = IndexedGraph::try_build_with(
            &g,
            &IndexBuildOptions { threads: 1, budget_bytes: Some(8) },
        )
        .unwrap_err();
        match err {
            IndexError::BudgetExceeded { approx_bytes, budget_bytes } => {
                assert!(approx_bytes > budget_bytes);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // A generous budget builds fine and the estimate is honest.
        let idx = IndexedGraph::try_build_with(
            &g,
            &IndexBuildOptions { threads: 1, budget_bytes: Some(1 << 20) },
        )
        .unwrap();
        assert!(idx.approx_bytes() > 0 && idx.approx_bytes() < 1 << 20);
    }

    #[test]
    fn u32_overflow_guard_reports_structured_error() {
        // The guard fires on the *count*, before any allocation — which is
        // the only way to exercise a > 4-billion-target failure in a test.
        assert!(Csr::check_len(3, u32::MAX as usize).is_ok());
        let err = Csr::check_len(3, u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err, IndexError::TooManyEdges { label: 3, targets: u32::MAX as usize + 1 });
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn degrees_count_both_directions() {
        let (_, g) = fixture();
        let idx = IndexedGraph::build(&g);
        // n0: out r×2, in s×1 → 3. n1: out r(self), in r×2 (n0→n1, self) → 3.
        assert_eq!(idx.degree(0), 3);
        assert_eq!(idx.degree(1), 3);
        assert_eq!(idx.degree(99), 0);
    }

    /// Rows held in the overlays of every CSR of `idx`.
    fn overlay_rows(idx: &IndexedGraph) -> usize {
        idx.fwd.iter().chain(&idx.rev).map(|c| c.overlay.len()).sum()
    }

    /// Applies `d` to the index as the incremental executor does: through
    /// the shared delta code, then one fold per touched label.
    fn patch(idx: &mut IndexedGraph, d: &GraphDelta) -> DeltaEffects {
        let fx = d.apply_in_place(idx).unwrap();
        idx.fold_touched(&fx).unwrap();
        fx
    }

    /// Seeded random deltas on 40 nodes, each applied through
    /// [`GraphDelta::apply_in_place`] to both a [`Graph`] and an
    /// [`IndexedGraph`]: the two stores must report the same effects, and
    /// the patched index must read like a fresh build of the graph. The
    /// edits cross the fold threshold many times, and the mix includes
    /// tombstones of self-looped nodes, an edge removed and re-added by
    /// one delta, edge and node labels past the current maximum, and
    /// fresh nodes.
    #[test]
    fn random_deltas_patch_the_index_like_the_graph() {
        use rand::{Rng, SeedableRng};
        let (mut saw_overlay, mut saw_fold) = (false, false);
        for seed in 0..6u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = Graph::new();
            for _ in 0..40 {
                g.add_node();
            }
            for _ in 0..80 {
                let (s, t) = (rng.gen_range(0..40u32), rng.gen_range(0..40u32));
                g.add_edge(NodeId(s), EdgeLabel(rng.gen_range(0..2u32)), NodeId(t));
            }
            let mut idx = IndexedGraph::build(&g);
            for step in 0..60u32 {
                let n = g.num_nodes() as u32;
                // Edge and node labels 2.. first appear as the steps go on.
                let labels = 2 + step / 15;
                let mut d = GraphDelta::default();
                if step % 10 == 9 {
                    d.added_nodes.push(LabelSet::singleton(rng.gen_range(0..labels)));
                    d.added_edges.push((NodeId(rng.gen_range(0..n)), EdgeLabel(0), NodeId(n)));
                }
                // A self loop, and the next step tombstones its node.
                if step % 7 == 5 {
                    d.added_edges.push((NodeId(step % n), EdgeLabel(0), NodeId(step % n)));
                }
                if step % 7 == 6 {
                    d.removed_nodes.push(NodeId((step - 1) % n));
                }
                if step % 5 == 4 {
                    let (s, l, t) = g.edges().nth(rng.gen_range(0..g.num_edges())).unwrap();
                    d.removed_edges.push((s, l, t));
                    d.added_edges.push((s, l, t));
                }
                for _ in 0..rng.gen_range(1..6) {
                    let s = NodeId(rng.gen_range(0..n));
                    let t = if rng.gen_bool(0.2) { s } else { NodeId(rng.gen_range(0..n)) };
                    let l = rng.gen_range(0..labels);
                    match rng.gen_range(0..10) {
                        0..=3 => d.removed_edges.push((s, EdgeLabel(l), t)),
                        4 => d.added_labels.push((s, NodeLabel(l))),
                        5 => d.removed_labels.push((s, NodeLabel(l))),
                        _ => d.added_edges.push((s, EdgeLabel(l), t)),
                    }
                }
                let before = overlay_rows(&idx);
                let fx = d.apply_in_place(&mut g).unwrap();
                assert_eq!(patch(&mut idx, &d), fx, "seed {seed} step {step}");
                let after = overlay_rows(&idx);
                saw_overlay |= after > 0;
                saw_fold |= after < before;

                let fresh = IndexedGraph::build(&g);
                assert_eq!(idx.num_nodes(), fresh.num_nodes(), "seed {seed} step {step}");
                assert_eq!(idx.num_edges(), fresh.num_edges(), "seed {seed} step {step}");
                for u in 0..g.num_nodes() as u32 {
                    for l in 0..labels + 1 {
                        for sym in [EdgeSym::fwd(EdgeLabel(l)), EdgeSym::bwd(EdgeLabel(l))] {
                            assert_eq!(
                                idx.successors(u, sym),
                                fresh.successors(u, sym),
                                "seed {seed} step {step} u={u} {sym:?}"
                            );
                        }
                        let has = g.has_label(NodeId(u), NodeLabel(l));
                        assert_eq!(idx.has_label(u, NodeLabel(l)), has, "seed {seed} u={u} l={l}");
                        assert_eq!(fresh.has_label(u, NodeLabel(l)), has);
                    }
                    assert_eq!(idx.degree(u), fresh.degree(u), "seed {seed} step {step} u={u}");
                }
            }
        }
        assert!(saw_overlay && saw_fold, "overlay {saw_overlay}, fold {saw_fold}");
    }

    /// Overlay rows count toward the footprint, and a fold leaves exactly
    /// what a fresh build of the same graph holds.
    #[test]
    fn approx_bytes_counts_the_overlay_and_a_fold_restores_the_fresh_figure() {
        let r = EdgeLabel(0);
        let mut g = Graph::new();
        for _ in 0..64 {
            g.add_node();
        }
        let ring: Vec<_> = (0..64u32).map(|u| (NodeId(u), r, NodeId((u + 1) % 64))).collect();
        for &(s, l, t) in &ring {
            g.add_edge(s, l, t);
        }
        let mut idx = IndexedGraph::build(&g);
        let fresh_bytes = idx.approx_bytes();

        let remove = |es: &[_]| GraphDelta { removed_edges: es.to_vec(), ..GraphDelta::default() };
        let add = |es: &[_]| GraphDelta { added_edges: es.to_vec(), ..GraphDelta::default() };

        // One edge: one forward and one reverse row in the overlays.
        patch(&mut idx, &remove(&ring[..1]));
        assert_eq!(overlay_rows(&idx), 2);
        assert!(idx.approx_bytes() > fresh_bytes);
        patch(&mut idx, &add(&ring[..1]));

        // Nine edited rows of 64 pass the fold threshold in both
        // directions; the ring is whole again afterwards.
        patch(&mut idx, &remove(&ring[1..9]));
        assert_eq!(overlay_rows(&idx), 0, "both directions folded");
        patch(&mut idx, &add(&ring[1..9]));
        assert_eq!(overlay_rows(&idx), 16, "eight rows per direction stay below it");
        patch(&mut idx, &GraphDelta { removed_edges: ring[9..10].to_vec(), ..add(&ring[9..10]) });
        assert_eq!(overlay_rows(&idx), 0);
        assert_eq!(idx.approx_bytes(), fresh_bytes);
        assert_eq!(idx.approx_bytes(), IndexedGraph::build(&g).approx_bytes());
        for u in 0..64u32 {
            assert_eq!(idx.successors(u, EdgeSym::fwd(r)), &[(u + 1) % 64]);
        }
    }

    #[test]
    fn grow_nodes_extends_every_row_structure() {
        let (v, g) = fixture();
        let r = v.find_edge_label("r").unwrap();
        let mut idx = IndexedGraph::build(&g);
        assert_eq!((idx.add_node(), idx.add_node()), (NodeId(3), NodeId(4)));
        assert_eq!(idx.num_nodes(), 5);
        assert!(idx.successors(4, EdgeSym::fwd(r)).is_empty());
        assert!(idx.all_nodes().contains(4));
        assert_eq!(idx.degree(4), 0);
    }

    #[test]
    fn label_bitsets_match_graph_labels() {
        let (v, g) = fixture();
        let idx = IndexedGraph::build(&g);
        let a = v.find_node_label("A").unwrap();
        let b = v.find_node_label("B").unwrap();
        assert_eq!(idx.nodes_with_label(a).unwrap().iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(idx.nodes_with_label(b).unwrap().iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(idx.has_label(2, a) && idx.has_label(2, b));
        assert!(!idx.has_label(1, a));
        // An unused label index is absent rather than panicking.
        assert!(idx.nodes_with_label(NodeLabel(99)).is_none());
        assert!(!idx.has_label(0, NodeLabel(99)));
    }

    #[test]
    fn unknown_edge_labels_have_no_successors() {
        let (_, g) = fixture();
        let idx = IndexedGraph::build(&g);
        assert!(idx.successors(0, EdgeSym::fwd(EdgeLabel(41))).is_empty());
        assert!(!idx.has_successor(0, EdgeSym::bwd(EdgeLabel(41))));
    }

    #[test]
    fn empty_graph_indexes_cleanly() {
        let idx = IndexedGraph::build(&Graph::new());
        assert_eq!(idx.num_nodes(), 0);
        assert!(idx.all_nodes().is_empty());
        assert_eq!(idx.approx_bytes(), 0);
    }
}
