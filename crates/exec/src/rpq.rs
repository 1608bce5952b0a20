//! RPQ evaluation over the product of a graph with a Glushkov NFA.
//!
//! The naive evaluator ([`gts_query::Nfa::pairs`]) runs one
//! node-at-a-time DFS per source over hash-backed adjacency, allocating
//! an `O(|V| · |Q|)` visited table *per source* — `O(|V|²·|Q|)` work even
//! when answers are sparse. Here:
//!
//! * sources are pre-filtered through the index's per-label node bitsets
//!   ([`gts_graph::LabelSet`]) to nodes that can take some first
//!   transition, which on anchored expressions
//!   (e.g. `Vaccine·designTarget·…`) skips almost the whole graph, and
//!   walked in descending-degree order — hub sources run their (longest)
//!   searches first;
//! * each surviving source runs a worklist BFS over the product whose
//!   visited table is allocated once per relation build and reset in
//!   `O(1)` by a generation stamp. The table is *adaptive*
//!   ([`Visited`]): a dense stamp array while `|V| · |Q|` fits a fixed
//!   budget, a stamped hash map past it — million-node graphs with large
//!   automata no longer materialize multi-hundred-MB tables;
//! * the resulting [`Relation`] stores its pairs as CSR columns in both
//!   orientations plus per-column *supports*, so the join in
//!   [`crate::exec`] narrows candidate frontiers cheaply. Supports are
//!   adaptive too ([`NodeCol`]): sparse answer sets on huge graphs keep a
//!   sorted id vector instead of a bitset sized to the highest node id.

use crate::index::{Csr, IndexedGraph};
use gts_graph::{FxHashMap, LabelSet, NodeId};
use gts_query::{AtomSym, Nfa};

/// An adaptive set of node ids — the column-support representation of
/// [`Relation`]. Dense bitsets are ideal when a column touches a sizable
/// fraction of the graph, but a bitset is sized to its *highest* set bit:
/// a 3-pair relation on a million-node graph would still allocate ~125 KB
/// per column. Sparse columns therefore keep a sorted vector and the
/// representation flips to a bitset only when it is the smaller encoding
/// (roughly one bit per 32 ids of span).
#[derive(Clone, Debug)]
pub enum NodeCol {
    /// Sorted, deduplicated node ids.
    Sparse(Vec<u32>),
    /// Dense bitset over node ids.
    Dense(LabelSet),
}

impl NodeCol {
    /// Builds from a sorted, deduplicated id vector, choosing the smaller
    /// representation.
    pub(crate) fn from_sorted_vec(ids: Vec<u32>) -> NodeCol {
        match ids.last() {
            Some(&max) if NodeCol::dense_wins(ids.len(), max) => {
                NodeCol::Dense(LabelSet::from_iter(ids))
            }
            _ => NodeCol::Sparse(ids),
        }
    }

    /// Dense wins once the 4-bytes-per-id vector outweighs the
    /// max_id/8-byte bitset.
    fn dense_wins(len: usize, max: u32) -> bool {
        len as u64 * 32 >= max as u64
    }

    /// Adds `u`; a sparse column turns dense once that is the smaller
    /// encoding, as [`NodeCol::from_sorted_vec`] would choose it.
    pub(crate) fn insert(&mut self, u: u32) {
        match self {
            NodeCol::Sparse(ids) => {
                if let Err(pos) = ids.binary_search(&u) {
                    ids.insert(pos, u);
                    if NodeCol::dense_wins(ids.len(), ids[ids.len() - 1]) {
                        *self = NodeCol::Dense(LabelSet::from_iter(ids.iter().copied()));
                    }
                }
            }
            NodeCol::Dense(set) => {
                set.insert(u);
            }
        }
    }

    /// Drops `u` (the representation stays as it is).
    pub(crate) fn remove(&mut self, u: u32) {
        match self {
            NodeCol::Sparse(ids) => {
                if let Ok(pos) = ids.binary_search(&u) {
                    ids.remove(pos);
                }
            }
            NodeCol::Dense(set) => {
                set.remove(u);
            }
        }
    }

    /// Membership test: `O(1)` dense, `O(log len)` sparse.
    #[inline]
    pub fn contains(&self, u: u32) -> bool {
        match self {
            NodeCol::Sparse(ids) => ids.binary_search(&u).is_ok(),
            NodeCol::Dense(set) => set.contains(u),
        }
    }

    /// Number of ids in the column.
    pub fn len(&self) -> usize {
        match self {
            NodeCol::Sparse(ids) => ids.len(),
            NodeCol::Dense(set) => set.len(),
        }
    }

    /// `true` iff the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> NodeColIter<'_> {
        match self {
            NodeCol::Sparse(ids) => NodeColIter::Sparse(ids.iter()),
            NodeCol::Dense(set) => NodeColIter::Dense(Box::new(set.iter())),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            NodeCol::Sparse(ids) => ids.capacity() * std::mem::size_of::<u32>(),
            NodeCol::Dense(set) => set.approx_bytes(),
        }
    }
}

/// Ascending iterator over a [`NodeCol`].
pub enum NodeColIter<'a> {
    /// Iterating a sparse column.
    Sparse(std::slice::Iter<'a, u32>),
    /// Iterating a dense column.
    Dense(Box<dyn Iterator<Item = u32> + 'a>),
}

impl Iterator for NodeColIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            NodeColIter::Sparse(it) => it.next().copied(),
            NodeColIter::Dense(it) => it.next(),
        }
    }
}

/// A binary relation over graph nodes — the answer set of one regular
/// path expression. Stored as CSR in both orientations (memory linear in
/// the pair count), with adaptive *supports* per column for the join's
/// candidate-frontier narrowing.
#[derive(Clone, Debug)]
pub struct Relation {
    /// Pairs grouped by source: `fwd.row(u)` = sorted targets of `u`.
    fwd: Csr,
    /// Pairs grouped by target: `rev.row(v)` = sorted sources of `v`.
    rev: Csr,
    /// Nodes with at least one outgoing pair (`{u | ∃v. (u,v)}`).
    src_support: NodeCol,
    /// Nodes with at least one incoming pair (`{v | ∃u. (u,v)}`).
    tgt_support: NodeCol,
    len: usize,
}

impl Relation {
    /// Evaluates `nfa` over the indexed graph: all pairs `(u, v)` joined
    /// by a path whose labeling the automaton accepts.
    pub fn build(idx: &IndexedGraph, nfa: &Nfa) -> Relation {
        let n = idx.num_nodes();
        let useful = nfa.useful_states();
        let mut pairs: Vec<(u32, u32)> = Vec::new();

        // Identity pairs: a nullable expression relates every node to
        // itself, no search needed.
        if nfa.is_final(nfa.initial()) {
            pairs.extend((0..n as u32).map(|u| (u, u)));
        }

        // Source filter: only nodes able to take some useful first
        // transition can reach anything beyond themselves.
        let sources = first_transition_sources(idx, nfa, &useful);

        // Degree order: hub sources have the largest product frontiers;
        // running the long searches first front-loads the heavy rows
        // (classic longest-task-first scheduling — and the final
        // sort/dedup makes the answer independent of this order anyway).
        let mut src_list: Vec<u32> = sources.iter().collect();
        src_list.sort_by_key(|&u| (std::cmp::Reverse(idx.degree(u)), u));

        let mut bfs = ProductBfs::new(n, nfa.num_states());
        let mut row: Vec<u32> = Vec::new();
        for u in src_list {
            row.clear();
            bfs.run(idx, nfa, &useful, u, &mut row);
            pairs.extend(row.iter().map(|&v| (u, v)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        Relation::from_sorted_pairs(n, pairs)
    }

    /// Builds the CSR columns and supports from sorted, deduplicated
    /// `(source, target)` pairs. Consumes `pairs` as scratch for the
    /// reverse orientation.
    pub(crate) fn from_sorted_pairs(n: usize, mut pairs: Vec<(u32, u32)>) -> Relation {
        let fwd = Csr::from_sorted_pairs(n, &pairs);
        let mut src_ids: Vec<u32> = pairs.iter().map(|&(u, _)| u).collect();
        src_ids.dedup();
        let len = pairs.len();
        for p in &mut pairs {
            *p = (p.1, p.0);
        }
        pairs.sort_unstable();
        let rev = Csr::from_sorted_pairs(n, &pairs);
        let mut tgt_ids: Vec<u32> = pairs.iter().map(|&(v, _)| v).collect();
        tgt_ids.dedup();
        Relation {
            fwd,
            rev,
            src_support: NodeCol::from_sorted_vec(src_ids),
            tgt_support: NodeCol::from_sorted_vec(tgt_ids),
            len,
        }
    }

    /// Replaces the rows of the given (distinct) sources with new
    /// sorted, deduplicated target lists; `num_nodes` may exceed the old
    /// row count when the patch accompanies added nodes. Each changed row
    /// is replaced in the forward CSR, each changed pair edits one reverse
    /// row, and `len` and both supports are updated per edit, so the
    /// patch costs the lengths of the changed rows and of the reverse rows
    /// their changed pairs touch, plus an amortized share of the CSR
    /// folds. Returns the
    /// per-source row diffs, ordered by source — what the incremental
    /// executor patches matches from.
    pub(crate) fn patch_rows(
        &mut self,
        num_nodes: usize,
        changes: Vec<(u32, Vec<u32>)>,
    ) -> Vec<RowDiff> {
        self.fwd.grow_rows(num_nodes);
        self.rev.grow_rows(num_nodes);
        let mut diffs: Vec<RowDiff> = Vec::with_capacity(changes.len());
        for (u, new_row) in changes {
            let old_row = self.fwd.row(u);
            let (removed, added) = diff_sorted(old_row, &new_row);
            if removed.is_empty() && added.is_empty() {
                continue;
            }
            match (old_row.is_empty(), new_row.is_empty()) {
                (true, false) => self.src_support.insert(u),
                (false, true) => self.src_support.remove(u),
                _ => {}
            }
            for &v in &removed {
                self.rev.remove(v, u);
                if self.rev.row(v).is_empty() {
                    self.tgt_support.remove(v);
                }
            }
            for &v in &added {
                if self.rev.row(v).is_empty() {
                    self.tgt_support.insert(v);
                }
                self.rev.insert(v, u);
            }
            self.len = self.len + added.len() - removed.len();
            self.fwd.replace_row(u, new_row);
            diffs.push(RowDiff { source: u, removed, added });
        }
        for csr in [&mut self.fwd, &mut self.rev] {
            csr.fold_if_due(0).unwrap_or_else(|e| panic!("{e}"));
        }
        diffs.sort_by_key(|d| d.source);
        diffs
    }

    /// Nodes with at least one outgoing pair — the candidate frontier for
    /// a join variable in source position.
    pub fn src_support(&self) -> &NodeCol {
        &self.src_support
    }

    /// Nodes with at least one incoming pair — the candidate frontier for
    /// a join variable in target position.
    pub fn tgt_support(&self) -> &NodeCol {
        &self.tgt_support
    }

    /// Number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the relation has no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint in bytes (CSR columns plus supports).
    pub fn approx_bytes(&self) -> usize {
        self.fwd.approx_bytes()
            + self.rev.approx_bytes()
            + self.src_support.approx_bytes()
            + self.tgt_support.approx_bytes()
    }

    /// All `v` with `(u, v)` in the relation, sorted.
    pub fn targets_of(&self, u: u32) -> &[u32] {
        if (u as usize) < self.fwd.num_rows() {
            self.fwd.row(u)
        } else {
            &[]
        }
    }

    /// All `u` with `(u, v)` in the relation, sorted.
    pub fn sources_of(&self, v: u32) -> &[u32] {
        if (v as usize) < self.rev.num_rows() {
            self.rev.row(v)
        } else {
            &[]
        }
    }

    /// Membership test (binary search in the source's row).
    pub fn contains(&self, u: u32, v: u32) -> bool {
        self.targets_of(u).binary_search(&v).is_ok()
    }

    /// Iterates all pairs in `(u, v)` lexicographic order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.fwd.num_rows()).flat_map(move |u| {
            self.fwd.row(u as u32).iter().map(move |&v| (NodeId(u as u32), NodeId(v)))
        })
    }
}

/// One changed relation row: the targets that disappeared and appeared
/// for a single source.
#[derive(Clone, Debug)]
pub(crate) struct RowDiff {
    pub(crate) source: u32,
    pub(crate) removed: Vec<u32>,
    pub(crate) added: Vec<u32>,
}

/// Set difference both ways over two sorted slices.
fn diff_sorted(old: &[u32], new: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let (mut removed, mut added) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(&a), Some(&b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(&a), Some(&b)) if a < b => {
                removed.push(a);
                i += 1;
            }
            (Some(_), Some(&b)) => {
                added.push(b);
                j += 1;
            }
            (Some(&a), None) => {
                removed.push(a);
                i += 1;
            }
            (None, Some(&b)) => {
                added.push(b);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    (removed, added)
}

/// The prefiltered BFS sources of `nfa` over `idx`: nodes able to take
/// some useful first transition.
fn first_transition_sources(idx: &IndexedGraph, nfa: &Nfa, useful: &[bool]) -> LabelSet {
    let mut sources = LabelSet::new();
    for &(sym, q) in nfa.transitions(nfa.initial()) {
        if !useful[q] {
            continue;
        }
        match sym {
            AtomSym::Node(a) => {
                if let Some(s) = idx.nodes_with_label(a) {
                    sources.union_with(s);
                }
            }
            AtomSym::Edge(r) => {
                for u in 0..idx.num_nodes() as u32 {
                    if idx.has_successor(u, r) {
                        sources.insert(u);
                    }
                }
            }
        }
    }
    sources
}

/// A stamped product-state visited table, adaptive in its backing store:
/// a dense `|V| · |Q|` array of generation stamps while that fits
/// [`Visited::DENSE_MAX`] slots (64 MiB of `u32`), a stamped hash map
/// beyond — the dense table is reset in `O(1)` per source by bumping the
/// stamp, the sparse one pays a hash per mark but keeps million-node ×
/// many-state products from allocating gigabytes. A table sized for `Q`
/// states serves any automaton with at most `Q` (marks are keyed
/// `node * states + state` with the automaton's own `states`), since each
/// generation belongs to one search.
pub(crate) enum Visited {
    /// Dense stamp array indexed `node * states + state`.
    Dense { stamp: u32, slots: Vec<u32> },
    /// Stamped map keyed `node * states + state`.
    Sparse { stamp: u32, map: FxHashMap<u64, u32> },
}

impl Visited {
    const DENSE_MAX: usize = 1 << 24;

    pub(crate) fn new(num_nodes: usize, states: usize) -> Visited {
        if num_nodes.saturating_mul(states.max(1)) <= Visited::DENSE_MAX {
            Visited::Dense { stamp: 0, slots: vec![0; num_nodes * states.max(1)] }
        } else {
            Visited::Sparse { stamp: 0, map: FxHashMap::default() }
        }
    }

    /// Extends a table made by `Visited::new(_, states)` to `num_nodes`
    /// nodes; a dense table past [`Visited::DENSE_MAX`] turns sparse.
    /// New slots read as unmarked in the current generation.
    pub(crate) fn grow(&mut self, num_nodes: usize, states: usize) {
        if let Visited::Dense { stamp, slots } = self {
            let len = num_nodes.saturating_mul(states.max(1));
            if len <= Visited::DENSE_MAX {
                if len > slots.len() {
                    // Zeroed slots read unmarked: a live stamp is never 0.
                    slots.resize(len, 0);
                }
            } else {
                *self = Visited::Sparse { stamp: *stamp, map: FxHashMap::default() };
            }
        }
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        match self {
            Visited::Dense { slots, .. } => slots.capacity() * std::mem::size_of::<u32>(),
            Visited::Sparse { map, .. } => map.capacity() * (std::mem::size_of::<(u64, u32)>() + 1),
        }
    }

    /// Starts a fresh generation (invalidating all marks in `O(1)` except
    /// on stamp wraparound).
    pub(crate) fn next_round(&mut self) {
        match self {
            Visited::Dense { stamp, slots } => {
                *stamp = stamp.wrapping_add(1);
                if *stamp == 0 {
                    slots.fill(0);
                    *stamp = 1;
                }
            }
            Visited::Sparse { stamp, map } => {
                *stamp = stamp.wrapping_add(1);
                if *stamp == 0 {
                    map.clear();
                    *stamp = 1;
                }
            }
        }
    }

    /// Marks `(node, state)`; `true` iff it was unmarked this generation.
    #[inline]
    pub(crate) fn mark(&mut self, states: usize, node: u32, state: u32) -> bool {
        match self {
            Visited::Dense { stamp, slots } => {
                let slot = &mut slots[node as usize * states + state as usize];
                let fresh = *slot != *stamp;
                *slot = *stamp;
                fresh
            }
            Visited::Sparse { stamp, map } => {
                let key = node as u64 * states as u64 + state as u64;
                let slot = map.entry(key).or_insert(0);
                let fresh = *slot != *stamp;
                *slot = *stamp;
                fresh
            }
        }
    }
}

/// Reusable product-search state: one [`Visited`] table and one work
/// list, sized for automata of up to `states` states. A relation build
/// shares one across its sources; the incremental executor keeps one
/// resident across deltas and relations.
pub(crate) struct ProductBfs {
    /// The widest automaton the table serves.
    states: usize,
    pub(crate) visited: Visited,
    pub(crate) worklist: Vec<(u32, u32)>,
}

impl ProductBfs {
    pub(crate) fn new(num_nodes: usize, states: usize) -> ProductBfs {
        ProductBfs {
            states: states.max(1),
            visited: Visited::new(num_nodes, states),
            worklist: Vec::new(),
        }
    }

    /// Extends the table to `num_nodes` nodes.
    pub(crate) fn grow(&mut self, num_nodes: usize) {
        self.visited.grow(num_nodes, self.states);
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.visited.approx_bytes() + self.worklist.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// Appends to `result` every node reachable from `start` along an
    /// accepted path (including `start` itself when the automaton is
    /// nullable). May append a node more than once — one entry per
    /// accepting product state — so callers deduplicate.
    pub(crate) fn run(
        &mut self,
        idx: &IndexedGraph,
        nfa: &Nfa,
        useful: &[bool],
        start: u32,
        result: &mut Vec<u32>,
    ) {
        let states = nfa.num_states().max(1);
        debug_assert!(states <= self.states, "automaton wider than the visited table");
        self.visited.next_round();
        self.worklist.clear();
        self.visited.mark(states, start, 0);
        self.worklist.push((start, 0));
        if nfa.is_final(0) {
            result.push(start);
        }
        while let Some((u, s)) = self.worklist.pop() {
            for &(sym, q) in nfa.transitions(s as usize) {
                if !useful[q] {
                    continue;
                }
                let q = q as u32;
                match sym {
                    AtomSym::Node(a) => {
                        if idx.has_label(u, a) && self.visited.mark(states, u, q) {
                            if nfa.is_final(q as usize) {
                                result.push(u);
                            }
                            self.worklist.push((u, q));
                        }
                    }
                    AtomSym::Edge(r) => {
                        for &v in idx.successors(u, r) {
                            if self.visited.mark(states, v, q) {
                                if nfa.is_final(q as usize) {
                                    result.push(v);
                                }
                                self.worklist.push((v, q));
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::{DeltaTarget, FxHashSet, Graph, Vocab};
    use gts_query::Regex;

    /// Builds the medical chain: vac -dt-> a1 -cr-> a2 -cr-> a3.
    fn medical() -> (Vocab, Graph) {
        let mut v = Vocab::new();
        let vaccine = v.node_label("Vaccine");
        let antigen = v.node_label("Antigen");
        let dt = v.edge_label("designTarget");
        let cr = v.edge_label("crossReacting");
        let mut g = Graph::new();
        let vac = g.add_labeled_node([vaccine]);
        let a1 = g.add_labeled_node([antigen]);
        let a2 = g.add_labeled_node([antigen]);
        let a3 = g.add_labeled_node([antigen]);
        g.add_edge(vac, dt, a1);
        g.add_edge(a1, cr, a2);
        g.add_edge(a2, cr, a3);
        (v, g)
    }

    fn assert_agrees(re: &Regex, g: &Graph) {
        let nfa = Nfa::from_regex(re);
        let idx = IndexedGraph::build(g);
        let rel = Relation::build(&idx, &nfa);
        let naive = nfa.pairs(g);
        let indexed: FxHashSet<(NodeId, NodeId)> = rel.iter_pairs().collect();
        assert_eq!(indexed, naive, "regex {re:?}");
        assert_eq!(rel.len(), naive.len());
    }

    #[test]
    fn anchored_star_expression_agrees_with_naive() {
        let (v, g) = medical();
        let vaccine = v.find_node_label("Vaccine").unwrap();
        let antigen = v.find_node_label("Antigen").unwrap();
        let dt = v.find_edge_label("designTarget").unwrap();
        let cr = v.find_edge_label("crossReacting").unwrap();
        let re = Regex::node(vaccine)
            .then(Regex::edge(dt))
            .then(Regex::edge(cr).star())
            .then(Regex::node(antigen));
        assert_agrees(&re, &g);
        // And the indexed answer is the expected 3 pairs.
        let rel = Relation::build(&IndexedGraph::build(&g), &Nfa::from_regex(&re));
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.targets_of(0).len(), 3);
        assert!(rel.contains(0, 3));
        assert_eq!(rel.sources_of(3), &[0]);
        assert_eq!(rel.src_support().iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(rel.tgt_support().len(), 3);
    }

    #[test]
    fn nullable_and_inverse_expressions_agree_with_naive() {
        let (v, g) = medical();
        let dt = v.find_edge_label("designTarget").unwrap();
        let cr = v.find_edge_label("crossReacting").unwrap();
        for re in [
            Regex::Epsilon,
            Regex::Empty,
            Regex::edge(cr).star(),
            Regex::sym(gts_graph::EdgeSym::bwd(cr)),
            Regex::edge(dt).then(Regex::sym(gts_graph::EdgeSym::bwd(dt))),
            Regex::edge(cr).or(Regex::Epsilon),
        ] {
            assert_agrees(&re, &g);
        }
    }

    #[test]
    fn self_loops_and_empty_graphs() {
        let mut v = Vocab::new();
        let r = v.edge_label("r");
        let mut g = Graph::new();
        let n = g.add_node();
        g.add_edge(n, r, n);
        assert_agrees(&Regex::edge(r).star(), &g);
        assert_agrees(&Regex::edge(r), &Graph::new());
    }

    #[test]
    fn node_col_picks_sparse_for_scattered_ids() {
        let sparse = NodeCol::from_sorted_vec(vec![3, 1_000_000]);
        assert!(matches!(sparse, NodeCol::Sparse(_)));
        assert!(sparse.contains(3) && sparse.contains(1_000_000) && !sparse.contains(4));
        assert_eq!(sparse.iter().collect::<Vec<_>>(), vec![3, 1_000_000]);
        let dense = NodeCol::from_sorted_vec((0..128).collect());
        assert!(matches!(dense, NodeCol::Dense(_)));
        assert_eq!(dense.len(), 128);
        assert!(dense.approx_bytes() <= 4 * 128);
    }

    #[test]
    fn sparse_visited_table_agrees_with_dense() {
        let mut dense = Visited::Dense { stamp: 0, slots: vec![0; 4 * 3] };
        let mut sparse = Visited::Sparse { stamp: 0, map: FxHashMap::default() };
        for v in [&mut dense, &mut sparse] {
            v.next_round();
            assert!(v.mark(3, 2, 1));
            assert!(!v.mark(3, 2, 1));
            assert!(v.mark(3, 2, 2));
            v.next_round();
            assert!(v.mark(3, 2, 1), "new round invalidates old marks");
        }
    }

    /// Everything a patched relation answers equals what `fresh` answers.
    fn assert_same_relation(rel: &Relation, fresh: &Relation, n: usize, ctx: &str) {
        assert_eq!(rel.len(), fresh.len(), "{ctx}");
        assert_eq!(rel.iter_pairs().collect::<Vec<_>>(), fresh.iter_pairs().collect::<Vec<_>>());
        for v in 0..n as u32 {
            assert_eq!(rel.sources_of(v), fresh.sources_of(v), "{ctx}: sources of {v}");
        }
        for (got, want) in
            [(rel.src_support(), fresh.src_support()), (rel.tgt_support(), fresh.tgt_support())]
        {
            assert_eq!(got.iter().collect::<Vec<_>>(), want.iter().collect::<Vec<_>>(), "{ctx}");
            assert_eq!(got.len(), want.len(), "{ctx}");
        }
    }

    #[test]
    fn patch_rows_matches_fresh_build_and_reports_diffs() {
        let (v, mut g) = medical();
        let cr = v.find_edge_label("crossReacting").unwrap();
        let dt = v.find_edge_label("designTarget").unwrap();
        let re = Regex::edge(dt).then(Regex::edge(cr).star());
        let nfa = Nfa::from_regex(&re);
        let idx = IndexedGraph::build(&g);
        let mut rel = Relation::build(&idx, &nfa);

        // Cut the chain at a2 -cr-> a3 and recompute the one affected row.
        g.remove_edge(NodeId(2), cr, NodeId(3));
        let idx2 = IndexedGraph::build(&g);
        let fresh = Relation::build(&idx2, &nfa);
        let diffs = rel.patch_rows(g.num_nodes(), vec![(0, fresh.targets_of(0).to_vec())]);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].source, 0);
        assert_eq!(diffs[0].removed, vec![3]);
        assert!(diffs[0].added.is_empty());
        assert_same_relation(&rel, &fresh, g.num_nodes(), "medical cut");

        // Random row replacements against `from_sorted_pairs` of the
        // patched pair set. A wide id range keeps the supports sparse, a
        // narrow one dense, and the middle one starts sparse and turns
        // dense as rows fill; row counts grow past the base on the way.
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let (mut saw_sparse, mut saw_dense) = (false, false);
        for (seed, n) in [(1u64, 64usize), (2, 5000), (3, 300)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let base = n - 8;
            let mut pairs: BTreeSet<(u32, u32)> = (0..5)
                .map(|_| (rng.gen_range(0..base as u32), rng.gen_range(0..base as u32)))
                .collect();
            let mut rel = Relation::from_sorted_pairs(base, pairs.iter().copied().collect());
            for step in 0..60 {
                let rows = if step < 30 { base } else { n };
                let mut sources: Vec<u32> =
                    (0..rng.gen_range(1..6)).map(|_| rng.gen_range(0..rows as u32)).collect();
                sources.sort_unstable();
                sources.dedup();
                let mut changes = Vec::new();
                let mut want_diffs = Vec::new();
                for u in sources {
                    let row: BTreeSet<u32> =
                        (0..rng.gen_range(0..4)).map(|_| rng.gen_range(0..rows as u32)).collect();
                    let old: BTreeSet<u32> = rel.targets_of(u).iter().copied().collect();
                    if old != row {
                        let removed: Vec<u32> = old.difference(&row).copied().collect();
                        let added: Vec<u32> = row.difference(&old).copied().collect();
                        want_diffs.push((u, removed, added));
                    }
                    pairs.retain(|&(a, _)| a != u);
                    pairs.extend(row.iter().map(|&v| (u, v)));
                    changes.push((u, row.into_iter().collect()));
                }
                let diffs = rel.patch_rows(rows, changes);
                let got: Vec<_> =
                    diffs.into_iter().map(|d| (d.source, d.removed, d.added)).collect();
                assert_eq!(got, want_diffs, "seed {seed} step {step}");
                let fresh = Relation::from_sorted_pairs(rows, pairs.iter().copied().collect());
                assert_same_relation(&rel, &fresh, rows, &format!("seed {seed} step {step}"));
                for col in [rel.src_support(), rel.tgt_support()] {
                    saw_sparse |= matches!(col, NodeCol::Sparse(ids) if !ids.is_empty());
                    saw_dense |= matches!(col, NodeCol::Dense(_));
                }
            }
        }
        assert!(saw_sparse && saw_dense, "sparse {saw_sparse}, dense {saw_dense}");
    }
}
