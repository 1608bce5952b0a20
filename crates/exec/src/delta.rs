//! Incremental delta execution: patch a transformation's output instead
//! of re-running it.
//!
//! [`Incremental`] holds a base instance, its index, the per-atom
//! [`Relation`]s of every rule body, and a reference-counted *fact view*
//! of the output. Applying a [`GraphDelta`] then costs work proportional
//! to what the delta can actually influence:
//!
//! 1. the index is patched in place — only the edge labels the delta
//!    touches rebuild their CSR pair ([`IndexedGraph`]'s `patch_label`),
//!    node-label bitsets flip individual bits;
//! 2. for each relation, the **affected sources** are computed by a
//!    *backward* product-BFS seeded at every (node, NFA-state) pair that
//!    can take a changed transition — removed edges and labels are
//!    consulted as virtual adjacency so the traversal covers the union of
//!    the old and new graphs. A source outside this set provably keeps its
//!    row: any accepting path it gains or loses must cross a changed
//!    transition, which would put it in the backward-reachable set;
//! 3. only affected rows re-run the forward product-BFS; the relation is
//!    patched and reports per-source row diffs ([`RowDiff`]);
//! 4. row diffs become output diffs: rules whose body is a single-atom
//!    fast-path shape (the copy/rewire rules that dominate real
//!    transformations) map pair diffs straight to fact refcount updates;
//!    general multi-atom rules re-join over the patched relations and
//!    merge-diff against their stored tuples.
//!
//! When the delta's frontier is too large for this to win — the touched
//! fraction exceeds `1/`[`FALLBACK_TOUCH_DIVISOR`] of the instance, or the
//! backward frontier exceeds `1/`[`FALLBACK_FRONTIER_DIVISOR`] of the
//! nodes — the engine falls back to a full rebuild and says so in the
//! returned [`DeltaOutcome`] (the crossover the `delta` benchmark section
//! measures).

use crate::exec::{assemble, eval_c2rpq_with, phase_metrics, EdgeFact, ExecOptions, NodeFact};
use crate::index::IndexedGraph;
use crate::rpq::{ProductBfs, Relation, RowDiff, Visited};
use gts_core::{Rule, Transformation};
use gts_graph::{DeltaEffects, EdgeLabel, FxHashMap, FxHashSet, Graph, GraphDelta, NodeId};
use gts_query::{AtomSym, C2rpq, Nfa, Regex};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Full-rebuild crossover on delta size: a delta whose effective changes
/// exceed `elements / FALLBACK_TOUCH_DIVISOR` skips the incremental path
/// outright (measured in `BENCH_exec.json::delta`; patching cost grows
/// with the frontier and overtakes a rebuild around this fraction).
pub const FALLBACK_TOUCH_DIVISOR: usize = 20;

/// Deltas touching at most this many atoms never fall back on the touch
/// ratio (tiny deltas on tiny graphs are cheap either way; the frontier
/// cap still guards the incremental path).
pub const MIN_FALLBACK_TOUCHED: usize = 8;

/// Full-rebuild crossover on frontier size: once the backward-reachable
/// affected-source set passes `num_nodes / FALLBACK_FRONTIER_DIVISOR`,
/// re-running that many forward searches approaches full-build cost.
pub const FALLBACK_FRONTIER_DIVISOR: usize = 8;

/// How an [`Incremental::apply_delta`] call was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeltaStrategy {
    /// Patched: index, affected relation rows, and fact diffs only.
    #[default]
    Incremental,
    /// The delta crossed a fallback threshold; everything was rebuilt.
    FullRebuild,
}

/// What applying one delta did — the measurement surface of the `delta`
/// benchmark section and the `gts run --delta` trailers.
#[derive(Clone, Debug, Default)]
pub struct DeltaOutcome {
    /// Which path satisfied the delta.
    pub strategy: DeltaStrategy,
    /// Effective atomic changes after no-op filtering
    /// ([`DeltaEffects::touched`]).
    pub touched: usize,
    /// Relation rows recomputed across all relations (the frontier).
    pub affected_sources: usize,
    /// Multi-atom rules that re-ran their join.
    pub rules_reevaluated: usize,
    /// Output facts that became live.
    pub facts_added: usize,
    /// Output facts that died.
    pub facts_removed: usize,
}

/// One distinct rule-body atom: its compiled automaton and current
/// relation. Shared between every atom with the same regex, so a patched
/// relation is recomputed once no matter how many rules use it.
struct RelEntry {
    nfa: Arc<Nfa>,
    useful: Vec<bool>,
    rel: Relation,
}

/// The single-atom fast-path shapes of [`eval_c2rpq_with`], used to turn
/// relation row diffs directly into output-tuple diffs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// `free == [x, y]` (or swapped): tuples *are* the relation pairs.
    Pairs { swap: bool },
    /// `free == []` over `φ(x, y)`: one empty tuple iff the relation is
    /// non-empty.
    Bool,
    /// `free == [x]` over `φ(x, x)`: the relation's diagonal.
    Diag,
    /// `free == []` over `φ(x, x)`: one empty tuple iff the diagonal is.
    BoolDiag,
    /// Anything else: stored tuples, re-joined when affected.
    General,
}

fn shape_of(q: &C2rpq) -> Shape {
    if let [a] = q.atoms.as_slice() {
        if a.x != a.y && q.num_vars == 2 {
            if q.free == [a.x, a.y] {
                return Shape::Pairs { swap: false };
            }
            if q.free == [a.y, a.x] {
                return Shape::Pairs { swap: true };
            }
            if q.free.is_empty() {
                return Shape::Bool;
            }
        }
        if a.x == a.y && q.num_vars == 1 {
            if q.free == [a.x] {
                return Shape::Diag;
            }
            if q.free.is_empty() {
                return Shape::BoolDiag;
            }
        }
    }
    Shape::General
}

/// Per-rule incremental state.
struct RuleState {
    /// Index into [`Incremental::rels`] per body atom.
    rel_ids: Vec<usize>,
    shape: Shape,
    /// Current sorted tuple list — stored only for [`Shape::General`];
    /// the fast-path shapes derive tuples from their relation on demand.
    tuples: Option<Vec<Vec<NodeId>>>,
    /// Some body variable appears in no atom, so its domain is
    /// `all_nodes` and growing the graph can change the answer even with
    /// no relation diff.
    floating_var: bool,
    /// Number of diagonal pairs `(u, u)`, for the `Diag`/`BoolDiag`
    /// shapes.
    diag_count: usize,
}

fn rule_body(rule: &Rule) -> &C2rpq {
    match rule {
        Rule::Node(r) => &r.body,
        Rule::Edge(r) => &r.body,
    }
}

/// A transformation pinned to an evolving instance: holds the graph, its
/// index, every body atom's relation, and the reference-counted output
/// fact view, all patched in place by [`Incremental::apply_delta`].
pub struct Incremental {
    t: Transformation,
    graph: Graph,
    idx: IndexedGraph,
    /// Current forward edge pairs per edge label — the input
    /// `IndexedGraph::patch_label` rebuilds a touched label from.
    label_edges: Vec<Vec<(u32, u32)>>,
    rels: Vec<RelEntry>,
    rules: Vec<RuleState>,
    /// Fact multiplicity across rules; a fact is live while its count is
    /// positive.
    node_counts: FxHashMap<NodeFact, u32>,
    edge_counts: FxHashMap<EdgeFact, u32>,
    node_facts: BTreeSet<NodeFact>,
    edge_facts: BTreeSet<EdgeFact>,
}

impl Incremental {
    /// Builds the initial state: one full execution's worth of work.
    pub fn new(t: &Transformation, g: &Graph) -> Incremental {
        let mut inc = Incremental {
            t: t.clone(),
            graph: g.clone(),
            idx: IndexedGraph::build(g),
            label_edges: Vec::new(),
            rels: Vec::new(),
            rules: Vec::new(),
            node_counts: FxHashMap::default(),
            edge_counts: FxHashMap::default(),
            node_facts: BTreeSet::new(),
            edge_facts: BTreeSet::new(),
        };
        inc.rebuild_derived();
        inc
    }

    /// The current (patched) instance.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current (patched) index.
    pub fn index(&self) -> &IndexedGraph {
        &self.idx
    }

    /// Live output node facts, canonically ordered.
    pub fn node_facts(&self) -> &BTreeSet<NodeFact> {
        &self.node_facts
    }

    /// Live output edge facts, canonically ordered.
    pub fn edge_facts(&self) -> &BTreeSet<EdgeFact> {
        &self.edge_facts
    }

    /// The fact view as an owned pair — directly comparable with
    /// [`crate::output_facts`] on the patched instance.
    pub fn output_facts(&self) -> (BTreeSet<NodeFact>, BTreeSet<EdgeFact>) {
        (self.node_facts.clone(), self.edge_facts.clone())
    }

    /// Assembles the output graph from the current per-rule tuples —
    /// identical to [`crate::execute`] on the patched instance (same
    /// tuples, same deterministic assembly).
    pub fn output_graph(&self) -> Graph {
        let per_rule: Vec<Vec<Vec<NodeId>>> =
            (0..self.rules.len()).map(|i| self.current_tuples(i)).collect();
        assemble(&self.t, &per_rule)
    }

    /// Approximate heap footprint of the incremental state (index plus
    /// relations; the fact view is output-sized).
    pub fn approx_bytes(&self) -> usize {
        self.idx.approx_bytes()
            + self.rels.iter().map(|e| e.rel.approx_bytes()).sum::<usize>()
            + self.label_edges.iter().map(|v| v.capacity() * 8).sum::<usize>()
    }

    /// Applies `delta` to the instance and patches the output state,
    /// falling back to a full rebuild past the crossover thresholds.
    /// On an `Err` (a delta referencing out-of-range node ids) the state
    /// is unchanged.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaOutcome, String> {
        let _span = gts_obs::span("delta_apply");
        let start = gts_obs::enabled().then(std::time::Instant::now);
        let out = self.apply_delta_inner(delta);
        if let Some(t0) = start {
            phase_metrics().delta_apply.record(t0.elapsed().as_micros() as u64);
        }
        out
    }

    fn apply_delta_inner(&mut self, delta: &GraphDelta) -> Result<DeltaOutcome, String> {
        let elements = (self.idx.num_nodes() + self.idx.num_edges()).max(1);
        let fx = delta.apply_in_place(&mut self.graph)?;
        let touched = fx.touched();
        if touched == 0 {
            return Ok(DeltaOutcome { touched, ..DeltaOutcome::default() });
        }
        if touched > MIN_FALLBACK_TOUCHED
            && touched.saturating_mul(FALLBACK_TOUCH_DIVISOR) > elements
        {
            return Ok(self.rebuild_full(touched));
        }

        self.patch_index(&fx)?;

        // Affected sources per distinct relation.
        let n = self.idx.num_nodes();
        let frontier_cap = (n / FALLBACK_FRONTIER_DIVISOR).max(1024);
        let maps = ChangeMaps::new(&fx);
        let mut affected_per_rel: Vec<Vec<u32>> = Vec::with_capacity(self.rels.len());
        let mut affected_total = 0usize;
        for entry in &self.rels {
            match affected_sources(&self.idx, entry, &maps, &fx, frontier_cap) {
                Some(affected) => {
                    affected_total += affected.len();
                    affected_per_rel.push(affected);
                }
                None => return Ok(self.rebuild_full(touched)),
            }
        }
        if affected_total > frontier_cap {
            return Ok(self.rebuild_full(touched));
        }

        // Re-run the forward search only for affected rows; patch each
        // relation and keep its row diffs.
        let mut diffs_per_rel: Vec<Vec<RowDiff>> = Vec::with_capacity(self.rels.len());
        for (entry, affected) in self.rels.iter_mut().zip(&affected_per_rel) {
            if affected.is_empty() {
                // No seeds and no fresh nodes: the relation is untouched.
                diffs_per_rel.push(Vec::new());
                continue;
            }
            let mut bfs = ProductBfs::new(n, entry.nfa.num_states());
            let mut changes: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
            let mut row: Vec<u32> = Vec::new();
            for &u in affected {
                row.clear();
                bfs.run(&self.idx, &entry.nfa, &entry.useful, u, &mut row);
                row.sort_unstable();
                row.dedup();
                changes.insert(u, row.clone());
            }
            diffs_per_rel.push(entry.rel.patch_rows(n, &changes));
        }

        // Turn row diffs into output-fact diffs per rule.
        let mut facts_added = 0usize;
        let mut facts_removed = 0usize;
        let mut rules_reevaluated = 0usize;
        for i in 0..self.rules.len() {
            let shape = self.rules[i].shape;
            let rel0 = self.rules[i].rel_ids.first().copied();
            match shape {
                Shape::Pairs { swap } => {
                    let diffs = &diffs_per_rel[rel0.expect("single atom")];
                    let tuple = |u: u32, v: u32| {
                        if swap {
                            vec![NodeId(v), NodeId(u)]
                        } else {
                            vec![NodeId(u), NodeId(v)]
                        }
                    };
                    let mut removed: Vec<Vec<NodeId>> = Vec::new();
                    let mut added: Vec<Vec<NodeId>> = Vec::new();
                    for d in diffs {
                        removed.extend(d.removed.iter().map(|&v| tuple(d.source, v)));
                        added.extend(d.added.iter().map(|&v| tuple(d.source, v)));
                    }
                    for t in &removed {
                        facts_removed += usize::from(self.apply_tuple(i, t, false) < 0);
                    }
                    for t in &added {
                        facts_added += usize::from(self.apply_tuple(i, t, true) > 0);
                    }
                }
                Shape::Diag | Shape::BoolDiag => {
                    let diffs = &diffs_per_rel[rel0.expect("single atom")];
                    let mut removed: Vec<u32> = Vec::new();
                    let mut added: Vec<u32> = Vec::new();
                    for d in diffs {
                        if d.removed.binary_search(&d.source).is_ok() {
                            removed.push(d.source);
                        }
                        if d.added.binary_search(&d.source).is_ok() {
                            added.push(d.source);
                        }
                    }
                    let st = &mut self.rules[i];
                    let was_live = st.diag_count > 0;
                    st.diag_count = st.diag_count + added.len() - removed.len();
                    let is_live = st.diag_count > 0;
                    if shape == Shape::Diag {
                        for &u in &removed {
                            facts_removed +=
                                usize::from(self.apply_tuple(i, &[NodeId(u)], false) < 0);
                        }
                        for &u in &added {
                            facts_added += usize::from(self.apply_tuple(i, &[NodeId(u)], true) > 0);
                        }
                    } else {
                        if was_live && !is_live {
                            facts_removed += usize::from(self.apply_tuple(i, &[], false) < 0);
                        }
                        if !was_live && is_live {
                            facts_added += usize::from(self.apply_tuple(i, &[], true) > 0);
                        }
                    }
                }
                Shape::Bool => {
                    let r = rel0.expect("single atom");
                    let diffs = &diffs_per_rel[r];
                    let gained: usize = diffs.iter().map(|d| d.added.len()).sum();
                    let lost: usize = diffs.iter().map(|d| d.removed.len()).sum();
                    let now = self.rels[r].rel.len();
                    let before = now + lost - gained;
                    if before > 0 && now == 0 {
                        facts_removed += usize::from(self.apply_tuple(i, &[], false) < 0);
                    }
                    if before == 0 && now > 0 {
                        facts_added += usize::from(self.apply_tuple(i, &[], true) > 0);
                    }
                }
                Shape::General => {
                    let st = &self.rules[i];
                    let affected = st.rel_ids.iter().any(|&r| !diffs_per_rel[r].is_empty())
                        || (fx.added_nodes > 0 && st.floating_var);
                    if !affected {
                        continue;
                    }
                    rules_reevaluated += 1;
                    let refs: Vec<&Relation> =
                        st.rel_ids.iter().map(|&r| &self.rels[r].rel).collect();
                    let new_tuples = eval_c2rpq_with(&self.idx, rule_body(&self.t.rules[i]), &refs);
                    let old_tuples = self.rules[i].tuples.take().expect("stored for General");
                    // Merge-diff the sorted tuple lists.
                    let (mut a, mut b) = (0usize, 0usize);
                    while a < old_tuples.len() || b < new_tuples.len() {
                        match (old_tuples.get(a), new_tuples.get(b)) {
                            (Some(x), Some(y)) if x == y => {
                                a += 1;
                                b += 1;
                            }
                            (Some(x), Some(y)) if x < y => {
                                let x = x.clone();
                                facts_removed += usize::from(self.apply_tuple(i, &x, false) < 0);
                                a += 1;
                            }
                            (Some(_), Some(y)) | (None, Some(y)) => {
                                let y = y.clone();
                                facts_added += usize::from(self.apply_tuple(i, &y, true) > 0);
                                b += 1;
                            }
                            (Some(x), None) => {
                                let x = x.clone();
                                facts_removed += usize::from(self.apply_tuple(i, &x, false) < 0);
                                a += 1;
                            }
                            (None, None) => unreachable!(),
                        }
                    }
                    self.rules[i].tuples = Some(new_tuples);
                }
            }
        }

        Ok(DeltaOutcome {
            strategy: DeltaStrategy::Incremental,
            touched,
            affected_sources: affected_total,
            rules_reevaluated,
            facts_added,
            facts_removed,
        })
    }

    /// Patches the index and the per-label edge lists from the effective
    /// changes (removals first, so a label or edge removed and re-added
    /// ends present).
    fn patch_index(&mut self, fx: &DeltaEffects) -> Result<(), String> {
        let _span = gts_obs::span("index_patch");
        let start = gts_obs::enabled().then(std::time::Instant::now);
        if fx.added_nodes > 0 {
            self.idx.grow_nodes(self.graph.num_nodes());
        }
        let mut touched_labels: BTreeSet<u32> = BTreeSet::new();
        let mut removed_per_label: FxHashMap<u32, FxHashSet<(u32, u32)>> = FxHashMap::default();
        for &(s, l, t) in &fx.removed_edges {
            removed_per_label.entry(l.0).or_default().insert((s.0, t.0));
            touched_labels.insert(l.0);
        }
        for &(_, l, _) in &fx.added_edges {
            touched_labels.insert(l.0);
        }
        if let Some(&max) = touched_labels.iter().max() {
            if self.label_edges.len() <= max as usize {
                self.label_edges.resize_with(max as usize + 1, Vec::new);
            }
        }
        for (&l, removed) in &removed_per_label {
            self.label_edges[l as usize].retain(|p| !removed.contains(p));
        }
        for &(s, l, t) in &fx.added_edges {
            self.label_edges[l.0 as usize].push((s.0, t.0));
        }
        for &l in &touched_labels {
            let edges = &self.label_edges[l as usize];
            self.idx.patch_label(EdgeLabel(l), edges).map_err(|e| e.to_string())?;
        }
        for &(u, l) in &fx.removed_labels {
            self.idx.set_node_label(u.0, l, false);
        }
        for &(u, l) in &fx.added_labels {
            self.idx.set_node_label(u.0, l, true);
        }
        self.idx.set_num_edges(self.graph.num_edges());
        if let Some(t0) = start {
            phase_metrics().index_patch.record(t0.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// The crossover fallback: rebuild index, relations, tuples, and fact
    /// view from the already-patched graph.
    fn rebuild_full(&mut self, touched: usize) -> DeltaOutcome {
        let old_nodes = std::mem::take(&mut self.node_facts);
        let old_edges = std::mem::take(&mut self.edge_facts);
        self.idx = IndexedGraph::build(&self.graph);
        self.rebuild_derived();
        DeltaOutcome {
            strategy: DeltaStrategy::FullRebuild,
            touched,
            affected_sources: 0,
            rules_reevaluated: self.rules.len(),
            facts_added: self.node_facts.difference(&old_nodes).count()
                + self.edge_facts.difference(&old_edges).count(),
            facts_removed: old_nodes.difference(&self.node_facts).count()
                + old_edges.difference(&self.edge_facts).count(),
        }
    }

    /// (Re)builds everything derived from `graph` + `idx`: per-label edge
    /// lists, deduplicated relations, rule states, and the fact view.
    fn rebuild_derived(&mut self) {
        self.label_edges.clear();
        for (s, l, t) in self.graph.edges() {
            let li = l.0 as usize;
            if self.label_edges.len() <= li {
                self.label_edges.resize_with(li + 1, Vec::new);
            }
            self.label_edges[li].push((s.0, t.0));
        }

        let mut by_regex: FxHashMap<Regex, usize> = FxHashMap::default();
        let mut rels: Vec<RelEntry> = Vec::new();
        let mut rules: Vec<RuleState> = Vec::new();
        for rule in &self.t.rules {
            let body = rule_body(rule);
            let mut rel_ids = Vec::with_capacity(body.atoms.len());
            for a in &body.atoms {
                let id = *by_regex.entry(a.regex.clone()).or_insert_with(|| {
                    let nfa = Nfa::compiled(&a.regex);
                    let useful = nfa.useful_states();
                    let rel = Relation::build(&self.idx, &nfa);
                    rels.push(RelEntry { nfa, useful, rel });
                    rels.len() - 1
                });
                rel_ids.push(id);
            }
            let shape = shape_of(body);
            let floating_var =
                (0..body.num_vars).any(|v| !body.atoms.iter().any(|a| a.x.0 == v || a.y.0 == v));
            let diag_count = match shape {
                Shape::Diag | Shape::BoolDiag => {
                    let rel = &rels[rel_ids[0]].rel;
                    rel.src_support().iter().filter(|&u| rel.contains(u, u)).count()
                }
                _ => 0,
            };
            let tuples = (shape == Shape::General).then(|| {
                let refs: Vec<&Relation> = rel_ids.iter().map(|&r| &rels[r].rel).collect();
                eval_c2rpq_with(&self.idx, body, &refs)
            });
            rules.push(RuleState { rel_ids, shape, tuples, floating_var, diag_count });
        }
        self.rels = rels;
        self.rules = rules;

        self.node_counts.clear();
        self.edge_counts.clear();
        self.node_facts.clear();
        self.edge_facts.clear();
        for i in 0..self.rules.len() {
            for tuple in self.current_tuples(i) {
                self.apply_tuple(i, &tuple, true);
            }
        }
    }

    /// The rule's current sorted tuple list (what [`eval_c2rpq_with`]
    /// would return), derived from its shape.
    fn current_tuples(&self, i: usize) -> Vec<Vec<NodeId>> {
        let st = &self.rules[i];
        let rel = st.rel_ids.first().map(|&r| &self.rels[r].rel);
        match st.shape {
            Shape::Pairs { swap: false } => {
                rel.expect("single atom").iter_pairs().map(|(u, v)| vec![u, v]).collect()
            }
            Shape::Pairs { swap: true } => {
                let mut out: Vec<Vec<NodeId>> =
                    rel.expect("single atom").iter_pairs().map(|(u, v)| vec![v, u]).collect();
                out.sort();
                out
            }
            Shape::Bool => {
                let rel = rel.expect("single atom");
                if rel.is_empty() {
                    Vec::new()
                } else {
                    vec![Vec::new()]
                }
            }
            Shape::Diag => {
                let rel = rel.expect("single atom");
                rel.src_support()
                    .iter()
                    .filter(|&u| rel.contains(u, u))
                    .map(|u| vec![NodeId(u)])
                    .collect()
            }
            Shape::BoolDiag => {
                if st.diag_count > 0 {
                    vec![Vec::new()]
                } else {
                    Vec::new()
                }
            }
            Shape::General => st.tuples.clone().expect("stored for General"),
        }
    }

    /// Bumps the refcount of the fact `rule_i` derives from `tuple`.
    /// Returns `+1` when a fact became live, `-1` when one died, `0`
    /// otherwise.
    fn apply_tuple(&mut self, rule_i: usize, tuple: &[NodeId], add: bool) -> i32 {
        match &self.t.rules[rule_i] {
            Rule::Node(r) => {
                bump(&mut self.node_counts, &mut self.node_facts, (r.label, tuple.to_vec()), add)
            }
            Rule::Edge(r) => {
                let (x, y) = tuple.split_at(r.src_arity);
                let fact = ((r.src_label, x.to_vec()), r.edge, (r.tgt_label, y.to_vec()));
                bump(&mut self.edge_counts, &mut self.edge_facts, fact, add)
            }
        }
    }
}

fn bump<F: Ord + Clone + std::hash::Hash>(
    counts: &mut FxHashMap<F, u32>,
    live: &mut BTreeSet<F>,
    fact: F,
    add: bool,
) -> i32 {
    if add {
        let c = counts.entry(fact.clone()).or_insert(0);
        *c += 1;
        if *c == 1 {
            live.insert(fact);
            return 1;
        }
        0
    } else {
        match counts.get_mut(&fact) {
            Some(c) if *c > 1 => {
                *c -= 1;
                0
            }
            Some(_) => {
                counts.remove(&fact);
                live.remove(&fact);
                -1
            }
            None => {
                debug_assert!(false, "removed a fact that was never derived");
                0
            }
        }
    }
}

/// Delta-derived lookup structures for the backward product-BFS: changed
/// transitions seed it, removed edges/labels extend the traversed
/// adjacency to the old graph.
struct ChangeMaps {
    /// `(node, label)` pairs whose node label was removed.
    removed_labels: FxHashSet<(u32, u32)>,
    /// All `(node, label)` node-label changes, added and removed.
    changed_labels: Vec<(u32, u32)>,
    /// All `(src, label, tgt)` edge changes, added and removed.
    changed_edges: Vec<(u32, u32, u32)>,
    /// Removed edges by `(label, tgt) → srcs` (backward step along `r`).
    removed_by_tgt: FxHashMap<(u32, u32), Vec<u32>>,
    /// Removed edges by `(label, src) → tgts` (backward step along `r⁻`).
    removed_by_src: FxHashMap<(u32, u32), Vec<u32>>,
}

impl ChangeMaps {
    fn new(fx: &DeltaEffects) -> ChangeMaps {
        let mut maps = ChangeMaps {
            removed_labels: fx.removed_labels.iter().map(|&(n, l)| (n.0, l.0)).collect(),
            changed_labels: fx
                .added_labels
                .iter()
                .chain(&fx.removed_labels)
                .map(|&(n, l)| (n.0, l.0))
                .collect(),
            changed_edges: fx
                .added_edges
                .iter()
                .chain(&fx.removed_edges)
                .map(|&(s, l, t)| (s.0, l.0, t.0))
                .collect(),
            removed_by_tgt: FxHashMap::default(),
            removed_by_src: FxHashMap::default(),
        };
        for &(s, l, t) in &fx.removed_edges {
            maps.removed_by_tgt.entry((l.0, t.0)).or_default().push(s.0);
            maps.removed_by_src.entry((l.0, s.0)).or_default().push(t.0);
        }
        maps
    }
}

/// The sources whose relation rows may have changed: nodes `u` such that
/// `(u, initial)` forward-reaches some changed product transition over the
/// union of the old and new graphs — computed as a backward BFS from the
/// changed-transition seeds, with removed edges and labels consulted as
/// virtual adjacency. Fresh nodes are always included (their rows start
/// from nothing). Returns `None` when the frontier or the visited-mark
/// budget exceeds `cap` (the caller falls back to a full rebuild).
fn affected_sources(
    idx: &IndexedGraph,
    entry: &RelEntry,
    maps: &ChangeMaps,
    fx: &DeltaEffects,
    cap: usize,
) -> Option<Vec<u32>> {
    let nfa = &entry.nfa;
    let useful = &entry.useful;
    let states = nfa.num_states().max(1);
    // Forward search visits exactly {initial} ∪ useful states.
    let ok = |p: usize| p == 0 || useful[p];
    let mark_cap = cap.saturating_mul(4).max(1 << 16);

    // Reverse NFA transitions among visitable states: into[q] = (sym, p).
    let mut into: Vec<Vec<(AtomSym, usize)>> = vec![Vec::new(); states];
    for p in 0..nfa.num_states() {
        if !ok(p) {
            continue;
        }
        for &(sym, q) in nfa.transitions(p) {
            if useful[q] {
                into[q].push((sym, p));
            }
        }
    }

    let mut visited = Visited::new(idx.num_nodes(), states);
    visited.next_round();
    let mut work: Vec<(u32, u32)> = Vec::new();
    let mut affected: Vec<u32> = Vec::new();
    let mut marks = 0usize;
    macro_rules! mark {
        ($u:expr, $p:expr) => {{
            let (u, p) = ($u, $p);
            if visited.mark(states, u, p) {
                marks += 1;
                if p == 0 {
                    affected.push(u);
                }
                work.push((u, p));
            }
        }};
    }

    // Seeds: (node-before-step, state-before-step) of every changed
    // transition instance.
    for p in 0..nfa.num_states() {
        if !ok(p) {
            continue;
        }
        for &(sym, q) in nfa.transitions(p) {
            if !useful[q] {
                continue;
            }
            match sym {
                AtomSym::Node(a) => {
                    for &(nd, l) in &maps.changed_labels {
                        if l == a.0 {
                            mark!(nd, p as u32);
                        }
                    }
                }
                AtomSym::Edge(es) => {
                    for &(s, l, t) in &maps.changed_edges {
                        if l == es.label.0 {
                            mark!(if es.inverse { t } else { s }, p as u32);
                        }
                    }
                }
            }
        }
    }

    while let Some((v, q)) = work.pop() {
        if affected.len() > cap || marks > mark_cap {
            return None;
        }
        for &(sym, p) in &into[q as usize] {
            let p = p as u32;
            match sym {
                // A Node(a) step stays in place: (v, p) precedes (v, q)
                // iff v carried `a` in the old or new labeling.
                AtomSym::Node(a) => {
                    if idx.has_label(v, a) || maps.removed_labels.contains(&(v, a.0)) {
                        mark!(v, p);
                    }
                }
                // An Edge step u →_es v: predecessors are v's successors
                // along the inverse symbol, plus removed-edge endpoints.
                AtomSym::Edge(es) => {
                    for &u in idx.successors(v, es.inv()) {
                        mark!(u, p);
                    }
                    let key = (es.label.0, v);
                    let extra = if es.inverse {
                        maps.removed_by_src.get(&key)
                    } else {
                        maps.removed_by_tgt.get(&key)
                    };
                    if let Some(us) = extra {
                        for &u in us {
                            mark!(u, p);
                        }
                    }
                }
            }
        }
    }

    // Fresh nodes always recompute (from-nothing rows are cheap).
    for u in fx.first_new_node..fx.first_new_node + fx.added_nodes as u32 {
        if visited.mark(states, u, 0) {
            affected.push(u);
        }
    }
    if affected.len() > cap {
        return None;
    }
    affected.sort_unstable();
    Some(affected)
}

/// Applies `delta` through `inc` — the free-function spelling of
/// [`Incremental::apply_delta`] used by the engine and benches.
pub fn execute_delta(inc: &mut Incremental, delta: &GraphDelta) -> Result<DeltaOutcome, String> {
    inc.apply_delta(delta)
}

/// Convenience: builds the incremental state for `t` over `g` with
/// default options (one full execution's worth of work).
pub fn incremental(t: &Transformation, g: &Graph, _opts: &ExecOptions) -> Incremental {
    Incremental::new(t, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{output_facts, ExecOptions};
    use gts_core::medical_transformation;
    use gts_graph::{LabelSet, Vocab};

    fn medical_graph(v: &mut Vocab) -> Graph {
        let vaccine = v.node_label("Vaccine");
        let antigen = v.node_label("Antigen");
        let pathogen = v.node_label("Pathogen");
        let dt = v.edge_label("designTarget");
        let cr = v.edge_label("crossReacting");
        let ex = v.edge_label("exhibits");
        let mut g = Graph::new();
        let vac = g.add_labeled_node([vaccine]);
        let a1 = g.add_labeled_node([antigen]);
        let a2 = g.add_labeled_node([antigen]);
        let a3 = g.add_labeled_node([antigen]);
        let p = g.add_labeled_node([pathogen]);
        g.add_edge(vac, dt, a1);
        g.add_edge(a1, cr, a2);
        g.add_edge(a2, cr, a3);
        g.add_edge(p, ex, a1);
        g.add_edge(p, ex, a2);
        g.add_edge(p, ex, a3);
        g
    }

    /// Incremental facts must equal a from-scratch execution on the
    /// patched graph, and the assembled output graphs must be identical.
    fn assert_agrees_with_full(inc: &Incremental, t: &Transformation) {
        let idx = IndexedGraph::build(inc.graph());
        let want = output_facts(&idx, t, &ExecOptions::default());
        assert_eq!(inc.output_facts(), want);
        let full = crate::exec::execute(t, inc.graph());
        let out = inc.output_graph();
        assert_eq!(out.num_nodes(), full.num_nodes());
        assert_eq!(out.edges().collect::<Vec<_>>(), full.edges().collect::<Vec<_>>());
    }

    #[test]
    fn single_edge_deltas_agree_with_full_execution() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let g = medical_graph(&mut v);
        let cr = v.find_edge_label("crossReacting").unwrap();
        let mut inc = Incremental::new(&t, &g);
        assert_agrees_with_full(&inc, &t);

        // Cut the chain: a2 -cr-> a3 disappears from the closure.
        let cut =
            GraphDelta { removed_edges: vec![(NodeId(2), cr, NodeId(3))], ..GraphDelta::default() };
        let out = inc.apply_delta(&cut).unwrap();
        assert_eq!(out.strategy, DeltaStrategy::Incremental);
        assert!(out.facts_removed > 0);
        assert_agrees_with_full(&inc, &t);

        // Re-link it; the closure comes back.
        let relink =
            GraphDelta { added_edges: vec![(NodeId(2), cr, NodeId(3))], ..GraphDelta::default() };
        let out = inc.apply_delta(&relink).unwrap();
        assert_eq!(out.strategy, DeltaStrategy::Incremental);
        assert!(out.facts_added > 0);
        assert_agrees_with_full(&inc, &t);
    }

    #[test]
    fn node_label_and_fresh_node_deltas_agree() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let g = medical_graph(&mut v);
        let antigen = v.find_node_label("Antigen").unwrap();
        let cr = v.find_edge_label("crossReacting").unwrap();
        let mut inc = Incremental::new(&t, &g);

        // A fresh antigen spliced into the chain.
        let splice = GraphDelta {
            added_nodes: vec![LabelSet::from_iter([antigen.0])],
            added_edges: vec![(NodeId(3), cr, NodeId(5))],
            ..GraphDelta::default()
        };
        inc.apply_delta(&splice).unwrap();
        assert_agrees_with_full(&inc, &t);

        // Remove a label mid-chain (a2 stops being an Antigen).
        let unlabel =
            GraphDelta { removed_labels: vec![(NodeId(2), antigen)], ..GraphDelta::default() };
        inc.apply_delta(&unlabel).unwrap();
        assert_agrees_with_full(&inc, &t);
    }

    #[test]
    fn tombstone_delta_agrees() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let g = medical_graph(&mut v);
        let mut inc = Incremental::new(&t, &g);
        let tomb = GraphDelta { removed_nodes: vec![NodeId(1)], ..GraphDelta::default() };
        inc.apply_delta(&tomb).unwrap();
        assert_agrees_with_full(&inc, &t);
    }

    #[test]
    fn oversized_delta_falls_back_to_full_rebuild() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let g = medical_graph(&mut v);
        let mut inc = Incremental::new(&t, &g);
        // Tombstone most of the graph: way past the touch crossover.
        let wipe = GraphDelta {
            removed_nodes: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            ..GraphDelta::default()
        };
        let out = inc.apply_delta(&wipe).unwrap();
        assert_eq!(out.strategy, DeltaStrategy::FullRebuild);
        assert_agrees_with_full(&inc, &t);
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let g = medical_graph(&mut v);
        let mut inc = Incremental::new(&t, &g);
        let before = inc.output_facts();
        let out = inc.apply_delta(&GraphDelta::default()).unwrap();
        assert_eq!(out.touched, 0);
        assert_eq!(out.facts_added + out.facts_removed, 0);
        assert_eq!(inc.output_facts(), before);
    }

    #[test]
    fn bad_delta_leaves_state_consistent() {
        let mut v = Vocab::new();
        let t = medical_transformation(&mut v);
        let g = medical_graph(&mut v);
        let mut inc = Incremental::new(&t, &g);
        let bad = GraphDelta { removed_nodes: vec![NodeId(99)], ..GraphDelta::default() };
        assert!(inc.apply_delta(&bad).is_err());
        assert_agrees_with_full(&inc, &t);
    }
}
