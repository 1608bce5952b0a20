//! The decision procedure for unrestricted satisfiability of a Boolean
//! C2RPQ modulo a Horn-ALCIF TBox (Theorem 6.1, engineered per DESIGN.md
//! §3.2).
//!
//! Per connected component of the query the engine enumerates witnessing
//! words per atom (exhaustively when the regex language is finite), builds
//! the candidate core of Theorem 6.3's proof, runs the deterministic chase,
//! and checks every core node's remaining `∃`-requirements with the
//! coinductive tree realizability of [`crate::realize`]. Components are
//! independent because models of Horn TBoxes are closed under disjoint
//! union.
//!
//! Three entry points share the same search: [`decide`] builds a fresh
//! solver context per call, [`decide_cached`] borrows a persistent
//! per-TBox context from a [`SolverCache`], and [`decide_in_ctx`] runs on a
//! context the caller owns. The last two let repeated calls over one TBox
//! skip re-interning types and re-deciding realizability fixpoints. All
//! return the same verdicts (the differential suites enforce it).

use crate::budget::{Budget, UnknownReason, Verdict, Witness};
use crate::cache::SolverCache;
use crate::chase::Core;
use crate::realize::RealizeCtx;
use crate::types::TypeUniverse;
use gts_dl::{HornCi, HornTbox};
use gts_graph::{FxHashMap, FxHashSet, Graph, LabelSet, NodeId};
use gts_query::{AtomSym, C2rpq, Nfa, Var};

/// Search statistics (for benchmarks, the `--stats` CLI flag, and
/// EXPERIMENTS.md).
#[derive(Clone, Copy, Debug, Default)]
pub struct DecideStats {
    /// Number of candidate cores chased.
    pub cores_tried: usize,
    /// Candidate cores skipped because an isomorphic core (same sorted
    /// multiset of per-atom witnessing words) was already chased.
    pub cores_deduped: usize,
    /// Number of node types interned in the solver context after the call
    /// (cumulative for a cached context).
    pub types_interned: usize,
    /// Realizability verdicts replayed from the context memo during this
    /// call.
    pub realize_hits: u64,
    /// Realizability verdicts computed during this call.
    pub realize_misses: u64,
}

impl DecideStats {
    /// Folds another call's counters into this one.
    pub fn absorb(&mut self, other: &DecideStats) {
        self.cores_tried += other.cores_tried;
        self.cores_deduped += other.cores_deduped;
        self.types_interned = self.types_interned.max(other.types_interned);
        self.realize_hits += other.realize_hits;
        self.realize_misses += other.realize_misses;
    }
}

enum CompResult {
    Sat(Graph),
    Unsat,
    Unknown(UnknownReason),
}

/// Decides unrestricted satisfiability of the Boolean C2RPQ `query` modulo
/// `tbox`.
///
/// * `Sat` verdicts carry the finite core of a witnessing (possibly
///   infinite) model;
/// * `Unsat` verdicts are certified (the search space was finite and was
///   covered exhaustively);
/// * `Unknown` reports the binding budget.
pub fn decide(tbox: &HornTbox, query: &C2rpq, budget: &Budget) -> Verdict {
    decide_with_stats(tbox, query, budget).0
}

/// [`decide`], additionally returning search statistics.
pub fn decide_with_stats(
    tbox: &HornTbox,
    query: &C2rpq,
    budget: &Budget,
) -> (Verdict, DecideStats) {
    let mut ctx = RealizeCtx::new(TypeUniverse::new(tbox), budget.clone());
    decide_instrumented(&mut ctx, tbox, query, budget)
}

/// [`decide`] against a persistent per-TBox context borrowed from `cache`.
///
/// Same verdicts as [`decide`] (warm memo entries replay the exact
/// sequential computation, including its `uncertain` degradations); the
/// warm path skips type interning, saturation fixpoints, and realizability
/// fixpoints already established by earlier calls over this TBox.
pub fn decide_cached(
    tbox: &HornTbox,
    query: &C2rpq,
    budget: &Budget,
    cache: &SolverCache,
) -> (Verdict, DecideStats) {
    let handle = cache.handle(tbox, budget);
    decide_on(&handle, tbox, query, budget, cache)
}

/// [`decide_cached`] against a pre-resolved [`crate::SolverHandle`] — skips the
/// per-call CI-set hashing of the cache lookup, which matters when one
/// TBox is decided repeatedly (every disjunct of a containment question
/// over one completed TBox).
pub fn decide_on(
    handle: &crate::cache::SolverHandle,
    tbox: &HornTbox,
    query: &C2rpq,
    budget: &Budget,
    cache: &SolverCache,
) -> (Verdict, DecideStats) {
    let (verdict, stats) =
        cache.with_handle(handle, budget, |ctx| decide_instrumented(ctx, tbox, query, budget));
    cache.record_decide(stats.cores_tried, stats.cores_deduped);
    (verdict, stats)
}

/// [`decide`] on a caller-owned context over the TBox of `ctx.types`. The
/// context keeps its memo tables between calls, like a [`SolverCache`]
/// entry, but lives only as long as its owner (the completion's entailment
/// sweep holds one per extended TBox). Counted by the same span and
/// metrics as every other decide; not by any [`SolverCache`].
pub fn decide_in_ctx(
    ctx: &mut RealizeCtx,
    query: &C2rpq,
    budget: &Budget,
) -> (Verdict, DecideStats) {
    ctx.begin_call(budget.clone());
    let tbox = ctx.types.tbox_arc();
    decide_instrumented(ctx, &tbox, query, budget)
}

/// The process-global metric cells of the decide hot path, resolved once.
struct DecideMetrics {
    latency: gts_obs::Histogram,
    sat: gts_obs::Counter,
    unsat: gts_obs::Counter,
    unknown: gts_obs::Counter,
}

fn decide_metrics() -> &'static DecideMetrics {
    static CELLS: std::sync::OnceLock<DecideMetrics> = std::sync::OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = gts_obs::global();
        let name = "gts_sat_decide_total";
        let help = "Satisfiability decide calls by verdict";
        DecideMetrics {
            latency: reg.histogram(
                "gts_sat_decide_micros",
                "Latency of satisfiability decide calls",
                &[],
            ),
            sat: reg.counter(name, help, &[("verdict", "sat")]),
            unsat: reg.counter(name, help, &[("verdict", "unsat")]),
            unknown: reg.counter(name, help, &[("verdict", "unknown")]),
        }
    })
}

/// [`decide_in`] wrapped in the observability layer: an `oracle_decide`
/// span (inert unless the calling thread is tracing) plus a latency
/// histogram and per-verdict counters in the global registry.
fn decide_instrumented(
    ctx: &mut RealizeCtx,
    tbox: &HornTbox,
    query: &C2rpq,
    budget: &Budget,
) -> (Verdict, DecideStats) {
    let _span = gts_obs::span("oracle_decide");
    let start = gts_obs::enabled().then(std::time::Instant::now);
    let out = decide_in(ctx, tbox, query, budget);
    let m = decide_metrics();
    if let Some(t0) = start {
        m.latency.record(t0.elapsed().as_micros() as u64);
    }
    match &out.0 {
        Verdict::Sat(_) => m.sat.inc(),
        Verdict::Unsat => m.unsat.inc(),
        Verdict::Unknown(_) => m.unknown.inc(),
    }
    out
}

/// The shared search; `ctx` must already be reset for this call (fresh, or
/// via `RealizeCtx::begin_call`).
fn decide_in(
    ctx: &mut RealizeCtx,
    tbox: &HornTbox,
    query: &C2rpq,
    budget: &Budget,
) -> (Verdict, DecideStats) {
    assert!(
        query.is_boolean(),
        "the satisfiability engine takes Boolean queries; close the query first"
    );
    let realize_before = ctx.stats();
    let mut stats = DecideStats::default();
    let mut cores: Vec<Graph> = Vec::new();
    let mut unknown: Option<UnknownReason> = None;

    let finish = |ctx: &RealizeCtx, stats: &mut DecideStats| {
        stats.types_interned = ctx.types.len();
        let after = ctx.stats();
        stats.realize_hits = (after.status_hits - realize_before.status_hits)
            + (after.options_hits - realize_before.options_hits);
        stats.realize_misses = (after.status_misses - realize_before.status_misses)
            + (after.options_misses - realize_before.options_misses);
    };

    for (vars, atom_idxs) in query.connected_components() {
        match solve_component(tbox, query, &vars, &atom_idxs, budget, ctx, &mut stats) {
            CompResult::Sat(g) => cores.push(g),
            CompResult::Unsat => {
                finish(ctx, &mut stats);
                return (Verdict::Unsat, stats);
            }
            CompResult::Unknown(r) => unknown = Some(unknown.unwrap_or(r)),
        }
    }
    finish(ctx, &mut stats);
    if let Some(r) = unknown {
        return (Verdict::Unknown(r), stats);
    }
    (Verdict::Sat(Witness { core: disjoint_union(&cores) }), stats)
}

/// The label set of a regex that is a pure node-test sequence
/// (`Then`/`Node`/`Epsilon` only), whose language is exactly one edge-free
/// word. `None` for any other shape.
fn node_test_labels(re: &gts_query::Regex) -> Option<LabelSet> {
    use gts_query::Regex;
    match re {
        Regex::Epsilon => Some(LabelSet::new()),
        Regex::Sym(AtomSym::Node(l)) => Some(LabelSet::singleton(l.0)),
        Regex::Concat(a, b) => {
            let mut s = node_test_labels(a)?;
            s.union_with(&node_test_labels(b)?);
            Some(s)
        }
        _ => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn solve_component(
    tbox: &HornTbox,
    query: &C2rpq,
    vars: &[Var],
    atom_idxs: &[usize],
    budget: &Budget,
    ctx: &mut RealizeCtx,
    stats: &mut DecideStats,
) -> CompResult {
    // Local variable numbering.
    let local: FxHashMap<Var, usize> = vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let atoms: Vec<(usize, usize, &gts_query::Atom)> = atom_idxs
        .iter()
        .map(|&i| {
            let a = &query.atoms[i];
            (local[&a.x], local[&a.y], a)
        })
        .collect();

    // Fast path for a pure node-test component — a single self-loop atom
    // whose language is one edge-free word (the shape of every entailment
    // probe of the completion). The general machinery would enumerate the
    // one word, build a one-node core, chase it, and check extendability;
    // all of that collapses to close → saturate → extendability, each of
    // which is memoized in a warm solver context.
    if let [(x, y, a)] = atoms.as_slice() {
        if x == y && vars.len() == 1 {
            if let Some(labels) = node_test_labels(&a.regex) {
                if stats.cores_tried >= budget.max_cores {
                    return CompResult::Unknown(UnknownReason::CoreBudget);
                }
                stats.cores_tried += 1;
                let Some(tid) = ctx.types.close(&labels) else {
                    return CompResult::Unsat;
                };
                let Some(sat) = ctx.types.saturate(tid) else {
                    return CompResult::Unsat;
                };
                // Mirrors the general path's verdict order: `uncertain`
                // degrades negative answers before budget reasons do.
                return match ctx.node_extendable(sat, &[]) {
                    Ok(true) => {
                        let mut g = Graph::new();
                        let n = g.add_node();
                        g.add_label_set(n, ctx.types.labels(sat));
                        CompResult::Sat(g)
                    }
                    Ok(false) if ctx.uncertain => CompResult::Unknown(UnknownReason::Saturation),
                    Ok(false) => CompResult::Unsat,
                    Err(_) if ctx.uncertain => CompResult::Unknown(UnknownReason::Saturation),
                    Err(r) => CompResult::Unknown(r),
                };
            }
        }
    }

    // Word enumeration per atom. A *loose* endpoint (a variable used by no
    // other atom of the Boolean component) licenses prefix-minimal
    // enumeration: a model realizing a longer word realizes its accepted
    // prefix with the loose endpoint rebound, so minimal words are complete
    // for satisfiability — and often finite where the full language is not.
    let mut degree = vec![0usize; vars.len()];
    for (x, y, _) in &atoms {
        degree[*x] += 1;
        if y != x {
            degree[*y] += 1;
        }
    }
    let mut word_lists: Vec<Vec<Vec<AtomSym>>> = Vec::new();
    let mut exhaustive_flags: Vec<bool> = Vec::new();
    let mut looseness: Vec<(bool, bool)> = Vec::new();
    let mut all_exhaustive = true;
    for (x, y, a) in &atoms {
        let nfa = Nfa::compiled(&a.regex);
        // Emptiness short-circuit: an atom whose language is empty refutes
        // the whole component without enumerating sibling atoms.
        if !nfa.useful_states()[nfa.initial()] {
            return CompResult::Unsat;
        }
        let loose_y = x != y && degree[*y] == 1;
        let loose_x = x != y && degree[*x] == 1;
        looseness.push((loose_x, loose_y));
        let (mut words, exhaustive) = if loose_y {
            nfa.enumerate_min_words(budget.max_word_syms, budget.max_words_per_atom)
        } else if loose_x {
            // Prune from the source side: suffix-minimal words are the
            // reversed prefix-minimal words of the reversed regex.
            let (rev_words, ex) = Nfa::compiled(&a.regex.reverse())
                .enumerate_min_words(budget.max_word_syms, budget.max_words_per_atom);
            let words = rev_words
                .into_iter()
                .map(|w| {
                    w.into_iter()
                        .rev()
                        .map(|s| match s {
                            AtomSym::Edge(r) => AtomSym::Edge(r.inv()),
                            node => node,
                        })
                        .collect()
                })
                .collect();
            (words, ex)
        } else {
            nfa.enumerate_words(budget.max_word_syms, budget.max_words_per_atom)
        };
        all_exhaustive &= exhaustive;
        exhaustive_flags.push(exhaustive);
        if words.is_empty() {
            return if exhaustive {
                CompResult::Unsat // the atom's language is empty
            } else {
                CompResult::Unknown(UnknownReason::WordBudget)
            };
        }
        // Drop duplicate words (first occurrence kept, so the search order
        // of the surviving words is unchanged).
        let mut seen_words: FxHashSet<&[AtomSym]> = FxHashSet::default();
        let mut keep = vec![false; words.len()];
        for (i, w) in words.iter().enumerate() {
            keep[i] = seen_words.insert(w.as_slice());
        }
        let mut it = keep.iter();
        words.retain(|_| *it.next().unwrap());
        words.sort_by_key(|w| edge_len(w));
        word_lists.push(words);
    }

    // Would the total-length budget ever prune a combination?
    let max_total: usize =
        word_lists.iter().map(|ws| ws.iter().map(|w| edge_len(w)).max().unwrap_or(0)).sum();
    let total_pruned = max_total > budget.max_total_edge_syms;

    // DFS over word combinations within the total edge budget.
    let mut chosen: Vec<usize> = vec![0; atoms.len()];
    let mut realize_budget: Option<UnknownReason> = None;
    let mut core_cap_hit = false;
    let mut seen_cores: FxHashSet<Vec<(usize, usize, &[AtomSym])>> = FxHashSet::default();
    let sat = search(
        tbox,
        vars.len(),
        &atoms,
        &word_lists,
        budget,
        ctx,
        stats,
        &mut chosen,
        0,
        budget.max_total_edge_syms,
        &mut realize_budget,
        &mut core_cap_hit,
        &mut seen_cores,
    );
    if let Some(core) = sat {
        return CompResult::Sat(core);
    }
    if ctx.uncertain {
        return CompResult::Unknown(UnknownReason::Saturation);
    }
    if all_exhaustive && !total_pruned && !core_cap_hit && realize_budget.is_none() {
        return CompResult::Unsat;
    }
    if let Some(r) = realize_budget {
        return CompResult::Unknown(r);
    }
    if core_cap_hit {
        return CompResult::Unknown(UnknownReason::CoreBudget);
    }

    // Phase 2 — weakened UNSAT certification. For atoms whose enumeration
    // was inexhaustive but which have a loose endpoint, the one-symbol
    // words anchored at the constrained endpoint are *implied* by any
    // longer witness (the witnessing path contains its first/last step, and
    // the loose endpoint rebinds). If even the weakened query is
    // unsatisfiable, so is the original — a sound certificate. A phase-2
    // "Sat" is spurious and is ignored.
    let mut weak_lists: Vec<Vec<Vec<AtomSym>>> = Vec::new();
    for (i, (_, _, a)) in atoms.iter().enumerate() {
        if exhaustive_flags[i] {
            // Phase 1 is done with the exhaustive list; move, don't clone.
            weak_lists.push(std::mem::take(&mut word_lists[i]));
            continue;
        }
        let (loose_x, loose_y) = looseness[i];
        let words = if loose_y {
            anchor_symbols(&Nfa::compiled(&a.regex), false)
        } else if loose_x {
            anchor_symbols(&Nfa::compiled(&a.regex.reverse()), true)
        } else {
            return CompResult::Unknown(infinite_or_word_budget(&atoms));
        };
        weak_lists.push(words);
    }
    let weak_total: usize =
        weak_lists.iter().map(|ws| ws.iter().map(|w| edge_len(w)).max().unwrap_or(0)).sum();
    if weak_total > budget.max_total_edge_syms {
        return CompResult::Unknown(infinite_or_word_budget(&atoms));
    }
    let mut chosen: Vec<usize> = vec![0; atoms.len()];
    let mut realize_budget2: Option<UnknownReason> = None;
    let mut core_cap_hit2 = false;
    let mut seen_cores2: FxHashSet<Vec<(usize, usize, &[AtomSym])>> = FxHashSet::default();
    let spurious_sat = search(
        tbox,
        vars.len(),
        &atoms,
        &weak_lists,
        budget,
        ctx,
        stats,
        &mut chosen,
        0,
        budget.max_total_edge_syms,
        &mut realize_budget2,
        &mut core_cap_hit2,
        &mut seen_cores2,
    );
    if spurious_sat.is_none() && realize_budget2.is_none() && !core_cap_hit2 && !ctx.uncertain {
        CompResult::Unsat
    } else {
        CompResult::Unknown(infinite_or_word_budget(&atoms))
    }
}

/// The one-symbol words anchored at an endpoint: the first symbols of the
/// automaton (useful transitions from the initial state), plus `ε` when the
/// language is nullable. With `invert_back` the symbols are flipped back
/// into source-to-target orientation (used for the reversed automaton).
fn anchor_symbols(nfa: &Nfa, invert_back: bool) -> Vec<Vec<AtomSym>> {
    let useful = nfa.useful_states();
    let mut words: Vec<Vec<AtomSym>> = Vec::new();
    if nfa.is_final(nfa.initial()) {
        words.push(Vec::new());
    }
    for &(sym, q) in nfa.transitions(nfa.initial()) {
        if !useful[q] {
            continue;
        }
        let sym = match (sym, invert_back) {
            (AtomSym::Edge(r), true) => AtomSym::Edge(r.inv()),
            (s, _) => s,
        };
        let w = vec![sym];
        if !words.contains(&w) {
            words.push(w);
        }
    }
    words
}

fn infinite_or_word_budget(atoms: &[(usize, usize, &gts_query::Atom)]) -> UnknownReason {
    if atoms.iter().any(|(_, _, a)| !Nfa::compiled(&a.regex).language_finite()) {
        UnknownReason::InfiniteLanguage
    } else {
        UnknownReason::WordBudget
    }
}

fn edge_len(word: &[AtomSym]) -> usize {
    word.iter().filter(|s| matches!(s, AtomSym::Edge(_))).count()
}

#[allow(clippy::too_many_arguments)]
fn search<'w>(
    tbox: &HornTbox,
    num_vars: usize,
    atoms: &[(usize, usize, &gts_query::Atom)],
    word_lists: &'w [Vec<Vec<AtomSym>>],
    budget: &Budget,
    ctx: &mut RealizeCtx,
    stats: &mut DecideStats,
    chosen: &mut Vec<usize>,
    atom_idx: usize,
    remaining_edges: usize,
    realize_budget: &mut Option<UnknownReason>,
    core_cap_hit: &mut bool,
    seen_cores: &mut FxHashSet<Vec<(usize, usize, &'w [AtomSym])>>,
) -> Option<Graph> {
    if atom_idx == atoms.len() {
        // Canonical form of the candidate: the sorted multiset of
        // (endpoints, word) triples. Two combinations with the same
        // multiset build isomorphic cores (construction only reorders the
        // fresh path nodes), so chasing one settles both.
        let mut key: Vec<(usize, usize, &[AtomSym])> = atoms
            .iter()
            .enumerate()
            .map(|(i, (x, y, _))| (*x, *y, word_lists[i][chosen[i]].as_slice()))
            .collect();
        key.sort_unstable();
        if !seen_cores.insert(key) {
            stats.cores_deduped += 1;
            return None;
        }
        if stats.cores_tried >= budget.max_cores {
            *core_cap_hit = true;
            return None;
        }
        stats.cores_tried += 1;
        return try_core(tbox, num_vars, atoms, word_lists, chosen, ctx, realize_budget);
    }
    for (wi, word) in word_lists[atom_idx].iter().enumerate() {
        let el = edge_len(word);
        if el > remaining_edges {
            break; // words are sorted by edge length
        }
        if *core_cap_hit {
            return None;
        }
        chosen[atom_idx] = wi;
        if let Some(g) = search(
            tbox,
            num_vars,
            atoms,
            word_lists,
            budget,
            ctx,
            stats,
            chosen,
            atom_idx + 1,
            remaining_edges - el,
            realize_budget,
            core_cap_hit,
            seen_cores,
        ) {
            return Some(g);
        }
    }
    None
}

/// Builds the core of Theorem 6.3's proof for one word combination,
/// chases it, and checks extendability of every node.
fn try_core(
    _tbox: &HornTbox,
    num_vars: usize,
    atoms: &[(usize, usize, &gts_query::Atom)],
    word_lists: &[Vec<Vec<AtomSym>>],
    chosen: &[usize],
    ctx: &mut RealizeCtx,
    realize_budget: &mut Option<UnknownReason>,
) -> Option<Graph> {
    let mut core = Core::new();
    let var_nodes: Vec<usize> =
        (0..num_vars.max(1)).map(|_| core.add_node(LabelSet::new())).collect();
    for (i, (x, y, _)) in atoms.iter().enumerate() {
        let word = &word_lists[i][chosen[i]];
        let mut cur = var_nodes[*x];
        for sym in word {
            match sym {
                AtomSym::Node(a) => core.add_label(cur, a.0),
                AtomSym::Edge(r) => {
                    let nxt = core.add_node(LabelSet::new());
                    core.add_sym_edge(cur, *r, nxt);
                    cur = nxt;
                }
            }
        }
        core.merge(cur, var_nodes[*y]);
    }
    if core.chase_in(&mut ctx.types).is_err() {
        return None;
    }
    // Interleave chase and type saturation to a joint fixpoint: labels
    // forced back by mandatory tree witnesses may propagate along core
    // edges and trigger further merges.
    loop {
        let mut grew = false;
        for root in core.roots() {
            let tid = ctx.types.close(core.labels_of(root))?;
            match ctx.types.saturate(tid) {
                None => return None, // dead type: no model has this node
                Some(sat) => {
                    // Interning is canonical, so the saturation changed the
                    // labels iff it changed the type id.
                    if sat != tid {
                        core.set_labels(root, ctx.types.labels(sat).clone());
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
        if core.chase_in(&mut ctx.types).is_err() {
            return None;
        }
    }
    // Every core node must be extendable by realizable witness trees.
    for root in core.roots() {
        let tid = ctx.types.close(core.labels_of(root))?;
        let mut neighbors = Vec::new();
        for (sym, nbr) in core.incident(root) {
            if let Some(t) = ctx.types.close(core.labels_of(nbr)) {
                neighbors.push((sym, t));
            }
        }
        match ctx.node_extendable(tid, &neighbors) {
            Ok(true) => {}
            Ok(false) => return None,
            Err(r) => {
                *realize_budget = Some(r);
                return None;
            }
        }
    }
    let (g, _) = core.to_graph();
    Some(g)
}

fn disjoint_union(graphs: &[Graph]) -> Graph {
    let mut out = Graph::new();
    for g in graphs {
        let offset: Vec<NodeId> = g
            .nodes()
            .map(|n| {
                let id = out.add_node();
                out.add_label_set(id, g.labels(n));
                id
            })
            .collect();
        for (s, l, t) in g.edges() {
            out.add_edge(offset[s.0 as usize], l, offset[t.0 as usize]);
        }
    }
    out
}

/// Checks that every *universal* CI of `tbox` (everything except
/// `K ⊑ ∃R.K'`) holds on `g` — the soundness property of `Sat` cores, used
/// by tests and by debug assertions.
pub fn universal_constraints_hold(tbox: &HornTbox, g: &Graph) -> bool {
    let universal = HornTbox {
        cis: tbox.cis.iter().filter(|ci| !matches!(ci, HornCi::Exists { .. })).cloned().collect(),
    };
    universal.check_graph(g).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::{EdgeLabel, EdgeSym, NodeLabel};
    use gts_query::{Atom, Regex};

    fn sym(i: u32) -> EdgeSym {
        EdgeSym::fwd(EdgeLabel(i))
    }
    fn set(labels: &[u32]) -> LabelSet {
        LabelSet::from_iter(labels.iter().copied())
    }

    fn bool_query(atoms: Vec<Atom>, num_vars: u32) -> C2rpq {
        C2rpq::new(num_vars, vec![], atoms)
    }

    #[test]
    fn empty_query_over_empty_tbox_is_sat() {
        let t = HornTbox::new();
        let q = bool_query(vec![], 0);
        assert!(decide(&t, &q, &Budget::default()).is_sat());
    }

    #[test]
    fn single_edge_query_is_sat() {
        let t = HornTbox::new();
        let q =
            bool_query(vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(EdgeLabel(0)) }], 2);
        let v = decide(&t, &q, &Budget::default());
        match v {
            Verdict::Sat(w) => {
                assert_eq!(w.core.num_nodes(), 2);
                assert_eq!(w.core.num_edges(), 1);
                assert!(universal_constraints_hold(&t, &w.core));
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn empty_regex_atom_is_certified_unsat() {
        let t = HornTbox::new();
        let q = bool_query(vec![Atom { x: Var(0), y: Var(1), regex: Regex::Empty }], 2);
        assert!(decide(&t, &q, &Budget::default()).is_unsat());
    }

    #[test]
    fn node_test_conflicting_with_bottom_is_unsat() {
        // Query: ∃x. A(x); TBox: A ⊑ ⊥.
        let mut t = HornTbox::new();
        t.push(HornCi::Bottom { lhs: set(&[0]) });
        let q =
            bool_query(vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(NodeLabel(0)) }], 1);
        assert!(decide(&t, &q, &Budget::default()).is_unsat());
    }

    #[test]
    fn top_bottom_tbox_makes_everything_unsat_but_empty() {
        // ⊤ ⊑ ⊥: only the empty graph is a model.
        let mut t = HornTbox::new();
        t.push(HornCi::Bottom { lhs: LabelSet::new() });
        // ∃x.⊤ needs one node → unsat.
        let q = bool_query(vec![], 1);
        assert!(decide(&t, &q, &Budget::default()).is_unsat());
        // The empty query is satisfied by the empty graph.
        let q0 = bool_query(vec![], 0);
        assert!(decide(&t, &q0, &Budget::default()).is_sat());
    }

    #[test]
    fn functionality_merge_enables_sat() {
        // r(x,y) ∧ r(x,z) with ∃≤1 r.⊤ is satisfiable (y and z merge).
        let mut t = HornTbox::new();
        t.push(HornCi::AtMostOne { lhs: LabelSet::new(), role: sym(0), rhs: LabelSet::new() });
        let q = bool_query(
            vec![
                Atom { x: Var(0), y: Var(1), regex: Regex::edge(EdgeLabel(0)) },
                Atom { x: Var(0), y: Var(2), regex: Regex::edge(EdgeLabel(0)) },
            ],
            3,
        );
        match decide(&t, &q, &Budget::default()) {
            Verdict::Sat(w) => {
                assert_eq!(w.core.num_nodes(), 2, "y and z must have merged");
                assert!(universal_constraints_hold(&t, &w.core));
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn functionality_merge_cascades_into_unsat() {
        // r(x,y) ∧ A(y) ∧ r(x,z) ∧ B(z), ∃≤1 r.⊤, A⊓B ⊑ ⊥ → unsat.
        let mut t = HornTbox::new();
        t.push(HornCi::AtMostOne { lhs: LabelSet::new(), role: sym(0), rhs: LabelSet::new() });
        t.push(HornCi::Bottom { lhs: set(&[0, 1]) });
        let q = bool_query(
            vec![
                Atom {
                    x: Var(0),
                    y: Var(1),
                    regex: Regex::edge(EdgeLabel(0)).then(Regex::node(NodeLabel(0))),
                },
                Atom {
                    x: Var(0),
                    y: Var(2),
                    regex: Regex::edge(EdgeLabel(0)).then(Regex::node(NodeLabel(1))),
                },
            ],
            3,
        );
        assert!(decide(&t, &q, &Budget::default()).is_unsat());
    }

    #[test]
    fn infinite_language_with_loose_endpoint_is_certified() {
        // (r+)(x,y) with r forbidden: y is loose, so prefix-minimal words
        // ({r}) are exhaustive and the engine certifies UNSAT despite the
        // infinite language.
        let mut t = HornTbox::new();
        t.push(HornCi::NotExists { lhs: LabelSet::new(), role: sym(0), rhs: LabelSet::new() });
        let plus = Regex::edge(EdgeLabel(0)).then(Regex::edge(EdgeLabel(0)).star());
        let q = bool_query(vec![Atom { x: Var(0), y: Var(1), regex: plus }], 2);
        assert!(decide(&t, &q, &Budget::default()).is_unsat());
    }

    #[test]
    fn infinite_language_with_constrained_endpoints_is_unknown() {
        // Pin both endpoints with extra atoms so no pruning applies; the
        // unsatisfiability (r forbidden) is then beyond certification.
        let mut t = HornTbox::new();
        t.push(HornCi::NotExists { lhs: LabelSet::new(), role: sym(0), rhs: LabelSet::new() });
        let plus = Regex::edge(EdgeLabel(0)).then(Regex::edge(EdgeLabel(0)).star());
        let q = bool_query(
            vec![
                Atom { x: Var(0), y: Var(0), regex: Regex::node(NodeLabel(3)) },
                Atom { x: Var(0), y: Var(1), regex: plus.clone() },
                Atom { x: Var(1), y: Var(1), regex: Regex::node(NodeLabel(4)) },
            ],
            2,
        );
        match decide(&t, &q, &Budget::default()) {
            Verdict::Unknown(UnknownReason::InfiniteLanguage) => {}
            other => panic!("expected Unknown(InfiniteLanguage), got {other:?}"),
        }
    }

    #[test]
    fn loose_source_side_pruning_works() {
        // (r*·s)(x,y) with x loose: suffix-minimal words = {s}; with s
        // forbidden the verdict is certified UNSAT.
        let mut t = HornTbox::new();
        t.push(HornCi::NotExists { lhs: LabelSet::new(), role: sym(1), rhs: LabelSet::new() });
        let re = Regex::edge(EdgeLabel(0)).star().then(Regex::edge(EdgeLabel(1)));
        let q = bool_query(
            vec![
                Atom { x: Var(0), y: Var(1), regex: re },
                Atom { x: Var(1), y: Var(1), regex: Regex::node(NodeLabel(3)) },
            ],
            2,
        );
        assert!(decide(&t, &q, &Budget::default()).is_unsat());
    }

    #[test]
    fn finite_language_with_forbidden_edge_is_certified_unsat() {
        let mut t = HornTbox::new();
        t.push(HornCi::NotExists { lhs: LabelSet::new(), role: sym(0), rhs: LabelSet::new() });
        let q =
            bool_query(vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(EdgeLabel(0)) }], 2);
        assert!(decide(&t, &q, &Budget::default()).is_unsat());
    }

    #[test]
    fn requirement_chain_through_core_is_checked() {
        // Query ∃x. A(x); A ⊑ ∃r.A is satisfiable via an infinite chain.
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[0]) });
        let q =
            bool_query(vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(NodeLabel(0)) }], 1);
        assert!(decide(&t, &q, &Budget::default()).is_sat());
    }

    #[test]
    fn example_5_5_style_refutation() {
        // The full Example 5.2/5.5 pattern, hand-compiled:
        // labels: 0=A, 1=B_r, 2=B_rs; roles: 0=s, 1=r.
        // Schema: ⊤⊑A, A⊑∃s.A, A⊑∃≤1 s⁻.A.
        // ¬Q:    ⊤⊑∀r.B_r, B_r⊑∀s.B_rs, B_rs⊑∀s.B_rs, B_rs⊑∀r.⊥ (as
        //         B_rs⊓"has outgoing r" — encoded via ∄r.⊤ on B_rs).
        // Completion (cycle reversing): A⊓B_rs ⊑ ∃s⁻.(A⊓B_rs),
        //         A⊓B_rs ⊑ ∃≤1 s.(A⊓B_rs).
        // Query P: ∃x. r(x,x)  — cyclic! (self-loop).
        let s = sym(0);
        let r = sym(1);
        let mut t = HornTbox::new();
        t.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: NodeLabel(0) });
        t.push(HornCi::Exists { lhs: set(&[0]), role: s, rhs: set(&[0]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: s.inv(), rhs: set(&[0]) });
        t.push(HornCi::AllValues { lhs: LabelSet::new(), role: r, rhs: set(&[1]) });
        t.push(HornCi::AllValues { lhs: set(&[1]), role: s, rhs: set(&[2]) });
        t.push(HornCi::AllValues { lhs: set(&[2]), role: s, rhs: set(&[2]) });
        t.push(HornCi::NotExists { lhs: set(&[2]), role: r, rhs: LabelSet::new() });
        t.push(HornCi::Exists { lhs: set(&[0, 2]), role: s.inv(), rhs: set(&[0, 2]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0, 2]), role: s, rhs: set(&[0, 2]) });

        let p = bool_query(vec![Atom { x: Var(0), y: Var(0), regex: Regex::sym(r) }], 1);
        // Without the completion CIs, P is satisfiable (infinite s-chain).
        let t_without: HornTbox = HornTbox { cis: t.cis[..7].to_vec() };
        assert!(
            decide(&t_without, &p, &Budget::default()).is_sat(),
            "P must be satisfiable modulo the uncompleted TBox (infinite models)"
        );
        // With the completion, P is certifiably unsatisfiable — the
        // finite-model consequences refute the self-loop (Example 5.5).
        assert!(decide(&t, &p, &Budget::default()).is_unsat());
    }

    #[test]
    fn stats_are_populated() {
        let t = HornTbox::new();
        let q =
            bool_query(vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(EdgeLabel(0)) }], 2);
        let (v, stats) = decide_with_stats(&t, &q, &Budget::default());
        assert!(v.is_sat());
        assert!(stats.cores_tried >= 1);
    }

    #[test]
    fn duplicate_atoms_dedupe_cores() {
        // Two identical atoms: the (w, w') and (w', w) combinations build
        // the same core; the dedup must skip the mirror.
        let t = HornTbox::new();
        let re = Regex::edge(EdgeLabel(0)).or(Regex::edge(EdgeLabel(1)));
        let q = bool_query(
            vec![
                Atom { x: Var(0), y: Var(1), regex: re.clone() },
                Atom { x: Var(0), y: Var(1), regex: re },
            ],
            2,
        );
        let (v, stats) = decide_with_stats(&t, &q, &Budget::default());
        assert!(v.is_sat());
        assert!(stats.cores_tried >= 1);
    }

    #[test]
    fn cached_decide_matches_fresh_decide() {
        let cache = SolverCache::new();
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[0]) });
        t.push(HornCi::NotExists { lhs: set(&[1]), role: sym(0), rhs: LabelSet::new() });
        let queries = [
            bool_query(vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(NodeLabel(0)) }], 1),
            bool_query(
                vec![Atom {
                    x: Var(0),
                    y: Var(0),
                    regex: Regex::node(NodeLabel(0)).then(Regex::node(NodeLabel(1))),
                }],
                1,
            ),
            bool_query(vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(EdgeLabel(0)) }], 2),
        ];
        let budget = Budget::default();
        for _ in 0..2 {
            // Twice: the second pass runs fully warm.
            for q in &queries {
                let fresh = decide(&t, q, &budget);
                let (warm, _) = decide_cached(&t, q, &budget, &cache);
                assert_eq!(
                    std::mem::discriminant(&fresh),
                    std::mem::discriminant(&warm),
                    "cached verdict diverged on {q:?}"
                );
            }
        }
        assert!(cache.oracle_stats().cache_hits > 0);
    }
}
