//! The decision procedure for unrestricted satisfiability of a Boolean
//! C2RPQ modulo a Horn-ALCIF TBox (Theorem 6.1, engineered per DESIGN.md
//! §3.2).
//!
//! Per connected component of the query the engine enumerates witnessing
//! words per atom (exhaustively when the regex language is finite), builds
//! the candidate core of Theorem 6.3's proof, and alternates two steps
//! until the core stops growing: the deterministic chase, then the
//! canonical-model fixpoint ([`HornFixpoint::settle`]) on every core node,
//! with the node's core neighbours as its fixed neighbours. The fixpoint
//! hangs a witness off the node for each `∃`-requirement; a witness's
//! `∀`-push grows the node, and a witness that an at-most CI of the node
//! counts together with a core neighbour over the same role is that
//! neighbour, which takes the witness's target. A node the fixpoint kills
//! refutes the core; a stable core with every witness alive is the core
//! of a model. A pure node-test component is one fixpoint root: its
//! premise is satisfiable iff the root is alive. Components are
//! independent because models of Horn TBoxes are closed under disjoint
//! union.
//!
//! Two entry points share the same search: [`decide`] builds a fresh
//! fixpoint per call, and [`decide_in_ctx`] runs on one the caller owns,
//! so repeated calls over one TBox skip re-interning types and re-solving
//! the canonical models they share. The fixpoint is a pure function of
//! the TBox and the questions asked, so both return the same verdicts
//! (the differential suites enforce it) until its node cap is hit.

use crate::budget::{Budget, UnknownReason, Verdict, Witness};
use crate::chase::Core;
use crate::entail::HornFixpoint;
use crate::types::{TypeId, TypeUniverse};
use gts_dl::{HornCi, HornTbox};
use gts_graph::{EdgeSym, FxHashMap, FxHashSet, Graph, LabelSet, NodeId};
use gts_query::{AtomSym, C2rpq, Nfa, Var};

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
    let mut fixpoint = HornFixpoint::new(TypeUniverse::new(tbox), budget);
    decide_instrumented(&mut fixpoint, query, budget)
}

/// [`decide`] on a caller-owned fixpoint over its TBox. The fixpoint keeps
/// its canonical-model nodes between calls and lives only as long as its
/// owner: a containment call holds one per completed TBox. Its node cap is
/// the `max_candidates` of the budget it was built with; the other bounds
/// are `budget`'s. Counted by the same span and metrics as every other
/// decide.
pub fn decide_in_ctx(fixpoint: &mut HornFixpoint, query: &C2rpq, budget: &Budget) -> Verdict {
    decide_instrumented(fixpoint, query, budget)
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
fn decide_instrumented(fix: &mut HornFixpoint, query: &C2rpq, budget: &Budget) -> Verdict {
    let _span = gts_obs::span("oracle_decide");
    let start = gts_obs::enabled().then(std::time::Instant::now);
    let out = decide_in(fix, query, budget);
    let m = decide_metrics();
    if let Some(t0) = start {
        m.latency.record(t0.elapsed().as_micros() as u64);
    }
    match &out {
        Verdict::Sat(_) => m.sat.inc(),
        Verdict::Unsat => m.unsat.inc(),
        Verdict::Unknown(_) => m.unknown.inc(),
    }
    out
}

/// Runs `work` — fixpoint work of the decide path — in a `saturate` span,
/// recording its latency in `gts_sat_saturate_micros`.
fn saturate<T>(work: impl FnOnce() -> T) -> T {
    let _span = gts_obs::span("saturate");
    if !gts_obs::enabled() {
        return work();
    }
    let start = std::time::Instant::now();
    let out = work();
    static HIST: std::sync::OnceLock<gts_obs::Histogram> = std::sync::OnceLock::new();
    HIST.get_or_init(|| {
        gts_obs::global().histogram(
            "gts_sat_saturate_micros",
            "Latency of the canonical-model fixpoint work of satisfiability decides",
            &[],
        )
    })
    .record(start.elapsed().as_micros() as u64);
    out
}

/// The shared search.
fn decide_in(fix: &mut HornFixpoint, query: &C2rpq, budget: &Budget) -> Verdict {
    assert!(
        query.is_boolean(),
        "the satisfiability engine takes Boolean queries; close the query first"
    );
    // Candidate cores chased so far, across components, against
    // `budget.max_cores`.
    let mut cores_tried = 0;
    let mut cores: Vec<Graph> = Vec::new();
    let mut unknown: Option<UnknownReason> = None;
    for (vars, atom_idxs) in query.connected_components() {
        match solve_component(query, &vars, &atom_idxs, budget, fix, &mut cores_tried) {
            CompResult::Sat(g) => cores.push(g),
            CompResult::Unsat => return Verdict::Unsat,
            CompResult::Unknown(r) => unknown = Some(unknown.unwrap_or(r)),
        }
    }
    if let Some(r) = unknown {
        return Verdict::Unknown(r);
    }
    Verdict::Sat(Witness { core: disjoint_union(&cores) })
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

fn solve_component(
    query: &C2rpq,
    vars: &[Var],
    atom_idxs: &[usize],
    budget: &Budget,
    fix: &mut HornFixpoint,
    cores_tried: &mut usize,
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
    // whose language is one edge-free word (the shape of a seed label's
    // satisfiability question). The general machinery would enumerate the
    // one word, build a one-node core, chase it and settle it; all of that
    // is the premise's canonical root, memoized in the fixpoint.
    if let [(x, y, a)] = atoms.as_slice() {
        if x == y && vars.len() == 1 {
            if let Some(labels) = node_test_labels(&a.regex) {
                if *cores_tried >= budget.max_cores {
                    return CompResult::Unknown(UnknownReason::CoreBudget);
                }
                *cores_tried += 1;
                return match saturate(|| fix.root(&labels, None)) {
                    Ok(Some(root)) => {
                        let mut g = Graph::new();
                        let n = g.add_node();
                        g.add_label_set(n, fix.u.labels(fix.nodes[root].ty));
                        CompResult::Sat(g)
                    }
                    Ok(None) => CompResult::Unsat,
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
        let nfa = Nfa::from_regex(&a.regex);
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
            let (rev_words, ex) = Nfa::from_regex(&a.regex.reverse())
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
    let mut fixpoint_cap: Option<UnknownReason> = None;
    let mut core_cap_hit = false;
    let mut seen_cores: FxHashSet<Vec<(usize, usize, &[AtomSym])>> = FxHashSet::default();
    let sat = search(
        vars.len(),
        &atoms,
        &word_lists,
        budget,
        fix,
        cores_tried,
        &mut chosen,
        0,
        budget.max_total_edge_syms,
        &mut fixpoint_cap,
        &mut core_cap_hit,
        &mut seen_cores,
    );
    if let Some(core) = sat {
        return CompResult::Sat(core);
    }
    if all_exhaustive && !total_pruned && !core_cap_hit && fixpoint_cap.is_none() {
        return CompResult::Unsat;
    }
    if let Some(r) = fixpoint_cap {
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
            anchor_symbols(&Nfa::from_regex(&a.regex), false)
        } else if loose_x {
            anchor_symbols(&Nfa::from_regex(&a.regex.reverse()), true)
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
    let mut fixpoint_cap2: Option<UnknownReason> = None;
    let mut core_cap_hit2 = false;
    let mut seen_cores2: FxHashSet<Vec<(usize, usize, &[AtomSym])>> = FxHashSet::default();
    let spurious_sat = search(
        vars.len(),
        &atoms,
        &weak_lists,
        budget,
        fix,
        cores_tried,
        &mut chosen,
        0,
        budget.max_total_edge_syms,
        &mut fixpoint_cap2,
        &mut core_cap_hit2,
        &mut seen_cores2,
    );
    if spurious_sat.is_none() && fixpoint_cap2.is_none() && !core_cap_hit2 {
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
    if atoms.iter().any(|(_, _, a)| !Nfa::from_regex(&a.regex).language_finite()) {
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
    num_vars: usize,
    atoms: &[(usize, usize, &gts_query::Atom)],
    word_lists: &'w [Vec<Vec<AtomSym>>],
    budget: &Budget,
    fix: &mut HornFixpoint,
    cores_tried: &mut usize,
    chosen: &mut Vec<usize>,
    atom_idx: usize,
    remaining_edges: usize,
    fixpoint_cap: &mut Option<UnknownReason>,
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
            return None;
        }
        if *cores_tried >= budget.max_cores {
            *core_cap_hit = true;
            return None;
        }
        *cores_tried += 1;
        return try_core(num_vars, atoms, word_lists, chosen, fix, fixpoint_cap);
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
            num_vars,
            atoms,
            word_lists,
            budget,
            fix,
            cores_tried,
            chosen,
            atom_idx + 1,
            remaining_edges - el,
            fixpoint_cap,
            core_cap_hit,
            seen_cores,
        ) {
            return Some(g);
        }
    }
    None
}

/// Builds the core of Theorem 6.3's proof for one word combination and
/// grows it to a model's core: chase it, settle every node in the
/// fixpoint against its core neighbours, add what the settling forced to
/// the core, and repeat until nothing grows. `None` when the core has no
/// model, or when the fixpoint hit its cap (then `fixpoint_cap` is set).
fn try_core(
    num_vars: usize,
    atoms: &[(usize, usize, &gts_query::Atom)],
    word_lists: &[Vec<Vec<AtomSym>>],
    chosen: &[usize],
    fix: &mut HornFixpoint,
    fixpoint_cap: &mut Option<UnknownReason>,
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
    loop {
        core.chase_in(&mut fix.u).ok()?;
        match saturate(|| settle_core(&mut core, fix)) {
            Ok(Some(false)) => break,
            Ok(Some(true)) => {}
            Ok(None) => return None, // a node no model has
            Err(r) => {
                *fixpoint_cap = Some(r);
                return None;
            }
        }
    }
    let (g, _) = core.to_graph();
    Some(g)
}

/// Settles every node of a chased core in the fixpoint, with its core
/// neighbours as its fixed neighbours, and adds the labels that forced on
/// the node and on its neighbours. `Some(grew)`, or `None` when some node
/// dies.
fn settle_core(core: &mut Core, fix: &mut HornFixpoint) -> Result<Option<bool>, UnknownReason> {
    let mut grew = false;
    for root in core.roots() {
        // A chased core's labels are closed and consistent; a node that
        // grew earlier in this pass closes anew.
        let Some(ty) = fix.u.close(core.labels_of(root)) else { return Ok(None) };
        let incident = core.incident(root);
        let mut neighbours: Vec<(EdgeSym, TypeId)> = Vec::with_capacity(incident.len());
        for &(sym, nbr) in &incident {
            let Some(t) = fix.u.close(core.labels_of(nbr)) else { return Ok(None) };
            neighbours.push((sym, t));
        }
        let Some((grown, up)) = fix.settle(ty, &neighbours)? else { return Ok(None) };
        grew |= core.add_labels(root, fix.u.labels(grown));
        for (&(_, nbr), forced) in incident.iter().zip(&up) {
            grew |= core.add_labels(nbr, forced);
        }
    }
    Ok(Some(grew))
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
    fn duplicate_atoms_dedupe_cores() {
        // Two identical atoms: the (w, w') and (w', w) combinations build
        // the same core, and skipping the mirror keeps the verdict.
        let t = HornTbox::new();
        let re = Regex::edge(EdgeLabel(0)).or(Regex::edge(EdgeLabel(1)));
        let q = bool_query(
            vec![
                Atom { x: Var(0), y: Var(1), regex: re.clone() },
                Atom { x: Var(0), y: Var(1), regex: re },
            ],
            2,
        );
        assert!(decide(&t, &q, &Budget::default()).is_sat());
    }

    #[test]
    fn cached_decide_matches_fresh_decide() {
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
        let mut fix = HornFixpoint::new(TypeUniverse::new(&t), &budget);
        let mut nodes = Vec::new();
        for _ in 0..2 {
            // Twice: the second pass runs fully warm.
            for q in &queries {
                let fresh = decide(&t, q, &budget);
                let warm = decide_in_ctx(&mut fix, q, &budget);
                assert_eq!(
                    std::mem::discriminant(&fresh),
                    std::mem::discriminant(&warm),
                    "in-context verdict diverged on {q:?}"
                );
            }
            nodes.push(fix.nodes.len());
        }
        assert_eq!(nodes[0], nodes[1], "the warm pass built new fixpoint nodes");
    }

    /// `⊤ ⊑ A, A ⊑ ∃r.(B⊓C), A⊓C ⊑ ∃r⁻.(A⊓C), A⊓C ⊑ ∃≤1 r.(A⊓C)` has the
    /// one-node model `{A, B, C}` with an `r`-loop. The `∃r⁻`-witness of
    /// the `{A, B, C}`-child meets the child's at-most CI together with
    /// the child's own `∃r`-witness, so that witness is the `∃r⁻`-witness,
    /// which takes `B`: the engine must not refute `∃x.A(x)`, whether it
    /// asks the premise's canonical root or settles a one-edge core.
    #[test]
    fn a_witness_merges_into_a_neighbour_that_grows() {
        let r = sym(0);
        let [a, b, c] = [0, 1, 2];
        let mut t = HornTbox::new();
        t.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: NodeLabel(a) });
        t.push(HornCi::Exists { lhs: set(&[a]), role: r, rhs: set(&[b, c]) });
        t.push(HornCi::Exists { lhs: set(&[a, c]), role: r.inv(), rhs: set(&[a, c]) });
        t.push(HornCi::AtMostOne { lhs: set(&[a, c]), role: r, rhs: set(&[a, c]) });
        let node =
            bool_query(vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(NodeLabel(a)) }], 1);
        match decide(&t, &node, &Budget::default()) {
            Verdict::Sat(w) => assert!(w.core.labels(NodeId(0)).contains(a)),
            other => panic!("expected Sat, got {other:?}"),
        }
        // The same model through a core: x -r-> y with C on y.
        let edge = bool_query(
            vec![Atom {
                x: Var(0),
                y: Var(1),
                regex: Regex::edge(EdgeLabel(0)).then(Regex::node(NodeLabel(c))),
            }],
            2,
        );
        match decide(&t, &edge, &Budget::default()) {
            Verdict::Sat(w) => assert!(universal_constraints_hold(&t, &w.core)),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    /// A two-node core from the query `(A·r)(x, y)` under `A ⊑ ∃r.B` and
    /// `A ⊑ ∃≤1 r.⊤`: the `∃r.B`-witness of `x` is its core neighbour
    /// `y`, which takes `B` and then pushes `G` back onto `x` through
    /// `B ⊑ ∀r⁻.G`. With `B ⊓ C ⊑ ⊥` and `C` on `y` the merge refutes the
    /// core, and the refutation is certified.
    #[test]
    fn a_witness_merges_into_a_core_neighbour() {
        let r = sym(0);
        let [a, b, c, g] = [0, 1, 2, 3];
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[a]), role: r, rhs: set(&[b]) });
        t.push(HornCi::AtMostOne { lhs: set(&[a]), role: r, rhs: LabelSet::new() });
        t.push(HornCi::AllValues { lhs: set(&[b]), role: r.inv(), rhs: set(&[g]) });
        let step = Regex::node(NodeLabel(a)).then(Regex::edge(EdgeLabel(0)));
        let q = bool_query(vec![Atom { x: Var(0), y: Var(1), regex: step.clone() }], 2);
        match decide(&t, &q, &Budget::default()) {
            Verdict::Sat(w) => {
                assert_eq!((w.core.num_nodes(), w.core.num_edges()), (2, 1));
                let (x, _, y) = w.core.edges().next().unwrap();
                assert!(w.core.labels(y).contains(b), "y took the witness's target");
                assert!(w.core.labels(x).contains(g), "and x grew by y's push");
                assert!(universal_constraints_hold(&t, &w.core));
            }
            other => panic!("expected Sat, got {other:?}"),
        }
        t.push(HornCi::Bottom { lhs: set(&[b, c]) });
        let q = bool_query(
            vec![Atom { x: Var(0), y: Var(1), regex: step.then(Regex::node(NodeLabel(c))) }],
            2,
        );
        assert!(decide(&t, &q, &Budget::default()).is_unsat());
    }
}
