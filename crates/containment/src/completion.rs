//! Completion of a Horn TBox by exhaustive finmod-cycle reversal
//! (Theorem 5.4 [Ibáñez-García et al. 2014], Lemmas D.6/D.7, Lemma 5.7).
//!
//! A *finmod cycle* is a sequence `K1, R1, …, K(n-1), R(n-1), Kn = K1`
//! with `T ⊨ Ki ⊑ ∃Ri.K(i+1)` and `T ⊨ K(i+1) ⊑ ∃≤1 Ri⁻.Ki`; in finite
//! models such a cycle of successors must close up, so the reversed
//! inclusions `K(i+1) ⊑ ∃Ri⁻.Ki` and `Ki ⊑ ∃≤1 Ri.K(i+1)` hold in every
//! finite model. The completion `T*` adds them exhaustively, after which
//! finite satisfiability modulo `T` coincides with unrestricted
//! satisfiability modulo `T*` — the bridge that lets the engine reason
//! over (possibly infinite) sparse models.
//!
//! Lemma D.7 ranges over *all* conjunctions of concept names; we instead
//! maintain a forward-closed universe of *reachable* types (seeded with the
//! schema labels, closed under requirement children and edge enrichment),
//! which is where the finmod cycles of the S-driven TBoxes of this
//! pipeline live (Lemma D.6). The `complete` flag of the result reports
//! whether any cap was hit; callers must downgrade certification when it
//! is false.
//!
//! Each round runs in three layers, each in its own span so a trace shows
//! which one moved:
//!
//! * `type_universe` builds the round's forward-closed types;
//! * `entail_sweep` asks `T ⊨ K ⊑ ∃R.K'`, then `T ⊨ K' ⊑ ∃≤1 R⁻.K`, for
//!   every `|types|² × |roles|` pair. One [`HornFixpoint`] over the
//!   round's universe answers all of them from canonical models, so no
//!   question costs an engine decide; a question the fixpoint cannot
//!   settle leaves the round incomplete;
//! * `cycle_scan` finds a finmod cycle missing its reversal.
//!
//! A completion runs over a prepared base ([`complete_over`]): the
//! containment pipeline's `T̂_{S°}`, indexed once per `S°`
//! ([`crate::SchemaTboxes`]), with the CIs beyond it — the negation
//! choice, the auxiliary rules, the reversals — as an overlay. Each round
//! indexes and copies only the overlay, and reads as the round over the
//! base's CIs followed by the overlay's. [`complete`] and
//! [`complete_with`] run the same code over an empty base.
//!
//! The round that converges indexed exactly `T*`, so the [`Completion`]
//! hands its callers an empty universe over that index
//! ([`Completion::universe`]); only a completion ended by `max_rounds`
//! indexes `T*` (its overlay) anew. The sweep can fan out over
//! [`gts_obs::par`] shards, one contiguous run of premises each, merged
//! in order; every answer is exact, so the result never depends on the
//! shard count. This module memoizes nothing; the containment pipeline
//! asks for its completions through [`PreparedTbox::complete`], which
//! keeps each `T*` overlay beside its base, keyed by the input overlay,
//! the seed labels and the options that bound the run, and answers a
//! repeat from it. `T¬Q` depends on `Q°` alone, so the many `P` of one
//! question against one `Q°` complete it once.

use crate::prepared::PreparedTbox;
use gts_dl::{HornCi, HornTbox};
use gts_graph::{EdgeSym, FxHashMap, FxHashSet, LabelSet};
use gts_sat::{Budget, HornFixpoint, TypeUniverse, UnknownReason};

/// Configuration caps for the completion computation.
#[derive(Clone, Debug)]
pub struct CompletionConfig {
    /// Maximum number of node types in the cycle-search graph.
    pub max_nodes: usize,
    /// Maximum number of reversal rounds.
    pub max_rounds: usize,
}

impl Default for CompletionConfig {
    fn default() -> Self {
        CompletionConfig { max_nodes: 512, max_rounds: 256 }
    }
}

/// Result of [`complete`].
#[derive(Clone, Debug)]
pub struct Completion {
    /// The CIs of the completed TBox `T*` beyond the base, in CI order:
    /// the overlay and the reversals added to it. Over an empty base, as
    /// [`complete`] and [`complete_with`] run, this is all of `T*`
    /// (⊇ the input TBox).
    pub tbox: HornTbox,
    /// Number of concept inclusions added by reversals.
    pub added: usize,
    /// `false` if a cap was hit or the sweep left a question unsettled —
    /// `T*` may then be missing reversals and answers derived from it are
    /// uncertified.
    pub complete: bool,
    /// An empty type universe over `T*` for the caller's decides. When
    /// the rounds converge it shares the last round's rule index and rule
    /// lists, so `T*` is indexed once; only when `max_rounds` ends the
    /// completion first is `T*` indexed anew.
    pub universe: TypeUniverse,
}

/// Computes the completion `T*` of `tbox`. `schema_labels` seeds the type
/// universe (Γ_S of the S-driven pipeline).
pub fn complete(
    tbox: &HornTbox,
    schema_labels: &LabelSet,
    budget: &Budget,
    cfg: &CompletionConfig,
) -> Completion {
    complete_with(tbox, schema_labels, budget, cfg, 1)
}

/// [`complete`] with a shard count for the entailment sweep (`0` = one
/// shard per core once the sweep has 64 pairs per shard, `1` =
/// sequential, `n` = `n` shards, at most one per 64 pairs): the
/// completion of `tbox` over an empty base ([`complete_over`]).
pub fn complete_with(
    tbox: &HornTbox,
    schema_labels: &LabelSet,
    budget: &Budget,
    cfg: &CompletionConfig,
    threads: usize,
) -> Completion {
    complete_over(&PreparedTbox::default(), tbox.clone(), schema_labels, budget, cfg, threads)
}

/// The completion of the base's CIs followed by `overlay`'s, which must
/// hold no CI of the base ([`PreparedTbox::overlay`]). Each round indexes
/// and copies the overlay only; the result's `tbox` is the overlay with
/// the reversals added. Runs in a `completion` span and records its
/// latency in `gts_containment_completion_micros`.
pub fn complete_over(
    base: &PreparedTbox,
    overlay: HornTbox,
    schema_labels: &LabelSet,
    budget: &Budget,
    cfg: &CompletionConfig,
    threads: usize,
) -> Completion {
    let _span = gts_obs::span("completion");
    let start = gts_obs::enabled().then(std::time::Instant::now);
    let c = complete_inner(base, overlay, schema_labels, budget, cfg, threads);
    if let Some(t0) = start {
        static HIST: std::sync::OnceLock<gts_obs::Histogram> = std::sync::OnceLock::new();
        HIST.get_or_init(|| {
            gts_obs::global().histogram(
                "gts_containment_completion_micros",
                "Latency of TBox completion computations",
                &[],
            )
        })
        .record(t0.elapsed().as_micros() as u64);
    }
    c
}

/// A completion round as [`record_rounds`] returns it.
#[doc(hidden)]
#[derive(Clone, Debug)]
pub struct Round {
    /// The round's TBox: the base's CIs, then the overlay's.
    pub tbox: HornTbox,
    /// How many leading CIs of `tbox` are the base's.
    pub base: usize,
    /// The labels the completion seeds its type universe with.
    pub schema_labels: LabelSet,
    /// The round's number in its completion, from 0: round 0's TBox is
    /// the completion's input.
    pub index: usize,
    /// The types of the round's cycle-search graph.
    pub nodes: Vec<LabelSet>,
}

thread_local! {
    /// The rounds [`record_rounds`] is collecting on this thread, if any.
    static ROUNDS: std::cell::RefCell<Option<Vec<Round>>> = const { std::cell::RefCell::new(None) };
}

/// Runs `body` and returns, with its result, every completion round it
/// ran on this thread. This lets a test re-ask each round's sweep
/// questions another way.
#[doc(hidden)]
pub fn record_rounds<R>(body: impl FnOnce() -> R) -> (R, Vec<Round>) {
    let outer = ROUNDS.replace(Some(Vec::new()));
    let out = body();
    (out, ROUNDS.replace(outer).unwrap_or_default())
}

fn complete_inner(
    base: &PreparedTbox,
    mut t: HornTbox,
    schema_labels: &LabelSet,
    budget: &Budget,
    cfg: &CompletionConfig,
    threads: usize,
) -> Completion {
    let mut added = 0usize;
    let mut complete = true;
    // H_T edges certified in earlier rounds, by label sets. Rounds only
    // add CIs and entailment is monotone in the TBox, so positive edges
    // carry forward and need no re-asking.
    let mut known_edges: FxHashSet<(LabelSet, EdgeSym, LabelSet)> = FxHashSet::default();

    for round in 0..cfg.max_rounds {
        let roles = base.roles(&t);
        let (universe, nodes, universe_complete) =
            type_universe(base, &t, &roles, schema_labels, cfg.max_nodes);
        complete &= universe_complete;
        ROUNDS.with_borrow_mut(|rounds| {
            if let Some(rounds) = rounds {
                rounds.push(Round {
                    tbox: base.merged(&t),
                    base: base.len(),
                    schema_labels: schema_labels.clone(),
                    index: round,
                    nodes: nodes.clone(),
                });
            }
        });
        // The handoff should this round converge: `t` is then `T*`.
        let t_star_universe = universe.fresh();

        // Edge relation of the cycle-search graph H_T.
        let (edges, sweep_complete) =
            entail_sweep(universe, &nodes, &roles, budget, threads, &known_edges);
        complete &= sweep_complete;
        for &(i, role, j) in &edges {
            known_edges.insert((nodes[i].clone(), role, nodes[j].clone()));
        }

        let new_cis = cycle_scan(base, &t, &nodes, &edges);
        if new_cis.is_empty() {
            return Completion { tbox: t, added, complete, universe: t_star_universe };
        }
        for ci in new_cis {
            if t.push(ci) {
                added += 1;
            }
        }
    }
    let universe = base.universe(&t);
    Completion { tbox: t, added, complete: false, universe }
}

/// The reversals of the first finmod cycle of H_T (`edges` over `nodes`)
/// that the base and its overlay `t` are missing; empty when every cycle
/// is reversed.
fn cycle_scan(
    base: &PreparedTbox,
    t: &HornTbox,
    nodes: &[LabelSet],
    edges: &[(usize, EdgeSym, usize)],
) -> Vec<HornCi> {
    let _span = gts_obs::span("cycle_scan");
    let edge_set: FxHashSet<(usize, EdgeSym, usize)> = edges.iter().copied().collect();
    let mut out: Vec<Vec<(EdgeSym, usize)>> = vec![Vec::new(); nodes.len()];
    for &(a, r, b) in edges {
        out[a].push((r, b));
    }
    let mut new_cis: Vec<HornCi> = Vec::new();
    for &(i, role, j) in edges {
        if edge_set.contains(&(j, role.inv(), i)) {
            continue; // already reversible
        }
        // Path j ⇝ i through H_T (empty path allowed when i == j).
        if let Some(path) = find_path(&out, j, i) {
            let mut cycle: Vec<(usize, EdgeSym, usize)> = vec![(i, role, j)];
            cycle.extend(path);
            for (a, r, b) in cycle {
                let rev =
                    HornCi::Exists { lhs: nodes[b].clone(), role: r.inv(), rhs: nodes[a].clone() };
                let cap =
                    HornCi::AtMostOne { lhs: nodes[a].clone(), role: r, rhs: nodes[b].clone() };
                for ci in [rev, cap] {
                    if !base.holds(&ci) && !t.cis.contains(&ci) {
                        new_cis.push(ci);
                    }
                }
            }
            if !new_cis.is_empty() {
                break;
            }
        }
    }
    new_cis
}

/// Evaluates every `(i, role, j)` pair of the cycle-search graph through
/// one [`HornFixpoint`] over `universe` (the round's, over its TBox), and
/// returns the edges in `(i, role, j)` order with `false` when a question
/// went unsettled. Parallel shards take contiguous runs of premises `i`,
/// each on a clone of the universe, and are merged in order.
fn entail_sweep(
    universe: TypeUniverse,
    nodes: &[LabelSet],
    roles: &[EdgeSym],
    budget: &Budget,
    threads: usize,
    known_edges: &FxHashSet<(LabelSet, EdgeSym, LabelSet)>,
) -> (Vec<(usize, EdgeSym, usize)>, bool) {
    let _span = gts_obs::span("entail_sweep");
    // Roles with no ∃-CI can never carry an H_T edge: the canonical model
    // of a consistent premise has no successor over them, and the
    // universe's types are all consistent closures (an unsatisfiable one
    // only misses vacuous reversals). Skip them wholesale.
    let roles: Vec<EdgeSym> =
        roles.iter().copied().filter(|&r| universe.exists_on(r).next().is_some()).collect();
    // Map the carried-over edges to current node indices once (label sets
    // shift indices between rounds), so per-pair checks are index lookups.
    let known_idx: FxHashSet<(usize, EdgeSym, usize)> = if known_edges.is_empty() {
        FxHashSet::default()
    } else {
        let node_idx: FxHashMap<&LabelSet, usize> =
            nodes.iter().enumerate().map(|(i, s)| (s, i)).collect();
        known_edges
            .iter()
            .filter_map(|(a, r, b)| Some((*node_idx.get(a)?, *r, *node_idx.get(b)?)))
            .collect()
    };
    // The edges out of premises `rows`, in order, and whether every
    // question was settled.
    let sweep_rows = |universe: TypeUniverse, rows: std::ops::Range<usize>| {
        let mut fixpoint = HornFixpoint::new(universe, budget);
        let mut edges = Vec::new();
        let mut complete = true;
        for i in rows {
            let successors = settled(|| fixpoint.successors(&nodes[i]));
            complete &= successors.is_ok();
            for &role in &roles {
                for (j, kp) in nodes.iter().enumerate() {
                    let edge = known_idx.contains(&(i, role, j))
                        || successors.as_ref().is_ok_and(|s| s.cover(role, kp))
                            && settled(|| fixpoint.entails_at_most_one(kp, role.inv(), &nodes[i]))
                                .unwrap_or_else(|_| {
                                    complete = false;
                                    false
                                });
                    if edge {
                        edges.push((i, role, j));
                    }
                }
            }
        }
        (edges, complete)
    };
    // Below this many pairs per shard a shard's own fixpoint costs more
    // than the questions it takes over.
    const MIN_PAIRS_PER_WORKER: usize = 64;
    let pairs = nodes.len() * roles.len() * nodes.len();
    let shards = gts_obs::par::shards(threads, || pairs >= 2 * MIN_PAIRS_PER_WORKER)
        .clamp(1, (pairs / MIN_PAIRS_PER_WORKER).clamp(1, nodes.len().max(1)));
    if shards <= 1 {
        return sweep_rows(universe, 0..nodes.len());
    }
    let chunk = nodes.len().div_ceil(shards);
    let runs: Vec<std::ops::Range<usize>> =
        (0..nodes.len()).step_by(chunk).map(|lo| lo..(lo + chunk).min(nodes.len())).collect();
    let mut edges = Vec::new();
    let mut complete = true;
    for (run_edges, run_complete) in
        gts_obs::par::map(runs, |rows| sweep_rows(universe.clone(), rows))
    {
        edges.extend(run_edges);
        complete &= run_complete;
    }
    (edges, complete)
}

/// Asks the sweep's fixpoint one question. An unsettled one is counted in
/// `gts_containment_probe_micros`, with the time it took to give up (none
/// once the fixpoint is exhausted).
fn settled<T>(ask: impl FnOnce() -> Result<T, UnknownReason>) -> Result<T, UnknownReason> {
    let t0 = gts_obs::enabled().then(std::time::Instant::now);
    let out = ask();
    if out.is_err() {
        static HIST: std::sync::OnceLock<gts_obs::Histogram> = std::sync::OnceLock::new();
        HIST.get_or_init(|| {
            gts_obs::global().histogram(
                "gts_containment_probe_micros",
                "Completion entailment questions the canonical-model fixpoint left unsettled",
                &[],
            )
        })
        .record(t0.map_or(0, |t0| t0.elapsed().as_micros() as u64));
    }
    out
}

/// The forward-closed type universe: closures of schema-label singletons,
/// closed under requirement children and edge enrichment. All rule
/// applications run against a memoizing `TypeUniverse` over the base and
/// its overlay `t` (the construction re-closes and re-propagates the same
/// sets many times), returned with its nodes for the round's entailment
/// sweep. `roles` are the roles of the base and `t`.
fn type_universe(
    base: &PreparedTbox,
    t: &HornTbox,
    roles: &[EdgeSym],
    schema_labels: &LabelSet,
    cap: usize,
) -> (TypeUniverse, Vec<LabelSet>, bool) {
    let _span = gts_obs::span("type_universe");
    let mut u = base.universe(t);
    let mut seen: FxHashMap<LabelSet, ()> = FxHashMap::default();
    let mut nodes: Vec<LabelSet> = Vec::new();
    let push = |set: Option<gts_sat::TypeId>,
                u: &TypeUniverse,
                nodes: &mut Vec<LabelSet>,
                seen: &mut FxHashMap<LabelSet, ()>| {
        if let Some(tid) = set {
            let s = u.labels(tid);
            if !seen.contains_key(s) {
                seen.insert(s.clone(), ());
                nodes.push(s.clone());
            }
        }
    };
    let top = u.close(&LabelSet::new());
    push(top, &u, &mut nodes, &mut seen);
    for l in schema_labels.iter() {
        let c = u.close(&LabelSet::singleton(l));
        push(c, &u, &mut nodes, &mut seen);
    }
    // Also seed with lhs/rhs of existential and at-most CIs.
    for seed in base.seeds(t) {
        let c = u.close(seed);
        push(c, &u, &mut nodes, &mut seen);
    }
    let mut idx = 0;
    let mut complete = true;
    while idx < nodes.len() {
        if nodes.len() > cap {
            complete = false;
            break;
        }
        let tau = nodes[idx].clone();
        idx += 1;
        // Requirement children.
        let tau_id = u.close(&tau).expect("universe nodes are consistent closures");
        let reqs = u.requirements_of(tau_id);
        for (role, kp) in reqs.iter() {
            let mut seed = (*u.propagate_set(&tau, *role)).clone();
            seed.union_with(kp);
            let c = u.close(&seed);
            push(c, &u, &mut nodes, &mut seen);
        }
        // Edge enrichment: a τ-node pointing at a τ'-node pushes labels.
        for &role in roles {
            let pushset = u.propagate_set(&tau, role);
            if pushset.is_empty() {
                continue;
            }
            // `nodes` grows inside the loop; `0..n` visits the targets present
            // when it starts, as a snapshot would, without copying them.
            let n = nodes.len();
            for k in 0..n {
                if !u.edge_forbidden(&tau, role, &nodes[k]) {
                    let c = u.close(&nodes[k].union(&pushset));
                    push(c, &u, &mut nodes, &mut seen);
                }
            }
        }
    }
    (u, nodes, complete)
}

/// BFS path from `from` to `to` over the out-edges `out` of each node, in
/// edge-list order; returns the edge sequence (empty when `from == to`).
fn find_path(
    out: &[Vec<(EdgeSym, usize)>],
    from: usize,
    to: usize,
) -> Option<Vec<(usize, EdgeSym, usize)>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut prev: Vec<Option<(usize, EdgeSym, usize)>> = vec![None; out.len()];
    let mut visited = vec![false; out.len()];
    visited[from] = true;
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(cur) = queue.pop_front() {
        for &(r, b) in &out[cur] {
            if !visited[b] {
                visited[b] = true;
                prev[b] = Some((cur, r, b));
                if b == to {
                    let mut path = Vec::new();
                    let mut node = to;
                    while node != from {
                        let step = prev[node].expect("path reconstruction");
                        path.push(step);
                        node = step.0;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(b);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::{EdgeLabel, NodeLabel, Vocab};

    fn set(labels: &[u32]) -> LabelSet {
        LabelSet::from_iter(labels.iter().copied())
    }
    fn sym(i: u32) -> EdgeSym {
        EdgeSym::fwd(EdgeLabel(i))
    }

    /// Example 5.3/5.5: T_S = {⊤⊑A, A⊑∃s.A, A⊑∃≤1 s⁻.A} has the finmod
    /// cycle A,s,A; completion adds A⊑∃s⁻.A and A⊑∃≤1 s.A.
    #[test]
    fn example_5_3_self_cycle_reversal() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let _s = v.edge_label("s");
        let mut t = HornTbox::new();
        t.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: a });
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[0]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0).inv(), rhs: set(&[0]) });
        let result = complete(&t, &set(&[0]), &Budget::default(), &CompletionConfig::default());
        assert!(result.complete);
        assert!(result.added >= 2);
        assert!(result.tbox.cis.contains(&HornCi::Exists {
            lhs: set(&[0]),
            role: sym(0).inv(),
            rhs: set(&[0]),
        }));
        assert!(result.tbox.cis.contains(&HornCi::AtMostOne {
            lhs: set(&[0]),
            role: sym(0),
            rhs: set(&[0]),
        }));
    }

    /// A two-step cycle A →r B →s A (with the matching inverse-functionality
    /// constraints) reverses both steps.
    #[test]
    fn two_step_cycle_reversal() {
        let mut v = Vocab::new();
        let _a = v.node_label("A");
        let _b = v.node_label("B");
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::AtMostOne { lhs: set(&[1]), role: sym(0).inv(), rhs: set(&[0]) });
        t.push(HornCi::Exists { lhs: set(&[1]), role: sym(1), rhs: set(&[0]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(1).inv(), rhs: set(&[1]) });
        let result = complete(&t, &set(&[0, 1]), &Budget::default(), &CompletionConfig::default());
        assert!(result.complete);
        assert!(result.tbox.cis.contains(&HornCi::Exists {
            lhs: set(&[1]),
            role: sym(0).inv(),
            rhs: set(&[0]),
        }));
        assert!(result.tbox.cis.contains(&HornCi::Exists {
            lhs: set(&[0]),
            role: sym(1).inv(),
            rhs: set(&[1]),
        }));
    }

    /// Without the at-most constraint there is no finmod cycle and nothing
    /// is added.
    #[test]
    fn no_cycle_without_functionality() {
        let mut v = Vocab::new();
        let _a = v.node_label("A");
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[0]) });
        let result = complete(&t, &set(&[0]), &Budget::default(), &CompletionConfig::default());
        assert!(result.complete);
        assert_eq!(result.added, 0);
        assert_eq!(result.tbox, t);
    }

    /// The completion is idempotent: completing T* adds nothing.
    #[test]
    fn completion_is_idempotent() {
        let mut v = Vocab::new();
        let _a = v.node_label("A");
        let mut t = HornTbox::new();
        t.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: NodeLabel(0) });
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[0]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0).inv(), rhs: set(&[0]) });
        let once = complete(&t, &set(&[0]), &Budget::default(), &CompletionConfig::default());
        let twice =
            complete(&once.tbox, &set(&[0]), &Budget::default(), &CompletionConfig::default());
        assert_eq!(twice.added, 0);
        assert_eq!(once.tbox, twice.tbox);
    }

    #[test]
    fn type_universe_discovers_propagated_types() {
        // ⊤⊑∀r.B: the type {B} is reachable by edge enrichment.
        let mut t = HornTbox::new();
        t.push(HornCi::AllValues { lhs: LabelSet::new(), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: LabelSet::new() });
        let base = PreparedTbox::default();
        let roles = t.used_roles();
        let (_, nodes, complete_flag) = type_universe(&base, &t, &roles, &set(&[0]), 64);
        assert!(complete_flag);
        assert!(nodes.contains(&set(&[1])));
    }

    /// Multi-threaded completion returns byte-identical results.
    #[test]
    fn cached_and_threaded_completions_agree() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let _s = v.edge_label("s");
        let mut t = HornTbox::new();
        t.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: a });
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[0]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0).inv(), rhs: set(&[0]) });
        let budget = Budget::default();
        let cfg = CompletionConfig::default();
        let plain = complete(&t, &set(&[0]), &budget, &cfg);
        let threaded = complete_with(&t, &set(&[0]), &budget, &cfg, 4);
        assert_eq!(plain.tbox, threaded.tbox);
        assert_eq!(plain.complete, threaded.complete);
    }
}
