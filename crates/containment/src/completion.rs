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
//! The `|types|² × |roles|` entailment sweep of each round is the dominant
//! cost of a *cold* containment analysis. The sweep therefore (a) reasons
//! through the one type universe its round built, and gives each extended
//! TBox one solver context that every probe over it shares and that is
//! dropped with the sweep — rounds add CIs, so no extended TBox recurs —
//! and (b) can fan out over worker threads (chunked by pair index, merged
//! in order, so the result matches the sequential sweep whenever the
//! engine budgets don't bind — warm solver contexts can resolve
//! budget-*bound* verdicts a cold context would report `Unknown`, see
//! `gts_sat::SolverCache`). [`complete_with`] memoizes whole completions in
//! the caller's [`OracleCache`].

use crate::cache::OracleCache;
use crate::entail::{EntailCtx, ExistsFast};
use gts_dl::{HornCi, HornTbox};
use gts_graph::{EdgeSym, FxHashMap, FxHashSet, LabelSet, NodeLabel};
use gts_sat::{Budget, TypeUniverse};

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
    /// The completed TBox `T*` (⊇ the input TBox).
    pub tbox: HornTbox,
    /// Number of concept inclusions added by reversals.
    pub added: usize,
    /// `false` if a cap or an engine budget was hit — `T*` may then be
    /// missing reversals and answers derived from it are uncertified.
    pub complete: bool,
}

/// Computes the completion `T*` of `tbox`. `schema_labels` seeds the type
/// universe (Γ_S of the S-driven pipeline); `fresh` are two concept names
/// unused in the TBox (for the entailment encodings of Corollary E.7).
pub fn complete(
    tbox: &HornTbox,
    schema_labels: &LabelSet,
    fresh: (NodeLabel, NodeLabel),
    budget: &Budget,
    cfg: &CompletionConfig,
) -> Completion {
    complete_with(tbox, schema_labels, fresh, budget, cfg, None, 1)
}

/// [`complete`] with a shared [`OracleCache`] (its completion memo) and a
/// worker-thread count for the entailment sweep (`0` = available
/// parallelism, `1` = sequential).
pub fn complete_with(
    tbox: &HornTbox,
    schema_labels: &LabelSet,
    fresh: (NodeLabel, NodeLabel),
    budget: &Budget,
    cfg: &CompletionConfig,
    cache: Option<&OracleCache>,
    threads: usize,
) -> Completion {
    match cache {
        Some(c) => c.completion_or_insert(tbox, schema_labels, fresh, budget, cfg, || {
            complete_inner(tbox, schema_labels, fresh, budget, cfg, threads)
        }),
        None => complete_inner(tbox, schema_labels, fresh, budget, cfg, threads),
    }
}

fn complete_inner(
    tbox: &HornTbox,
    schema_labels: &LabelSet,
    fresh: (NodeLabel, NodeLabel),
    budget: &Budget,
    cfg: &CompletionConfig,
    threads: usize,
) -> Completion {
    let mut t = tbox.clone();
    let mut added = 0usize;
    let mut complete = true;
    // H_T edges certified in earlier rounds, by label sets. Rounds only
    // add CIs and entailment is monotone in the TBox, so positive edges
    // carry forward and need no re-probing.
    let mut known_edges: FxHashSet<(LabelSet, EdgeSym, LabelSet)> = FxHashSet::default();

    for _round in 0..cfg.max_rounds {
        let (universe, nodes, universe_complete) = type_universe(&t, schema_labels, cfg.max_nodes);
        complete &= universe_complete;

        // Edge relation of the cycle-search graph H_T.
        let roles = t.used_roles();
        let (edges, sweep_complete) =
            entail_sweep(universe, &nodes, &roles, fresh, budget, threads, &known_edges);
        complete &= sweep_complete;
        for &(i, role, j) in &edges {
            known_edges.insert((nodes[i].clone(), role, nodes[j].clone()));
        }

        // Find a finmod cycle missing its reversal.
        let edge_set: FxHashSet<(usize, EdgeSym, usize)> = edges.iter().copied().collect();
        let mut new_cis: Vec<HornCi> = Vec::new();
        'scan: for &(i, role, j) in &edges {
            if edge_set.contains(&(j, role.inv(), i)) {
                continue; // already reversible
            }
            // Path j ⇝ i through H_T (empty path allowed when i == j).
            if let Some(path) = find_path(&edges, nodes.len(), j, i) {
                let mut cycle: Vec<(usize, EdgeSym, usize)> = vec![(i, role, j)];
                cycle.extend(path);
                for (a, r, b) in cycle {
                    let rev = HornCi::Exists {
                        lhs: nodes[b].clone(),
                        role: r.inv(),
                        rhs: nodes[a].clone(),
                    };
                    let cap =
                        HornCi::AtMostOne { lhs: nodes[a].clone(), role: r, rhs: nodes[b].clone() };
                    for ci in [rev, cap] {
                        if !t.cis.contains(&ci) {
                            new_cis.push(ci);
                        }
                    }
                }
                if !new_cis.is_empty() {
                    break 'scan;
                }
            }
        }

        if new_cis.is_empty() {
            return Completion { tbox: t, added, complete };
        }
        for ci in new_cis {
            if t.push(ci) {
                added += 1;
            }
        }
    }
    Completion { tbox: t, added, complete: false }
}

/// Evaluates every `(i, role, j)` pair of the cycle-search graph, in pair
/// order, reasoning through `universe` (the round's, over its TBox);
/// parallel workers take contiguous chunks, each on a clone of the
/// universe, and results are merged by index, so the output never depends
/// on the thread count.
fn entail_sweep(
    universe: TypeUniverse,
    nodes: &[LabelSet],
    roles: &[EdgeSym],
    fresh: (NodeLabel, NodeLabel),
    budget: &Budget,
    threads: usize,
    known_edges: &FxHashSet<(LabelSet, EdgeSym, LabelSet)>,
) -> (Vec<(usize, EdgeSym, usize)>, bool) {
    // Roles with no ∃-CI can never carry an H_T edge: `entails_exists` is
    // false for every consistent premise, and the universe's types are all
    // consistent closures. Skip them wholesale.
    let roles: Vec<EdgeSym> = roles
        .iter()
        .copied()
        .filter(|&r| {
            universe
                .tbox()
                .cis
                .iter()
                .any(|ci| matches!(ci, HornCi::Exists { role, .. } if *role == r))
        })
        .collect();
    // Probe order: for each (role, K') group, premises K by *decreasing*
    // size — entailment is monotone in K, so an engine-certified negative
    // for a large K answers every subset premise from the context's
    // verdict memo without another engine call. The emitted edge list is
    // restored to the canonical (i, role, j) order below, so the probe
    // order never leaks into the completion's cycle scan.
    let mut by_size: Vec<usize> = (0..nodes.len()).collect();
    by_size.sort_by_key(|&i| std::cmp::Reverse(nodes[i].len()));
    let pairs: Vec<(usize, usize, usize)> = (0..roles.len())
        .flat_map(|ri| {
            let by_size = &by_size;
            (0..nodes.len()).flat_map(move |j| by_size.iter().map(move |&i| (i, ri, j)))
        })
        .collect();
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
    let workers = resolve_threads(threads, pairs.len());
    let mut complete = true;
    let mut edges = Vec::new();
    let probe_chunk =
        |universe: TypeUniverse, chunk_pairs: &[(usize, usize, usize)]| -> Vec<(bool, bool)> {
            let ctx = EntailCtx::new(universe, fresh, budget.clone());
            // Compute the per-(K, role) fast-path state once per role the
            // chunk actually touches, so the inner per-pair check is a few
            // subset tests with no hashing — and parallel workers don't each
            // recompute the whole matrix.
            let mut fast: Vec<Option<Vec<ExistsFast>>> = vec![None; roles.len()];
            for &(_, ri, _) in chunk_pairs {
                if fast[ri].is_none() {
                    fast[ri] = Some(nodes.iter().map(|k| ctx.exists_fast(k, roles[ri])).collect());
                }
            }
            chunk_pairs
                .iter()
                .map(|&(i, ri, j)| {
                    let role = roles[ri];
                    if known_idx.contains(&(i, role, j)) {
                        return (true, true);
                    }
                    let Some(fast_row) = &fast[ri] else { unreachable!("computed above") };
                    let fwd = match ctx.entails_exists(&fast_row[i], &nodes[i], role, &nodes[j]) {
                        Ok(b) => b,
                        Err(_) => return (false, false),
                    };
                    if !fwd {
                        return (false, true);
                    }
                    match ctx.entails_at_most_one(&nodes[j], role.inv(), &nodes[i]) {
                        Ok(b) => (b, true),
                        Err(_) => (false, false),
                    }
                })
                .collect()
        };
    let results: Vec<Vec<(bool, bool)>> = if workers <= 1 {
        vec![probe_chunk(universe, &pairs)]
    } else {
        // Contiguous chunks keep the per-worker memos effective (adjacent
        // pairs share their (role, K') group).
        let chunk = pairs.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .chunks(chunk)
                .map(|chunk_pairs| scope.spawn(|| probe_chunk(universe.clone(), chunk_pairs)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("entailment worker panicked")).collect()
        })
    };
    for (&(i, ri, j), (is_edge, certified)) in pairs.iter().zip(results.into_iter().flatten()) {
        complete &= certified;
        if is_edge {
            edges.push((i, ri, j));
        }
    }
    // Canonical order: i, then the role's position in the (filtered) role
    // list, then j — the order the straightforward nested loop would use.
    edges.sort_unstable();
    (edges.into_iter().map(|(i, ri, j)| (i, roles[ri], j)).collect(), complete)
}

/// Resolves a thread-count option against the work size: `0` picks the
/// available parallelism (capped at 8); the result never exceeds the work
/// item count and parallelism is skipped entirely below a minimum batch.
fn resolve_threads(threads: usize, work_items: usize) -> usize {
    const MIN_PAIRS_PER_WORKER: usize = 64;
    let t = match threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8),
        t => t,
    };
    t.clamp(1, (work_items / MIN_PAIRS_PER_WORKER).max(1))
}

/// The forward-closed type universe: closures of schema-label singletons,
/// closed under requirement children and edge enrichment. All rule
/// applications run against a memoizing `TypeUniverse` over `t` (the
/// construction re-closes and re-propagates the same sets many times),
/// returned with its nodes for the round's entailment sweep.
fn type_universe(
    t: &HornTbox,
    schema_labels: &LabelSet,
    cap: usize,
) -> (TypeUniverse, Vec<LabelSet>, bool) {
    let mut u = TypeUniverse::new(t);
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
    for ci in &t.cis {
        if let HornCi::Exists { lhs, rhs, .. } | HornCi::AtMostOne { lhs, rhs, .. } = ci {
            let cl = u.close(lhs);
            push(cl, &u, &mut nodes, &mut seen);
            let cr = u.close(rhs);
            push(cr, &u, &mut nodes, &mut seen);
        }
    }
    let roles = t.used_roles();
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
        for &role in &roles {
            let pushset = u.propagate_set(&tau, role);
            if pushset.is_empty() {
                continue;
            }
            let snapshot: Vec<LabelSet> = nodes.clone();
            for tp in snapshot {
                if !u.edge_forbidden_memo(&tau, role, &tp) {
                    let c = u.close(&tp.union(&pushset));
                    push(c, &u, &mut nodes, &mut seen);
                }
            }
        }
    }
    (u, nodes, complete)
}

/// BFS path from `from` to `to` through the edge list; returns the edge
/// sequence (empty when `from == to`).
fn find_path(
    edges: &[(usize, EdgeSym, usize)],
    num_nodes: usize,
    from: usize,
    to: usize,
) -> Option<Vec<(usize, EdgeSym, usize)>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut prev: Vec<Option<(usize, EdgeSym, usize)>> = vec![None; num_nodes];
    let mut visited = vec![false; num_nodes];
    visited[from] = true;
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(cur) = queue.pop_front() {
        for &(a, r, b) in edges {
            if a == cur && !visited[b] {
                visited[b] = true;
                prev[b] = Some((a, r, b));
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
    use gts_graph::{EdgeLabel, Vocab};

    fn set(labels: &[u32]) -> LabelSet {
        LabelSet::from_iter(labels.iter().copied())
    }
    fn sym(i: u32) -> EdgeSym {
        EdgeSym::fwd(EdgeLabel(i))
    }
    fn fresh(v: &mut Vocab) -> (NodeLabel, NodeLabel) {
        (v.fresh_node_label("B"), v.fresh_node_label("B"))
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
        let result = complete(
            &t,
            &set(&[0]),
            fresh(&mut v),
            &Budget::default(),
            &CompletionConfig::default(),
        );
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
        let result = complete(
            &t,
            &set(&[0, 1]),
            fresh(&mut v),
            &Budget::default(),
            &CompletionConfig::default(),
        );
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
        let result = complete(
            &t,
            &set(&[0]),
            fresh(&mut v),
            &Budget::default(),
            &CompletionConfig::default(),
        );
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
        let once = complete(
            &t,
            &set(&[0]),
            fresh(&mut v),
            &Budget::default(),
            &CompletionConfig::default(),
        );
        let twice = complete(
            &once.tbox,
            &set(&[0]),
            fresh(&mut v),
            &Budget::default(),
            &CompletionConfig::default(),
        );
        assert_eq!(twice.added, 0);
        assert_eq!(once.tbox, twice.tbox);
    }

    #[test]
    fn type_universe_discovers_propagated_types() {
        // ⊤⊑∀r.B: the type {B} is reachable by edge enrichment.
        let mut t = HornTbox::new();
        t.push(HornCi::AllValues { lhs: LabelSet::new(), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: LabelSet::new() });
        let (_, nodes, complete_flag) = type_universe(&t, &set(&[0]), 64);
        assert!(complete_flag);
        assert!(nodes.contains(&set(&[1])));
    }

    /// Cached + multi-threaded completion returns byte-identical results.
    #[test]
    fn cached_and_threaded_completions_agree() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let _s = v.edge_label("s");
        let mut t = HornTbox::new();
        t.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: a });
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[0]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0).inv(), rhs: set(&[0]) });
        let f = fresh(&mut v);
        let budget = Budget::default();
        let cfg = CompletionConfig::default();
        let plain = complete(&t, &set(&[0]), f, &budget, &cfg);
        let cache = OracleCache::new();
        let cached = complete_with(&t, &set(&[0]), f, &budget, &cfg, Some(&cache), 1);
        let threaded = complete_with(&t, &set(&[0]), f, &budget, &cfg, None, 4);
        assert_eq!(plain.tbox, cached.tbox);
        assert_eq!(plain.tbox, threaded.tbox);
        assert_eq!(plain.complete, cached.complete);
        // Second cached call is a memo hit.
        let again = complete_with(&t, &set(&[0]), f, &budget, &cfg, Some(&cache), 1);
        assert_eq!(again.tbox, cached.tbox);
        assert_eq!(cache.stats().completion_hits, 1);
    }
}
