//! Coinductive tree-witness realizability — the engine's restatement of the
//! paper's pre-type elimination (Lemma E.5/E.6).
//!
//! A node of type `τ` whose only recorded neighborhood is its parent must
//! fulfil every applicable `K ⊑ ∃R.K'` requirement by pointing at the
//! parent or by spawning fresh children, grouping requirements into shared
//! children when at-most constraints demand it, without violating any
//! `∀`/`∄`/at-most constraint. Children must themselves be realizable —
//! a *greatest* fixpoint, because witness trees may be infinite (finitely
//! branching), which is exactly the unrestricted-satisfiability semantics
//! the cycle-reversing reduction needs.
//!
//! Completeness note (fresh-children-only): in the model surgery of
//! Theorem 6.3, every missing `∃R.K'` witness is added as a *fresh* copy of
//! a witness in the original model, so restricting witness creation to
//! fresh tree children loses no models. Minimal label sets are likewise
//! complete: all constraint kinds of Horn-ALCIF are antitone in extra node
//! labels (extra labels can only trigger more `K ⊑ …` obligations).
//!
//! ## Persistence across `decide` calls
//!
//! The candidate verdicts (`status`) and option sets (`options_memo`) are
//! facts about `(TBox, candidate)` alone, so the owner of a `RealizeCtx`
//! (a containment call over one completed TBox) can replay them across
//! the decides it runs through [`crate::decide_in_ctx`]. Two pieces
//! of bookkeeping make the replay *exact* (verdict-for-verdict equal to a
//! fresh context):
//!
//! * every memo entry carries a **taint bit** recording whether its
//!   original computation raised the `uncertain` flag; replaying a tainted
//!   entry re-raises the flag, so a warm call degrades to `Unknown`
//!   exactly when a cold call would;
//! * the per-call state (`uncertain`, the candidate budget counter) is
//!   reset by [`RealizeCtx::begin_call`], while the memo tables persist.

use crate::budget::{Budget, UnknownReason};
use crate::types::{TypeId, TypeUniverse};
use gts_graph::{EdgeSym, FxHashMap, FxHashSet, LabelSet};

/// A realizability candidate: a fresh tree node of type `child`, hanging
/// off a `parent`-typed node via the edge `sym_down` (oriented from parent
/// to child).
pub type Cand = (TypeId, EdgeSym, TypeId);

/// One way to discharge a node's requirements: the fresh children to
/// spawn (requirements assigned to existing neighbors need no entry).
type Option_ = Vec<Cand>;

/// A memoized extendability row: sorted neighborhood, verdict, taint.
type ExtendableRow = (Vec<(EdgeSym, TypeId)>, bool, bool);

/// Memo-effectiveness counters of one [`RealizeCtx`] (cumulative over its
/// lifetime, which spans every `decide` call sharing the context).
#[derive(Clone, Copy, Debug, Default)]
pub struct RealizeStats {
    /// Candidate verdicts answered from the `status` memo.
    pub status_hits: u64,
    /// Candidate verdicts computed by the greatest fixpoint.
    pub status_misses: u64,
}

/// Shared realizability context; memoizes candidate verdicts and option
/// sets across every `decide` call over the same TBox.
#[derive(Clone)]
pub struct RealizeCtx {
    /// Type interner (holds the TBox's rule index).
    pub types: TypeUniverse,
    /// Set when an option was rejected for reasons the search cannot
    /// guarantee are semantic (merged-witness back-propagation beyond the
    /// parent's saturation) — negative verdicts must then degrade to
    /// `Unknown`. Per-call state; reset by [`RealizeCtx::begin_call`].
    pub uncertain: bool,
    budget: Budget,
    /// Candidate verdict and its taint: `true` in the second slot means a
    /// fresh recomputation of this verdict would raise `uncertain`.
    status: FxHashMap<Cand, (bool, bool)>,
    /// Option sets with the taint of their enumeration.
    options_memo: FxHashMap<Cand, (Vec<Option_>, bool)>,
    /// Extendability of a type given a fixed core neighborhood (sorted,
    /// so the key is canonical), with taint. Keyed per type first so
    /// probes hash one `TypeId` and scan a short list.
    extendable_memo: FxHashMap<TypeId, Vec<ExtendableRow>>,
    candidates_seen: usize,
    stats: RealizeStats,
}

impl RealizeCtx {
    /// Creates a context over an existing type universe.
    pub fn new(types: TypeUniverse, budget: Budget) -> Self {
        RealizeCtx {
            types,
            uncertain: false,
            budget,
            status: FxHashMap::default(),
            options_memo: FxHashMap::default(),
            extendable_memo: FxHashMap::default(),
            candidates_seen: 0,
            stats: RealizeStats::default(),
        }
    }

    /// Resets the per-call state (the `uncertain` flag and the candidate
    /// budget counter) while keeping every memo table. Must be called at
    /// the start of each `decide` sharing this context; `budget` becomes
    /// the call's budget.
    pub fn begin_call(&mut self, budget: Budget) {
        self.uncertain = false;
        self.candidates_seen = 0;
        self.budget = budget;
    }

    /// Cumulative memo counters.
    pub fn stats(&self) -> RealizeStats {
        self.stats
    }

    /// Enumerates the ways a node of type `node` with fixed `neighbors`
    /// (existing core neighbors, or the tree parent) can discharge all its
    /// `∃`-requirements. Each returned option lists the fresh children to
    /// spawn; an empty list of options means the node is *not* extendable.
    pub fn extension_options(
        &mut self,
        node: TypeId,
        neighbors: &[(EdgeSym, TypeId)],
    ) -> Result<Vec<Option_>, UnknownReason> {
        let node_labels = self.types.labels(node).clone();
        let reqs = self.types.requirements_of(node);
        let at_most = self.types.at_most_of(node);

        // Baseline at-most counts from the fixed neighborhood; if already
        // violated, nothing helps (core chase should have prevented this).
        for (role, k) in at_most.iter() {
            let count = neighbors
                .iter()
                .filter(|(s, t)| s == role && k.is_subset(self.types.labels(*t)))
                .count();
            if count > 1 {
                return Ok(Vec::new());
            }
        }

        // Requirement choices: an existing satisfying neighbor, or a fresh
        // child group (canonical leader = least requirement index).
        #[derive(Clone, Copy, PartialEq)]
        enum Choice {
            Neighbor,
            Group(usize),
        }
        let neighbor_ok: Vec<bool> = reqs
            .iter()
            .map(|(role, k)| {
                neighbors.iter().any(|(s, t)| s == role && k.is_subset(self.types.labels(*t)))
            })
            .collect();

        let mut options: Vec<Option_> = Vec::new();
        let mut seen_options: FxHashSet<Vec<Cand>> = FxHashSet::default();
        let mut assignment: Vec<Choice> = Vec::new();
        let mut enumerated = 0usize;

        // Depth-first enumeration of canonical assignments.
        #[allow(clippy::too_many_arguments)]
        fn rec(
            ctx: &mut RealizeCtx,
            node: TypeId,
            node_labels: &LabelSet,
            reqs: &[(EdgeSym, LabelSet)],
            at_most: &[(EdgeSym, LabelSet)],
            neighbors: &[(EdgeSym, TypeId)],
            neighbor_ok: &[bool],
            assignment: &mut Vec<Choice>,
            options: &mut Vec<Option_>,
            seen: &mut FxHashSet<Vec<Cand>>,
            enumerated: &mut usize,
        ) -> Result<(), UnknownReason> {
            if *enumerated >= ctx.budget.max_groupings {
                return Err(UnknownReason::GroupingBudget);
            }
            let i = assignment.len();
            if i == reqs.len() {
                *enumerated += 1;
                // Materialize groups into child candidates.
                let mut children: Vec<Cand> = Vec::new();
                let mut group_types: Vec<(usize, EdgeSym, TypeId)> = Vec::new();
                for leader in 0..reqs.len() {
                    if assignment[leader] != Choice::Group(leader) {
                        continue;
                    }
                    let role = reqs[leader].0;
                    let mut seed = (*ctx.types.propagate_set(node_labels, role)).clone();
                    for (j, choice) in assignment.iter().enumerate() {
                        if *choice == Choice::Group(leader) {
                            seed.union_with(&reqs[j].1);
                        }
                    }
                    let child = match ctx.types.close(&seed) {
                        Some(t) => t,
                        None => return Ok(()), // inconsistent child: option dies
                    };
                    // Saturate: labels forced back by the child's own
                    // mandatory witnesses are part of its type.
                    let child = match ctx.types.saturate(child) {
                        Some(t) => t,
                        None => return Ok(()), // dead type: option dies
                    };
                    let child_labels = ctx.types.labels(child).clone();
                    // Local edge consistency. ∄-violations are semantic;
                    // a failing back-propagation check can only happen for
                    // merged witnesses beyond the parent's saturation, so
                    // rejection there is flagged as uncertain.
                    if ctx.types.edge_forbidden(node_labels, role, &child_labels) {
                        return Ok(());
                    }
                    if !ctx.types.propagate_set(&child_labels, role.inv()).is_subset(node_labels) {
                        ctx.uncertain = true;
                        return Ok(());
                    }
                    group_types.push((leader, role, child));
                    children.push((child, role, node));
                }
                // At-most validation across neighbors + fresh children.
                for (role, k) in at_most {
                    let mut count = neighbors
                        .iter()
                        .filter(|(s, t)| s == role && k.is_subset(ctx.types.labels(*t)))
                        .count();
                    count += group_types
                        .iter()
                        .filter(|(_, r, c)| r == role && k.is_subset(ctx.types.labels(*c)))
                        .count();
                    if count > 1 {
                        return Ok(());
                    }
                }
                children.sort();
                children.dedup();
                if seen.insert(children.clone()) {
                    options.push(children);
                }
                return Ok(());
            }
            // Choice 1: an existing neighbor satisfies requirement i.
            if neighbor_ok[i] {
                assignment.push(Choice::Neighbor);
                rec(
                    ctx,
                    node,
                    node_labels,
                    reqs,
                    at_most,
                    neighbors,
                    neighbor_ok,
                    assignment,
                    options,
                    seen,
                    enumerated,
                )?;
                assignment.pop();
            }
            // Choice 2: join an existing group with the same role.
            for leader in 0..i {
                if assignment[leader] == Choice::Group(leader) && reqs[leader].0 == reqs[i].0 {
                    assignment.push(Choice::Group(leader));
                    rec(
                        ctx,
                        node,
                        node_labels,
                        reqs,
                        at_most,
                        neighbors,
                        neighbor_ok,
                        assignment,
                        options,
                        seen,
                        enumerated,
                    )?;
                    assignment.pop();
                }
            }
            // Choice 3: start a fresh group.
            assignment.push(Choice::Group(i));
            rec(
                ctx,
                node,
                node_labels,
                reqs,
                at_most,
                neighbors,
                neighbor_ok,
                assignment,
                options,
                seen,
                enumerated,
            )?;
            assignment.pop();
            Ok(())
        }

        rec(
            self,
            node,
            &node_labels,
            &reqs,
            &at_most,
            neighbors,
            &neighbor_ok,
            &mut assignment,
            &mut options,
            &mut seen_options,
            &mut enumerated,
        )?;
        Ok(options)
    }

    /// Memoized option sets of a tree candidate. On a hit, the entry's
    /// taint re-raises `uncertain` exactly as recomputing it would.
    fn options_of(&mut self, cand: Cand) -> Result<Vec<Option_>, UnknownReason> {
        if let Some((opts, taint)) = self.options_memo.get(&cand) {
            self.uncertain |= *taint;
            return Ok(opts.clone());
        }
        let (child, sym_down, parent) = cand;
        let neighbors = [(sym_down.inv(), parent)];
        let saved = self.uncertain;
        self.uncertain = false;
        let result = self.extension_options(child, &neighbors);
        let raised = self.uncertain;
        self.uncertain = saved || raised;
        let opts = result?;
        self.options_memo.insert(cand, (opts.clone(), raised));
        Ok(opts)
    }

    /// The taint an options-memo entry recorded (used by the taint
    /// fixpoint; entries exist for every discovered candidate).
    fn option_taint(&self, cand: Cand) -> bool {
        self.options_memo.get(&cand).map(|(_, t)| *t).unwrap_or(false)
    }

    /// Decides whether `cand` can root an infinite witness tree — the
    /// greatest fixpoint over the dependency-closed candidate set.
    pub fn realizable(&mut self, cand: Cand) -> Result<bool, UnknownReason> {
        if let Some(&(v, taint)) = self.status.get(&cand) {
            self.stats.status_hits += 1;
            self.uncertain |= taint;
            return Ok(v);
        }
        self.stats.status_misses += 1;
        // Phase A: discover the dependency closure of undecided candidates.
        // Crossing into already-decided candidates replays their taint (a
        // fresh context would recompute their whole subtree, raising
        // `uncertain` iff the taint is set).
        let mut discovered: FxHashSet<Cand> = FxHashSet::default();
        let mut frontier = vec![cand];
        discovered.insert(cand);
        while let Some(c) = frontier.pop() {
            self.candidates_seen += 1;
            if self.candidates_seen > self.budget.max_candidates {
                return Err(UnknownReason::CandidateBudget);
            }
            let opts = self.options_of(c)?;
            for opt in &opts {
                for &dep in opt {
                    if let Some(&(_, taint)) = self.status.get(&dep) {
                        self.uncertain |= taint;
                    } else if discovered.insert(dep) {
                        frontier.push(dep);
                    }
                }
            }
        }
        // Phase B: greatest-fixpoint elimination on the discovered set.
        let mut alive: FxHashMap<Cand, bool> = discovered.iter().map(|&c| (c, true)).collect();
        loop {
            let mut changed = false;
            for &c in &discovered {
                if !alive[&c] {
                    continue;
                }
                let opts = self.options_of(c)?;
                let ok = opts.iter().any(|opt| {
                    opt.iter().all(|dep| {
                        self.status.get(dep).map(|&(v, _)| v).unwrap_or_else(|| alive[dep])
                    })
                });
                if !ok {
                    alive.insert(c, false);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Taint fixpoint: a candidate's verdict is tainted iff uncertainty
        // was raised anywhere in its own dependency closure — the exact
        // condition under which a fresh context deciding *it* would end
        // uncertain. (Least fixpoint of reachability-OR over the option
        // graph, with already-decided boundary taints folded in.)
        let mut taint: FxHashMap<Cand, bool> =
            discovered.iter().map(|&c| (c, self.option_taint(c))).collect();
        let dep_lists: Vec<(Cand, Vec<Cand>)> = discovered
            .iter()
            .map(|&c| {
                let deps = self
                    .options_memo
                    .get(&c)
                    .map(|(opts, _)| opts.iter().flatten().copied().collect())
                    .unwrap_or_default();
                (c, deps)
            })
            .collect();
        loop {
            let mut changed = false;
            for (c, deps) in &dep_lists {
                if taint[c] {
                    continue;
                }
                let dep_taint = deps.iter().any(|dep| {
                    taint
                        .get(dep)
                        .copied()
                        .unwrap_or_else(|| self.status.get(dep).map(|&(_, t)| t).unwrap_or(false))
                });
                if dep_taint {
                    taint.insert(*c, true);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (c, v) in alive {
            self.status.insert(c, (v, taint[&c]));
        }
        Ok(self.status[&cand].0)
    }

    /// Decides whether a *core* node of type `node` with the given fixed
    /// core neighborhood can have all its remaining requirements fulfilled
    /// by realizable witness trees.
    pub fn node_extendable(
        &mut self,
        node: TypeId,
        neighbors: &[(EdgeSym, TypeId)],
    ) -> Result<bool, UnknownReason> {
        // Extendability is a pure function of (type, neighborhood
        // multiset) — the checks below are order-insensitive — so the key
        // is the sorted neighbor list. Memoized with taint like every
        // other verdict.
        let mut key: Vec<(EdgeSym, TypeId)> = neighbors.to_vec();
        key.sort_unstable();
        if let Some(rows) = self.extendable_memo.get(&node) {
            if let Some((_, v, taint)) = rows.iter().find(|(n, _, _)| *n == key) {
                self.stats.status_hits += 1;
                self.uncertain |= *taint;
                return Ok(*v);
            }
        }
        self.stats.status_misses += 1;
        let saved = self.uncertain;
        self.uncertain = false;
        let result = self.node_extendable_uncached(node, neighbors);
        let raised = self.uncertain;
        self.uncertain = saved || raised;
        if let Ok(v) = result {
            self.extendable_memo.entry(node).or_default().push((key, v, raised));
        }
        result
    }

    fn node_extendable_uncached(
        &mut self,
        node: TypeId,
        neighbors: &[(EdgeSym, TypeId)],
    ) -> Result<bool, UnknownReason> {
        let opts = self.extension_options(node, neighbors)?;
        for opt in opts {
            let mut all_ok = true;
            for dep in &opt {
                if !self.realizable(*dep)? {
                    all_ok = false;
                    break;
                }
            }
            if all_ok {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_dl::{HornCi, HornTbox};
    use gts_graph::EdgeLabel;

    fn sym(i: u32) -> EdgeSym {
        EdgeSym::fwd(EdgeLabel(i))
    }
    fn set(labels: &[u32]) -> LabelSet {
        LabelSet::from_iter(labels.iter().copied())
    }

    /// A ⊑ ∃r.A — realizable by an infinite chain (coinduction).
    #[test]
    fn infinite_chain_is_realizable() {
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[0]) });
        let mut ctx = RealizeCtx::new(TypeUniverse::new(&t), Budget::default());
        let a = ctx.types.close(&set(&[0])).unwrap();
        let cand = (a, sym(0), a);
        assert!(ctx.realizable(cand).unwrap());
        assert!(ctx.node_extendable(a, &[]).unwrap());
        // The second query hit the verdict memo.
        assert!(ctx.stats().status_hits > 0);
    }

    /// A ⊑ ∃r.B, B ⊑ ⊥ — not realizable: the required child is
    /// inconsistent.
    #[test]
    fn inconsistent_witness_fails() {
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::Bottom { lhs: set(&[1]) });
        let mut ctx = RealizeCtx::new(TypeUniverse::new(&t), Budget::default());
        let a = ctx.types.close(&set(&[0])).unwrap();
        assert!(!ctx.node_extendable(a, &[]).unwrap());
    }

    /// A ⊑ ∃r.B with an existing B-neighbor: satisfied without children.
    #[test]
    fn neighbor_satisfies_requirement() {
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::Bottom { lhs: set(&[1, 2]) }); // irrelevant noise
        let mut ctx = RealizeCtx::new(TypeUniverse::new(&t), Budget::default());
        let a = ctx.types.close(&set(&[0])).unwrap();
        let b = ctx.types.close(&set(&[1])).unwrap();
        assert!(ctx.node_extendable(a, &[(sym(0), b)]).unwrap());
    }

    /// Example 5.5's refutation pattern: the child needs an s⁻-witness that
    /// the parent cannot provide and at-most-1 forbids duplicating.
    #[test]
    fn at_most_blocks_second_parentlike_child() {
        // Labels: 0 = A, 1 = B (the "B_{r·s+}" marker).
        // A ⊑ ∃s.A            (schema: outgoing s-edge)
        // A⊓B ⊑ ∃s⁻.(A⊓B)     (completion: reversed cycle)
        // A ⊑ ∃≤1 s⁻.A        (schema: at most one incoming s)
        // A ⊑ ∀s.B            (marker propagation)
        let s = sym(0);
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: s, rhs: set(&[0]) });
        t.push(HornCi::Exists { lhs: set(&[0, 1]), role: s.inv(), rhs: set(&[0, 1]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: s.inv(), rhs: set(&[0]) });
        t.push(HornCi::AllValues { lhs: set(&[0]), role: s, rhs: set(&[1]) });
        let mut ctx = RealizeCtx::new(TypeUniverse::new(&t), Budget::default());
        let a = ctx.types.close(&set(&[0])).unwrap();
        let ab = ctx.types.close(&set(&[0, 1])).unwrap();
        // The child {A,B} with parent {A} via s cannot be realized: its
        // ∃s⁻.(A⊓B) needs a second incoming-s neighbor, but the parent
        // already occupies the unique incoming-s slot.
        assert!(!ctx.realizable((ab, s, a)).unwrap());
        // Hence an {A}-node with no neighborhood is not extendable either:
        // its only option spawns exactly that child.
        assert!(!ctx.node_extendable(a, &[]).unwrap());
        // But {A,B} hanging off an {A,B} parent IS realizable (the parent
        // provides the s⁻-witness, the chain continues downward).
        assert!(ctx.realizable((ab, s, ab)).unwrap());
    }

    /// Two requirements with the same role can share one child when the
    /// merged child type is consistent.
    #[test]
    fn requirement_grouping_merges_children() {
        // A ⊑ ∃r.B, A ⊑ ∃r.C, A ⊑ ∃≤1 r.⊤ — forces B and C into one child.
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[2]) });
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0), rhs: LabelSet::new() });
        let mut ctx = RealizeCtx::new(TypeUniverse::new(&t), Budget::default());
        let a = ctx.types.close(&set(&[0])).unwrap();
        assert!(ctx.node_extendable(a, &[]).unwrap());

        // Now make the merge inconsistent: B ⊓ C ⊑ ⊥.
        let mut t2 = t.clone();
        t2.push(HornCi::Bottom { lhs: set(&[1, 2]) });
        let mut ctx2 = RealizeCtx::new(TypeUniverse::new(&t2), Budget::default());
        let a2 = ctx2.types.close(&set(&[0])).unwrap();
        assert!(!ctx2.node_extendable(a2, &[]).unwrap());
    }

    #[test]
    fn no_requirements_is_trivially_extendable() {
        let t = HornTbox::new();
        let mut ctx = RealizeCtx::new(TypeUniverse::new(&t), Budget::default());
        let top = ctx.types.close(&LabelSet::new()).unwrap();
        assert!(ctx.node_extendable(top, &[]).unwrap());
    }

    /// `begin_call` resets the per-call flags but keeps the memo warm.
    #[test]
    fn begin_call_resets_per_call_state_only() {
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[0]) });
        let mut ctx = RealizeCtx::new(TypeUniverse::new(&t), Budget::default());
        let a = ctx.types.close(&set(&[0])).unwrap();
        assert!(ctx.realizable((a, sym(0), a)).unwrap());
        let misses_before = ctx.stats().status_misses;
        ctx.begin_call(Budget::default());
        assert!(!ctx.uncertain);
        assert!(ctx.realizable((a, sym(0), a)).unwrap());
        assert_eq!(ctx.stats().status_misses, misses_before, "second call was a pure memo hit");
    }
}
