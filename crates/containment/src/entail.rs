//! Unrestricted entailment of Horn-ALCIF concept inclusions via query
//! unsatisfiability (Corollary E.7).
//!
//! `T ⊨ K ⊑ ∃R.K'` iff `∃x.(K·B)(x,x)` is unsatisfiable modulo
//! `T ∪ {K' ⊑ ∀R⁻.B', B⊓B' ⊑ ⊥}`; similarly for at-most constraints. The
//! encodings only use node tests and single edge steps, so their regular
//! languages are finite and the satisfiability engine's verdicts are
//! certified — which is what makes the completion computation reliable.
//!
//! A sound syntactic fast path answers most positive instances without an
//! engine call. The completion sweep asks `|types|² × |roles|` questions
//! per round, so the context is indexed once and owns its probe state:
//!
//! * the fast paths close, propagate and read the CIs of a role through
//!   the round's one [`TypeUniverse`], handed over by the sweep, whose
//!   index groups the CIs by kind and role once;
//! * the extended TBoxes of the engine encodings depend only on `(R, K')`
//!   (existentials) or on nothing (at-most), so each gets one solver
//!   context, built on first use and dropped with the sweep — rounds add
//!   CIs, so no extended TBox recurs in a later round. A context's
//!   universe layers the encoding's one or two CIs over the round's
//!   shared index ([`TypeUniverse::extended`]); no TBox is copied. The
//!   encodings add only `∀` and `⊥` CIs, so a context reads the round's
//!   shared requirement and at-most lists as they are and derives none.

use gts_dl::HornCi;
use gts_graph::{EdgeSym, FxHashMap, LabelSet, NodeLabel};
use gts_query::{Atom, C2rpq, Regex, Var};
use gts_sat::{decide_in_ctx, Budget, RealizeCtx, TypeUniverse, UnknownReason, Verdict};
use std::cell::RefCell;

/// Entailment oracle over one completion round's TBox. The two `fresh`
/// labels must not occur in the TBox (mint them from the vocabulary once).
pub(crate) struct EntailCtx {
    fresh_b: NodeLabel,
    fresh_b2: NodeLabel,
    budget: Budget,
    /// Solver context of the existential encoding's extended TBox, per
    /// `(role, K')`.
    exists_ctxs: RefCell<FxHashMap<(EdgeSym, LabelSet), RealizeCtx>>,
    /// Solver context of the at-most encoding's extended TBox.
    amo_ctx: RefCell<Option<RealizeCtx>>,
    /// Engine verdicts per `(role, K')`, split by sign. Entailment is
    /// monotone in `K` (a stronger premise keeps every positive verdict,
    /// a weaker one keeps every negative), so a probe is answered without
    /// the engine when a recorded positive `K₀ ⊆ K` or negative `K₀ ⊇ K`
    /// exists.
    exists_verdicts: RefCell<FxHashMap<LabelSet, Vec<(EdgeSym, VerdictLists)>>>,
    amo_verdicts: RefCell<FxHashMap<LabelSet, Vec<(EdgeSym, VerdictLists)>>>,
    /// Type universe over the base TBox: the fast paths reason over
    /// *saturated* types (labels forced in every model), which both
    /// certifies more positives and licenses the per-`(K, role)`
    /// no-successor fast-false.
    universe: RefCell<TypeUniverse>,
}

/// Hoisted fast-path state of `entails_exists` for one `(K, role)`.
#[derive(Clone)]
pub(crate) enum ExistsFast {
    /// `K` is unsatisfiable (inconsistent closure or dead saturation) —
    /// every CI is entailed.
    KInconsistent,
    /// The *saturated* type of `K` triggers no `∃`-CI on this role: its
    /// canonical tree model has no such successor, so the entailment fails
    /// for every consistent `K'` (for an only-semantically-unsatisfiable
    /// `K` the missed H_T edge is harmless — see the completion docs; this
    /// is the same contract as the role-level fast-false below).
    NoSuccessor,
    /// Applicable rules and their saturated, propagation-enriched targets;
    /// `vacuous` when some forced successor is inconsistent (again: every
    /// target is entailed).
    Targets {
        /// Some forced successor is inconsistent.
        vacuous: bool,
        /// Saturated targets of the applicable rules (maximal only).
        targets: Vec<LabelSet>,
    },
}

impl ExistsFast {
    /// `Some(v)` when the fast path decides `K ⊑ ∃R.K'` for this `K'`
    /// without the engine; `None` sends the probe to the engine.
    fn decisive(&self, kp: &LabelSet) -> Option<bool> {
        match self {
            ExistsFast::KInconsistent => Some(true),
            ExistsFast::NoSuccessor => Some(false),
            ExistsFast::Targets { vacuous, targets } => {
                if *vacuous || targets.iter().any(|t| kp.is_subset(t)) {
                    Some(true)
                } else {
                    None
                }
            }
        }
    }
}

#[derive(Default)]
struct VerdictLists {
    positive: Vec<LabelSet>,
    negative: Vec<LabelSet>,
}

impl VerdictLists {
    fn lookup(&self, k: &LabelSet) -> Option<bool> {
        if self.positive.iter().any(|p| p.is_subset(k)) {
            return Some(true);
        }
        if self.negative.iter().any(|n| k.is_subset(n)) {
            return Some(false);
        }
        None
    }

    fn record(&mut self, k: &LabelSet, verdict: bool) {
        // Keep only the frontier: minimal positives and maximal negatives
        // answer every premise a subsumed entry would.
        if verdict {
            self.positive.retain(|p| !k.is_subset(p));
            self.positive.push(k.clone());
        } else {
            self.negative.retain(|n| !n.is_subset(k));
            self.negative.push(k.clone());
        }
    }
}

/// The recorded verdict for premise `k` over `(role, K')`, if any.
fn lookup_verdict(
    memo: &RefCell<FxHashMap<LabelSet, Vec<(EdgeSym, VerdictLists)>>>,
    k: &LabelSet,
    role: EdgeSym,
    kp: &LabelSet,
) -> Option<bool> {
    let memo = memo.borrow();
    memo.get(kp)?.iter().find(|(r, _)| *r == role).and_then(|(_, l)| l.lookup(k))
}

fn record_verdict(
    memo: &RefCell<FxHashMap<LabelSet, Vec<(EdgeSym, VerdictLists)>>>,
    k: &LabelSet,
    role: EdgeSym,
    kp: &LabelSet,
    v: bool,
) {
    let mut memo = memo.borrow_mut();
    let rows = memo.entry(kp.clone()).or_default();
    match rows.iter_mut().find(|(r, _)| *r == role) {
        Some((_, l)) => l.record(k, v),
        None => {
            let mut l = VerdictLists::default();
            l.record(k, v);
            rows.push((role, l));
        }
    }
}

impl EntailCtx {
    /// Creates the oracle over the TBox of `universe`; `fresh` are two
    /// concept names unused in it.
    pub(crate) fn new(
        universe: TypeUniverse,
        fresh: (NodeLabel, NodeLabel),
        budget: Budget,
    ) -> Self {
        EntailCtx {
            fresh_b: fresh.0,
            fresh_b2: fresh.1,
            budget,
            exists_ctxs: RefCell::new(FxHashMap::default()),
            amo_ctx: RefCell::new(None),
            exists_verdicts: RefCell::new(FxHashMap::default()),
            amo_verdicts: RefCell::new(FxHashMap::default()),
            universe: RefCell::new(universe),
        }
    }

    fn node_tests(set: &LabelSet) -> Regex {
        Regex::concat_all(set.iter().map(|l| Regex::node(NodeLabel(l))))
    }

    /// A fresh solver context over the base TBox plus `extra`, sharing the
    /// base universe's rule index.
    fn extend(&self, extra: impl IntoIterator<Item = HornCi>) -> RealizeCtx {
        RealizeCtx::new(self.universe.borrow().extended(extra), self.budget.clone())
    }

    fn decide(&self, ctx: &mut RealizeCtx, q: &C2rpq) -> Result<bool, UnknownReason> {
        let _span = gts_obs::span("entailment_probe");
        let start = gts_obs::enabled().then(std::time::Instant::now);
        let verdict = decide_in_ctx(ctx, q, &self.budget);
        if let Some(t0) = start {
            static HIST: std::sync::OnceLock<gts_obs::Histogram> = std::sync::OnceLock::new();
            HIST.get_or_init(|| {
                gts_obs::global().histogram(
                    "gts_containment_probe_micros",
                    "Latency of completion entailment probes",
                    &[],
                )
            })
            .record(t0.elapsed().as_micros() as u64);
        }
        match verdict {
            Verdict::Unsat => Ok(true),
            Verdict::Sat(_) => Ok(false),
            Verdict::Unknown(r) => Err(r),
        }
    }

    /// The hoisted `(K, role)` fast-path state of `entails_exists`; the
    /// sweep computes it once per row and passes it to every probe.
    pub(crate) fn exists_fast(&self, k: &LabelSet, role: EdgeSym) -> ExistsFast {
        let mut u = self.universe.borrow_mut();
        // Inconsistent closure or dead saturation: K is unsatisfiable in
        // every model, so it entails everything.
        let Some(sat) = u.close(k).and_then(|tid| u.saturate(tid)) else {
            return ExistsFast::KInconsistent;
        };
        // Every model's K-node carries at least the saturated labels, so
        // reasoning over them is sound and strictly stronger than over
        // clo(K).
        let sat_labels = u.labels(sat).clone();
        let push = u.propagate_set(&sat_labels, role);
        let seeds: Vec<LabelSet> = u
            .exists_on(role)
            .filter(|(lhs, _)| lhs.is_subset(&sat_labels))
            .map(|(_, rhs)| rhs.union(&push))
            .collect();
        let mut vacuous = false;
        let mut targets = Vec::new();
        for seed in &seeds {
            match u.close(seed).and_then(|t| u.saturate(t)) {
                // The forced successor's saturated type: any actual
                // witness carries at least these labels.
                Some(ct) => targets.push(u.labels(ct).clone()),
                // The forced successor is inconsistent: K is
                // unsatisfiable, so every CI holds vacuously.
                None => vacuous = true,
            }
        }
        if targets.is_empty() && !vacuous {
            return ExistsFast::NoSuccessor;
        }
        // Only maximal targets matter for coverage tests.
        let all = std::mem::take(&mut targets);
        for t in &all {
            if !all.iter().any(|o| o != t && t.is_subset(o)) && !targets.contains(t) {
                targets.push(t.clone());
            }
        }
        ExistsFast::Targets { vacuous, targets }
    }

    /// `T ⊨ K ⊑ ∃R.K'` (unrestricted models), given `fast`, the
    /// [`EntailCtx::exists_fast`] state of `(K, role)`.
    pub(crate) fn entails_exists(
        &self,
        fast: &ExistsFast,
        k: &LabelSet,
        role: EdgeSym,
        kp: &LabelSet,
    ) -> Result<bool, UnknownReason> {
        // Syntactic fast path over saturated types: some ∃-CI fires on
        // the saturated K and its saturated target covers K', or no ∃-CI
        // fires at all. The per-(K, role) state is hoisted, so each probe
        // is a handful of subset tests.
        if let Some(v) = fast.decisive(kp) {
            return Ok(v);
        }
        // Fast false: without any ∃-CI on this role, a tree model of clo(K)
        // omitting the successor exists; if clo(K) is only *semantically*
        // unsatisfiable the resulting missed H_T edge is harmless (every
        // finmod cycle through an unsatisfiable type reverses vacuously —
        // see the completion module docs).
        if self.universe.borrow().exists_on(role).next().is_none() {
            return Ok(false);
        }
        // Monotonicity shortcut before the engine: replay a recorded
        // verdict for a weaker/stronger premise over the same (role, K').
        if let Some(v) = lookup_verdict(&self.exists_verdicts, k, role, kp) {
            return Ok(v);
        }
        // Exact check via Corollary E.7. The extended TBox depends only on
        // (role, K'), so one solver context serves every K probed here.
        let mut tests = k.clone();
        tests.insert(self.fresh_b.0);
        let q = C2rpq::new(
            1,
            vec![],
            vec![Atom { x: Var(0), y: Var(0), regex: Self::node_tests(&tests) }],
        );
        let v = {
            let mut ctxs = self.exists_ctxs.borrow_mut();
            let ctx = ctxs.entry((role, kp.clone())).or_insert_with(|| {
                self.extend([
                    HornCi::AllValues {
                        lhs: kp.clone(),
                        role: role.inv(),
                        rhs: LabelSet::singleton(self.fresh_b2.0),
                    },
                    HornCi::Bottom { lhs: LabelSet::from_iter([self.fresh_b.0, self.fresh_b2.0]) },
                ])
            });
            self.decide(ctx, &q)?
        };
        record_verdict(&self.exists_verdicts, k, role, kp, v);
        Ok(v)
    }

    /// `T ⊨ K ⊑ ∃≤1 R.K'` (unrestricted models).
    pub(crate) fn entails_at_most_one(
        &self,
        k: &LabelSet,
        role: EdgeSym,
        kp: &LabelSet,
    ) -> Result<bool, UnknownReason> {
        // Syntactic fast path: an at-most CI firing on clo(K) whose counted
        // set is covered by the (propagation-enriched) successor type.
        {
            let mut u = self.universe.borrow_mut();
            let Some(clo_k) = u.close(k).map(|tid| u.labels(tid).clone()) else {
                return Ok(true);
            };
            let push = u.propagate_set(&clo_k, role);
            let Some(enriched) = u.close(&kp.union(&push)) else {
                return Ok(true); // no K'-successor can even exist
            };
            let enriched = u.labels(enriched);
            if u.at_most_on(role).any(|(lhs, rhs)| lhs.is_subset(&clo_k) && rhs.is_subset(enriched))
            {
                return Ok(true);
            }
            // Fast false: with no at-most constraint on this role and no
            // ∄-constraint touching it (in either direction), a model with
            // two distinct K'-successors exists whenever one does
            // (duplicate the witness subtree); the semantically-
            // unsatisfiable case is harmless as above.
            if u.at_most_on(role).next().is_none() && !u.not_exists_touches(role) {
                return Ok(false);
            }
        }
        // Monotonicity shortcut before the engine (see `entails_exists`).
        if let Some(v) = lookup_verdict(&self.amo_verdicts, k, role, kp) {
            return Ok(v);
        }
        // Exact check via Corollary E.7: two R-steps into K'-nodes marked
        // B and B' respectively, with B⊓B' ⊑ ⊥. The extended TBox is the
        // same for every (K, R, K') — one solver context serves the sweep.
        let step = |marker: NodeLabel| {
            let mut tgt = kp.clone();
            tgt.insert(marker.0);
            Regex::sym(role).then(Self::node_tests(&tgt))
        };
        let q = C2rpq::new(
            3,
            vec![],
            vec![
                Atom { x: Var(0), y: Var(0), regex: Self::node_tests(k) },
                Atom { x: Var(0), y: Var(1), regex: step(self.fresh_b) },
                Atom { x: Var(0), y: Var(2), regex: step(self.fresh_b2) },
            ],
        );
        let v = {
            let mut ctx = self.amo_ctx.borrow_mut();
            let ctx = ctx.get_or_insert_with(|| {
                self.extend([HornCi::Bottom {
                    lhs: LabelSet::from_iter([self.fresh_b.0, self.fresh_b2.0]),
                }])
            });
            self.decide(ctx, &q)?
        };
        record_verdict(&self.amo_verdicts, k, role, kp, v);
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_dl::HornTbox;
    use gts_graph::{EdgeLabel, Vocab};

    fn fresh(v: &mut Vocab) -> (NodeLabel, NodeLabel) {
        (v.fresh_node_label("B"), v.fresh_node_label("B"))
    }
    fn set(labels: &[u32]) -> LabelSet {
        LabelSet::from_iter(labels.iter().copied())
    }
    fn sym(i: u32) -> EdgeSym {
        EdgeSym::fwd(EdgeLabel(i))
    }
    fn ctx(t: &HornTbox, v: &mut Vocab) -> EntailCtx {
        EntailCtx::new(TypeUniverse::new(t), fresh(v), Budget::default())
    }
    /// `entails_exists` with its hoisted fast-path state computed inline.
    fn exists(ctx: &EntailCtx, k: &LabelSet, role: EdgeSym, kp: &LabelSet) -> bool {
        ctx.entails_exists(&ctx.exists_fast(k, role), k, role, kp).unwrap()
    }

    #[test]
    fn direct_ci_is_entailed() {
        let mut v = Vocab::new();
        let _ = v.node_label("A");
        let _ = v.node_label("B");
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        let ctx = ctx(&t, &mut v);
        assert!(exists(&ctx, &set(&[0]), sym(0), &set(&[1])));
        // Weakening the target keeps entailment.
        assert!(exists(&ctx, &set(&[0]), sym(0), &LabelSet::new()));
        // Strengthening the premise keeps entailment.
        assert!(exists(&ctx, &set(&[0, 1]), sym(0), &set(&[1])));
        // A stronger target is not entailed.
        assert!(!exists(&ctx, &set(&[0]), sym(0), &set(&[0, 1])));
        // Nothing about other roles.
        assert!(!exists(&ctx, &set(&[0]), sym(1), &set(&[1])));
    }

    #[test]
    fn entailment_through_propagation() {
        // A ⊑ ∃r.B and A ⊑ ∀r.C entail A ⊑ ∃r.(B⊓C).
        let mut v = Vocab::new();
        for n in ["A", "B", "C"] {
            v.node_label(n);
        }
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        t.push(HornCi::AllValues { lhs: set(&[0]), role: sym(0), rhs: set(&[2]) });
        let ctx = ctx(&t, &mut v);
        assert!(exists(&ctx, &set(&[0]), sym(0), &set(&[1, 2])));
    }

    #[test]
    fn unsatisfiable_premise_entails_vacuously() {
        let mut v = Vocab::new();
        let _ = v.node_label("A");
        let mut t = HornTbox::new();
        t.push(HornCi::Bottom { lhs: set(&[0]) });
        let ctx = ctx(&t, &mut v);
        assert!(exists(&ctx, &set(&[0]), sym(0), &set(&[5])));
        assert!(ctx.entails_at_most_one(&set(&[0]), sym(0), &set(&[5])).unwrap());
    }

    #[test]
    fn at_most_direct_and_weakened() {
        let mut v = Vocab::new();
        for n in ["A", "B"] {
            v.node_label(n);
        }
        let mut t = HornTbox::new();
        t.push(HornCi::AtMostOne { lhs: set(&[0]), role: sym(0), rhs: set(&[1]) });
        let ctx = ctx(&t, &mut v);
        assert!(ctx.entails_at_most_one(&set(&[0]), sym(0), &set(&[1])).unwrap());
        // Counting a *larger* conjunction (fewer successors) stays ≤ 1.
        assert!(ctx.entails_at_most_one(&set(&[0]), sym(0), &set(&[1, 0])).unwrap());
        // Counting a smaller conjunction (more successors) is not entailed.
        assert!(!ctx.entails_at_most_one(&set(&[0]), sym(0), &LabelSet::new()).unwrap());
        // Unconstrained premise is not entailed.
        assert!(!ctx.entails_at_most_one(&set(&[1]), sym(0), &set(&[1])).unwrap());
    }

    #[test]
    fn semantic_entailment_beyond_fast_path() {
        // ∄r.⊤ entails ∃≤1 r.K' for any K' — only the engine sees this.
        let mut v = Vocab::new();
        let _ = v.node_label("A");
        let mut t = HornTbox::new();
        t.push(HornCi::NotExists { lhs: set(&[0]), role: sym(0), rhs: LabelSet::new() });
        let ctx = ctx(&t, &mut v);
        assert!(ctx.entails_at_most_one(&set(&[0]), sym(0), &LabelSet::new()).unwrap());
    }
}
