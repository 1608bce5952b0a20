//! Finite containment and finite satisfiability modulo an *arbitrary*
//! Horn-ALCIF TBox — the Section 7 corollary of the paper's pipeline
//! ("Finite containment modulo Horn-ALCIF TBox"): the schema-driven
//! EXPTIME procedure applies verbatim to any Horn-ALCIF TBox at the cost
//! of one exponential (the completion's type universe ranges over label
//! *sets* instead of single schema labels), giving the first 2EXPTIME
//! decision procedure for finite containment of UC2RPQs in acyclic
//! UC2RPQs under description-logic constraints.
//!
//! Differences from the schema-driven entry point [`crate::contains`]:
//!
//! * no relativization `P̂` and no "exactly one label per node" regime —
//!   models are arbitrary labeled graphs satisfying the TBox;
//! * the completion's type universe is seeded with every concept name of
//!   the TBox (instead of `Γ_S`), and the S-driven simplification of
//!   Lemma 5.7 does not apply — the `certified` flag reports honestly
//!   whether the caps sufficed;
//! * queries must be Boolean (the marker construction of Lemma D.1 is
//!   schema-specific; Booleanize against a schema first if needed);
//! * the TBox must not mention the roll-up's reserved state names
//!   (`q{d}.{c}.{e}.{s}#`, see [`crate::rollup_negation`]), which `Q`'s
//!   roll-up reuses: pass no rolled-up TBox of another query as `T`.

use crate::completion::{complete_with, Completion};
use crate::contains::{ContainmentAnswer, ContainmentError, ContainmentOptions};
use crate::rollup::rollup_negation;
use gts_dl::HornTbox;
use gts_graph::Vocab;
use gts_query::{C2rpq, Uc2rpq};
use gts_sat::{decide_in_ctx, HornFixpoint, Verdict};

/// Decides *finite* containment `P ⊆_T Q` over all finite graphs
/// satisfying the Horn-ALCIF TBox `T`, for Boolean `P` and Boolean acyclic
/// `Q`. See the module docs for the contract.
pub fn contains_finite_modulo_tbox(
    p: &Uc2rpq,
    q: &Uc2rpq,
    tbox: &HornTbox,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
) -> Result<ContainmentAnswer, ContainmentError> {
    if !p.is_boolean() || !q.is_boolean() {
        return Err(ContainmentError::NotBoolean);
    }
    let finish = |holds, certified, witness| ContainmentAnswer { holds, certified, witness };
    let p = Uc2rpq {
        disjuncts: p.disjuncts.iter().filter(|d| !q.disjuncts.contains(d)).cloned().collect(),
    };
    if p.disjuncts.is_empty() {
        return Ok(finish(true, true, None));
    }
    let (choices, _states) = rollup_negation(q, vocab).map_err(ContainmentError::Rollup)?;

    // As in the schema pipeline, UNSAT modulo a *partial* completion
    // already implies UNSAT modulo the full one, so "holds" verdicts stay
    // certified when completion caps were hit; only witnesses need the
    // full completion.
    let mut all_certified = true;
    for choice in &choices {
        let t = HornTbox::merged([tbox, choice]);
        let seeds = t.used_labels();
        let Completion { universe, complete: completion_ok, .. } =
            complete_with(&t, &seeds, &opts.budget, &opts.completion, opts.threads);
        let mut fixpoint = HornFixpoint::new(universe, &opts.budget);
        for pd in &p.disjuncts {
            match decide_in_ctx(&mut fixpoint, pd, &opts.budget) {
                Verdict::Sat(w) => {
                    return Ok(finish(false, completion_ok, Some(w.core)));
                }
                Verdict::Unsat => {}
                Verdict::Unknown(_) => {
                    all_certified = false;
                }
            }
        }
    }
    Ok(finish(true, all_certified, None))
}

/// Decides *finite* satisfiability of a Boolean C2RPQ modulo a Horn-ALCIF
/// TBox (the query side of Ibáñez-García et al.'s finite-model reasoning):
/// `p` holds in some finite model of `tbox` iff `p` is unrestrictedly
/// satisfiable modulo the completion `tbox*` (Theorem 5.4 + Lemma D.4).
/// Returns `(satisfiable, certified)`.
pub fn finitely_satisfiable_modulo_tbox(
    p: &C2rpq,
    tbox: &HornTbox,
    opts: &ContainmentOptions,
) -> Result<(bool, bool), ContainmentError> {
    if !p.is_boolean() {
        return Err(ContainmentError::NotBoolean);
    }
    let seeds = tbox.used_labels();
    let Completion { universe, complete: completion_ok, .. } =
        complete_with(tbox, &seeds, &opts.budget, &opts.completion, opts.threads);
    let mut fixpoint = HornFixpoint::new(universe, &opts.budget);
    match decide_in_ctx(&mut fixpoint, p, &opts.budget) {
        // SAT modulo a partial completion does not yet witness a finite
        // model; UNSAT modulo a partial completion *does* refute one.
        Verdict::Sat(_) => Ok((true, completion_ok)),
        Verdict::Unsat => Ok((false, true)),
        Verdict::Unknown(_) => Ok((false, false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_dl::HornCi;
    use gts_graph::{EdgeSym, LabelSet, NodeLabel};
    use gts_query::{Atom, Regex, Var};
    use gts_sat::{decide, Budget};

    fn set(labels: &[NodeLabel]) -> LabelSet {
        LabelSet::from_iter(labels.iter().map(|l| l.0))
    }

    /// Example 5.2 phrased directly as a TBox (Example 5.5):
    /// T = {⊤⊑A, A⊑∃s.A, A⊑∃≤1 s⁻.A}. P = ∃x.r(x,x) is finitely
    /// contained in Q = ∃x,y.(r·s⁺·r)(x,y) — only thanks to completion.
    #[test]
    fn example_5_5_direct_tbox_containment() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let s = v.edge_label("s");
        let r = v.edge_label("r");
        let mut t = HornTbox::new();
        t.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: a });
        t.push(HornCi::Exists { lhs: set(&[a]), role: EdgeSym::fwd(s), rhs: set(&[a]) });
        t.push(HornCi::AtMostOne { lhs: set(&[a]), role: EdgeSym::bwd(s), rhs: set(&[a]) });
        let p = Uc2rpq::single(C2rpq::new(
            1,
            vec![],
            vec![Atom { x: Var(0), y: Var(0), regex: Regex::edge(r) }],
        ));
        let splus = Regex::edge(s).then(Regex::edge(s).star());
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom {
                x: Var(0),
                y: Var(1),
                regex: Regex::edge(r).then(splus).then(Regex::edge(r)),
            }],
        ));
        let ans = contains_finite_modulo_tbox(&p, &q, &t, &mut v, &Default::default()).unwrap();
        assert!(ans.holds, "finite containment holds via cycle reversal");
        assert!(ans.certified);

        // Dropping the at-most constraint breaks the finmod cycle: an
        // infinite-tree-free counterexample exists (finite s-cycles feeding
        // extra nodes are allowed), so containment fails.
        let mut t2 = HornTbox::new();
        t2.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: a });
        t2.push(HornCi::Exists { lhs: set(&[a]), role: EdgeSym::fwd(s), rhs: set(&[a]) });
        let ans2 = contains_finite_modulo_tbox(&p, &q, &t2, &mut v, &Default::default()).unwrap();
        assert!(!ans2.holds);
        assert!(ans2.certified);
    }

    /// A finitely-unsatisfiable but unrestrictedly-satisfiable instance:
    /// A ⊑ ∃s.B, B ⊑ ∃s.B, B ⊑ ∃≤1 s⁻.⊤, A⊓B ⊑ ⊥, query ∃x.A(x).
    /// Every finite candidate must close the B-chain into a cycle, giving
    /// some B-node two s-predecessors.
    #[test]
    fn finite_satisfiability_differs_from_unrestricted() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let b = v.node_label("B");
        let s = v.edge_label("s");
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[a]), role: EdgeSym::fwd(s), rhs: set(&[b]) });
        t.push(HornCi::Exists { lhs: set(&[b]), role: EdgeSym::fwd(s), rhs: set(&[b]) });
        t.push(HornCi::AtMostOne { lhs: set(&[b]), role: EdgeSym::bwd(s), rhs: LabelSet::new() });
        t.push(HornCi::Bottom { lhs: set(&[a, b]) });

        let p = C2rpq::new(1, vec![], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }]);
        // Unrestricted: an infinite s-chain works.
        let verdict = decide(&t, &p, &Budget::default());
        assert!(verdict.is_sat(), "unrestrictedly satisfiable via infinite chain");
        // Finite: unsatisfiable.
        let (sat, cert) = finitely_satisfiable_modulo_tbox(&p, &t, &Default::default()).unwrap();
        assert!(!sat, "no finite model exists");
        assert!(cert);
        // Sanity: ∃x.B(x) alone (without the A-seed) IS finitely
        // satisfiable — a pure B-cycle.
        let pb = C2rpq::new(1, vec![], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(b) }]);
        let (sat_b, cert_b) =
            finitely_satisfiable_modulo_tbox(&pb, &t, &Default::default()).unwrap();
        assert!(sat_b && cert_b);
    }

    /// Containment with an empty TBox degenerates to plain (finite) query
    /// containment.
    #[test]
    fn empty_tbox_plain_containment() {
        let mut v = Vocab::new();
        let r = v.edge_label("r");
        let s = v.edge_label("s");
        let t = HornTbox::new();
        let p = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let q_wide = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r).or(Regex::edge(s)) }],
        ));
        let ans =
            contains_finite_modulo_tbox(&p, &q_wide, &t, &mut v, &Default::default()).unwrap();
        assert!(ans.holds && ans.certified);
        let ans2 =
            contains_finite_modulo_tbox(&q_wide, &p, &t, &mut v, &Default::default()).unwrap();
        assert!(!ans2.holds && ans2.certified);
        assert!(ans2.witness.is_some());
    }

    /// Non-Boolean inputs are rejected with a clear error.
    #[test]
    fn non_boolean_inputs_are_rejected() {
        let mut v = Vocab::new();
        let r = v.edge_label("r");
        let t = HornTbox::new();
        let free = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let err =
            contains_finite_modulo_tbox(&free, &free, &t, &mut v, &Default::default()).unwrap_err();
        assert_eq!(err, ContainmentError::NotBoolean);
    }

    /// TBox constraints can *create* containments: with A ⊑ ∃r.A, the
    /// query ∃x.A(x) is finitely contained in ∃x,y.(r·r)(x,y).
    #[test]
    fn tbox_existentials_entail_longer_paths() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut t = HornTbox::new();
        t.push(HornCi::Exists { lhs: set(&[a]), role: EdgeSym::fwd(r), rhs: set(&[a]) });
        let p = Uc2rpq::single(C2rpq::new(
            1,
            vec![],
            vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }],
        ));
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r).then(Regex::edge(r)) }],
        ));
        let ans = contains_finite_modulo_tbox(&p, &q, &t, &mut v, &Default::default()).unwrap();
        assert!(ans.holds && ans.certified);
        // Without the TBox it fails.
        let ans2 =
            contains_finite_modulo_tbox(&p, &q, &HornTbox::new(), &mut v, &Default::default())
                .unwrap();
        assert!(!ans2.holds && ans2.certified);
    }
}
