//! Containment for *nested* regular expressions — the query extension of
//! Section 7 ("Extending queries": two-way NREs [52]).
//!
//! The right-hand side is handled natively: lowering
//! ([`gts_query::NreUc2rpq::lower`]) replaces every nest `⟨φ⟩` with a fresh
//! synthetic node label `ℓ`, and [`nest_tbox`] defines `ℓ` by a *backward*
//! Horn derivation over `φ`'s automaton: concepts `f_s` ("some path from
//! here reads a word of `L(s → F)`") with
//!
//! ```text
//! ⊤ ⊑ f_s                 for final s
//! f_s' ⊑ ∀R⁻. f_s         for transitions (s, R, s')
//! f_s' ⊓ A ⊑ f_s          for transitions (s, A, s')   (A may be a nest label)
//! f_init ⊑ ℓ
//! ```
//!
//! In the least valuation `ℓ` is *exactly* the set of nodes where `⟨φ⟩`
//! holds, and every valuation assigns a superset — which is the sound
//! direction for the negation TBox `T¬Q` (over-approximating `ℓ` only makes
//! the denial fire more often; see the module tests for the differential
//! check). In particular nests under `*` work on the right-hand side, where
//! flattening is impossible.
//!
//! The left-hand side `P` is used *positively*, so the interning trick is
//! unsound there; `P` is instead flattened exactly
//! ([`gts_query::NreUc2rpq::flatten`]), which fails — with a clear error —
//! only for nests under `*`/`+` on the left.

use crate::contains::{contains_lowered, ContainmentAnswer, ContainmentError, ContainmentOptions};
use crate::prepared::SchemaTboxes;
use gts_dl::{HornCi, HornTbox};
use gts_graph::{LabelSet, Vocab};
use gts_query::{AtomSym, NestTable, Nfa, NreUc2rpq};
use gts_schema::Schema;

/// Builds the Horn TBox defining the synthetic nest labels of `table`
/// (backward derivation, see the module docs), together with the set of
/// all fresh concept names it introduces (automaton states plus the nest
/// labels themselves).
pub fn nest_tbox(table: &NestTable, vocab: &mut Vocab) -> (HornTbox, LabelSet) {
    let mut tbox = HornTbox::new();
    let mut fresh = LabelSet::new();
    for (label, inner) in &table.entries {
        fresh.insert(label.0);
        let nfa = Nfa::from_regex(inner);
        let states: Vec<_> = (0..nfa.num_states()).map(|_| vocab.fresh_node_label("f")).collect();
        for &s in &states {
            fresh.insert(s.0);
        }
        for s in 0..nfa.num_states() {
            if nfa.is_final(s) {
                tbox.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: states[s] });
            }
            for &(sym, s2) in nfa.transitions(s) {
                match sym {
                    AtomSym::Edge(r) => {
                        // f_{s2} ⊑ ∀R⁻.f_s: an R-predecessor of a node with
                        // f_{s2} can take the edge and continue from s2.
                        tbox.push(HornCi::AllValues {
                            lhs: LabelSet::singleton(states[s2].0),
                            role: r.inv(),
                            rhs: LabelSet::singleton(states[s].0),
                        });
                    }
                    AtomSym::Node(a) => {
                        tbox.push(HornCi::SubAtom {
                            lhs: LabelSet::from_iter([states[s2].0, a.0]),
                            rhs: states[s],
                        });
                    }
                }
            }
        }
        tbox.push(HornCi::SubAtom {
            lhs: LabelSet::singleton(states[nfa.initial()].0),
            rhs: *label,
        });
    }
    (tbox, fresh)
}

/// Decides `P(x̄) ⊆_S Q(x̄)` for NRE queries: `P` is flattened (exact;
/// rejects nests under `*` on the left), `Q` is lowered with nest labels
/// defined by [`nest_tbox`] (exact for arbitrary nests, including under
/// `*`). The multigraph of every disjunct of `Q` must be acyclic, as in
/// the plain pipeline.
///
/// ```
/// use gts_graph::Vocab;
/// use gts_query::{Nre, NreAtom, NreC2rpq, NreUc2rpq, Var};
/// use gts_schema::{Mult, Schema};
/// use gts_containment::contains_nre;
///
/// let mut v = Vocab::new();
/// let person = v.node_label("Person");
/// let post = v.node_label("Post");
/// let follows = v.edge_label("follows");
/// let likes = v.edge_label("likes");
/// let mut s = Schema::new();
/// s.set_edge(person, follows, person, Mult::Star, Mult::Star);
/// s.set_edge(person, likes, post, Mult::One, Mult::Star); // likes forced
///
/// // P: some follows-edge. Q: a follow-step into a liker, ⟨likes⟩ nested.
/// let p = NreUc2rpq::single(NreC2rpq::new(2, vec![], vec![NreAtom {
///     x: Var(0), y: Var(1), nre: Nre::edge(follows),
/// }]));
/// let q = NreUc2rpq::single(NreC2rpq::new(2, vec![], vec![NreAtom {
///     x: Var(0), y: Var(1),
///     nre: Nre::edge(follows).then(Nre::nest(Nre::edge(likes))),
/// }]));
/// let ans = contains_nre(&p, &q, &s, &mut v, &Default::default()).unwrap();
/// assert!(ans.holds && ans.certified);
/// ```
pub fn contains_nre(
    p: &NreUc2rpq,
    q: &NreUc2rpq,
    s: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
) -> Result<ContainmentAnswer, ContainmentError> {
    let p_flat = p.flatten().map_err(ContainmentError::Flatten)?;
    let lowered = q.lower(vocab);
    let (extra, _fresh) = nest_tbox(&lowered.table, vocab);
    contains_lowered(&p_flat, &lowered.query, &extra, s, vocab, opts, &SchemaTboxes::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contains::contains;
    use gts_dl::datalog_satisfies;
    use gts_graph::Graph;
    use gts_query::{Atom, C2rpq, Nre, NreAtom, NreC2rpq, Regex, Uc2rpq, Var};
    use gts_schema::Mult;

    /// Vocabulary + schema: Person −follows→ Person, Person −likes→ Post.
    fn social_schema(likes_mult: Mult) -> (Vocab, Schema) {
        let mut v = Vocab::new();
        let person = v.node_label("Person");
        let post = v.node_label("Post");
        let follows = v.edge_label("follows");
        let likes = v.edge_label("likes");
        let mut s = Schema::new();
        s.set_edge(person, follows, person, Mult::Star, Mult::Star);
        s.set_edge(person, likes, post, likes_mult, Mult::Star);
        (v, s)
    }

    /// Q = ∃x,y. (follows·⟨likes⟩)(x, y): someone follows a liker.
    fn q_follows_liker(v: &mut Vocab) -> NreUc2rpq {
        let likes = v.edge_label("likes");
        let follows = v.edge_label("follows");
        let nre = Nre::edge(follows).then(Nre::nest(Nre::edge(likes)));
        NreUc2rpq::single(NreC2rpq::new(2, vec![], vec![NreAtom { x: Var(0), y: Var(1), nre }]))
    }

    /// P1 = ∃x,y,z. follows(x,y) ∧ likes(y,z) — flat witness of Q.
    fn p_follows_then_likes(v: &mut Vocab) -> NreUc2rpq {
        let likes = v.edge_label("likes");
        let follows = v.edge_label("follows");
        NreUc2rpq::single(NreC2rpq::new(
            3,
            vec![],
            vec![
                NreAtom { x: Var(0), y: Var(1), nre: Nre::edge(follows) },
                NreAtom { x: Var(1), y: Var(2), nre: Nre::edge(likes) },
            ],
        ))
    }

    /// P2 = ∃x,y. follows(x,y) — no likes required.
    fn p_follows(v: &mut Vocab) -> NreUc2rpq {
        let follows = v.edge_label("follows");
        NreUc2rpq::single(NreC2rpq::new(
            2,
            vec![],
            vec![NreAtom { x: Var(0), y: Var(1), nre: Nre::edge(follows) }],
        ))
    }

    #[test]
    fn flat_witness_is_contained_in_nested_query() {
        let (mut v, s) = social_schema(Mult::Star);
        let p = p_follows_then_likes(&mut v);
        let q = q_follows_liker(&mut v);
        let ans = contains_nre(&p, &q, &s, &mut v, &Default::default()).unwrap();
        assert!(ans.holds, "follows∧likes entails follows·⟨likes⟩");
        assert!(ans.certified);
    }

    #[test]
    fn bare_follows_is_not_contained_without_schema_help() {
        let (mut v, s) = social_schema(Mult::Star);
        let p = p_follows(&mut v);
        let q = q_follows_liker(&mut v);
        let ans = contains_nre(&p, &q, &s, &mut v, &Default::default()).unwrap();
        assert!(!ans.holds, "a follows-edge alone does not witness the nest");
        assert!(ans.certified);
    }

    #[test]
    fn schema_forced_likes_entails_the_nest() {
        // With δ(Person, likes, Post) = 1 every person likes something, so
        // the nest is always witnessed.
        let (mut v, s) = social_schema(Mult::One);
        let p = p_follows(&mut v);
        let q = q_follows_liker(&mut v);
        let ans = contains_nre(&p, &q, &s, &mut v, &Default::default()).unwrap();
        assert!(ans.holds, "the schema forces a likes-witness at every person");
        assert!(ans.certified);
    }

    #[test]
    fn nest_under_star_on_the_right() {
        // Q = (follows·⟨likes⟩)⁺ (x,y): a follow-chain through likers.
        // P = follows(x,y) ∧ likes(y,z) is a length-1 instance.
        let (mut v, s) = social_schema(Mult::Star);
        let likes = v.find_edge_label("likes").unwrap();
        let follows = v.find_edge_label("follows").unwrap();
        let step = Nre::edge(follows).then(Nre::nest(Nre::edge(likes)));
        let q = NreUc2rpq::single(NreC2rpq::new(
            2,
            vec![],
            vec![NreAtom { x: Var(0), y: Var(1), nre: step.clone().then(step.star()) }],
        ));
        let p = p_follows_then_likes(&mut v);
        let ans = contains_nre(&p, &q, &s, &mut v, &Default::default()).unwrap();
        assert!(ans.holds);
        assert!(ans.certified);
        // And bare follows is not contained.
        let p2 = p_follows(&mut v);
        let ans2 = contains_nre(&p2, &q, &s, &mut v, &Default::default()).unwrap();
        assert!(!ans2.holds && ans2.certified);
    }

    #[test]
    fn nest_under_star_on_the_left_is_rejected() {
        let (mut v, s) = social_schema(Mult::Star);
        let likes = v.find_edge_label("likes").unwrap();
        let follows = v.find_edge_label("follows").unwrap();
        let step = Nre::edge(follows).then(Nre::nest(Nre::edge(likes)));
        let p = NreUc2rpq::single(NreC2rpq::new(
            2,
            vec![],
            vec![NreAtom { x: Var(0), y: Var(1), nre: step.star() }],
        ));
        let q = q_follows_liker(&mut v);
        let err = contains_nre(&p, &q, &s, &mut v, &Default::default()).unwrap_err();
        assert_eq!(err, ContainmentError::Flatten(gts_query::FlattenError::NestUnderStar));
    }

    #[test]
    fn plain_queries_agree_with_plain_pipeline() {
        // Embedding plain queries into NREs must not change answers.
        let (mut v, s) = social_schema(Mult::Star);
        let follows = v.find_edge_label("follows").unwrap();
        let plain_p = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(follows) }],
        ));
        let plain_q = Uc2rpq::single(C2rpq::new(
            3,
            vec![],
            vec![Atom {
                x: Var(0),
                y: Var(2),
                regex: Regex::edge(follows).then(Regex::edge(follows).star()),
            }],
        ));
        let plain = contains(&plain_p, &plain_q, &s, &mut v, &Default::default()).unwrap();
        let nre = contains_nre(
            &NreUc2rpq::from_plain(&plain_p),
            &NreUc2rpq::from_plain(&plain_q),
            &s,
            &mut v,
            &Default::default(),
        )
        .unwrap();
        assert_eq!(plain.holds, nre.holds);
        assert!(plain.holds);
    }

    /// Differential check of [`nest_tbox`]: on finite graphs, the least
    /// valuation assigns a nest label exactly to the nodes where the nest
    /// holds (computed independently by materialization).
    #[test]
    fn nest_tbox_least_valuation_matches_materialization() {
        let (mut v, _) = social_schema(Mult::Star);
        let person = v.find_node_label("Person").unwrap();
        let follows = v.find_edge_label("follows").unwrap();
        let likes = v.find_edge_label("likes").unwrap();

        // ⟨follows*·likes⟩ — can reach a liker through follows-hops.
        let nre = Nre::nest(Nre::edge(follows).star().then(Nre::edge(likes)));
        let q = NreC2rpq::new(1, vec![], vec![NreAtom { x: Var(0), y: Var(0), nre }]);
        let lowered = q.lower(&mut v);
        let (tbox, fresh) = nest_tbox(&lowered.table, &mut v);
        let nest_label = lowered.table.entries.last().unwrap().0;

        // Three graphs: a chain with a liker at the end, one without, and
        // a cycle.
        let mut graphs = Vec::new();
        for with_likes in [true, false] {
            let mut g = Graph::new();
            let a = g.add_labeled_node([person]);
            let b = g.add_labeled_node([person]);
            let c = g.add_labeled_node([person]);
            g.add_edge(a, follows, b);
            g.add_edge(b, follows, c);
            if with_likes {
                let post = g.add_node();
                g.add_edge(c, likes, post);
            }
            graphs.push(g);
        }
        let mut cyc = Graph::new();
        let a = cyc.add_labeled_node([person]);
        let b = cyc.add_labeled_node([person]);
        cyc.add_edge(a, follows, b);
        cyc.add_edge(b, follows, a);
        graphs.push(cyc);

        for g in &graphs {
            // Least valuation of the nest TBox on g.
            assert_eq!(datalog_satisfies(&tbox, g, &fresh), Some(true));
            let gm = lowered.table.materialize(g);
            // Materialized label extension == nodes satisfying the nest.
            // datalog_satisfies only reports satisfiability; recompute the
            // least valuation by hand via closure-style iteration.
            let mut labels: Vec<LabelSet> = g.nodes().map(|u| g.labels(u).clone()).collect();
            loop {
                let mut changed = false;
                for ci in &tbox.cis {
                    match ci {
                        HornCi::SubAtom { lhs, rhs } => {
                            for u in g.nodes() {
                                if lhs.is_subset(&labels[u.0 as usize])
                                    && labels[u.0 as usize].insert(rhs.0)
                                {
                                    changed = true;
                                }
                            }
                        }
                        HornCi::AllValues { lhs, role, rhs } => {
                            for u in g.nodes() {
                                if !lhs.is_subset(&labels[u.0 as usize]) {
                                    continue;
                                }
                                for w in g.successors(u, *role) {
                                    for l in rhs.iter() {
                                        if labels[w.0 as usize].insert(l) {
                                            changed = true;
                                        }
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
                if !changed {
                    break;
                }
            }
            for u in g.nodes() {
                assert_eq!(
                    labels[u.0 as usize].contains(nest_label.0),
                    gm.has_label(u, nest_label),
                    "nest label mismatch at node {u:?}"
                );
            }
        }
    }
}
