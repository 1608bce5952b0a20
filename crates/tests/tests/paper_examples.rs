//! Every worked example of the paper, as an executable test. The test
//! names reference the paper's numbering.

use gts_containment::{complete, rollup_negation, CompletionConfig};
use gts_core::prelude::*;
use gts_dl::{datalog_satisfies, HornTbox};
use gts_hardness::{encode_run, machines, reduce};

struct Medical {
    vocab: Vocab,
    s0: Schema,
    s1: Schema,
    t0: Transformation,
}

fn medical() -> Medical {
    let (vocab, s0, s1, t0) = gts_corpus::medical_fixture();
    Medical { vocab, s0, s1, t0 }
}

/// Example 1.1 / Figure 1 / Example 4.1: the migration produces exactly
/// the explicit `targets` edges of the cross-reactivity closure.
#[test]
fn example_1_1_and_4_1_migration_semantics() {
    let m = medical();
    let vaccine = m.vocab.find_node_label("Vaccine").unwrap();
    let antigen = m.vocab.find_node_label("Antigen").unwrap();
    let pathogen = m.vocab.find_node_label("Pathogen").unwrap();
    let dt = m.vocab.find_edge_label("designTarget").unwrap();
    let cr = m.vocab.find_edge_label("crossReacting").unwrap();
    let ex = m.vocab.find_edge_label("exhibits").unwrap();
    let targets = m.vocab.find_edge_label("targets").unwrap();

    let mut g = Graph::new();
    let vac = g.add_labeled_node([vaccine]);
    let ants: Vec<_> = (0..4).map(|_| g.add_labeled_node([antigen])).collect();
    let p = g.add_labeled_node([pathogen]);
    g.add_edge(vac, dt, ants[0]);
    g.add_edge(ants[0], cr, ants[1]);
    g.add_edge(ants[1], cr, ants[2]);
    // ants[3] is NOT cross-reacting with the design target.
    for &a in &ants {
        g.add_edge(p, ex, a);
    }
    assert_eq!(m.s0.conforms(&g), Ok(()));

    let out = m.t0.apply(&g);
    assert_eq!(m.s1.conforms(&out), Ok(()));
    assert_eq!(out.edges().filter(|(_, l, _)| *l == targets).count(), 3);
    assert_eq!(out.edges().filter(|(_, l, _)| *l == cr).count(), 0);
}

/// Example 3.2: the query selects vaccines with direct or cross-reacting
/// targets.
#[test]
fn example_3_2_query_semantics() {
    let m = medical();
    let vaccine = m.vocab.find_node_label("Vaccine").unwrap();
    let antigen = m.vocab.find_node_label("Antigen").unwrap();
    let dt = m.vocab.find_edge_label("designTarget").unwrap();
    let cr = m.vocab.find_edge_label("crossReacting").unwrap();
    let q = C2rpq::new(
        2,
        vec![Var(0), Var(1)],
        vec![Atom {
            x: Var(0),
            y: Var(1),
            regex: Regex::node(vaccine)
                .then(Regex::edge(dt))
                .then(Regex::edge(cr).star())
                .then(Regex::node(antigen)),
        }],
    );
    let mut g = Graph::new();
    let vac = g.add_labeled_node([vaccine]);
    let a1 = g.add_labeled_node([antigen]);
    let a2 = g.add_labeled_node([antigen]);
    g.add_edge(vac, dt, a1);
    g.add_edge(a1, cr, a2);
    assert_eq!(q.eval(&g).len(), 2);
}

/// Example 4.4: the label-coverage check of Lemma B.6 passes for T0/S0.
#[test]
fn example_4_4_label_coverage() {
    let mut m = medical();
    let d = gts_core::label_coverage(&m.t0, &m.s0, &mut m.vocab, &ContainmentOptions::default())
        .unwrap();
    assert!(d.holds && d.certified);
}

/// Example 4.5 + Lemma B.2: `(Vaccine)(x) ⊆_S0 ∃y.(designTarget ·
/// crossReacting*)(x, y)`, so type checking T0 against S1 succeeds; it
/// fails against a version of S1 requiring functional `targets`.
#[test]
fn example_4_5_type_checking() {
    let mut m = medical();
    let opts = ContainmentOptions::default();
    let vaccine = m.vocab.find_node_label("Vaccine").unwrap();
    let dt = m.vocab.find_edge_label("designTarget").unwrap();
    let cr = m.vocab.find_edge_label("crossReacting").unwrap();
    let qv = Uc2rpq::single(C2rpq::new(
        1,
        vec![Var(0)],
        vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(vaccine) }],
    ));
    let qt = Uc2rpq::single(C2rpq::new(
        2,
        vec![Var(0)],
        vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(dt).then(Regex::edge(cr).star()) }],
    ));
    let ans = contains(&qv, &qt, &m.s0, &mut m.vocab, &opts).unwrap();
    assert!(ans.holds && ans.certified);

    let d = gts_core::type_check(&m.t0, &m.s0, &m.s1, &mut m.vocab, &opts).unwrap();
    assert!(d.holds && d.certified);

    let antigen = m.vocab.find_node_label("Antigen").unwrap();
    let targets = m.vocab.find_edge_label("targets").unwrap();
    let mut strict = m.s1.clone();
    strict.set_edge(vaccine, targets, antigen, Mult::One, Mult::Star);
    let d2 = gts_core::type_check(&m.t0, &m.s0, &strict, &mut m.vocab, &opts).unwrap();
    assert!(!d2.holds, "cross-reactivity can produce several targets");
}

/// Lemma B.5: the elicited schema for (T0, S0) is coherent, certified,
/// and at least as tight as the hand-written S1.
#[test]
fn lemma_b5_elicitation() {
    let mut m = medical();
    let e = gts_core::elicit_schema(&m.t0, &m.s0, &mut m.vocab, &ContainmentOptions::default())
        .unwrap();
    assert!(e.certified);
    assert!(e.schema.contains_in(&m.s1));
    // Spot-checks (Example 4.5): targets is ∃+, designTarget functional.
    let vaccine = m.vocab.find_node_label("Vaccine").unwrap();
    let antigen = m.vocab.find_node_label("Antigen").unwrap();
    let targets = m.vocab.find_edge_label("targets").unwrap();
    let dt = m.vocab.find_edge_label("designTarget").unwrap();
    assert_eq!(e.schema.mult(vaccine, EdgeSym::fwd(targets), antigen), Mult::Plus);
    assert_eq!(e.schema.mult(vaccine, EdgeSym::fwd(dt), antigen), Mult::One);
}

/// Lemma B.8: T0 is equivalent to itself and to a variant with a
/// subsumed extra rule, but not to a pruned variant.
#[test]
fn lemma_b8_equivalence() {
    let mut m = medical();
    let opts = ContainmentOptions::default();
    let d = gts_core::equivalence(&m.t0, &m.t0, &m.s0, &mut m.vocab, &opts).unwrap();
    assert!(d.holds && d.certified);

    // Adding a redundant `targets` rule along designTarget alone is
    // subsumed by designTarget·crossReacting*.
    let vaccine = m.vocab.find_node_label("Vaccine").unwrap();
    let antigen = m.vocab.find_node_label("Antigen").unwrap();
    let dt = m.vocab.find_edge_label("designTarget").unwrap();
    let targets = m.vocab.find_edge_label("targets").unwrap();
    let mut t2 = m.t0.clone();
    t2.add_edge_rule(
        targets,
        (vaccine, 1),
        (antigen, 1),
        C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(dt) }],
        ),
    );
    let d2 = gts_core::equivalence(&m.t0, &t2, &m.s0, &mut m.vocab, &opts).unwrap();
    assert!(d2.holds, "the extra rule is semantically subsumed");

    let mut pruned = m.t0.clone();
    pruned.rules.remove(3); // drop the targets rule
    let d3 = gts_core::equivalence(&m.t0, &pruned, &m.s0, &mut m.vocab, &opts).unwrap();
    assert!(!d3.holds);
}

/// Example 5.2 / Figure 2: finite containment holds; it fails without the
/// incoming-s functionality (where infinite models are matched by finite
/// counterexamples).
#[test]
fn example_5_2_finite_vs_unrestricted() {
    let gts_corpus::Fig2Fixture { mut vocab, schema, loose, p, q } = gts_corpus::fig2();
    let opts = ContainmentOptions::default();
    let ans = contains(&p, &q, &schema, &mut vocab, &opts).unwrap();
    assert!(ans.holds && ans.certified);
    let ans2 = contains(&p, &q, &loose, &mut vocab, &opts).unwrap();
    assert!(!ans2.holds && ans2.certified);
    // Cross-check with the exhaustive finite oracle on tiny graphs.
    let (cex, complete_search) =
        gts_containment::counterexample_exhaustive(&p, &q, &loose, 2, 500_000);
    assert!(complete_search && cex.is_some());
}

/// Example 5.3/5.5 / Figure 3: the completion reverses the finmod cycle
/// A,s,A, tightening the schema exactly as the paper describes.
#[test]
fn example_5_5_cycle_reversal() {
    let mut vocab = Vocab::new();
    let a = vocab.node_label("A");
    let s_edge = vocab.edge_label("s");
    let sym = EdgeSym::fwd(s_edge);
    let mut t = HornTbox::new();
    t.push(gts_dl::HornCi::SubAtom { lhs: LabelSet::new(), rhs: a });
    t.push(gts_dl::HornCi::Exists {
        lhs: LabelSet::singleton(a.0),
        role: sym,
        rhs: LabelSet::singleton(a.0),
    });
    t.push(gts_dl::HornCi::AtMostOne {
        lhs: LabelSet::singleton(a.0),
        role: sym.inv(),
        rhs: LabelSet::singleton(a.0),
    });
    let c =
        complete(&t, &LabelSet::singleton(a.0), &Budget::default(), &CompletionConfig::default());
    assert!(c.complete);
    // S* of Figure 2: both the reversed existential and the forward
    // functionality appear.
    assert!(c.tbox.cis.contains(&gts_dl::HornCi::Exists {
        lhs: LabelSet::singleton(a.0),
        role: sym.inv(),
        rhs: LabelSet::singleton(a.0),
    }));
    assert!(c.tbox.cis.contains(&gts_dl::HornCi::AtMostOne {
        lhs: LabelSet::singleton(a.0),
        role: sym,
        rhs: LabelSet::singleton(a.0),
    }));
}

/// Example 6.2 / Figure 4: the cyclic query `p` is satisfiable modulo the
/// schema, witnessed by a finite sparse core (the engine's core is the
/// analogue of the merged witness G_t).
#[test]
fn example_6_2_sparse_witness_for_cyclic_query() {
    let mut vocab = Vocab::new();
    let ci = vocab.node_label("Circle");
    let ea = vocab.edge_label("a");
    let eb = vocab.edge_label("b");
    let ec = vocab.edge_label("c");
    let ed = vocab.edge_label("d");
    let mut schema = Schema::new();
    // Figure 4's key constraint: every node has at most one outgoing and
    // at most one incoming a-edge (the source of the witness merging);
    // b/c/d are unrestricted.
    schema.set_edge(ci, ea, ci, Mult::Opt, Mult::Opt);
    schema.set_edge(ci, eb, ci, Mult::Star, Mult::Star);
    schema.set_edge(ci, ec, ci, Mult::Star, Mult::Star);
    schema.set_edge(ci, ed, ci, Mult::Star, Mult::Star);

    // p(x,y) = (a·b·c⁺·d·a)(x,y) ∧ (a*)(x,y) ∧ (a*·b·d·a*)(x,y) — cyclic!
    let cplus = Regex::edge(ec).then(Regex::edge(ec).star());
    let p = C2rpq::new(
        2,
        vec![],
        vec![
            Atom {
                x: Var(0),
                y: Var(1),
                regex: Regex::edge(ea)
                    .then(Regex::edge(eb))
                    .then(cplus)
                    .then(Regex::edge(ed))
                    .then(Regex::edge(ea)),
            },
            Atom { x: Var(0), y: Var(1), regex: Regex::edge(ea).star() },
            Atom {
                x: Var(0),
                y: Var(1),
                regex: Regex::edge(ea)
                    .star()
                    .then(Regex::edge(eb))
                    .then(Regex::edge(ed))
                    .then(Regex::edge(ea).star()),
            },
        ],
    );
    assert!(!p.is_acyclic());
    // Satisfiability modulo the schema (via the full pipeline: ⊄ ∅).
    let (sat, certified) = gts_core::prelude::satisfiable_modulo_schema(
        &p,
        &schema,
        &mut vocab,
        &ContainmentOptions::default(),
    )
    .unwrap();
    assert!(sat, "Example 6.2's query is satisfiable modulo the schema");
    assert!(certified);
}

/// Example C.1 / Figure 5: the rolled-up TBox simulates the automata; on
/// finite graphs it agrees with direct evaluation.
#[test]
fn example_c1_rollup() {
    let mut vocab = Vocab::new();
    let a_e = vocab.edge_label("a");
    let b_e = vocab.edge_label("b");
    let c_e = vocab.edge_label("c");
    let la = vocab.node_label("A");
    let q0 = Uc2rpq::single(C2rpq::new(
        4,
        vec![],
        vec![
            Atom {
                x: Var(2),
                y: Var(1),
                regex: Regex::edge(a_e).then(Regex::edge(b_e).star()).then(Regex::edge(c_e)),
            },
            Atom { x: Var(1), y: Var(1), regex: Regex::node(la) },
            Atom { x: Var(3), y: Var(1), regex: Regex::Epsilon },
            Atom { x: Var(1), y: Var(0), regex: Regex::sym(EdgeSym::bwd(a_e)) },
        ],
    ));
    let (choices, states) = rollup_negation(&q0, &mut vocab).unwrap();
    assert_eq!(choices.len(), 1);

    let mut g = Graph::new();
    let x2 = g.add_node();
    let mid = g.add_node();
    let x1 = g.add_labeled_node([la]);
    let x0 = g.add_node();
    g.add_edge(x2, a_e, mid);
    g.add_edge(mid, b_e, mid); // b-loop exercises b*
    g.add_edge(mid, c_e, x1);
    g.add_edge(x0, a_e, x1);
    assert!(q0.holds(&g));
    assert_eq!(datalog_satisfies(&choices[0], &g, &states), Some(false));

    let mut g2 = Graph::new();
    g2.add_node();
    assert!(!q0.holds(&g2));
    assert_eq!(datalog_satisfies(&choices[0], &g2, &states), Some(true));

    // Lemma C.2 on 50 seeded random graphs: Q0 fails exactly when some
    // choice TBox is satisfied.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    for i in 0..50 {
        let g = random_graph(&mut rng, la, &[a_e, b_e, c_e]);
        let refuted = choices.iter().any(|t| datalog_satisfies(t, &g, &states) == Some(true));
        assert_eq!(!q0.holds(&g), refuted, "random graph {i}");
    }
}

/// A graph of 2–5 nodes, each labelled `label` with probability ½, and
/// 2–7 random edges over `edges`.
fn random_graph(rng: &mut impl rand::Rng, label: NodeLabel, edges: &[EdgeLabel]) -> Graph {
    let mut g = Graph::new();
    let n = rng.gen_range(2..6);
    for _ in 0..n {
        let node = g.add_node();
        if rng.gen_bool(0.5) {
            g.add_label(node, label);
        }
    }
    for _ in 0..rng.gen_range(2..8) {
        let s = NodeId(rng.gen_range(0..n) as u32);
        let t = NodeId(rng.gen_range(0..n) as u32);
        g.add_edge(s, edges[rng.gen_range(0..edges.len())], t);
    }
    g
}

/// Theorem 5.1 on the chain schemas `L0 → … → L(n-1)` (one mandatory
/// `next` edge each): a `k`-step path from `L0` always ends in a node
/// with a further `next` edge iff `k + 1 < n`, and the verdict is
/// certified either way. One step for every `n` up to 6, and both sides
/// of the boundary up to 5 (the failing side grows steeply with `n`).
#[test]
fn theorem_5_1_chain_containment_holds_iff_k_plus_1_below_n() {
    for (n, k) in [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 3), (5, 4), (6, 1)] {
        let mut vocab = Vocab::new();
        let (schema, p, q) = gts_corpus::chain_instance(n, k, &mut vocab);
        let ans = contains(&p, &q, &schema, &mut vocab, &ContainmentOptions::default()).unwrap();
        assert_eq!(ans.holds, k + 1 < n, "n={n} k={k}");
        assert!(ans.certified, "n={n} k={k}");
    }
}

/// Theorem F.1 / Figures 6–8: accepting runs of small ATMs encode to
/// counterexamples of the generated containment instance.
#[test]
fn theorem_f1_reduction_on_small_machines() {
    for (machine, input, expect) in [
        (machines::first_bit_one(), vec![machines::BIT1], true),
        (machines::first_bit_one(), vec![machines::BIT0], false),
        (machines::universal_both_checks(), vec![machines::BIT1], true),
        (machines::universal_both_checks(), vec![machines::BIT0], false),
    ] {
        let space = 4;
        assert_eq!(machine.accepts(&input, space), expect);
        let mut vocab = Vocab::new();
        let red = reduce(&machine, &input, space, &mut vocab);
        if expect {
            let run = machine.accepting_run(&input, space).unwrap();
            let g = encode_run(&machine, &run, &red.labels);
            assert_eq!(red.schema.conforms(&g), Ok(()));
            assert!(red.positive.holds(&g), "p_{{M,w}} holds on the run encoding");
            assert!(!red.negative.holds(&g), "q_M avoided ⇒ counterexample to containment");
        } else {
            assert!(machine.accepting_run(&input, space).is_none());
        }
    }
}
