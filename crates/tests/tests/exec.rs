//! The execution layer's workspace-level suites.
//!
//! Two kinds of guarantees are enforced here:
//!
//! * **indexed ≡ naive** — property tests that `gts-exec`'s product-BFS
//!   RPQ evaluation, C2RPQ join, and rule executor agree with the naive
//!   reference semantics (`Nfa::pairs`, `C2rpq::eval`,
//!   `Transformation::apply`) on random graphs, random queries, and
//!   random transformations;
//! * **static ≡ dynamic** — the differential soundness suite: verdicts of
//!   the paper's analyses (type checking, equivalence) cross-checked
//!   against concrete executions on sampled conforming instances via
//!   `gts-exec`'s harness. Any disagreement prints the counterexample
//!   instance graph.

use gts_core::prelude::*;
use gts_core::{random_transformation, TransformGenConfig};
use gts_exec::{
    differential_equivalence, differential_type_check, eval_c2rpq, eval_uc2rpq, execute_with,
    output_facts, ExecOptions, HarnessConfig, IndexedGraph, Relation,
};
use gts_graph::FxHashSet;
use gts_schema::SchemaGenConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ─────────────────────── indexed vs naive: properties ──────────────────

fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        Just(Regex::Empty),
        (0u32..3).prop_map(|i| Regex::node(NodeLabel(i))),
        (0u32..3, any::<bool>())
            .prop_map(|(i, inv)| { Regex::sym(EdgeSym { label: EdgeLabel(i), inverse: inv }) }),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Regex::Concat(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::Alt(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Regex::Star(Box::new(a))),
        ]
    })
}

/// Random graphs over ≤ 7 nodes, ≤ 3 node labels, ≤ 3 edge labels.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1usize..7,
        prop::collection::vec((0u32..7, 0u32..3, 0u32..7), 0..14),
        prop::collection::vec((0u32..7, 0u32..3), 0..8),
    )
        .prop_map(|(n, edges, labels)| {
            let mut g = Graph::new();
            for _ in 0..n {
                g.add_node();
            }
            for (src, l, tgt) in edges {
                g.add_edge(NodeId(src % n as u32), EdgeLabel(l), NodeId(tgt % n as u32));
            }
            for (node, l) in labels {
                g.add_label(NodeId(node % n as u32), NodeLabel(l));
            }
            g
        })
}

/// Random C2RPQs: ≤ 3 variables, a prefix of them free, ≤ 3 atoms.
fn arb_c2rpq() -> impl Strategy<Value = C2rpq> {
    (1u32..4, 0usize..4, prop::collection::vec((0u32..4, 0u32..4, arb_regex()), 0..3)).prop_map(
        |(num_vars, num_free, raw_atoms)| {
            let free: Vec<Var> = (0..num_free.min(num_vars as usize) as u32).map(Var).collect();
            let atoms = raw_atoms
                .into_iter()
                .map(|(x, y, regex)| Atom { x: Var(x % num_vars), y: Var(y % num_vars), regex })
                .collect();
            C2rpq::new(num_vars, free, atoms)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Product-BFS RPQ evaluation agrees with the naive per-source NFA
    /// product on every (graph, regex) pair.
    #[test]
    fn indexed_rpq_agrees_with_naive(g in arb_graph(), re in arb_regex()) {
        let nfa = Nfa::from_regex(&re);
        let idx = IndexedGraph::build(&g);
        let rel = Relation::build(&idx, &nfa);
        let indexed: FxHashSet<(NodeId, NodeId)> = rel.iter_pairs().collect();
        prop_assert_eq!(&indexed, &nfa.pairs(&g), "regex {:?}", re);
        prop_assert_eq!(rel.len(), indexed.len());
    }

    /// The indexed join agrees with the naive backtracking join on random
    /// conjunctive queries (including cyclic and Boolean ones).
    #[test]
    fn indexed_c2rpq_agrees_with_naive(g in arb_graph(), q in arb_c2rpq()) {
        let idx = IndexedGraph::build(&g);
        let indexed = eval_c2rpq(&idx, &q);
        let mut naive: Vec<Vec<NodeId>> = q.eval(&g).into_iter().collect();
        naive.sort();
        prop_assert_eq!(indexed, naive, "query {:?}", q);
    }

    /// Union evaluation agrees with the naive union semantics.
    #[test]
    fn indexed_uc2rpq_agrees_with_naive(
        g in arb_graph(),
        q1 in arb_c2rpq(),
        q2 in arb_c2rpq(),
    ) {
        // Align arities so the union is well-formed.
        let arity = q1.free.len().min(q2.free.len());
        let mut q1 = q1;
        let mut q2 = q2;
        q1.free.truncate(arity);
        q2.free.truncate(arity);
        let u = Uc2rpq { disjuncts: vec![q1, q2] };
        let idx = IndexedGraph::build(&g);
        let indexed = eval_uc2rpq(&idx, &u);
        let mut naive: Vec<Vec<NodeId>> = u.eval(&g).into_iter().collect();
        naive.sort();
        prop_assert_eq!(indexed, naive);
    }
}

/// The executor agrees with `Transformation::apply` (fact-for-fact) on
/// random schemas, random transformations, and random conforming graphs —
/// at several thread counts.
#[test]
fn executor_agrees_with_apply_on_random_transformations() {
    let mut checked = 0;
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vocab = Vocab::new();
        let schema = random_schema(&SchemaGenConfig::default(), &mut vocab, &mut rng);
        let t =
            random_transformation(&schema, &TransformGenConfig::default(), &mut vocab, &mut rng);
        t.validate().expect("generated transformations are well-formed");
        let Some(g) = random_conforming_graph(&schema, 4, 5, &mut rng) else { continue };
        let idx = IndexedGraph::build(&g);
        let naive = t.output_facts(&g);
        for threads in [1usize, 4] {
            let opts = ExecOptions { threads };
            assert_eq!(
                output_facts(&idx, &t, &opts),
                naive,
                "seed {seed}, {threads} thread(s): indexed facts diverge\nrules:\n{}",
                t.render(&vocab)
            );
            let out = execute_with(&t, &g, &opts);
            let reference = t.apply(&g);
            assert_eq!(out.num_nodes(), reference.num_nodes(), "seed {seed}");
            assert_eq!(out.num_edges(), reference.num_edges(), "seed {seed}");
        }
        checked += 1;
    }
    assert!(checked >= 8, "only {checked}/12 seeds produced a conforming instance");
}

// ─────────────────── static ≡ dynamic: differential suite ──────────────

/// Type checking on the paper's medical fixture, validated dynamically:
/// the certified `T0 : S0 → S1` verdict must see only conforming outputs,
/// and the failing `T0 : S0 → S0` verdict is witnessed by samples.
#[test]
fn medical_type_check_verdicts_agree_with_execution() {
    let (mut vocab, s0, s1, t0) = gts_corpus::medical_fixture();
    let opts = ContainmentOptions::default();
    let cfg = HarnessConfig::default();

    let good = type_check(&t0, &s0, &s1, &mut vocab, &opts).expect("analysis runs");
    assert!(good.holds && good.certified);
    let mut rng = StdRng::seed_from_u64(1);
    let report = differential_type_check(&t0, &s0, &s1, &good, &cfg, &mut rng);
    assert!(report.ok(), "{}", report.render(&vocab));
    assert!(report.checked > 0);

    let bad = type_check(&t0, &s0, &s0, &mut vocab, &opts).expect("analysis runs");
    assert!(!bad.holds);
    let report = differential_type_check(&t0, &s0, &s0, &bad, &cfg, &mut rng);
    assert!(report.ok(), "{}", report.render(&vocab));
    assert!(report.witnessed_failure, "the failing verdict should be concretely witnessed");
}

/// Equivalence on the medical fixture, validated dynamically: `T0 ~ T0`
/// holds and outputs coincide; dropping the `targets` rule breaks
/// equivalence, and samples witness the divergence.
#[test]
fn medical_equivalence_verdicts_agree_with_execution() {
    let (mut vocab, s0, _, t0) = gts_corpus::medical_fixture();
    let opts = ContainmentOptions::default();
    let cfg = HarnessConfig::default();

    let refl = equivalence(&t0, &t0, &s0, &mut vocab, &opts).expect("analysis runs");
    assert!(refl.holds && refl.certified);
    let mut rng = StdRng::seed_from_u64(2);
    let report = differential_equivalence(&t0, &t0, &s0, &refl, &cfg, &mut rng);
    assert!(report.ok(), "{}", report.render(&vocab));

    let mut pruned = t0.clone();
    pruned.rules.remove(3); // drop the `targets` rule
    let diff = equivalence(&t0, &pruned, &s0, &mut vocab, &opts).expect("analysis runs");
    assert!(!diff.holds);
    let report = differential_equivalence(&t0, &pruned, &s0, &diff, &cfg, &mut rng);
    assert!(report.ok(), "{}", report.render(&vocab));
    assert!(report.witnessed_failure, "the divergence should be concretely witnessed");
}

/// Random sweep: for generated (schema, transformation) pairs, the
/// type-check verdict against the source schema — whichever way it goes —
/// must be consistent with execution on sampled instances, and `t ~ t`
/// equivalence must be consistent too. `num_seeds` bounds analysis cost
/// (each verdict costs an analysis run).
fn static_dynamic_sweep(num_seeds: u64, min_checked: usize) {
    let opts = ContainmentOptions::default();
    let cfg = HarnessConfig { instances: 4, size_per_label: 2, attempts: 4 };
    let gen_cfg = SchemaGenConfig {
        num_node_labels: 2,
        num_edge_labels: 2,
        edge_density: 0.4,
        allow_lower_bounds: false,
    };
    let t_cfg = TransformGenConfig { num_edge_rules: 2, max_path_len: 2, star_prob: 0.3 };
    let mut checked = 0;
    for seed in 0..num_seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vocab = Vocab::new();
        let schema = random_schema(&gen_cfg, &mut vocab, &mut rng);
        let t = random_transformation(&schema, &t_cfg, &mut vocab, &mut rng);
        let Ok(check) = type_check(&t, &schema, &schema, &mut vocab, &opts) else { continue };
        let report = differential_type_check(&t, &schema, &schema, &check, &cfg, &mut rng);
        assert!(
            report.ok(),
            "seed {seed}: static type-check disagrees with execution\nrules:\n{}\n{}",
            t.render(&vocab),
            report.render(&vocab)
        );
        let Ok(eq) = equivalence(&t, &t, &schema, &mut vocab, &opts) else { continue };
        assert!(eq.holds, "seed {seed}: self-equivalence must hold");
        let report = differential_equivalence(&t, &t, &schema, &eq, &cfg, &mut rng);
        assert!(report.ok(), "seed {seed}: {}", report.render(&vocab));
        checked += 1;
    }
    assert!(checked >= min_checked, "only {checked}/{num_seeds} seeds analyzed");
}

/// Fast deterministic prefix of the static↔dynamic sweep; always on.
#[test]
fn static_verdicts_agree_with_dynamic_execution() {
    static_dynamic_sweep(2, 1);
}

/// Full static↔dynamic sweep. Run with:
/// `cargo test -p gts-tests --test exec -- --ignored`
#[test]
#[ignore = "multi-seed sweep re-runs the analyses per seed; the fast prefix is always on"]
fn static_verdicts_agree_with_dynamic_execution_full() {
    static_dynamic_sweep(8, 4);
}

/// `gts-engine` batch execution requests agree with direct execution and
/// with the analyses they ride along with.
#[test]
fn batched_execution_agrees_with_direct_execution() {
    use gts_engine::{AnalysisSession, Batch, Request, Verdict};
    let (vocab, s0, s1, t0) = gts_corpus::medical_fixture();
    let g = gts_corpus::medical_instance(&vocab, 3, 4);
    let mut batch = Batch::new(AnalysisSession::new(s0.clone(), vocab.clone()));
    batch.push("check", Request::TypeCheck { transform: t0.clone(), target: s1.clone() });
    batch.push(
        "run",
        Request::Execute {
            transform: t0.clone(),
            instance: g.clone(),
            check_target: Some(s1.clone()),
        },
    );
    let (results, _) = batch.run(2);
    let Ok(Verdict::Decision(d)) = &results[0].verdict else {
        panic!("expected a decision, got {:?}", results[0].verdict)
    };
    assert!(d.holds);
    let Ok(Verdict::Executed { output, conforms }) = &results[1].verdict else {
        panic!("expected an execution, got {:?}", results[1].verdict)
    };
    // The type check promised conformance; the batched execution kept it.
    assert_eq!(*conforms, Some(true));
    let direct = gts_exec::execute(&t0, &g);
    assert_eq!(output.num_nodes(), direct.num_nodes());
    assert_eq!(output.num_edges(), direct.num_edges());
}

// ───────────────────── scale: 100k-node medical chains ─────────────────

/// At ~100k nodes (10,000 medical chains of 8 antigens): a serial and a
/// forced two-thread chunked index build agree on every label in both
/// directions, a budget of half the predicted footprint is refused before
/// allocating, and rewiring/unwiring crossReacting edges through
/// `Incremental::apply_delta` matches a full re-execution.
#[test]
fn scale_builds_budgets_and_deltas_agree_at_100k_nodes() {
    use gts_core::graph::GraphDelta;
    use gts_exec::{Incremental, IndexBuildOptions, IndexError};
    let (vocab, _, _, t0) = gts_corpus::medical_fixture();
    let (chains, chain_len) = (10_000, 8);
    let g = gts_corpus::medical_instance(&vocab, chains, chain_len);
    assert_eq!(g.num_nodes(), chains * (2 + chain_len));

    // builds_agree: the chunked path runs even on a one-core host.
    let build = |threads| {
        IndexedGraph::try_build_with(&g, &IndexBuildOptions { threads, budget_bytes: None })
            .expect("build")
    };
    let (serial, chunked) = (build(1), build(2));
    assert_eq!(serial.num_nodes(), chunked.num_nodes());
    for label in vocab.edge_labels() {
        for sym in [EdgeSym::fwd(label), EdgeSym::bwd(label)] {
            for u in 0..g.num_nodes() as u32 {
                assert_eq!(serial.successors(u, sym), chunked.successors(u, sym), "{sym:?} at {u}");
            }
        }
    }

    // budget_enforced: half the real footprint can never fit.
    let tight = IndexBuildOptions { threads: 1, budget_bytes: Some(serial.approx_bytes() / 2) };
    assert!(matches!(
        IndexedGraph::try_build_with(&g, &tight),
        Err(IndexError::BudgetExceeded { .. })
    ));

    // outputs_agree: chain c's antigen j is node c·(2+chain_len)+2+j.
    // Rewiring cuts a2 -> a3 and splices a2 -> a4; unwiring undoes it.
    let cr = vocab.find_edge_label("crossReacting").unwrap();
    let antigen = |c: usize, j: usize| NodeId((c * (2 + chain_len) + 2 + j) as u32);
    let rewire = |k: usize, from: usize, to: usize| {
        let mut d = GraphDelta::default();
        for c in 0..k {
            d.removed_edges.push((antigen(c, 2), cr, antigen(c, from)));
            d.added_edges.push((antigen(c, 2), cr, antigen(c, to)));
        }
        d
    };
    let inline = ExecOptions { threads: 1 };
    let mut inc = Incremental::new(&t0, &g);
    let base_out = inc.output_graph();
    let edges = g.num_edges();
    for k in [1, edges / 2000, edges / 200] {
        let delta = rewire(k, 3, 4);
        let mut patched = g.clone();
        delta.apply_in_place(&mut patched).expect("delta applies to the graph");
        inc.apply_delta(&delta).expect("delta applies");
        let (full, out) = (execute_with(&t0, &patched, &inline), inc.output_graph());
        assert_eq!(out.num_nodes(), full.num_nodes(), "k={k}");
        assert!(out.edges().eq(full.edges()), "k={k}: incremental and full execution disagree");
        inc.apply_delta(&rewire(k, 4, 3)).expect("inverse applies");
        assert!(inc.output_graph().edges().eq(base_out.edges()), "k={k}: inverse did not restore");
    }
}
