//! Differential and failure-injection tests for the Section 7 extensions:
//! nested regular expressions, general-TBox finite reasoning, and budget
//! robustness.

use gts_core::containment::{
    contains, contains_nre, finitely_satisfiable_modulo_tbox, ContainmentOptions,
};
use gts_core::dl::{HornCi, HornTbox};
use gts_core::graph::{EdgeLabel, EdgeSym, Graph, LabelSet, NodeId, NodeLabel, Vocab};
use gts_core::query::{Atom, C2rpq, Nre, NreAtom, NreC2rpq, NreUc2rpq, Regex, Uc2rpq, Var};
use gts_core::sat::Budget;
use gts_core::schema::{Mult, Schema};
use proptest::prelude::*;
use std::collections::HashSet;

// ───────────────────── independent NRE evaluator ──────────────────────

/// Naive relational semantics of NREs: an implementation independent of
/// the lowering/NFA path, used as the differential oracle.
fn naive_pairs(nre: &Nre, g: &Graph) -> HashSet<(NodeId, NodeId)> {
    use gts_core::query::AtomSym;
    match nre {
        Nre::Empty => HashSet::new(),
        Nre::Epsilon => g.nodes().map(|u| (u, u)).collect(),
        Nre::Sym(AtomSym::Node(a)) => {
            g.nodes().filter(|&u| g.has_label(u, *a)).map(|u| (u, u)).collect()
        }
        Nre::Sym(AtomSym::Edge(sym)) => g
            .nodes()
            .flat_map(|u| g.successors(u, *sym).map(move |v| (u, v)).collect::<Vec<_>>())
            .collect(),
        Nre::Nest(inner) => {
            let inner_pairs = naive_pairs(inner, g);
            let holders: HashSet<NodeId> = inner_pairs.iter().map(|&(u, _)| u).collect();
            holders.into_iter().map(|u| (u, u)).collect()
        }
        Nre::Concat(a, b) => {
            let ra = naive_pairs(a, g);
            let rb = naive_pairs(b, g);
            let mut out = HashSet::new();
            for &(u, m) in &ra {
                for &(m2, v) in &rb {
                    if m == m2 {
                        out.insert((u, v));
                    }
                }
            }
            out
        }
        Nre::Alt(a, b) => {
            let mut out = naive_pairs(a, g);
            out.extend(naive_pairs(b, g));
            out
        }
        Nre::Star(a) => {
            let step = naive_pairs(a, g);
            let mut out: HashSet<(NodeId, NodeId)> = g.nodes().map(|u| (u, u)).collect();
            loop {
                let mut grew = false;
                let snapshot: Vec<_> = out.iter().copied().collect();
                for &(u, m) in &snapshot {
                    for &(m2, v) in &step {
                        if m == m2 && out.insert((u, v)) {
                            grew = true;
                        }
                    }
                }
                if !grew {
                    return out;
                }
            }
        }
    }
}

/// Strategy for NREs over two node labels and two edge labels.
fn nre_strategy() -> impl Strategy<Value = Nre> {
    let leaf = prop_oneof![
        Just(Nre::Epsilon),
        Just(Nre::node(NodeLabel(0))),
        Just(Nre::node(NodeLabel(1))),
        Just(Nre::edge(EdgeLabel(0))),
        Just(Nre::edge(EdgeLabel(1))),
        Just(Nre::sym(EdgeSym::bwd(EdgeLabel(0)))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Nre::Concat(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Nre::Alt(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Nre::Star(Box::new(a))),
            inner.prop_map(|a| Nre::Nest(Box::new(a))),
        ]
    })
}

/// Strategy for small graphs over the same vocabulary.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (
        1usize..4,
        proptest::collection::vec((0u32..4, 0u32..2, 0u32..4), 0..7),
        proptest::collection::vec(0u32..3, 1..4),
    )
        .prop_map(|(n, edges, labels)| {
            let mut g = Graph::new();
            for i in 0..n {
                let node = g.add_node();
                if let Some(&l) = labels.get(i) {
                    if l < 2 {
                        g.add_label(node, NodeLabel(l));
                    }
                }
            }
            for (s, e, t) in edges {
                let (s, t) = (s as usize % n, t as usize % n);
                g.add_edge(NodeId(s as u32), EdgeLabel(e), NodeId(t as u32));
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lowering/materialization evaluator agrees with the naive
    /// relational semantics on arbitrary NREs (including nests under `*`).
    #[test]
    fn nre_lowering_matches_naive_semantics(nre in nre_strategy(), g in graph_strategy()) {
        let mut vocab = Vocab::new();
        vocab.node_label("A");
        vocab.node_label("B");
        vocab.edge_label("r");
        vocab.edge_label("s");
        let fast: HashSet<(NodeId, NodeId)> =
            nre.pairs(&g, &mut vocab).into_iter().collect();
        let slow = naive_pairs(&nre, &g);
        prop_assert_eq!(fast, slow);
    }

    /// Flattening (where defined) agrees with the lowering evaluator on
    /// single-atom queries.
    #[test]
    fn nre_flattening_matches_lowering(nre in nre_strategy(), g in graph_strategy()) {
        let q = NreC2rpq::new(2, vec![Var(0), Var(1)], vec![NreAtom {
            x: Var(0), y: Var(1), nre,
        }]);
        let Ok(flat) = q.flatten() else { return Ok(()); };
        let mut vocab = Vocab::new();
        vocab.node_label("A");
        vocab.node_label("B");
        vocab.edge_label("r");
        vocab.edge_label("s");
        let direct = q.eval(&g, &mut vocab);
        let mut flat_answers = gts_core::graph::FxHashSet::default();
        for d in &flat {
            flat_answers.extend(d.eval(&g));
        }
        prop_assert_eq!(direct, flat_answers);
    }

    /// Reversal of NREs is an involution and matches reversed pairs.
    #[test]
    fn nre_reverse_is_semantic_reversal(nre in nre_strategy(), g in graph_strategy()) {
        let mut vocab = Vocab::new();
        vocab.node_label("A");
        vocab.node_label("B");
        vocab.edge_label("r");
        vocab.edge_label("s");
        prop_assert_eq!(nre.reverse().reverse(), nre.clone());
        let fwd: HashSet<(NodeId, NodeId)> = nre.pairs(&g, &mut vocab).into_iter().collect();
        let bwd: HashSet<(NodeId, NodeId)> =
            nre.reverse().pairs(&g, &mut vocab).into_iter().map(|(u, v)| (v, u)).collect();
        prop_assert_eq!(fwd, bwd);
    }
}

// ─────────────────── budget robustness (failure injection) ─────────────

fn starved_budget() -> Budget {
    Budget {
        max_total_edge_syms: 1,
        max_word_syms: 2,
        max_words_per_atom: 2,
        max_cores: 4,
        max_candidates: 8,
    }
}

/// Under a starved budget the pipeline may lose certification but must
/// never *certify* a wrong answer: on a suite of instances with known
/// answers, certified starved answers agree with the default-budget
/// (certified) answers.
#[test]
fn starved_budgets_never_certify_wrong_answers() {
    let mut v = Vocab::new();
    let a = v.node_label("A");
    let r = v.edge_label("r");
    let s_edge = v.edge_label("s");
    let mut schema = Schema::new();
    schema.set_edge(a, r, a, Mult::Star, Mult::Star);
    schema.set_edge(a, s_edge, a, Mult::Plus, Mult::Opt);

    let atom = |re: Regex| {
        Uc2rpq::single(C2rpq::new(2, vec![], vec![Atom { x: Var(0), y: Var(1), regex: re }]))
    };
    let instances: Vec<(Uc2rpq, Uc2rpq)> = vec![
        (atom(Regex::edge(r)), atom(Regex::edge(r).or(Regex::edge(s_edge)))),
        (atom(Regex::edge(r).or(Regex::edge(s_edge))), atom(Regex::edge(r))),
        (atom(Regex::edge(r)), atom(Regex::edge(r).then(Regex::edge(s_edge).star()))),
        (
            atom(Regex::edge(r).then(Regex::edge(s_edge))),
            atom(Regex::edge(r).then(Regex::edge(s_edge).star())),
        ),
    ];
    let default_opts = ContainmentOptions::default();
    let starved_opts = ContainmentOptions { budget: starved_budget(), ..Default::default() };
    for (i, (p, q)) in instances.iter().enumerate() {
        let full = contains(p, q, &schema, &mut v, &default_opts).unwrap();
        assert!(full.certified, "instance {i}: default budget must certify");
        let starved = contains(p, q, &schema, &mut v, &starved_opts).unwrap();
        if starved.certified {
            assert_eq!(starved.holds, full.holds, "instance {i}: certified lie under starvation");
        }
    }
}

/// The NRE pipeline under starvation keeps the same contract.
#[test]
fn starved_nre_pipeline_is_honest() {
    let mut v = Vocab::new();
    let person = v.node_label("Person");
    let post = v.node_label("Post");
    let follows = v.edge_label("follows");
    let likes = v.edge_label("likes");
    let mut s = Schema::new();
    s.set_edge(person, follows, person, Mult::Star, Mult::Star);
    s.set_edge(person, likes, post, Mult::One, Mult::Star);

    let p = NreUc2rpq::single(NreC2rpq::new(
        2,
        vec![],
        vec![NreAtom { x: Var(0), y: Var(1), nre: Nre::edge(follows) }],
    ));
    let q = NreUc2rpq::single(NreC2rpq::new(
        2,
        vec![],
        vec![NreAtom {
            x: Var(0),
            y: Var(1),
            nre: Nre::edge(follows).then(Nre::nest(Nre::edge(likes))),
        }],
    ));
    let full = contains_nre(&p, &q, &s, &mut v, &Default::default()).unwrap();
    assert!(full.holds && full.certified, "likes is forced by the schema");
    let starved = ContainmentOptions { budget: starved_budget(), ..Default::default() };
    let lean = contains_nre(&p, &q, &s, &mut v, &starved).unwrap();
    if lean.certified {
        assert_eq!(lean.holds, full.holds);
    }
}

// ─────────────── finite satisfiability vs model enumeration ────────────

/// Exhaustively enumerates labeled graphs (≤ `max_nodes` nodes, one
/// optional label from the first two, one edge label) and reports whether
/// some model of `tbox` satisfies `p`.
fn finite_model_exists(p: &C2rpq, tbox: &HornTbox, max_nodes: usize) -> bool {
    let labels = [NodeLabel(0), NodeLabel(1)];
    for n in 0..=max_nodes {
        let assignments = 3usize.pow(n as u32); // none / A / B
        let slots = n * n;
        if slots > 16 {
            break;
        }
        for asg in 0..assignments {
            for mask in 0u32..(1 << slots) {
                let mut g = Graph::new();
                let mut a = asg;
                for _ in 0..n {
                    let node = g.add_node();
                    match a % 3 {
                        1 => {
                            g.add_label(node, labels[0]);
                        }
                        2 => {
                            g.add_label(node, labels[1]);
                        }
                        _ => {}
                    }
                    a /= 3;
                }
                let mut bit = 0;
                for s in 0..n {
                    for t in 0..n {
                        if mask & (1 << bit) != 0 {
                            g.add_edge(NodeId(s as u32), EdgeLabel(0), NodeId(t as u32));
                        }
                        bit += 1;
                    }
                }
                if tbox.check_graph(&g).is_ok() && p.holds(&g) {
                    return true;
                }
            }
        }
    }
    false
}

/// `finitely_satisfiable_modulo_tbox` agrees with brute-force model
/// enumeration on a family of small Horn TBoxes.
#[test]
fn finite_satisfiability_agrees_with_enumeration() {
    let mut v = Vocab::new();
    let a = v.node_label("A");
    let b = v.node_label("B");
    let r = v.edge_label("r");
    let set = |ls: &[NodeLabel]| LabelSet::from_iter(ls.iter().map(|l| l.0));
    let query_a = C2rpq::new(1, vec![], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }]);

    let tboxes: Vec<HornTbox> = vec![
        // 0: empty.
        HornTbox::new(),
        // 1: A ⊑ ∃r.A (finite model: self-loop).
        {
            let mut t = HornTbox::new();
            t.push(HornCi::Exists { lhs: set(&[a]), role: EdgeSym::fwd(r), rhs: set(&[a]) });
            t
        },
        // 2: A ⊑ ∃r.B, B ⊑ ∃r.B, B ≤1 r⁻, A⊓B ⊑ ⊥ (finitely unsat with A).
        {
            let mut t = HornTbox::new();
            t.push(HornCi::Exists { lhs: set(&[a]), role: EdgeSym::fwd(r), rhs: set(&[b]) });
            t.push(HornCi::Exists { lhs: set(&[b]), role: EdgeSym::fwd(r), rhs: set(&[b]) });
            t.push(HornCi::AtMostOne {
                lhs: set(&[b]),
                role: EdgeSym::bwd(r),
                rhs: LabelSet::new(),
            });
            t.push(HornCi::Bottom { lhs: set(&[a, b]) });
            t
        },
        // 3: A ⊑ ⊥.
        {
            let mut t = HornTbox::new();
            t.push(HornCi::Bottom { lhs: set(&[a]) });
            t
        },
    ];
    for (i, t) in tboxes.iter().enumerate() {
        let (sat, certified) =
            finitely_satisfiable_modulo_tbox(&query_a, t, &Default::default()).unwrap();
        let brute = finite_model_exists(&query_a, t, 3);
        if certified {
            assert_eq!(sat, brute, "tbox {i}: engine disagrees with enumeration");
        } else {
            // Uncertified answers must still not contradict a brute-force
            // *witness* (a found model proves satisfiability).
            if brute {
                assert!(sat || !certified, "tbox {i}");
            }
        }
    }
}
