//! Differential tests for solver-context reuse: a context driven through
//! many decides (as a containment call drives the one over each completed
//! TBox), the thread-fanned paths, and the session verdict memo must all agree
//! verdict-for-verdict with the fresh-context decision procedure, and
//! contexts over different TBoxes must never share state.

use gts_core::containment::{complete, complete_with, Completion, CompletionConfig};
use gts_core::prelude::*;
use gts_core::sat::{decide, decide_in_ctx, HornFixpoint, TypeUniverse};
use gts_engine::AnalysisSession;
use gts_schema::{random_schema, SchemaGenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn set(labels: &[u32]) -> LabelSet {
    LabelSet::from_iter(labels.iter().copied())
}

/// A random Horn CI of the given kind (`0..6`, in `HornCi` declaration
/// order) over `num_labels` concept names and `num_roles` roles.
fn random_ci<R: Rng>(kind: u32, num_labels: u32, num_roles: u32, rng: &mut R) -> HornCi {
    let label = |rng: &mut R| rng.gen_range(0..num_labels);
    let conj = |rng: &mut R| -> LabelSet {
        let n = rng.gen_range(0..=2);
        LabelSet::from_iter((0..n).map(|_| rng.gen_range(0..num_labels)))
    };
    let role = |rng: &mut R| {
        let r = EdgeLabel(rng.gen_range(0..num_roles));
        if rng.gen_bool(0.3) {
            EdgeSym::bwd(r)
        } else {
            EdgeSym::fwd(r)
        }
    };
    match kind {
        0 => HornCi::SubAtom { lhs: conj(rng), rhs: NodeLabel(label(rng)) },
        1 => HornCi::Bottom { lhs: set(&[label(rng), label(rng)]) },
        2 => HornCi::AllValues { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
        3 => HornCi::Exists { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
        4 => HornCi::NotExists { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
        _ => HornCi::AtMostOne { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
    }
}

/// A random Horn TBox over `num_labels` concept names and `num_roles`
/// roles — the shapes the schema pipeline produces (every CI kind,
/// inverse roles, small conjunctions).
fn random_tbox<R: Rng>(num_labels: u32, num_roles: u32, num_cis: usize, rng: &mut R) -> HornTbox {
    let mut t = HornTbox::new();
    for _ in 0..num_cis {
        let kind = rng.gen_range(0..6);
        t.push(random_ci(kind, num_labels, num_roles, rng));
    }
    t
}

/// Random Boolean queries in the shapes the reductions emit: node-test
/// self-loops, single steps, and two-atom stars.
fn random_queries<R: Rng>(num_labels: u32, num_roles: u32, rng: &mut R) -> Vec<C2rpq> {
    let mut out = Vec::new();
    for _ in 0..6 {
        let q = match rng.gen_range(0..3) {
            0 => {
                let a = NodeLabel(rng.gen_range(0..num_labels));
                let b = NodeLabel(rng.gen_range(0..num_labels));
                C2rpq::new(
                    1,
                    vec![],
                    vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a).then(Regex::node(b)) }],
                )
            }
            1 => {
                let r = EdgeLabel(rng.gen_range(0..num_roles));
                let a = NodeLabel(rng.gen_range(0..num_labels));
                C2rpq::new(
                    2,
                    vec![],
                    vec![Atom { x: Var(0), y: Var(1), regex: Regex::node(a).then(Regex::edge(r)) }],
                )
            }
            _ => {
                let r1 = EdgeLabel(rng.gen_range(0..num_roles));
                let r2 = EdgeLabel(rng.gen_range(0..num_roles));
                C2rpq::new(
                    3,
                    vec![],
                    vec![
                        Atom { x: Var(0), y: Var(1), regex: Regex::edge(r1) },
                        Atom { x: Var(0), y: Var(2), regex: Regex::edge(r2) },
                    ],
                )
            }
        };
        out.push(q);
    }
    out
}

/// One context driven through `decide_in_ctx` over a random query
/// battery must agree verdict-for-verdict with a fresh-context `decide`
/// on random TBoxes — including the fully warm second pass (exact replay).
#[test]
fn cached_decide_agrees_with_fresh_on_random_instances() {
    let budget = Budget::default();
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let tbox = random_tbox(4, 3, rng.gen_range(3..10), &mut rng);
        let queries = random_queries(4, 3, &mut rng);
        let mut ctx = HornFixpoint::new(TypeUniverse::new(&tbox), &budget);
        for pass in 0..2 {
            for q in &queries {
                let fresh = decide(&tbox, q, &budget);
                let warm = decide_in_ctx(&mut ctx, q, &budget);
                assert_eq!(
                    std::mem::discriminant(&fresh),
                    std::mem::discriminant(&warm),
                    "seed {seed} pass {pass}: fresh {fresh:?} vs in-context {warm:?} on {q:?}"
                );
            }
        }
    }
}

/// No verdict bleed between contexts: interleaving decides over
/// contradictory TBoxes, one context each, gives each TBox its own
/// answers.
#[test]
fn cross_tbox_isolation() {
    let budget = Budget::default();
    // T1 forbids A entirely; T2 is empty; T3 forces an infinite r-chain.
    let mut t1 = HornTbox::new();
    t1.push(HornCi::Bottom { lhs: set(&[0]) });
    let t2 = HornTbox::new();
    let mut t3 = HornTbox::new();
    t3.push(HornCi::Exists { lhs: set(&[0]), role: EdgeSym::fwd(EdgeLabel(0)), rhs: set(&[0]) });
    let q = C2rpq::new(
        1,
        vec![],
        vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(NodeLabel(0)) }],
    );
    let mut contexts: Vec<HornFixpoint> =
        [&t1, &t2, &t3].map(|t| HornFixpoint::new(TypeUniverse::new(t), &budget)).into();
    for _ in 0..3 {
        assert!(decide_in_ctx(&mut contexts[0], &q, &budget).is_unsat());
        assert!(decide_in_ctx(&mut contexts[1], &q, &budget).is_sat());
        assert!(decide_in_ctx(&mut contexts[2], &q, &budget).is_sat());
    }
}

/// Thread-fanned completions equal the plain completion on random
/// TBoxes (byte-identical completed TBox and flags), and a query battery
/// decided through the universe a completion hands over matches one
/// decided through a fresh universe over its TBox, witness for witness.
/// With `max_rounds: 1` a TBox that needs a reversal ends on the cap, so
/// the handed-over universe is the fallback built over the final TBox.
#[test]
fn completions_agree_cached_and_threaded() {
    let budget = Budget::default();
    let cfg = Default::default();
    let same_verdicts = |c: &Completion, queries: &[C2rpq], what: &str| {
        let mut handed = HornFixpoint::new(c.universe.clone(), &budget);
        let mut rebuilt = HornFixpoint::new(TypeUniverse::new(&c.tbox), &budget);
        for q in queries {
            let (h, r) =
                (decide_in_ctx(&mut handed, q, &budget), decide_in_ctx(&mut rebuilt, q, &budget));
            assert_eq!(format!("{h:?}"), format!("{r:?}"), "{what}: {q:?}");
        }
    };
    for seed in 100..130u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let tbox = random_tbox(4, 2, rng.gen_range(3..9), &mut rng);
        let labels = set(&[0, 1, 2, 3]);
        let plain = complete(&tbox, &labels, &budget, &cfg);
        let threaded = complete_with(&tbox, &labels, &budget, &cfg, 4);
        assert_eq!(plain.tbox, threaded.tbox, "seed {seed}");
        assert_eq!(plain.complete, threaded.complete, "seed {seed}");
        let queries = random_queries(4, 2, &mut rng);
        same_verdicts(&plain, &queries, &format!("seed {seed}"));
        same_verdicts(&threaded, &queries, &format!("seed {seed} threaded"));
    }

    // Example 5.3: ⊤ ⊑ A, A ⊑ ∃s.A, A ⊑ ∃≤1 s⁻.A needs the reversal
    // A ⊑ ∃s⁻.A, which one round adds and a second would confirm.
    let s = EdgeSym::fwd(EdgeLabel(0));
    let mut t = HornTbox::new();
    t.push(HornCi::SubAtom { lhs: LabelSet::new(), rhs: NodeLabel(0) });
    t.push(HornCi::Exists { lhs: set(&[0]), role: s, rhs: set(&[0]) });
    t.push(HornCi::AtMostOne { lhs: set(&[0]), role: s.inv(), rhs: set(&[0]) });
    let capped = CompletionConfig { max_rounds: 1, ..CompletionConfig::default() };
    let c = complete(&t, &set(&[0]), &budget, &capped);
    assert!(!c.complete && c.added > 0, "the cap ends the completion");
    let mut u = c.universe.clone();
    let a = u.close(&set(&[0])).expect("A is consistent");
    assert!(u.requirements_of(a).contains(&(s.inv(), set(&[0]))), "the reversal is indexed");
    let queries: Vec<C2rpq> = [Regex::sym(s), Regex::sym(s.inv()).then(Regex::node(NodeLabel(0)))]
        .into_iter()
        .map(|re| C2rpq::new(2, vec![], vec![Atom { x: Var(0), y: Var(1), regex: re }]))
        .chain(random_queries(1, 1, &mut StdRng::seed_from_u64(7)))
        .collect();
    same_verdicts(&c, &queries, "capped");
}

/// End-to-end: a session's shared verdict memo (asked every question
/// twice) and the thread-fanned path answer random containment questions
/// exactly like the cold path.
#[test]
fn shared_cache_containment_differential() {
    for seed in 200..220u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vocab = Vocab::new();
        let cfg = SchemaGenConfig {
            num_node_labels: 2,
            num_edge_labels: 2,
            edge_density: 0.5,
            allow_lower_bounds: true,
        };
        let schema = random_schema(&cfg, &mut vocab, &mut rng);
        let edges = schema.edge_labels().to_vec();
        let mk = |re: Regex| {
            Uc2rpq::single(C2rpq::new(2, vec![], vec![Atom { x: Var(0), y: Var(1), regex: re }]))
        };
        let r0 = edges[0];
        let r1 = edges[1 % edges.len()];
        let queries =
            [mk(Regex::edge(r0)), mk(Regex::edge(r1)), mk(Regex::edge(r0).then(Regex::edge(r1)))];
        let mut shared = AnalysisSession::new(schema.clone(), vocab.clone());
        let threaded = ContainmentOptions { threads: 3, ..ContainmentOptions::default() };
        for p in &queries {
            for q in &queries {
                let cold =
                    contains(p, q, &schema, &mut vocab.clone(), &ContainmentOptions::default())
                        .unwrap();
                let first = shared.contains(p, q).unwrap();
                let warm = shared.contains(p, q).unwrap();
                assert_eq!(first, warm, "seed {seed} p={p:?} q={q:?}");
                let par = contains(p, q, &schema, &mut vocab.clone(), &threaded).unwrap();
                assert_eq!(cold.holds, warm.holds, "seed {seed} p={p:?} q={q:?}");
                assert_eq!(cold.certified, warm.certified, "seed {seed} p={p:?} q={q:?}");
                assert_eq!(cold.holds, par.holds, "seed {seed} p={p:?} q={q:?}");
                assert_eq!(cold.certified, par.certified, "seed {seed} p={p:?} q={q:?}");
            }
        }
    }
}
