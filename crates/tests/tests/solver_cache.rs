//! Differential tests for the persistent solver cache: cached, parallel,
//! and session-shared oracle paths must agree verdict-for-verdict with the
//! fresh-context decision procedure, and state must never bleed between
//! TBox fingerprints.

use gts_core::containment::{complete, complete_with, OracleCache};
use gts_core::prelude::*;
use gts_core::sat::{decide, decide_cached, SolverCache};
use gts_schema::{random_schema, SchemaGenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn set(labels: &[u32]) -> LabelSet {
    LabelSet::from_iter(labels.iter().copied())
}

/// A random Horn TBox over `num_labels` concept names and `num_roles`
/// roles — the shapes the schema pipeline produces (every CI kind,
/// inverse roles, small conjunctions).
fn random_tbox<R: Rng>(num_labels: u32, num_roles: u32, num_cis: usize, rng: &mut R) -> HornTbox {
    let mut t = HornTbox::new();
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
    for _ in 0..num_cis {
        let ci = match rng.gen_range(0..6) {
            0 => HornCi::SubAtom { lhs: conj(rng), rhs: NodeLabel(label(rng)) },
            1 => HornCi::Bottom { lhs: set(&[label(rng), label(rng)]) },
            2 => HornCi::AllValues { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
            3 => HornCi::Exists { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
            4 => HornCi::NotExists { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
            _ => HornCi::AtMostOne { lhs: conj(rng), role: role(rng), rhs: conj(rng) },
        };
        t.push(ci);
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

/// The cached `decide` must agree verdict-for-verdict with a fresh-context
/// `decide` on random TBoxes and queries — including fully warm repeats.
#[test]
fn cached_decide_agrees_with_fresh_on_random_instances() {
    let budget = Budget::default();
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let tbox = random_tbox(4, 3, rng.gen_range(3..10), &mut rng);
        let queries = random_queries(4, 3, &mut rng);
        let cache = SolverCache::new();
        for pass in 0..2 {
            for q in &queries {
                let fresh = decide(&tbox, q, &budget);
                let (warm, stats) = decide_cached(&tbox, q, &budget, &cache);
                assert_eq!(
                    std::mem::discriminant(&fresh),
                    std::mem::discriminant(&warm),
                    "seed {seed} pass {pass}: fresh {fresh:?} vs cached {warm:?} on {q:?}"
                );
                assert!(stats.types_interned > 0 || tbox.is_empty() || stats.cores_tried > 0);
            }
        }
        assert!(cache.oracle_stats().cache_hits > 0, "second pass must be warm");
    }
}

/// No verdict bleed between fingerprints: interleaving decides over
/// contradictory TBoxes through one cache gives each TBox its own answers.
#[test]
fn cross_tbox_isolation() {
    let budget = Budget::default();
    let cache = SolverCache::new();
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
    for _ in 0..3 {
        assert!(decide_cached(&t1, &q, &budget, &cache).0.is_unsat());
        assert!(decide_cached(&t2, &q, &budget, &cache).0.is_sat());
        assert!(decide_cached(&t3, &q, &budget, &cache).0.is_sat());
    }
    let stats = cache.oracle_stats();
    assert_eq!(stats.entries, 3, "one context per TBox fingerprint");
    assert!(stats.cache_hits >= 6);
}

/// Budgets are part of the cache key: the same TBox under different
/// budgets gets separate contexts (a budget-starved context must not leak
/// its limits into generous calls and vice versa).
#[test]
fn budgets_key_separate_contexts() {
    let cache = SolverCache::new();
    let t = HornTbox::new();
    let q = C2rpq::new(1, vec![], vec![]);
    let (v1, _) = decide_cached(&t, &q, &Budget::default(), &cache);
    let (v2, _) = decide_cached(&t, &q, &Budget::large(), &cache);
    assert!(v1.is_sat() && v2.is_sat());
    assert_eq!(cache.oracle_stats().entries, 2);
}

/// Cached and thread-fanned completions equal the plain completion on
/// random TBoxes (byte-identical completed TBox and flags).
#[test]
fn completions_agree_cached_and_threaded() {
    let budget = Budget::default();
    let cfg = Default::default();
    for seed in 100..130u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let tbox = random_tbox(4, 2, rng.gen_range(3..9), &mut rng);
        let labels = set(&[0, 1, 2, 3]);
        let fresh = (NodeLabel(40), NodeLabel(41));
        let plain = complete(&tbox, &labels, fresh, &budget, &cfg);
        let cache = OracleCache::new();
        let cached = complete_with(&tbox, &labels, fresh, &budget, &cfg, Some(&cache), 1);
        let threaded = complete_with(&tbox, &labels, fresh, &budget, &cfg, None, 4);
        assert_eq!(plain.tbox, cached.tbox, "seed {seed}");
        assert_eq!(plain.complete, cached.complete, "seed {seed}");
        assert_eq!(plain.tbox, threaded.tbox, "seed {seed}");
        assert_eq!(plain.complete, threaded.complete, "seed {seed}");
        // Warm repeat hits the completion memo and stays equal.
        let again = complete_with(&tbox, &labels, fresh, &budget, &cfg, Some(&cache), 1);
        assert_eq!(plain.tbox, again.tbox, "seed {seed}");
        assert!(cache.stats().completion_hits >= 1, "seed {seed}");
    }
}

/// End-to-end: a session-shared oracle cache (and a thread-fanned one)
/// answers random containment questions exactly like the cold path.
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
        let shared = ContainmentOptions::default().with_cache(Arc::new(OracleCache::new()));
        let threaded = ContainmentOptions { threads: 3, ..ContainmentOptions::default() };
        for p in &queries {
            for q in &queries {
                let cold =
                    contains(p, q, &schema, &mut vocab.clone(), &ContainmentOptions::default())
                        .unwrap();
                let warm = contains(p, q, &schema, &mut vocab.clone(), &shared).unwrap();
                let par = contains(p, q, &schema, &mut vocab.clone(), &threaded).unwrap();
                assert_eq!(cold.holds, warm.holds, "seed {seed} p={p:?} q={q:?}");
                assert_eq!(cold.certified, warm.certified, "seed {seed} p={p:?} q={q:?}");
                assert_eq!(cold.holds, par.holds, "seed {seed} p={p:?} q={q:?}");
                assert_eq!(cold.certified, par.certified, "seed {seed} p={p:?} q={q:?}");
            }
        }
    }
}

/// The per-call oracle statistics on `ContainmentAnswer` reflect actual
/// work and reuse.
#[test]
fn containment_answers_carry_stats() {
    let mut vocab = Vocab::new();
    let a = vocab.node_label("A");
    let r = vocab.edge_label("r");
    let s_edge = vocab.edge_label("s");
    let mut schema = Schema::new();
    schema.set_edge(a, r, a, Mult::Star, Mult::Star);
    schema.set_edge(a, s_edge, a, Mult::Plus, Mult::Opt);
    let p = Uc2rpq::single(C2rpq::new(
        2,
        vec![],
        vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
    ));
    let q = Uc2rpq::single(C2rpq::new(
        2,
        vec![],
        vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(s_edge) }],
    ));
    let shared = ContainmentOptions::default().with_cache(Arc::new(OracleCache::new()));
    let first = contains(&p, &q, &schema, &mut vocab.clone(), &shared).unwrap();
    assert!(first.stats.solver.decides > 0, "{:?}", first.stats);
    assert!(first.stats.completion_misses > 0);
    // The identical question again: completions replay from the memo.
    let second = contains(&p, &q, &schema, &mut vocab.clone(), &shared).unwrap();
    assert_eq!(first.holds, second.holds);
    assert!(
        second.stats.completion_hits > 0,
        "repeat question must hit the completion memo: {:?}",
        second.stats
    );
}
