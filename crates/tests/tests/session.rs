//! Integration suite for the `gts-engine` cache layer: hit/miss
//! accounting, differential agreement between session-cached verdicts and
//! the cold path on randomized workloads, and isolation between sessions
//! over different schemas.

use gts_bench::medical;
use gts_core::prelude::*;
use gts_core::{random_transformation, TransformGenConfig};
use gts_engine::{AnalysisSession, Batch, Request, Verdict as BatchVerdict};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn opts() -> ContainmentOptions {
    ContainmentOptions::default()
}

/// Re-running an analysis in one session answers every containment
/// question from the memo: misses stay flat, hits grow.
#[test]
fn hit_miss_accounting_across_reruns() {
    let m = medical();
    let mut session = AnalysisSession::new(m.s0.clone(), m.vocab);
    let first = session.elicit(&m.t0).expect("elicit");
    let after_first = session.stats();
    assert!(after_first.misses > 0, "a fresh session starts cold");
    assert!(after_first.entries > 0);
    assert_eq!(after_first.entries, after_first.misses as usize, "every miss interns one entry");

    let second = session.elicit(&m.t0).expect("elicit");
    let after_second = session.stats();
    assert_eq!(first.schema, second.schema, "warm replay returns the same schema");
    assert_eq!(first.certified, second.certified);
    assert_eq!(after_second.misses, after_first.misses, "the warm re-run decided nothing anew");
    assert!(after_second.hits >= after_first.hits + after_first.misses);
    assert!(after_second.hit_rate() > 0.4, "stats: {after_second:?}");
}

/// Already within a *single* cold analysis the reductions repeat
/// questions (trim and the B.7 statements probe the same bodies), so even
/// the first run through a session must see hits.
#[test]
fn single_analysis_reuses_questions() {
    let m = medical();
    let mut session = AnalysisSession::new(m.s0.clone(), m.vocab);
    session.type_check(&m.t0, &m.s1).expect("type check");
    let stats = session.stats();
    assert!(stats.hits > 0, "intra-analysis reuse exists: {stats:?}");
}

/// Differential: on randomized schema/transformation workloads, the
/// session-cached verdicts of all three analyses equal the cold path's.
/// (Fast prefix; `differential_full_sweep` widens the workload.)
#[test]
fn session_verdicts_match_cold_path_on_random_workloads() {
    differential_workloads(0..2, 2);
}

/// The full randomized sweep (slow; run with `--ignored`).
#[test]
#[ignore = "slow full sweep; the fast prefix runs by default"]
fn differential_full_sweep() {
    differential_workloads(0..6, 3);
}

fn differential_workloads(seeds: std::ops::Range<u64>, num_node_labels: usize) {
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(0xcafe + seed);
        let mut vocab = Vocab::new();
        let schema = random_schema(
            &SchemaGenConfig { num_node_labels, num_edge_labels: 2, ..Default::default() },
            &mut vocab,
            &mut rng,
        );
        let gen_cfg = TransformGenConfig { num_edge_rules: 2, ..Default::default() };
        let t1 = random_transformation(&schema, &gen_cfg, &mut vocab, &mut rng);
        let t2 = random_transformation(&schema, &gen_cfg, &mut vocab, &mut rng);
        let mut session = AnalysisSession::new(schema.clone(), vocab.clone());

        // Elicitation: compare schemas (or errors).
        let mut cold_vocab = vocab.clone();
        let cold_elicit = elicit_schema(&t1, &schema, &mut cold_vocab, &opts());
        let sess_elicit = session.elicit(&t1);
        let target = match (cold_elicit, sess_elicit) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.schema, b.schema, "seed {seed}: elicited schemas diverged");
                assert_eq!(a.certified, b.certified, "seed {seed}");
                a.schema
            }
            (Err(ea), Err(eb)) => {
                assert_eq!(ea, eb, "seed {seed}: elicit errors diverged");
                continue;
            }
            (a, b) => panic!("seed {seed}: cold={a:?} session={b:?}"),
        };

        // Type checking against the elicited schema (and, adversarially,
        // against the source schema, where fresh output labels fail fast).
        let mut cold_vocab = vocab.clone();
        let cold_tc = type_check(&t1, &schema, &target, &mut cold_vocab, &opts()).expect("tc");
        let sess_tc = session.type_check(&t1, &target).expect("tc");
        assert_eq!(cold_tc, sess_tc, "seed {seed}: type-check verdicts diverged");
        let mut cold_vocab = vocab.clone();
        let cold_src = type_check(&t1, &schema, &schema, &mut cold_vocab, &opts()).expect("tc");
        let sess_src = session.type_check(&t1, &schema).expect("tc");
        assert_eq!(cold_src, sess_src, "seed {seed}");

        // Equivalence, both the reflexive and the cross pair.
        let mut cold_vocab = vocab.clone();
        let cold_eq = equivalence(&t1, &t2, &schema, &mut cold_vocab, &opts());
        let sess_eq = session.equivalence(&t1, &t2);
        match (cold_eq, sess_eq) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed}: equivalence diverged"),
            (Err(a), Err(b)) => assert_eq!(a, b, "seed {seed}"),
            (a, b) => panic!("seed {seed}: cold={a:?} session={b:?}"),
        }
        let mut cold_vocab = vocab.clone();
        let cold_refl = equivalence(&t1, &t1, &schema, &mut cold_vocab, &opts()).expect("equiv");
        let sess_refl = session.equivalence(&t1, &t1).expect("equiv");
        assert_eq!(cold_refl, sess_refl, "seed {seed}");
        assert!(session.stats().hits > 0, "seed {seed}: the workload repeated questions");
    }
}

/// Sessions are keyed by schema: the same containment question must get
/// schema-specific answers, never a verdict replayed from another
/// session's memo.
#[test]
fn sessions_over_different_schemas_do_not_cross_contaminate() {
    let mut vocab = Vocab::new();
    let a = vocab.node_label("A");
    let r = vocab.edge_label("r");
    let s_edge = vocab.edge_label("s");
    // Schema 1 forbids s-edges entirely; schema 2 allows them.
    let mut forbids = Schema::new();
    forbids.set_edge(a, r, a, Mult::Star, Mult::Star);
    forbids.add_edge_label(s_edge);
    let mut allows = Schema::new();
    allows.set_edge(a, r, a, Mult::Star, Mult::Star);
    allows.set_edge(a, s_edge, a, Mult::Star, Mult::Star);

    let p = Uc2rpq::single(C2rpq::new(
        2,
        vec![Var(0), Var(1)],
        vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r).or(Regex::edge(s_edge)) }],
    ));
    let q = Uc2rpq::single(C2rpq::new(
        2,
        vec![Var(0), Var(1)],
        vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
    ));

    let mut session_forbids = AnalysisSession::new(forbids, vocab.clone());
    let mut session_allows = AnalysisSession::new(allows, vocab);
    // Warm the forbidding session first: (r+s) ⊆ r holds there.
    let d1 = session_forbids.contains(&p, &q).unwrap();
    assert!(d1.holds && d1.certified);
    // The identical question modulo the permissive schema must fail —
    // and must be a *miss* in that session's own memo.
    let d2 = session_allows.contains(&p, &q).unwrap();
    assert!(!d2.holds && d2.certified, "an s-edge witnesses non-containment");
    assert_eq!(session_allows.stats().hits, 0);
    assert_eq!(session_allows.stats().misses, 1);
    // Interleave again: each session replays its own verdict.
    assert!(session_forbids.contains(&p, &q).unwrap().holds);
    assert!(!session_allows.contains(&p, &q).unwrap().holds);
    assert_eq!(session_forbids.stats().hits, 1);
    assert_eq!(session_allows.stats().hits, 1);
}

/// A threaded batch over the medical fixture produces exactly the
/// verdicts of the cold sequential path.
#[test]
fn threaded_batch_matches_cold_path_on_medical() {
    let m = medical();
    let mut batch = Batch::new(AnalysisSession::new(m.s0.clone(), m.vocab.clone()));
    batch
        .push("tc_s1", Request::TypeCheck { transform: m.t0.clone(), target: m.s1.clone() })
        .push("tc_s0", Request::TypeCheck { transform: m.t0.clone(), target: m.s0.clone() })
        .push("equiv", Request::Equivalence { left: m.t0.clone(), right: m.t0.clone() })
        .push("elicit", Request::Elicit { transform: m.t0.clone() });
    let (results, session) = batch.run(4);
    assert_eq!(results.len(), 4);

    let mut vocab = m.vocab.clone();
    let cold_s1 = type_check(&m.t0, &m.s0, &m.s1, &mut vocab, &opts()).unwrap();
    let mut vocab = m.vocab.clone();
    let cold_s0 = type_check(&m.t0, &m.s0, &m.s0, &mut vocab, &opts()).unwrap();
    let mut vocab = m.vocab.clone();
    let cold_eq = equivalence(&m.t0, &m.t0, &m.s0, &mut vocab, &opts()).unwrap();
    let mut vocab = m.vocab.clone();
    let cold_el = elicit_schema(&m.t0, &m.s0, &mut vocab, &opts()).unwrap();

    for r in &results {
        match (r.label.as_str(), r.verdict.as_ref().expect(&r.label)) {
            ("tc_s1", BatchVerdict::Decision(d)) => assert_eq!(*d, cold_s1),
            ("tc_s0", BatchVerdict::Decision(d)) => assert_eq!(*d, cold_s0),
            ("equiv", BatchVerdict::Decision(d)) => assert_eq!(*d, cold_eq),
            ("elicit", BatchVerdict::Elicited { schema, certified }) => {
                assert_eq!(*schema, cold_el.schema);
                assert_eq!(*certified, cold_el.certified);
            }
            other => panic!("unexpected result {other:?}"),
        }
    }
    let stats = session.stats();
    assert!(stats.misses > 0);
    // Racing workers may decide one key twice (the memo lock is not held
    // while deciding), so entries can undercut misses — never exceed them.
    assert!(stats.entries <= stats.misses as usize, "stats: {stats:?}");
}

/// The completion sweep's solver contexts live only as long as the sweep:
/// a session keeps at most one solver entry per completed TBox it decides
/// over, never one per extended TBox the sweep probed.
#[test]
fn session_solver_entries_stay_within_completions() {
    use gts_corpus::{scenario, Family, Params};
    for family in [Family::Medical, Family::Fhir, Family::Retail] {
        let sc = scenario(family, &Params::quick());
        let source = sc.schema(&sc.primary.source).expect("primary source").clone();
        let t = sc.transform(&sc.primary.transform).expect("primary transform");
        let mut session = AnalysisSession::new(source, sc.vocab.clone());
        session.elicit(t).expect("elicit");
        let stats = session.oracle_stats();
        assert!(stats.completion_misses > 0, "{}: the elicitation completed TBoxes", family.name());
        assert!(
            stats.solver.entries as u64 <= stats.completion_misses,
            "{}: {} solver entries for {} completions",
            family.name(),
            stats.solver.entries,
            stats.completion_misses
        );
    }
}
