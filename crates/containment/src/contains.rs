//! The top-level decision procedure: containment of UC2RPQs in acyclic
//! UC2RPQs modulo schema (Theorem 5.1), assembled from the reductions of
//! Section 5:
//!
//! ```text
//! P ⊆_S Q
//!   ⇔ P° ⊆_{S°} Q°                        Booleanization (Lemma D.1)
//!   ⇔ P̂ ⊆_{T̂_S} Q                        relativization (Lemma D.3)
//!   ⇔ P̂ finitely unsat mod T̂_S ∪ T¬Q     rolling-up (Lemma C.2)
//!   ⇔ P̂ unsat mod (T̂_S ∪ T¬Q)*           completion (Theorem 5.4, D.4)
//! ```
//!
//! Disconnected components of `Q` distribute the negation into several
//! choices (DESIGN.md §3.4); containment holds iff the final query is
//! unsatisfiable for *every* disjunct of `P̂` and every choice.
//!
//! The per-disjunct decisions above run against an [`OracleCache`]: the
//! caller's shared one ([`ContainmentOptions::cache`], installed by
//! `gts-engine`'s `AnalysisSession`), or a call-local one otherwise, which
//! also memoizes the completions. The entailment probes inside a
//! completion run on solver contexts the sweep owns and drops. With
//! [`ContainmentOptions::threads`] > 1 the independent
//! `(choice, disjunct)` decisions fan out over worker threads; the
//! completion's entailment sweep shards by its own work-size rule (see
//! [`ContainmentOptions::threads`]). Results are merged in submission
//! order, so verdicts and witnesses do not depend on the thread count as
//! long as the engine budgets don't bind (warm solver contexts can resolve
//! budget-bound verdicts a cold context would report `Unknown`).

use crate::booleanize::booleanize;
use crate::cache::{OracleCache, OracleCacheStats};
use crate::completion::{complete_with, Completion, CompletionConfig};
use crate::hatp::hat_union;
use crate::rollup::{rollup_negation, RollupError};
use gts_dl::HornTbox;
use gts_graph::{Graph, Vocab};
use gts_query::{C2rpq, Uc2rpq};
use gts_sat::{Budget, Verdict};
use gts_schema::Schema;
use std::sync::Arc;

/// Options for [`contains`].
#[derive(Clone, Debug, Default)]
pub struct ContainmentOptions {
    /// Engine budgets.
    pub budget: Budget,
    /// Completion caps.
    pub completion: CompletionConfig,
    /// Worker threads for the parallel sections (per-choice satisfiability
    /// fan-out and the completion's entailment sweep); `1` runs both
    /// sequentially. The default `0` shards the sweep over the available
    /// parallelism (at most 8) once it has 64 pairs per worker, and keeps
    /// the per-choice fan-out sequential.
    pub threads: usize,
    /// Shared oracle cache (solver contexts per completed TBox + completion
    /// memo).
    /// `None` (the default) uses a fresh cache per `contains` call;
    /// sessions install one cache for all their questions.
    pub cache: Option<Arc<OracleCache>>,
}

impl ContainmentOptions {
    /// These options with a shared oracle cache installed.
    pub fn with_cache(mut self, cache: Arc<OracleCache>) -> Self {
        self.cache = Some(cache);
        self
    }
}

/// The answer to a containment question.
#[derive(Clone, Debug)]
pub struct ContainmentAnswer {
    /// Does `P ⊆_S Q` hold (to the best of the search)?
    pub holds: bool,
    /// `true` iff the answer is a certificate: either an exhaustive
    /// unsatisfiability proof (`holds`), or a satisfiability witness modulo
    /// a fully computed completion (`!holds`).
    pub certified: bool,
    /// For `!holds`: the core of a model of `(T̂_S ∪ T¬Q)*` satisfying `P̂`
    /// (evidence of a finite counterexample's existence via Theorem 5.4).
    pub witness: Option<Graph>,
    /// Oracle work attributed to this call (decides, cores, cache reuse;
    /// see [`OracleCacheStats`]). Gauges (`entries`, `types_interned`)
    /// report the cache state after the call.
    pub stats: OracleCacheStats,
}

/// Why containment could not be decided at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContainmentError {
    /// The right-hand query is not an acyclic UC2RPQ (or exceeded rollup
    /// caps).
    Rollup(RollupError),
    /// The queries have different arities.
    ArityMismatch,
    /// The left-hand NRE query could not be flattened into plain C2RPQs
    /// (nests under `*` are only supported on the right-hand side).
    Flatten(gts_query::FlattenError),
    /// The general-TBox entry points require Boolean queries (Booleanize
    /// against a schema first, Lemma D.1).
    NotBoolean,
}

/// Decides `P(x̄) ⊆_S Q(x̄)` for a UC2RPQ `P` and an *acyclic* UC2RPQ `Q`.
pub fn contains(
    p: &Uc2rpq,
    q: &Uc2rpq,
    s: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
) -> Result<ContainmentAnswer, ContainmentError> {
    contains_lowered(p, q, &HornTbox::new(), s, vocab, opts)
}

/// Resolves the oracle cache for one call: the shared session cache, or a
/// call-local one.
pub(crate) fn call_cache(opts: &ContainmentOptions) -> Arc<OracleCache> {
    match &opts.cache {
        Some(c) => Arc::clone(c),
        None => Arc::new(OracleCache::new()),
    }
}

/// The per-(choice, disjunct) satisfiability outcomes of one choice.
struct ChoiceResult {
    completion_ok: bool,
    /// One verdict per disjunct, in order; the vector stops after the
    /// first `Sat` (later disjuncts need no evaluation for the overall
    /// answer — identical to the sequential short-circuit).
    verdicts: Vec<Verdict>,
}

fn solve_choice(
    choice: &HornTbox,
    shared: &SharedInputs<'_>,
    cache: &OracleCache,
    opts: &ContainmentOptions,
) -> ChoiceResult {
    let t = HornTbox::merged([shared.hat_ts, choice, shared.extra]);
    // Theorem 5.4 / Lemma D.7: complete.
    let Completion { tbox: t_star, complete: completion_ok, .. } = complete_with(
        &t,
        shared.schema_label_set,
        shared.fresh,
        &opts.budget,
        &opts.completion,
        Some(cache),
        opts.threads,
    );
    let mut verdicts = Vec::new();
    let handle = cache.solver().handle(&t_star, &opts.budget);
    for pd in shared.p_hat_disjuncts {
        let (v, _) = gts_sat::decide_on(&handle, &t_star, pd, &opts.budget, cache.solver());
        let is_sat = v.is_sat();
        verdicts.push(v);
        if is_sat {
            break;
        }
    }
    ChoiceResult { completion_ok, verdicts }
}

struct SharedInputs<'a> {
    hat_ts: &'a HornTbox,
    extra: &'a HornTbox,
    schema_label_set: &'a gts_graph::LabelSet,
    fresh: (gts_graph::NodeLabel, gts_graph::NodeLabel),
    p_hat_disjuncts: &'a [C2rpq],
}

/// The shared pipeline behind [`contains`] and
/// [`crate::contains_nre`]: `extra` holds auxiliary Horn rules (e.g. nest
/// label definitions) merged into every negation choice. `Q` may mention
/// synthetic labels defined by `extra`; `P` and the schema may not.
pub(crate) fn contains_lowered(
    p: &Uc2rpq,
    q: &Uc2rpq,
    extra: &HornTbox,
    s: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
) -> Result<ContainmentAnswer, ContainmentError> {
    let _span = gts_obs::span("containment");
    if !gts_obs::enabled() {
        return contains_lowered_inner(p, q, extra, s, vocab, opts);
    }
    let start = std::time::Instant::now();
    let out = contains_lowered_inner(p, q, extra, s, vocab, opts);
    static HIST: std::sync::OnceLock<gts_obs::Histogram> = std::sync::OnceLock::new();
    HIST.get_or_init(|| {
        gts_obs::global().histogram(
            "gts_containment_contains_micros",
            "Latency of full containment decisions",
            &[],
        )
    })
    .record(start.elapsed().as_micros() as u64);
    out
}

fn contains_lowered_inner(
    p: &Uc2rpq,
    q: &Uc2rpq,
    extra: &HornTbox,
    s: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
) -> Result<ContainmentAnswer, ContainmentError> {
    if let (Some(ap), Some(aq)) = (p.arity(), q.arity()) {
        if ap != aq {
            return Err(ContainmentError::ArityMismatch);
        }
    }
    let cache = call_cache(opts);
    let stats_before = cache.stats();
    let finish = |holds: bool, certified: bool, witness: Option<Graph>| ContainmentAnswer {
        holds,
        certified,
        witness,
        stats: cache.stats().delta_since(&stats_before),
    };
    // Syntactic shortcut: disjuncts of P that literally appear in Q are
    // contained; only the rest needs the semantic pipeline. (This also
    // settles reflexive containments of queries with infinite languages
    // without touching the engine.)
    let p = Uc2rpq {
        disjuncts: p.disjuncts.iter().filter(|d| !q.disjuncts.contains(d)).cloned().collect(),
    };
    // The empty union is contained in everything.
    if p.disjuncts.is_empty() {
        return Ok(finish(true, true, None));
    }

    // Lemma D.1: Booleanize.
    let b = booleanize(&p, q, s, vocab);

    // Lemma C.2 (+ the disconnected-negation distribution).
    let (choices, _state_labels) =
        rollup_negation(&b.q, vocab).map_err(ContainmentError::Rollup)?;
    // Duplicate choices (symmetric Q-components) decide identically; keep
    // the first occurrence only.
    let mut unique_choices: Vec<&HornTbox> = Vec::new();
    for choice in &choices {
        if !unique_choices.contains(&choice) {
            unique_choices.push(choice);
        }
    }

    // Theorem 5.6: relativize P and build T̂_S.
    let p_hat = hat_union(&b.p, &b.schema);
    let hat_ts = b.schema.hat_tbox();
    let schema_label_set = b.schema.node_label_set();
    let fresh = (vocab.fresh_node_label("B"), vocab.fresh_node_label("B"));
    let shared = SharedInputs {
        hat_ts: &hat_ts,
        extra,
        schema_label_set: &schema_label_set,
        fresh,
        p_hat_disjuncts: &p_hat.disjuncts,
    };

    // Certification is one-sided in the completion: a *partial* completion
    // T*' ⊆ T* only removes CIs, so UNSAT modulo T*' implies UNSAT modulo
    // T* — "containment holds" verdicts remain certificates even when the
    // completion hit a cap. Only SAT witnesses (non-containment) need the
    // full completion to correspond to finite counterexamples (Thm 5.4).
    let workers = choice_workers(opts.threads, unique_choices.len());
    let results: Vec<ChoiceResult> = if workers > 1 {
        // Independent per-choice pipelines fan out over exactly `workers`
        // threads (contiguous chunks); the merge below scans results in
        // submission order, reproducing the sequential verdict (and
        // witness) exactly. The thread budget is spent here, so each
        // choice's completion sweep runs sequentially (no multiplicative
        // oversubscription).
        let choice_opts = ContainmentOptions { threads: 1, ..opts.clone() };
        let chunk = unique_choices.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = unique_choices
                .chunks(chunk)
                .map(|choices| {
                    let cache = &cache;
                    let shared = &shared;
                    let choice_opts = &choice_opts;
                    scope.spawn(move || {
                        choices
                            .iter()
                            .map(|choice| solve_choice(choice, shared, cache, choice_opts))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("choice worker panicked")).collect()
        })
    } else {
        // Sequential: stop at the first choice producing a Sat — later
        // choices' completions cannot change a non-containment verdict.
        let mut out = Vec::new();
        for choice in &unique_choices {
            let result = solve_choice(choice, &shared, &cache, opts);
            let sat = result.verdicts.iter().any(Verdict::is_sat);
            out.push(result);
            if sat {
                break;
            }
        }
        out
    };

    let mut all_certified = true;
    for result in results {
        for v in result.verdicts {
            match v {
                Verdict::Sat(w) => {
                    return Ok(finish(false, result.completion_ok, Some(w.core)));
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

/// Worker count for the per-choice fan-out: parallelism only pays when
/// there are several independent choices to pipeline.
fn choice_workers(threads: usize, choices: usize) -> usize {
    let t = match threads {
        0 => 1, // auto currently defers to the completion-sweep parallelism
        t => t,
    };
    t.clamp(1, choices)
}

/// Satisfiability of a query modulo a schema: `q ⊄_S ∅` (used for trimming
/// transformations, Appendix B). Returns `(satisfiable, certified)`.
pub fn satisfiable_modulo_schema(
    q: &C2rpq,
    s: &Schema,
    vocab: &mut Vocab,
    opts: &ContainmentOptions,
) -> Result<(bool, bool), ContainmentError> {
    let ans = contains(&Uc2rpq::single(q.clone()), &Uc2rpq::empty(), s, vocab, opts)?;
    Ok((!ans.holds, ans.certified))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::EdgeSym;
    use gts_query::{Atom, Regex, Var};
    use gts_schema::Mult;

    fn opts() -> ContainmentOptions {
        ContainmentOptions::default()
    }

    /// r(x,y) ⊆_S r(x,y): reflexivity.
    #[test]
    fn containment_is_reflexive() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let ans = contains(&q, &q, &s.clone(), &mut v, &opts()).unwrap();
        assert!(ans.holds, "reflexive containment must hold");
        assert!(ans.certified);
    }

    /// r(x,y) ⊆ (r+s)(x,y) but not conversely.
    #[test]
    fn union_widening() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let sl = v.edge_label("s");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        s.set_edge(a, sl, a, Mult::Star, Mult::Star);
        let qr = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let qrs = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r).or(Regex::edge(sl)) }],
        ));
        let fwd = contains(&qr, &qrs, &s, &mut v, &opts()).unwrap();
        assert!(fwd.holds && fwd.certified);
        let bwd = contains(&qrs, &qr, &s, &mut v, &opts()).unwrap();
        assert!(!bwd.holds, "s-edge witnesses non-containment");
        assert!(bwd.certified);
        assert!(bwd.witness.is_some());
        // The call did real oracle work and attributed it.
        assert!(bwd.stats.solver.decides > 0);
    }

    /// Schema-enabled containment: if the schema forbids s-edges, then
    /// (r+s)(x,y) ⊆_S r(x,y) *does* hold.
    #[test]
    fn schema_prunes_unrealizable_branches() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let sl = v.edge_label("s");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        // `s` is declared but forbidden everywhere (all-zero δ).
        s.add_edge_label(sl);
        let qr = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let qrs = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r).or(Regex::edge(sl)) }],
        ));
        let ans = contains(&qrs, &qr, &s, &mut v, &opts()).unwrap();
        assert!(ans.holds, "forbidden s-edges cannot witness non-containment");
        assert!(ans.certified);
    }

    /// Example 5.2 / Figure 2: P = ∃x.r(x,x), Q = ∃x,y.(r·s⁺·r)(x,y);
    /// P ⊆_S Q holds over finite graphs — only because of cycle reversal.
    #[test]
    fn example_5_2_finite_containment_holds() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let sl = v.edge_label("s");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        // A --s--> A with + outgoing and ? incoming; r unrestricted.
        s.set_edge(a, sl, a, Mult::Plus, Mult::Opt);
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let p = Uc2rpq::single(C2rpq::new(
            1,
            vec![],
            vec![Atom { x: Var(0), y: Var(0), regex: Regex::edge(r) }],
        ));
        let splus = Regex::edge(sl).then(Regex::edge(sl).star());
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom {
                x: Var(0),
                y: Var(1),
                regex: Regex::edge(r).then(splus).then(Regex::edge(r)),
            }],
        ));
        let ans = contains(&p, &q, &s, &mut v, &opts()).unwrap();
        assert!(ans.holds, "Example 5.2: finite containment holds via cycle reversal");
        assert!(ans.certified);
    }

    /// The same instance WITHOUT the at-most constraint on s⁻: infinite
    /// s-trees exist even finitely…ish — containment now fails (the
    /// reversal is no longer sound, and a finite counterexample exists:
    /// e.g. an r-self-loop plus an s-cycle elsewhere feeding the node).
    #[test]
    fn example_5_2_variant_without_functionality_fails() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let sl = v.edge_label("s");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, sl, a, Mult::Plus, Mult::Star); // ← no ? on s⁻
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let p = Uc2rpq::single(C2rpq::new(
            1,
            vec![],
            vec![Atom { x: Var(0), y: Var(0), regex: Regex::edge(r) }],
        ));
        let splus = Regex::edge(sl).then(Regex::edge(sl).star());
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom {
                x: Var(0),
                y: Var(1),
                regex: Regex::edge(r).then(splus).then(Regex::edge(r)),
            }],
        ));
        let ans = contains(&p, &q, &s, &mut v, &opts()).unwrap();
        assert!(!ans.holds);
        assert!(ans.certified);
    }

    /// Cyclic P is allowed (only Q must be acyclic): r(x,x) ⊆ r(x,y).
    #[test]
    fn cyclic_lhs_is_supported() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let p = Uc2rpq::single(C2rpq::new(
            1,
            vec![],
            vec![Atom { x: Var(0), y: Var(0), regex: Regex::edge(r) }],
        ));
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let ans = contains(&p, &q, &s, &mut v, &opts()).unwrap();
        assert!(ans.holds && ans.certified);
        // But a self-loop is not an r·r·r path ending elsewhere... it is!
        // (go around the loop). A discriminating acyclic RHS: r(x,y)∧s(y,z)
        // fails since no s-edge exists.
        let sl = v.edge_label("s");
        let q2 = Uc2rpq::single(C2rpq::new(
            3,
            vec![],
            vec![
                Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) },
                Atom { x: Var(1), y: Var(2), regex: Regex::edge(sl) },
            ],
        ));
        let mut s2 = s.clone();
        s2.set_edge(a, sl, a, Mult::Star, Mult::Star);
        let ans2 = contains(&p, &q2, &s2, &mut v, &opts()).unwrap();
        assert!(!ans2.holds && ans2.certified);
    }

    /// Cyclic Q is rejected with a clear error.
    #[test]
    fn cyclic_rhs_is_rejected() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let cyc = Uc2rpq::single(C2rpq::new(
            1,
            vec![],
            vec![Atom { x: Var(0), y: Var(0), regex: Regex::edge(r) }],
        ));
        // Reflexive instances are settled syntactically even for cyclic Q…
        assert!(contains(&cyc, &cyc, &s, &mut v, &opts()).unwrap().holds);
        // …but a genuine test against a cyclic RHS is rejected.
        let p = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let err = contains(&p, &cyc, &s, &mut v, &opts()).unwrap_err();
        assert_eq!(err, ContainmentError::Rollup(RollupError::NotAcyclic));
    }

    /// Participation constraints make shorter paths entail longer queries:
    /// with δ(A, r, A) = 1 (every node has an outgoing r), A(x) ⊆ ∃y.r(x,y).
    #[test]
    fn schema_existentials_imply_query() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::One, Mult::Star);
        let p = Uc2rpq::single(C2rpq::new(
            1,
            vec![Var(0)],
            vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }],
        ));
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let ans = contains(&p, &q, &s, &mut v, &opts()).unwrap();
        assert!(ans.holds && ans.certified);
        // Without the constraint, it fails.
        let mut s2 = Schema::new();
        s2.set_edge(a, r, a, Mult::Star, Mult::Star);
        let ans2 = contains(&p, &q, &s2, &mut v, &opts()).unwrap();
        assert!(!ans2.holds && ans2.certified);
    }

    #[test]
    fn satisfiability_modulo_schema_wrapper() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let b = v.node_label("B");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        s.add_node_label(b);
        // A-to-A r-path: satisfiable.
        let q1 = C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom {
                x: Var(0),
                y: Var(1),
                regex: Regex::node(a).then(Regex::edge(r)).then(Regex::node(a)),
            }],
        );
        let (sat, cert) = satisfiable_modulo_schema(&q1, &s, &mut v, &opts()).unwrap();
        assert!(sat && cert);
        // B-to-B r-path: the schema forbids r-edges at B — unsatisfiable.
        let q2 = C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom {
                x: Var(0),
                y: Var(1),
                regex: Regex::node(b).then(Regex::edge(r)).then(Regex::node(b)),
            }],
        );
        let (sat2, cert2) = satisfiable_modulo_schema(&q2, &s, &mut v, &opts()).unwrap();
        assert!(!sat2 && cert2);
    }

    /// The empty union is contained in everything; nothing (nonempty,
    /// satisfiable) is contained in the empty union.
    #[test]
    fn empty_union_edge_cases() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let e = Uc2rpq::empty();
        assert!(contains(&e, &q, &s, &mut v, &opts()).unwrap().holds);
        assert!(!contains(&q, &e, &s, &mut v, &opts()).unwrap().holds);
    }

    /// Inverse-direction atoms work through the whole pipeline:
    /// r(x,y) ≡_S r⁻(y,x).
    #[test]
    fn inverse_equivalence() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let fwd = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let bwd = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(1), y: Var(0), regex: Regex::sym(EdgeSym::bwd(r)) }],
        ));
        assert!(contains(&fwd, &bwd, &s, &mut v, &opts()).unwrap().holds);
        assert!(contains(&bwd, &fwd, &s, &mut v, &opts()).unwrap().holds);
    }

    /// A shared cache across repeated questions replays solver state; the
    /// verdicts match the cold path.
    #[test]
    fn shared_cache_agrees_with_cold_path() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let sl = v.edge_label("s");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        s.set_edge(a, sl, a, Mult::Plus, Mult::Opt);
        let mk = |re: Regex| {
            Uc2rpq::single(C2rpq::new(2, vec![], vec![Atom { x: Var(0), y: Var(1), regex: re }]))
        };
        let queries = [
            mk(Regex::edge(r)),
            mk(Regex::edge(sl)),
            mk(Regex::edge(r).then(Regex::edge(sl))),
            mk(Regex::edge(sl).then(Regex::edge(sl).star())),
        ];
        let shared = opts().with_cache(Arc::new(OracleCache::new()));
        for p in &queries {
            for q in &queries {
                let cold = contains(p, q, &s, &mut v.clone(), &opts()).unwrap();
                let warm = contains(p, q, &s, &mut v.clone(), &shared).unwrap();
                assert_eq!(cold.holds, warm.holds, "p={p:?} q={q:?}");
                assert_eq!(cold.certified, warm.certified, "p={p:?} q={q:?}");
            }
        }
        let stats = shared.cache.as_ref().unwrap().stats();
        assert!(stats.solver.cache_hits > 0, "shared cache must be reused: {stats:?}");
    }

    /// Thread-count must not change verdicts (parallel fan-out merge).
    #[test]
    fn threaded_contains_matches_sequential() {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let sl = v.edge_label("s");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        s.set_edge(a, sl, a, Mult::Star, Mult::Star);
        // A two-component RHS yields several negation choices → several
        // independent per-choice pipelines.
        let p = Uc2rpq::single(C2rpq::new(
            2,
            vec![],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let q = Uc2rpq::single(C2rpq::new(
            4,
            vec![],
            vec![
                Atom { x: Var(0), y: Var(1), regex: Regex::edge(sl) },
                Atom { x: Var(2), y: Var(3), regex: Regex::edge(r) },
            ],
        ));
        let sequential = contains(&p, &q, &s, &mut v.clone(), &opts()).unwrap();
        let threaded_opts = ContainmentOptions { threads: 4, ..opts() };
        let threaded = contains(&p, &q, &s, &mut v.clone(), &threaded_opts).unwrap();
        assert_eq!(sequential.holds, threaded.holds);
        assert_eq!(sequential.certified, threaded.certified);
        assert_eq!(sequential.witness.is_some(), threaded.witness.is_some());
    }
}
