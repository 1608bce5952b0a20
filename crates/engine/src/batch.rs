//! Batched analysis execution over a worker pool.
//!
//! A [`Batch`] collects many analysis requests against one
//! [`AnalysisSession`] and runs them across `std::thread` workers. Work
//! distribution is a *work-stealing-free sharded queue*: request indices
//! are dealt round-robin into one shard per worker up front, so workers
//! never contend on a shared queue — the only shared state is the
//! session's containment memo, which every worker both reads and warms.
//!
//! Results come back in submission order, each with its wall-clock time,
//! so callers (the `gts batch` subcommand, the `baseline` benchmark) can
//! attribute cost per request.

use crate::session::AnalysisSession;
use gts_core::graph::Graph;
use gts_core::schema::Schema;
use gts_core::{AnalysisError, Decision, Transformation};
use gts_exec::ExecOptions;
use std::time::Instant;

/// One analysis request against the batch's source schema.
#[derive(Clone, Debug)]
pub enum Request {
    /// Type checking (Lemma B.2): does every output of `transform` on a
    /// source-conforming input conform to `target`?
    TypeCheck {
        /// The transformation to check.
        transform: Transformation,
        /// The target schema `S'`.
        target: Schema,
    },
    /// Equivalence (Lemma B.8) of two transformations modulo the source
    /// schema.
    Equivalence {
        /// First transformation.
        left: Transformation,
        /// Second transformation.
        right: Transformation,
    },
    /// Schema elicitation (Lemma B.5): the containment-minimal target
    /// schema of `transform`.
    Elicit {
        /// The transformation to elicit a schema for.
        transform: Transformation,
    },
    /// Concrete execution of `transform` on `instance` through the
    /// indexed engine (`gts-exec`), optionally conformance-checking the
    /// output against a target schema.
    Execute {
        /// The transformation to run.
        transform: Transformation,
        /// The input instance.
        instance: Graph,
        /// When set, the output is checked against this schema.
        check_target: Option<Schema>,
    },
}

impl Request {
    /// The request kind as a static label (`type_check`, `equivalence`,
    /// `elicit`, `execute`) — span names and the `kind` metric label.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::TypeCheck { .. } => "type_check",
            Request::Equivalence { .. } => "equivalence",
            Request::Elicit { .. } => "elicit",
            Request::Execute { .. } => "execute",
        }
    }

    /// Runs this request against `session` (the session's schema is the
    /// source schema). This is the single execution path for requests —
    /// [`Batch`] workers, the `gts batch` subcommand, and the `gts-serve`
    /// connection handlers all go through it — so the per-kind latency
    /// series (`gts_engine_request_micros{kind=…}`) and request spans
    /// cover every caller.
    pub fn run(self, session: &mut AnalysisSession) -> Result<Verdict, AnalysisError> {
        let kind = self.kind();
        let _span = gts_obs::span(kind);
        if !gts_obs::enabled() {
            return self.run_inner(session);
        }
        let start = std::time::Instant::now();
        let out = self.run_inner(session);
        request_metrics().for_kind(kind).record(start.elapsed().as_micros() as u64);
        out
    }

    fn run_inner(self, session: &mut AnalysisSession) -> Result<Verdict, AnalysisError> {
        match self {
            Request::TypeCheck { transform, target } => {
                session.type_check(&transform, &target).map(Verdict::Decision)
            }
            Request::Equivalence { left, right } => {
                session.equivalence(&left, &right).map(Verdict::Decision)
            }
            Request::Elicit { transform } => session
                .elicit(&transform)
                .map(|e| Verdict::Elicited { schema: e.schema, certified: e.certified }),
            Request::Execute { transform, instance, check_target } => {
                transform.validate().map_err(AnalysisError::Transform).map(|()| {
                    // Callers already parallelize across requests; keep
                    // each execution single-threaded to avoid
                    // oversubscription.
                    let output = gts_exec::execute_with(
                        &transform,
                        &instance,
                        &ExecOptions { threads: 1, ..Default::default() },
                    );
                    let conforms = check_target.map(|s| s.conforms(&output).is_ok());
                    Verdict::Executed { output, conforms }
                })
            }
        }
    }
}

/// The per-kind request latency histograms, resolved once.
struct RequestMetrics {
    type_check: gts_obs::Histogram,
    equivalence: gts_obs::Histogram,
    elicit: gts_obs::Histogram,
    execute: gts_obs::Histogram,
}

impl RequestMetrics {
    fn for_kind(&self, kind: &str) -> &gts_obs::Histogram {
        match kind {
            "type_check" => &self.type_check,
            "equivalence" => &self.equivalence,
            "elicit" => &self.elicit,
            _ => &self.execute,
        }
    }
}

fn request_metrics() -> &'static RequestMetrics {
    static CELLS: std::sync::OnceLock<RequestMetrics> = std::sync::OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = gts_obs::global();
        let name = "gts_engine_request_micros";
        let help = "Analysis request latency by kind";
        RequestMetrics {
            type_check: reg.histogram(name, help, &[("kind", "type_check")]),
            equivalence: reg.histogram(name, help, &[("kind", "equivalence")]),
            elicit: reg.histogram(name, help, &[("kind", "elicit")]),
            execute: reg.histogram(name, help, &[("kind", "execute")]),
        }
    })
}

/// The successful outcome of one request.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// A two-valued analysis answer (type checking, equivalence).
    Decision(Decision),
    /// An elicited schema plus its certification flag.
    Elicited {
        /// The containment-minimal target schema.
        schema: Schema,
        /// `true` iff every entailment test was certified.
        certified: bool,
    },
    /// The output graph of an execution request.
    Executed {
        /// The transformation's output on the request's instance.
        output: Graph,
        /// `Some(true/false)` when the request asked for a conformance
        /// check against a target schema.
        conforms: Option<bool>,
    },
}

/// The outcome of one request, in submission order.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// The caller-supplied label of the request.
    pub label: String,
    /// The verdict, or why the analysis could not answer.
    pub verdict: Result<Verdict, AnalysisError>,
    /// Wall-clock time spent on this request, in microseconds.
    pub micros: u64,
}

/// A set of analysis requests to run against one session.
pub struct Batch {
    session: AnalysisSession,
    items: Vec<(String, Request)>,
}

impl Batch {
    /// A batch over `session` (the session's schema is the source schema
    /// of every request).
    pub fn new(session: AnalysisSession) -> Self {
        Batch { session, items: Vec::new() }
    }

    /// Queues a request under `label` (echoed back on its result).
    pub fn push(&mut self, label: impl Into<String>, request: Request) -> &mut Self {
        self.items.push((label.into(), request));
        self
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Runs all requests on `threads` workers (clamped to the number of
    /// requests; `0` or `1` runs inline on the calling thread) and returns
    /// the results in submission order, along with the session — warmed
    /// by the run — for inspection or reuse.
    pub fn run(self, threads: usize) -> (Vec<BatchResult>, AnalysisSession) {
        let Batch { mut session, items } = self;
        let workers = threads.clamp(1, items.len().max(1));
        if workers <= 1 {
            let results =
                items.into_iter().map(|(label, req)| run_one(&mut session, label, req)).collect();
            return (results, session);
        }

        // Deal indices round-robin into one shard per worker.
        let mut shards: Vec<Vec<(usize, String, Request)>> = vec![Vec::new(); workers];
        for (i, (label, req)) in items.into_iter().enumerate() {
            shards[i % workers].push((i, label, req));
        }
        let total: usize = shards.iter().map(Vec::len).sum();
        let mut slots: Vec<Option<BatchResult>> = (0..total).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|shard| {
                    // Clones share the containment memo with `session`.
                    let mut worker = session.clone();
                    scope.spawn(move || {
                        shard
                            .into_iter()
                            .map(|(i, label, req)| (i, run_one(&mut worker, label, req)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (i, result) in handle.join().expect("batch worker panicked") {
                    slots[i] = Some(result);
                }
            }
        });
        let results = slots.into_iter().map(|r| r.expect("every request ran")).collect();
        (results, session)
    }
}

fn run_one(session: &mut AnalysisSession, label: String, req: Request) -> BatchResult {
    let start = Instant::now();
    let verdict = req.run(session);
    BatchResult { label, verdict, micros: start.elapsed().as_micros() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_core::prelude::{Atom, C2rpq, Mult, Regex, Var, Vocab};

    fn fixture() -> (Vocab, Schema, Transformation) {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let unary =
            C2rpq::new(1, vec![Var(0)], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }]);
        let binary = C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        );
        let mut t = Transformation::new();
        t.add_node_rule(a, unary);
        t.add_edge_rule(r, (a, 1), (a, 1), binary);
        (v, s, t)
    }

    fn requests(s: &Schema, t: &Transformation) -> Vec<(String, Request)> {
        vec![
            ("check".into(), Request::TypeCheck { transform: t.clone(), target: s.clone() }),
            ("equiv".into(), Request::Equivalence { left: t.clone(), right: t.clone() }),
            ("elicit".into(), Request::Elicit { transform: t.clone() }),
        ]
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let (v, s, t) = fixture();
        let mut batch = Batch::new(AnalysisSession::new(s.clone(), v));
        for (label, req) in requests(&s, &t) {
            batch.push(label, req);
        }
        assert_eq!(batch.len(), 3);
        let (results, session) = batch.run(1);
        assert_eq!(
            results.iter().map(|r| r.label.as_str()).collect::<Vec<_>>(),
            ["check", "equiv", "elicit"]
        );
        assert!(results.iter().all(|r| r.verdict.is_ok()));
        assert!(session.stats().misses > 0);
    }

    #[test]
    fn execute_requests_run_through_the_batch() {
        let (v, s, t) = fixture();
        let a = v.find_node_label("A").unwrap();
        let r = v.find_edge_label("r").unwrap();
        let mut g = gts_core::graph::Graph::new();
        let n0 = g.add_labeled_node([a]);
        let n1 = g.add_labeled_node([a]);
        g.add_edge(n0, r, n1);
        let mut batch = Batch::new(AnalysisSession::new(s.clone(), v));
        batch.push("run", Request::Execute { transform: t, instance: g, check_target: Some(s) });
        let (results, _) = batch.run(1);
        match &results[0].verdict {
            Ok(Verdict::Executed { output, conforms }) => {
                assert_eq!(output.num_nodes(), 2);
                assert_eq!(output.num_edges(), 1);
                assert_eq!(*conforms, Some(true));
            }
            other => panic!("expected an Executed verdict, got {other:?}"),
        }
    }

    #[test]
    fn execute_rejects_ill_formed_transformations() {
        let (v, s, _) = fixture();
        let a = v.find_node_label("A").unwrap();
        let r = v.find_edge_label("r").unwrap();
        let cyclic =
            C2rpq::new(1, vec![Var(0)], vec![Atom { x: Var(0), y: Var(0), regex: Regex::edge(r) }]);
        let mut bad = Transformation::new();
        bad.add_node_rule(a, cyclic);
        let mut batch = Batch::new(AnalysisSession::new(s, v));
        batch.push(
            "bad",
            Request::Execute { transform: bad, instance: Default::default(), check_target: None },
        );
        let (results, _) = batch.run(1);
        assert!(
            matches!(results[0].verdict, Err(gts_core::AnalysisError::Transform(_))),
            "{:?}",
            results[0].verdict
        );
    }

    #[test]
    fn threaded_run_matches_serial_run() {
        let (v, s, t) = fixture();
        let mut serial = Batch::new(AnalysisSession::new(s.clone(), v.clone()));
        let mut threaded = Batch::new(AnalysisSession::new(s.clone(), v));
        for (label, req) in requests(&s, &t) {
            serial.push(label.clone(), req.clone());
            threaded.push(label, req);
        }
        let (rs, _) = serial.run(1);
        let (rt, session) = threaded.run(3);
        for (a, b) in rs.iter().zip(&rt) {
            assert_eq!(a.label, b.label);
            match (&a.verdict, &b.verdict) {
                (Ok(Verdict::Decision(da)), Ok(Verdict::Decision(db))) => assert_eq!(da, db),
                (
                    Ok(Verdict::Elicited { schema: sa, certified: ca }),
                    Ok(Verdict::Elicited { schema: sb, certified: cb }),
                ) => {
                    assert_eq!(sa, sb);
                    assert_eq!(ca, cb);
                }
                other => panic!("verdicts diverged: {other:?}"),
            }
        }
        // The shared memo saw overlapping questions from the workers.
        let stats = session.stats();
        assert!(stats.hits + stats.misses > 0);
    }
}
