//! `cold-analysis`: one caller in a closed loop asks every annotated
//! corpus question plus one elicitation per family, each in a fresh
//! `AnalysisSession` (cold pass, which writes the on-disk store), then
//! re-asks them from fresh sessions hydrated from that store (warm
//! passes, repeated until the run's time is up).

use crate::common::*;
use gts_core::prelude::ContainmentOptions;
use gts_corpus::{scenario, Expectation, Family, Params};
use gts_engine::{AnalysisSession, Request, Verdict};
use gts_exec::ExecOptions;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One family rendered to the text a user would hand the CLI.
struct FamilyText {
    family: Family,
    gts: String,
    /// The seeded instance the elicited schema must accept the primary
    /// transform's output on, in the CLI's instance format.
    instance: String,
    source: String,
    transform: String,
}

enum Ask {
    Expect(Expectation),
    Elicit,
}

struct Question {
    fam: usize,
    ask: Ask,
}

struct Inputs {
    families: Vec<FamilyText>,
    questions: Vec<Question>,
}

fn setup(seed: u64) -> Inputs {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut families = Vec::new();
    let mut questions = Vec::new();
    for (i, family) in Family::ALL.into_iter().enumerate() {
        // Schemas, transforms and verdicts are fixed by the corpus; the
        // seed only reshapes the instances.
        let sc = scenario(family, &Params { seed, ..Params::default() });
        let mut candidates: Vec<_> =
            sc.instances.iter().filter(|i| i.schema == sc.primary.source).collect();
        candidates.shuffle(&mut rng);
        let inst = candidates.first().expect("every family ships a primary-source instance");
        let gts = gts_cli::render_file(&gts_cli::scenario_file(&sc));
        // Every question re-parses this text; set-up checks once that it
        // parses, so a rendering fault fails here and not per question.
        gts_cli::GtsFile::parse(&gts).expect("a rendered corpus family parses");
        families.push(FamilyText {
            family,
            gts,
            instance: gts_cli::raw_instance(&inst.graph, &sc.vocab),
            source: sc.primary.source.clone(),
            transform: sc.primary.transform.clone(),
        });
        questions
            .extend(sc.expectations.into_iter().map(|e| Question { fam: i, ask: Ask::Expect(e) }));
        questions.push(Question { fam: i, ask: Ask::Elicit });
    }
    questions.shuffle(&mut rng);
    Inputs { families, questions }
}

/// Engine options of every session: one thread, so a question's time
/// does not depend on whether a second core happens to be free.
fn options() -> ContainmentOptions {
    ContainmentOptions { threads: 1, ..ContainmentOptions::default() }
}

/// Per-pass accounting.
#[derive(Default)]
struct Pass {
    times_ms: Vec<f64>,
    parse_ms: f64,
    request_ms: f64,
    hydrate_ms: f64,
    hydrated_records: u64,
    flush_ms: f64,
    flush_bytes: u64,
    flush_records: u64,
    certified: u64,
    memo_hits: u64,
    memo_lookups: u64,
    /// Traced root `(total µs, self µs)`.
    spans: (u64, u64),
    /// Obs-registry change over the pass's own questions.
    obs: ObsSample,
}

/// Asks one question: parse → fresh session (hydrated from `store` when
/// warm) → `Request::run`, then flushes a cold session into `store`, if
/// given. Returns the verdict's correctness failure, if any.
fn ask(
    inputs: &Inputs,
    q: &Question,
    store: Option<&Path>,
    warm: bool,
    traced: bool,
    pass: &mut Pass,
) -> Result<(), String> {
    let fam = &inputs.families[q.fam];
    let name = fam.family.name();
    let start = Instant::now();
    let (verdict, session, file) = maybe_trace(traced, &mut pass.spans, || {
        let parse = Instant::now();
        let file = {
            let _s = gts_obs::span("cli.parse");
            gts_cli::GtsFile::parse(&fam.gts).map_err(|e| format!("{name}: parse: {e}"))?
        };
        pass.parse_ms += ms(parse);
        let source_name = match &q.ask {
            Ask::Expect(Expectation::TypeCheck { source, .. })
            | Ask::Expect(Expectation::Equivalence { source, .. }) => source,
            Ask::Elicit => &fam.source,
        };
        let lookup =
            |n: &str| file.transform(n).cloned().ok_or(format!("{name}: no transform {n}"));
        let source = file.schema(source_name).ok_or(format!("{name}: no schema"))?.clone();
        let mut session = AnalysisSession::with_options(source, file.vocab.clone(), options());
        if let (true, Some(store)) = (warm, store) {
            let hydrate = Instant::now();
            let report = session.attach_disk(store);
            pass.hydrate_ms += ms(hydrate);
            pass.hydrated_records += report.total() as u64;
        }
        let request = match &q.ask {
            Ask::Expect(Expectation::TypeCheck { transform, target, .. }) => Request::TypeCheck {
                transform: lookup(transform)?,
                target: file.schema(target).ok_or(format!("{name}: no schema"))?.clone(),
            },
            Ask::Expect(Expectation::Equivalence { left, right, .. }) => {
                Request::Equivalence { left: lookup(left)?, right: lookup(right)? }
            }
            Ask::Elicit => Request::Elicit { transform: lookup(&fam.transform)? },
        };
        let run = Instant::now();
        let verdict = request.run(&mut session).map_err(|e| format!("{name}: {e:?}"))?;
        pass.request_ms += ms(run);
        Ok::<_, String>((verdict, session, file))
    })?;
    pass.times_ms.push(ms(start));
    let stats = session.stats();
    pass.memo_hits += stats.hits;
    pass.memo_lookups += stats.hits + stats.misses;

    let certified = match (&q.ask, &verdict) {
        (Ask::Expect(exp), Verdict::Decision(d)) => {
            if d.certified && d.holds != exp.holds() {
                return Err(format!("{name}: certified verdict {} contradicts {exp:?}", d.holds));
            }
            d.certified
        }
        (Ask::Elicit, Verdict::Elicited { schema, certified }) => {
            let mut vocab = file.vocab.clone();
            let inst = gts_cli::parse_instance(&fam.instance, &mut vocab)
                .map_err(|e| format!("{name}: instance: {e}"))?;
            let t = file.transform(&fam.transform).expect("looked up above");
            let out = gts_exec::execute_with(t, &inst.graph, &ExecOptions::default());
            if *certified && schema.conforms(&out).is_err() {
                return Err(format!("{name}: elicited schema rejects the transform's output"));
            }
            *certified
        }
        _ => return Err(format!("{name}: verdict of the wrong kind")),
    };
    pass.certified += u64::from(certified);
    if let (false, Some(store)) = (warm, store) {
        // The cold pass writes what it learned; the warm pass reads it.
        let mut session = session;
        session.attach_disk(store);
        let flush = Instant::now();
        let report = session.flush_disk().expect("bound to a store").map_err(|e| e.to_string())?;
        pass.flush_ms += ms(flush);
        pass.flush_bytes += report.bytes as u64;
        pass.flush_records += report.records as u64;
    }
    Ok(())
}

/// Asks every question once, calling `between` after each. With
/// `untraced_twins`, each question is first asked untraced, with no
/// store, into that pass: the base of the tracing overhead, measured
/// under the same conditions question by question.
fn run_pass(
    inputs: &Inputs,
    store: Option<&Path>,
    warm: bool,
    traced: bool,
    mut untraced_twins: Option<&mut Pass>,
    between: &mut dyn FnMut(),
    out: &mut Outcome,
) -> (Pass, f64) {
    reset_peak_rss();
    let mut pass = Pass::default();
    let tally = |r: Result<(), String>, out: &mut Outcome| {
        out.attempted += 1;
        if let Err(e) = r {
            out.failed += 1;
            out.wrong.push(e);
        }
    };
    for (i, q) in inputs.questions.iter().enumerate() {
        if let Some(twins) = untraced_twins.as_deref_mut() {
            tally(ask(inputs, q, None, false, false, twins), out);
        }
        // Each question keeps its own store: a warm question is exactly
        // its cold twin restarted.
        let store = store.map(|s| s.join(i.to_string()));
        let obs0 = ObsSample::now();
        tally(ask(inputs, q, store.as_deref(), warm, traced, &mut pass), out);
        pass.obs = pass.obs.plus(&ObsSample::now().since(&obs0));
        between();
    }
    (pass, peak_rss_mb())
}

/// A fresh, empty store directory inside the working directory.
fn store_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(format!(".perfbench-tmp/{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the store directory");
    dir
}

/// What one cold pass plus its warm passes measured.
struct Measured {
    cold: Pass,
    warm: Pass,
    cold_peak_mb: f64,
    warm_peak_mb: f64,
}

/// The cold pass, calling `between` after each cold question, then warm
/// passes until `seconds` have passed since the cold pass began (at
/// least one).
fn measure(
    inputs: &Inputs,
    seconds: f64,
    traced: bool,
    tag: &str,
    untraced_twins: Option<&mut Pass>,
    between: &mut dyn FnMut(),
    out: &mut Outcome,
) -> Measured {
    let store = store_dir(tag);
    let began = Instant::now();
    let (cold, cold_peak_mb) =
        run_pass(inputs, Some(&store), false, traced, untraced_twins, between, out);
    let mut warm = Pass::default();
    let mut warm_peak_mb = 0.0f64;
    while warm.times_ms.is_empty() || began.elapsed().as_secs_f64() < seconds {
        let (p, peak) = run_pass(inputs, Some(&store), true, traced, None, &mut || {}, out);
        warm_peak_mb = warm_peak_mb.max(peak);
        warm.times_ms.extend(p.times_ms);
        warm.hydrate_ms += p.hydrate_ms;
        warm.hydrated_records += p.hydrated_records;
        warm.spans.0 += p.spans.0;
        warm.spans.1 += p.spans.1;
    }
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir(store.parent().expect("under the scratch directory"));
    Measured { cold, warm, cold_peak_mb, warm_peak_mb }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    if !trace {
        // `setup_s` is the median of a set-up before the cold pass and one
        // more after each cold question (results dropped). One set-up
        // takes about 20 ms, and the host's speed switched between two
        // levels every few seconds: set-ups timed back to back all caught
        // one level, and the median of 41 of them spread by 0.23 of the
        // median over ten runs. Timed across the cold pass, they see the
        // levels in the same shares as the questions do. Each timed one
        // follows an untimed one, which takes the first allocations after
        // a question has freed its session (up to 1.8 GB). Set-ups inside
        // the cold pass still take about twice as long as back-to-back
        // ones before it (35 ms against 17 ms).
        let mut setup_times = Vec::new();
        let mut timed_setup = || {
            let start = Instant::now();
            let inputs = setup(seed);
            setup_times.push(start.elapsed().as_secs_f64());
            inputs
        };
        let inputs = timed_setup();
        let mut between = || {
            drop(setup(seed));
            drop(timed_setup());
        };
        let m = measure(&inputs, seconds, false, "plain", None, &mut between, &mut out);
        let setup_s = median(&setup_times);
        let cold_pass_s = m.cold.times_ms.iter().sum::<f64>() / 1e3;
        eprintln!(
            "cold-analysis: cold verdict geomean {:.1} ms, cold pass {cold_pass_s:.2} s, warm \
             verdict geomean {:.1} ms, certified {}/{}, {} set-ups",
            geomean(&m.cold.times_ms),
            geomean(&m.warm.times_ms),
            m.cold.certified,
            inputs.questions.len(),
            setup_times.len()
        );
        // One operation is one cold question.
        let peak = m.cold_peak_mb.max(m.warm_peak_mb);
        out.end_to_end(setup_s, peak, &m.cold.times_ms);
        return out;
    }
    // The traced run: the cold and warm passes with span collectors on,
    // each cold question preceded by its untraced twin.
    let inputs = setup(seed);
    let questions = inputs.questions.len() as f64;
    let mut plain = Pass::default();
    let traced = measure(&inputs, seconds, true, "traced", Some(&mut plain), &mut || {}, &mut out);
    let cold_pass_s = plain.times_ms.iter().sum::<f64>() / 1e3;
    let (tc, tw, d) = (&traced.cold, &traced.warm, traced.cold.obs);
    let traced_s = tc.times_ms.iter().sum::<f64>() / 1e3;
    out.push("containment.contains_ms", sum_ms(d.contains), "ms");
    out.push("containment.contains_calls", d.contains.0 as f64, "count");
    out.push("containment.completion_ms", sum_ms(d.completion), "ms");
    out.push("containment.probe_ms", sum_ms(d.probe), "ms");
    out.push("containment.probes", d.probe.0 as f64, "count");
    out.push(
        "containment.completion_memo_hit_rate",
        share(d.completion_hits as f64, (d.completion_hits + d.completion_misses) as f64),
        "ratio",
    );
    out.push("sat.decide_ms", sum_ms(d.decide), "ms");
    out.push("sat.decides", d.decide.0 as f64, "count");
    out.push("sat.saturate_ms", sum_ms(d.saturate), "ms");
    out.push("sat.unknown_share", share(d.decide_unknown as f64, d.decide.0 as f64), "ratio");
    out.push(
        "sat.solver_cache_hit_rate",
        share(d.solver_hits as f64, (d.solver_hits + d.solver_misses) as f64),
        "ratio",
    );
    out.push("engine.self_ms", (tc.request_ms - sum_ms(d.contains)).max(0.0), "ms");
    out.push("engine.memo_hit_rate", share(tc.memo_hits as f64, tc.memo_lookups as f64), "ratio");
    out.push("cli.parse_ms", tc.parse_ms, "ms");
    out.push("store.flush_ms", tc.flush_ms, "ms");
    out.push("store.bytes", tc.flush_bytes as f64, "bytes");
    out.push("store.records", tc.flush_records as f64, "count");
    out.push("store.warm_verdict_ms_geomean", geomean(&tw.times_ms), "ms");
    out.push("sat.certified_share", share(tc.certified as f64, questions), "ratio");
    // Per warm pass, like the flush figures are per cold pass.
    let warm_passes = tw.times_ms.len() as f64 / questions;
    out.push("store.hydrate_ms", share(tw.hydrate_ms, warm_passes), "ms");
    out.push("store.hydrated_records", share(tw.hydrated_records as f64, warm_passes), "count");
    out.push("mem.cold_pass_peak_mb", traced.cold_peak_mb, "MB");
    out.push("mem.warm_pass_peak_mb", traced.warm_peak_mb, "MB");
    out.push("obs.trace_overhead_share", traced_s / cold_pass_s - 1.0, "ratio");
    let spans = (tc.spans.0 + tw.spans.0, tc.spans.1 + tw.spans.1);
    out.push("residue_share", share(spans.1 as f64, spans.0 as f64), "ratio");
    out
}
