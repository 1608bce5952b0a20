//! Command driver shared by the `gts` binary and the integration tests.
//!
//! ```text
//! gts show      FILE                                  parse + pretty-print
//! gts check     FILE --transform T --source S --target S'
//! gts equiv     FILE --t1 T1 --t2 T2 --source S
//! gts elicit    FILE --transform T --source S
//! gts apply     FILE --transform T --graph G [--dot]
//! gts run       FILE --transform T --instance I [--delta D] [--check-schema S] [--threads N] [--naive] [--dot]
//! gts conform   FILE --graph G --schema S
//! gts contains  FILE --p Q1 --q Q2 --schema S
//! gts batch     FILE... [--threads N] [--stats]
//! gts serve     [--addr A] [--threads N] [--max-sessions N] ...
//! gts client    FILE... [--addr A] | --verb ping|stats|evict|shutdown
//! ```
//!
//! `batch` and `client` accept `-` as a file name to read the `.gts`
//! source from stdin (pipelines need no temp files).
//!
//! Exit codes: `0` = success / property holds, `1` = property fails /
//! conformance violation, `2` = usage or analysis error.

use crate::parse::GtsFile;
use crate::print;
use gts_core::containment::{contains_nre, ContainmentOptions, OracleCache, OracleCacheStats};
use gts_engine::{AnalysisSession, Batch, CacheStats, Json, Request, Verdict};
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of one command: exit code plus the text to print.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Process exit code (see module docs).
    pub code: i32,
    /// Human-readable report.
    pub output: String,
}

fn usage() -> String {
    "usage: gts <command> <file.gts> [options]\n\
     commands:\n\
     \x20 show      FILE                                   parse and pretty-print\n\
     \x20 check     FILE --transform T --source S --target S'   type checking (Lemma B.2)\n\
     \x20 equiv     FILE --t1 T1 --t2 T2 --source S        equivalence (Lemma B.8)\n\
     \x20 elicit    FILE --transform T --source S          schema elicitation (Lemma B.5)\n\
     \x20 apply     FILE --transform T --graph G [--dot]   run the transformation\n\
     \x20 run       FILE --transform T --instance I        execute on an instance file through\n\
     \x20           [--check-schema S] [--threads N]       the indexed engine (gts-exec);\n\
     \x20           [--naive] [--dot] [--delta D]          exit 1 if the output violates S;\n\
     \x20                                                  --delta D patches the output\n\
     \x20                                                  incrementally from a delta file\n\
     \x20                                                  (`add|del node|edge|label`, chunks\n\
     \x20                                                  separated by `---` lines)\n\
     \x20 conform   FILE --graph G --schema S              conformance check\n\
     \x20 contains  FILE --p Q1 --q Q2 --schema S          query containment (Thm 5.1)\n\
     \x20 safety    FILE --transform T --source S --literals L1,L2   literal safety (§7)\n\
     \x20 batch     FILE... [--threads N] [--stats]        run all analyses of each file, emit JSON\n\
     \x20 serve     [--addr A] [--threads N] [--queue N]   resident analysis server (newline-\n\
     \x20           [--max-sessions N] [--max-session-mb N] delimited JSON protocol; shut down\n\
     \x20           [--deadline-ms N] [--cache-dir DIR]    with `gts client --verb shutdown`);\n\
     \x20           [--flush-ms N] [--slow-ms N]           --slow-ms logs slow frames to stderr,\n\
     \x20           [--no-metrics] [--idle-ms N]           --no-metrics skips latency histograms,\n\
     \x20           [--max-pipeline N]                     --idle-ms 0 disables idle close\n\
     \x20 client    FILE... [--addr A] [--trace]           the batch suite over the wire, or a\n\
     \x20           [--pipeline] [--auth TOKEN]            control verb against a running server\n\
     \x20           | --verb ping|stats|metrics|evict      (see --fingerprint / --store;\n\
     \x20           |        shutdown|cache-export|        metrics takes --format json;\n\
     \x20           |        cache-import                  --pipeline batches analyze frames)\n\
     \x20 corpus    list | emit --family F [--out DIR]     the seeded scenario corpus (gts-corpus):\n\
     \x20           | check [--family F] [--quick]         list families, render .gts + instance\n\
     \x20           [--seed N] [--scale N]                 fixtures, or self-check determinism,\n\
     \x20                                                  conformance, and expected verdicts\n\
     \x20 (batch/client accept `-` as FILE to read the .gts source from stdin)\n\
     \x20 (check/equiv/elicit/contains/safety also take --stats: append oracle statistics)\n\
     \x20 (single-file analysis commands take --trace: append the run's span tree)\n\
     \x20 (analysis commands + batch/serve take --cache-dir DIR — or the GTS_CACHE_DIR env var —\n\
     \x20  to persist oracle state across runs in DIR/*.gtsc; --no-cache forces a stateless run)\n"
        .into()
}

fn parse_flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if name == "dot"
                || name == "naive"
                || name == "stats"
                || name == "allow-linger"
                || name == "no-cache"
                || name == "quick"
                || name == "trace"
                || name == "no-metrics"
                || name == "pipeline"
                || name == "chaos"
            {
                flags.insert(name.to_owned(), "true".to_owned());
                i += 1;
            } else {
                let val = args.get(i + 1).ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.insert(name.to_owned(), val.clone());
                i += 2;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok((flags, positional))
}

fn need<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags.get(name).map(|s| s.as_str()).ok_or_else(|| format!("missing required flag --{name}"))
}

/// Resolves the persistent-cache directory: `--cache-dir DIR` wins, then
/// the `GTS_CACHE_DIR` environment variable; `--no-cache` overrides both.
/// `None` = stateless run (the default).
pub(crate) fn cache_dir_from(flags: &HashMap<String, String>) -> Option<std::path::PathBuf> {
    if flags.contains_key("no-cache") {
        return None;
    }
    if let Some(dir) = flags.get("cache-dir") {
        return Some(std::path::PathBuf::from(dir));
    }
    std::env::var_os("GTS_CACHE_DIR").map(std::path::PathBuf::from)
}

/// Runs a command line (without the leading program name) against `read`,
/// a file-content provider (the binary passes `std::fs::read_to_string`;
/// tests pass in-memory sources).
pub fn run(args: &[String], read: &dyn Fn(&str) -> Result<String, String>) -> Outcome {
    match run_inner(args, read) {
        Ok(o) => o,
        Err(msg) => Outcome { code: 2, output: format!("error: {msg}\n\n{}", usage()) },
    }
}

fn run_inner(
    args: &[String],
    read: &dyn Fn(&str) -> Result<String, String>,
) -> Result<Outcome, String> {
    let (flags, positional) = parse_flags(args)?;
    match positional.first().map(String::as_str) {
        Some("batch") => return run_batch(&positional[1..], &flags, read),
        Some("serve") => return crate::remote::run_serve(&flags),
        Some("client") => return crate::remote::run_client(&positional[1..], &flags, read),
        Some("corpus") => return crate::corpus_cmd::run_corpus(&positional[1..], &flags),
        _ => {}
    }
    let (cmd, path) = match positional.as_slice() {
        [c, p] => (c.as_str(), p.as_str()),
        _ => return Err("expected `gts <command> <file.gts>`".into()),
    };
    let src = read(path)?;
    let mut file = GtsFile::parse(&src).map_err(|e| format!("{path}:{e}"))?;
    // `--stats` installs a shared oracle cache so the run's solver work
    // can be reported afterwards (it also speeds multi-question commands).
    let want_stats = flags.contains_key("stats");
    let cache = Arc::new(OracleCache::new());
    let opts =
        ContainmentOptions { cache: Some(Arc::clone(&cache)), ..ContainmentOptions::default() };
    // Persistent disk cache (--cache-dir / GTS_CACHE_DIR, vetoed by
    // --no-cache): analysis commands bind an `AnalysisSession` over the
    // command's source schema to its store file, hydrating prior verdict
    // memos, completion memos, and solver snapshots before the first
    // question, and flushing what this run learned on drop.
    let cache_dir = cache_dir_from(&flags);
    let bind_session =
        |schema: &gts_core::schema::Schema, vocab: &gts_core::graph::Vocab| -> AnalysisSession {
            let mut session =
                AnalysisSession::with_options(schema.clone(), vocab.clone(), opts.clone());
            if let Some(dir) = &cache_dir {
                session.attach_disk(dir);
            }
            session
        };
    let finish_stats = |outcome: Result<Outcome, String>| -> Result<Outcome, String> {
        let mut o = outcome?;
        if want_stats {
            o.output.push_str(&oracle_stats_block(&cache.stats()));
        }
        Ok(o)
    };

    let lookup_schema = |file: &GtsFile, name: &str| -> Result<gts_core::schema::Schema, String> {
        file.schema(name).cloned().ok_or_else(|| format!("no schema named `{name}` in {path}"))
    };
    let lookup_transform =
        |file: &GtsFile, name: &str| -> Result<gts_core::Transformation, String> {
            file.transform(name)
                .cloned()
                .ok_or_else(|| format!("no transform named `{name}` in {path}"))
        };

    let run_cmd = |file: &mut GtsFile| match cmd {
        "show" => Ok(Outcome { code: 0, output: print::render_file(file) }),
        "check" => {
            let t = lookup_transform(file, need(&flags, "transform")?)?;
            let s = lookup_schema(file, need(&flags, "source")?)?;
            let s2 = lookup_schema(file, need(&flags, "target")?)?;
            let mut session = bind_session(&s, &file.vocab);
            let d =
                session.type_check(&t, &s2).map_err(|e| format!("type checking failed: {e:?}"))?;
            let mut o = verdict_outcome("type check", d.holds, d.certified);
            if !d.holds {
                let mut rng = seeded_rng();
                if let Some(cex) =
                    gts_core::type_check_counterexample(&t, &s, &s2, 100, 2, &mut rng)
                {
                    o.output.push_str("# a conforming input whose image violates the target:\n");
                    o.output.push_str(&print::raw_graph_block(
                        "Counterexample_input",
                        &cex.input,
                        &file.vocab,
                    ));
                }
            }
            Ok(o)
        }
        "equiv" => {
            let t1 = lookup_transform(file, need(&flags, "t1")?)?;
            let t2 = lookup_transform(file, need(&flags, "t2")?)?;
            let s = lookup_schema(file, need(&flags, "source")?)?;
            let mut session = bind_session(&s, &file.vocab);
            let d = session
                .equivalence(&t1, &t2)
                .map_err(|e| format!("equivalence check failed: {e:?}"))?;
            let mut o = verdict_outcome("equivalence", d.holds, d.certified);
            if !d.holds {
                let mut rng = seeded_rng();
                if let Some(cex) =
                    gts_core::equivalence_counterexample(&t1, &t2, &s, 200, 2, &mut rng)
                {
                    o.output.push_str("# an input on which the transformations differ:\n");
                    o.output.push_str(&print::raw_graph_block(
                        "Counterexample_input",
                        &cex.input,
                        &file.vocab,
                    ));
                }
            }
            Ok(o)
        }
        "elicit" => {
            let t = lookup_transform(file, need(&flags, "transform")?)?;
            let s = lookup_schema(file, need(&flags, "source")?)?;
            let mut session = bind_session(&s, &file.vocab);
            let e = session.elicit(&t).map_err(|e| format!("elicitation failed: {e:?}"))?;
            let mut out = print::schema_block("Elicited", &e.schema, session.vocab());
            if !e.certified {
                out.push_str("# warning: some entailment tests were uncertified\n");
            }
            Ok(Outcome { code: 0, output: out })
        }
        "apply" => {
            let t = lookup_transform(file, need(&flags, "transform")?)?;
            let g = file
                .graph(need(&flags, "graph")?)
                .ok_or_else(|| format!("no graph named `{}` in {path}", flags["graph"]))?;
            let out_graph = t.apply(&g.graph);
            let rendered = if flags.contains_key("dot") {
                out_graph.to_dot(&file.vocab)
            } else {
                print::raw_graph_block("Output", &out_graph, &file.vocab)
            };
            Ok(Outcome { code: 0, output: rendered })
        }
        "run" => {
            let t = lookup_transform(file, need(&flags, "transform")?)?;
            t.validate().map_err(|e| format!("ill-formed transformation: {e:?}"))?;
            let inst_path = need(&flags, "instance")?;
            let inst_src = read(inst_path)?;
            let mut inst = crate::instance::parse_instance(&inst_src, &mut file.vocab)
                .map_err(|e| format!("{inst_path}:{e}"))?;
            let threads: usize = match flags.get("threads") {
                Some(s) => s.parse().map_err(|_| format!("--threads: not a number: `{s}`"))?,
                None => 0, // let the executor pick
            };
            // `--delta FILE` switches to the incremental engine: execute
            // the instance once, then patch the output through each delta
            // in FILE (separated by `---` lines) instead of re-running.
            let mut delta_note = String::new();
            let out_graph = if let Some(delta_path) = flags.get("delta") {
                let delta_src = read(delta_path)?;
                let mut inc = gts_exec::Incremental::new(&t, &inst.graph);
                for (i, chunk) in delta_src.split("\n---").enumerate() {
                    let delta = crate::instance::parse_delta(chunk, &mut file.vocab, &mut inst)
                        .map_err(|e| format!("{delta_path}: delta #{}: {e}", i + 1))?;
                    let outcome = inc
                        .apply_delta(&delta)
                        .map_err(|e| format!("{delta_path}: delta #{}: {e}", i + 1))?;
                    // Keep the named instance in step with the engine's
                    // graph so the next chunk's fresh-node ids and name
                    // lookups resolve against the patched instance.
                    delta
                        .apply_in_place(&mut inst.graph)
                        .map_err(|e| format!("{delta_path}: delta #{}: {e}", i + 1))?;
                    delta_note.push_str(&format!(
                        "# delta #{}: {:?} (touched {}, affected {}, facts +{} -{})\n",
                        i + 1,
                        outcome.strategy,
                        outcome.touched,
                        outcome.affected_sources,
                        outcome.facts_added,
                        outcome.facts_removed,
                    ));
                }
                inc.output_graph()
            } else if flags.contains_key("naive") {
                t.apply(&inst.graph)
            } else {
                gts_exec::execute_with(
                    &t,
                    &inst.graph,
                    &gts_exec::ExecOptions { threads, ..Default::default() },
                )
            };
            let mut output = if flags.contains_key("dot") {
                out_graph.to_dot(&file.vocab)
            } else {
                crate::instance::raw_instance(&out_graph, &file.vocab)
            };
            if !delta_note.is_empty() {
                if !output.ends_with('\n') {
                    output.push('\n');
                }
                output.push_str(&delta_note);
            }
            let mut code = 0;
            if let Some(schema_name) = flags.get("check-schema") {
                if !output.ends_with('\n') {
                    output.push('\n'); // to_dot ends at `}`; keep the comment on its own line
                }
                let s = lookup_schema(file, schema_name)?;
                match s.conforms(&out_graph) {
                    Ok(()) => output.push_str("# output conforms\n"),
                    Err(v) => {
                        output.push_str(&format!("# output violation: {v:?}\n"));
                        code = 1;
                    }
                }
            }
            Ok(Outcome { code, output })
        }
        "conform" => {
            let s = lookup_schema(file, need(&flags, "schema")?)?;
            let g = file
                .graph(need(&flags, "graph")?)
                .ok_or_else(|| format!("no graph named `{}` in {path}", flags["graph"]))?;
            match s.conforms(&g.graph) {
                Ok(()) => Ok(Outcome { code: 0, output: "conforms\n".into() }),
                Err(v) => Ok(Outcome { code: 1, output: format!("violation: {v:?}\n") }),
            }
        }
        "contains" => {
            let p = file
                .query(need(&flags, "p")?)
                .cloned()
                .ok_or_else(|| format!("no query named `{}` in {path}", flags["p"]))?;
            let q = file
                .query(need(&flags, "q")?)
                .cloned()
                .ok_or_else(|| format!("no query named `{}` in {path}", flags["q"]))?;
            let s = lookup_schema(file, need(&flags, "schema")?)?;
            // Containment runs through the free function (NRE queries are
            // not session requests), but a disk-bound anchor session over
            // the same schema hydrates the shared oracle cache first and
            // flushes what this run adds to it when dropped.
            let _warm = cache_dir.as_ref().map(|_| bind_session(&s, &file.vocab));
            let ans = contains_nre(&p, &q, &s, &mut file.vocab, &opts)
                .map_err(|e| format!("containment failed: {e:?}"))?;
            let mut o = verdict_outcome("containment", ans.holds, ans.certified);
            if !ans.holds {
                // Prefer a verified finite counterexample; fall back to the
                // engine's (unverified) model core.
                let mut rng = seeded_rng();
                match gts_core::containment::finite_counterexample_nre(
                    &p,
                    &q,
                    &s,
                    &mut file.vocab,
                    &opts,
                    &Default::default(),
                    &mut rng,
                ) {
                    Ok(Some(cex)) => {
                        o.output.push_str("# a conforming graph where P answers and Q does not:\n");
                        o.output.push_str(&print::raw_graph_block(
                            "Counterexample",
                            &cex.graph,
                            &file.vocab,
                        ));
                        if !cex.tuple.is_empty() {
                            let t: Vec<String> =
                                cex.tuple.iter().map(|n| format!("n{}", n.0)).collect();
                            o.output.push_str(&format!("# witness tuple: ({})\n", t.join(", ")));
                        }
                    }
                    _ => {
                        if let Some(w) = ans.witness {
                            o.output.push_str(&print::raw_graph_block(
                                "Counterexample_core",
                                &w,
                                &file.vocab,
                            ));
                        }
                    }
                }
            }
            Ok(o)
        }
        "safety" => {
            let t = lookup_transform(file, need(&flags, "transform")?)?;
            let s = lookup_schema(file, need(&flags, "source")?)?;
            let mut literals = gts_core::graph::LabelSet::new();
            for name in need(&flags, "literals")?.split(',') {
                let l = file
                    .vocab
                    .find_node_label(name.trim())
                    .ok_or_else(|| format!("unknown node label `{name}`"))?;
                literals.insert(l.0);
            }
            let _warm = cache_dir.as_ref().map(|_| bind_session(&s, &file.vocab));
            let report = gts_core::check_literal_safety(&t, &s, &literals, &mut file.vocab, &opts)
                .map_err(|e| format!("literal safety check failed: {e:?}"))?;
            let d = report.decision();
            let mut o = verdict_outcome("literal safety", d.holds, d.certified);
            for v in &report.violations {
                o.output.push_str(&format!("  violation: {v:?}\n"));
            }
            Ok(o)
        }
        other => Err(format!("unknown command `{other}`")),
    };
    // `--trace` runs the command under a span collector and appends the
    // rendered span tree as comment lines (file parsing happened above,
    // so the tree covers the analysis itself: oracle decides, saturation,
    // completion sweeps, executor phases).
    let result = if flags.contains_key("trace") {
        let (result, tree) = gts_obs::trace("command", || run_cmd(&mut file));
        result.map(|mut o| {
            o.output.push_str("# span tree:\n");
            for line in tree.render_tree().lines() {
                o.output.push_str("#   ");
                o.output.push_str(line);
                o.output.push('\n');
            }
            o
        })
    } else {
        run_cmd(&mut file)
    };
    finish_stats(result)
}

/// Renders the oracle statistics of one CLI run (the `--stats` flag).
fn oracle_stats_block(stats: &OracleCacheStats) -> String {
    let s = &stats.solver;
    format!(
        "# oracle: {} decides ({:.0}% context-warm), {} cores tried ({} deduped), {} types \
         interned\n# realize memo: {} hits / {} misses ({:.0}% hit rate); completions: {} \
         memoized / {} computed\n",
        s.decides,
        s.cache_hit_rate() * 100.0,
        s.cores_tried,
        s.cores_deduped,
        s.types_interned,
        s.realize_hits,
        s.realize_misses,
        s.realize_hit_rate() * 100.0,
        stats.completion_hits,
        stats.completion_misses,
    )
}

/// One named entry of the standard analysis suite (shared by `gts
/// batch`, which runs it locally, and `gts client`, which ships it to a
/// server).
pub(crate) enum SuiteSpec {
    /// Type checking of `transform` against `target`.
    Check {
        /// Transformation name.
        transform: String,
        /// Target schema name.
        target: String,
    },
    /// Equivalence of two transformations.
    Equiv {
        /// First transformation name.
        left: String,
        /// Second transformation name.
        right: String,
    },
    /// Schema elicitation of `transform`.
    Elicit {
        /// Transformation name.
        transform: String,
    },
}

/// The full suite of a file, grouped by source schema: every
/// transformation type-checked against every schema, elicited, and all
/// transformation pairs checked for equivalence.
pub(crate) fn suite(file: &GtsFile) -> Vec<(String, Vec<(String, SuiteSpec)>)> {
    let mut out = Vec::new();
    for (source_name, _) in &file.schemas {
        let mut items = Vec::new();
        for (tname, _) in &file.transforms {
            for (target_name, _) in &file.schemas {
                items.push((
                    format!("check {tname}: {source_name} -> {target_name}"),
                    SuiteSpec::Check { transform: tname.clone(), target: target_name.clone() },
                ));
            }
            items.push((
                format!("elicit {tname} from {source_name}"),
                SuiteSpec::Elicit { transform: tname.clone() },
            ));
        }
        for (i, (n1, _)) in file.transforms.iter().enumerate() {
            for (n2, _) in file.transforms.iter().skip(i + 1) {
                items.push((
                    format!("equiv {n1} ~ {n2} mod {source_name}"),
                    SuiteSpec::Equiv { left: n1.clone(), right: n2.clone() },
                ));
            }
        }
        out.push((source_name.clone(), items));
    }
    out
}

/// `gts batch FILE... [--threads N] [--stats]`: for every file, runs the
/// full analysis suite — type checking of each transformation against
/// every (source, target) schema pair, pairwise equivalence of the
/// transformations modulo each schema, and schema elicitation of each
/// transformation from each schema — through one cached
/// [`AnalysisSession`] per (file, source schema), sharded across worker
/// threads. Emits one JSON document on stdout; `--stats` adds a
/// per-file `session` occupancy block (the counters the `gts-serve`
/// registry budgets against).
fn run_batch(
    paths: &[String],
    flags: &HashMap<String, String>,
    read: &dyn Fn(&str) -> Result<String, String>,
) -> Result<Outcome, String> {
    if paths.is_empty() {
        return Err("batch needs at least one .gts file".into());
    }
    let threads: usize = match flags.get("threads") {
        Some(s) => s.parse().map_err(|_| format!("--threads: not a number: `{s}`"))?,
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8),
    };
    let cache_dir = cache_dir_from(flags);
    let mut files_json = Vec::new();
    let mut all_hold = true;
    let mut any_error = false;
    for path in paths {
        let src = read(path)?;
        let file = GtsFile::parse(&src).map_err(|e| format!("{path}:{e}"))?;
        let mut results_json = Vec::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut entries = 0usize;
        let mut approx_bytes = 0usize;
        let mut hydrated = 0u64;
        let mut oracle = OracleCacheStats::default();
        for (source_name, items) in suite(&file) {
            let source = file.schema(&source_name).expect("suite names file schemas").clone();
            let mut session = AnalysisSession::new(source, file.vocab.clone());
            if let Some(dir) = &cache_dir {
                session.attach_disk(dir);
            }
            let mut batch = Batch::new(session);
            for (label, spec) in items {
                let request = match spec {
                    SuiteSpec::Check { transform, target } => Request::TypeCheck {
                        transform: file.transform(&transform).expect("suite").clone(),
                        target: file.schema(&target).expect("suite").clone(),
                    },
                    SuiteSpec::Equiv { left, right } => Request::Equivalence {
                        left: file.transform(&left).expect("suite").clone(),
                        right: file.transform(&right).expect("suite").clone(),
                    },
                    SuiteSpec::Elicit { transform } => Request::Elicit {
                        transform: file.transform(&transform).expect("suite").clone(),
                    },
                };
                batch.push(label, request);
            }
            let (results, session) = batch.run(threads);
            let stats = session.stats();
            hits += stats.hits;
            misses += stats.misses;
            entries += stats.entries;
            approx_bytes += stats.approx_bytes;
            hydrated += stats.hydrated;
            oracle.absorb(&session.oracle_stats());
            for r in results {
                let mut entry = Json::obj();
                entry.set("label", r.label.as_str()).set("micros", r.micros);
                match r.verdict {
                    Ok(Verdict::Decision(d)) => {
                        entry.set("holds", d.holds).set("certified", d.certified);
                        all_hold &= d.holds;
                    }
                    Ok(Verdict::Elicited { schema, certified }) => {
                        entry
                            .set("schema", print::schema_block("Elicited", &schema, &file.vocab))
                            .set("certified", certified);
                    }
                    Ok(Verdict::Executed { output, conforms }) => {
                        entry
                            .set("output_nodes", output.num_nodes() as u64)
                            .set("output_edges", output.num_edges() as u64);
                        if let Some(ok) = conforms {
                            entry.set("conforms", ok);
                            all_hold &= ok;
                        }
                    }
                    Err(e) => {
                        entry.set("error", format!("{e:?}"));
                        any_error = true;
                    }
                }
                results_json.push(entry);
            }
        }
        let mut cache = Json::obj();
        cache
            .set("hits", hits)
            .set("misses", misses)
            .set("hit_rate", CacheStats { hits, misses, ..Default::default() }.hit_rate());
        let mut fj = Json::obj();
        fj.set("file", path.as_str())
            .set("results", Json::Arr(results_json))
            .set("containment_cache", cache)
            // The canonical oracle shape — identical to the serve `stats`
            // verb's `oracle` object and the analyze response, by
            // construction (they all call the same builder).
            .set("oracle", gts_engine::snapshot_to_json(&gts_engine::oracle_snapshot(&oracle)));
        if flags.contains_key("stats") {
            // The occupancy counters the server's session registry
            // budgets against, summed over this file's source sessions —
            // same shape as the analyze response's `session` object.
            let summed = CacheStats { hits, misses, entries, approx_bytes, hydrated };
            fj.set(
                "session",
                gts_engine::snapshot_to_json(&gts_engine::session_cache_snapshot(&summed)),
            );
        }
        files_json.push(fj);
    }
    let mut doc = Json::obj();
    doc.set("threads", threads).set("files", Json::Arr(files_json));
    // Exit-code contract: 2 = some analysis errored, 1 = every analysis
    // ran but some property fails, 0 = everything holds.
    let code = if any_error { 2 } else { i32::from(!all_hold) };
    Ok(Outcome { code, output: doc.pretty() })
}

/// Deterministic RNG so CLI runs are reproducible.
fn seeded_rng() -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(0x6774735f636c69)
}

fn verdict_outcome(what: &str, holds: bool, certified: bool) -> Outcome {
    let verdict = if holds { "HOLDS" } else { "FAILS" };
    let cert = if certified { "certified" } else { "uncertified — raise budgets" };
    Outcome { code: i32::from(!holds), output: format!("{what}: {verdict} ({cert})\n") }
}
