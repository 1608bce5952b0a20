//! Seeds the performance trajectory: measures the paper's three analyses
//! cold (fresh state per call) and through a cached `AnalysisSession`
//! (cold first run, warm re-run), plus a repeated-containment benchmark
//! and a **disk-cache** section (cold-start-to-first-verdict with and without
//! a warm on-disk store — the `--cache-dir` warm-start story), and
//! writes the machine-readable report `BENCH_baseline.json`. Also measures
//! transformation *execution* — naive `Transformation::apply` vs the
//! indexed `gts-exec` engine across instance sizes, with the parallel
//! sharding cutoff — and writes `BENCH_exec.json`.
//!
//! A **families** section sweeps the scenario corpus (`gts-corpus`):
//! every family's headline workload — session-cold/warm type check of
//! the primary transformation, schema elicitation, and indexed
//! execution of the primary instance — lands as one row per family in
//! `BENCH_baseline.json`, with `--family NAME` restricting the sweep.
//!
//! ```sh
//! cargo run --release -p gts-bench --bin baseline           # BENCH_baseline.json + BENCH_exec.json
//! cargo run --release -p gts-bench --bin baseline -- a.json b.json   # custom paths
//! cargo run --release -p gts-bench --bin baseline -- --quick         # CI smoke mode
//! cargo run --release -p gts-bench --bin baseline -- --family fhir   # one corpus family
//! cargo run --release -p gts-bench --bin baseline -- --scale         # + million-node builds
//! ```
//!
//! `BENCH_exec.json` also carries a **delta** section (incremental
//! `apply_delta` vs full re-execution, agreement-checked) and — under
//! `--scale` — a **scale** section (serial vs chunked million-node index
//! builds with peak RSS and the memory-budget gate).

use gts_bench::{fig2, medical, medical_instance};
use gts_core::prelude::*;
use gts_corpus::{scenario, Family, Params};
use gts_engine::{AnalysisSession, Json};
use gts_exec::{execute_with, output_facts, ExecOptions, IndexedGraph};
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_micros() as u64)
}

/// One analysis measured cold (fresh vocab, no shared state), session-cold
/// (first run in a fresh session), and session-warm (re-run in the same
/// session).
struct AnalysisRow {
    name: &'static str,
    cold_micros: u64,
    session_cold_micros: u64,
    session_warm_micros: u64,
}

impl AnalysisRow {
    fn json(&self) -> Json {
        let mut e = Json::obj();
        e.set("name", self.name)
            .set("cold_micros", self.cold_micros)
            .set("session_cold_micros", self.session_cold_micros)
            .set("session_warm_micros", self.session_warm_micros)
            .set("warm_speedup_over_cold", ratio(self.cold_micros, self.session_warm_micros));
        e
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Runs `f` `reps` times and returns its result with the *best* (minimum)
/// wall-clock time — standard noise suppression for short measurements.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, u64) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..reps {
        let (o, micros) = timed(&mut f);
        if micros < best {
            best = micros;
            out = o;
        }
    }
    (out, best)
}

/// The disk-cache comparison: cold-start-to-first-verdict — fresh
/// process state (empty memo) through the first
/// completed analysis — against the same start hydrated from a warm
/// on-disk store under a throwaway cache dir. The warm timer *includes*
/// reading and decoding the store file, so the ratio is exactly what
/// `--cache-dir` buys a CLI invocation or a server restart.
fn disk_cache_section(reps: usize) -> Json {
    let dir = std::env::temp_dir().join(format!("gts-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ContainmentOptions::default();
    // Cold: fresh session, no store anywhere.
    let (_, cold) = best_of(reps, || {
        let m = medical();
        let mut session = AnalysisSession::new(m.s0.clone(), m.vocab);
        session.elicit(&m.t0).expect("elicit");
        session
    });
    // Warm the store with the full medical suite once, flush explicitly.
    let m = medical();
    let (mut warmup, _) = AnalysisSession::with_disk(m.s0.clone(), m.vocab, opts.clone(), &dir);
    warmup.elicit(&m.t0).expect("elicit");
    warmup.type_check(&m.t0, &m.s1).expect("type check");
    warmup.equivalence(&m.t0, &m.t0).expect("equivalence");
    let flush =
        warmup.flush_disk().expect("disk-bound").unwrap_or_else(|e| panic!("flush failed: {e}"));
    let store_file = warmup.disk_path().expect("disk-bound").to_path_buf();
    drop(warmup);
    let store_bytes = std::fs::metadata(&store_file).map(|m| m.len()).unwrap_or(0);
    // Warm: a fresh session per rep, hydrated from the store file before
    // its first verdict. The session is *returned* from the closure so
    // its drop-flush lands outside the timed region (a real process
    // flushes at exit, long after the first verdict).
    let mut hydrated = 0usize;
    let mut degraded = false;
    let (_, warm) = best_of(reps, || {
        let m = medical();
        let mut session = AnalysisSession::with_options(m.s0.clone(), m.vocab, opts.clone());
        let report = session.attach_disk(&dir);
        hydrated = report.total();
        degraded = report.degraded;
        session.elicit(&m.t0).expect("elicit");
        session
    });
    let _ = std::fs::remove_dir_all(&dir);
    let mut e = Json::obj();
    e.set("workload", "elicit_medical (cold-start-to-first-verdict)")
        .set("cold_first_verdict_micros", cold)
        .set("warm_first_verdict_micros", warm)
        .set("warm_speedup", ratio(cold, warm))
        .set("meets_5x_target", cold >= warm.saturating_mul(5))
        .set("hydrated_records", hydrated as u64)
        .set("degraded", degraded)
        .set("store_bytes", store_bytes)
        .set("flush_records", flush.records as u64)
        .set("flush_bytes", flush.bytes as u64);
    println!(
        "disk cache: cold first verdict {cold:>8}us | disk-warm {warm:>8}us ({:.1}x, {} records, \
         {} store bytes)",
        ratio(cold, warm),
        hydrated,
        store_bytes
    );
    if cold < warm.saturating_mul(5) {
        eprintln!("warning: disk-warm start missed the 5x target");
    }
    e
}

/// Peak resident set size so far (`VmHWM` from `/proc/self/status`), in
/// bytes; `0` where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Million-node index builds: serial vs chunked CSR construction on the
/// medical chain family at 100k–3M nodes, with the predicted footprint
/// (`approx_bytes`), the observed peak RSS, a budget-gate check (a
/// budget of half the prediction must refuse to build), and a sampled
/// adjacency comparison between the serial- and chunked-built indexes.
/// Enabled by `--scale` (the graphs alone take hundreds of MB).
fn scale_section(quick: bool) -> Json {
    let m = medical();
    let chain_len = 8;
    let sizes: &[usize] = if quick { &[10_000] } else { &[100_000, 300_000] };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut rows = Vec::new();
    for &chains in sizes {
        let (g, gen_micros) = timed(|| medical_instance(&m, chains, chain_len));
        let serial_opts = gts_exec::IndexBuildOptions { threads: 1, ..Default::default() };
        let (serial_idx, serial_micros) =
            timed(|| gts_exec::IndexedGraph::try_build_with(&g, &serial_opts).expect("build"));
        let chunked_opts = gts_exec::IndexBuildOptions::default();
        let (chunked_idx, chunked_micros) =
            timed(|| gts_exec::IndexedGraph::try_build_with(&g, &chunked_opts).expect("build"));
        let approx = serial_idx.approx_bytes();
        // The budget gate must refuse before allocating: half the real
        // footprint can never fit.
        let tight = gts_exec::IndexBuildOptions { budget_bytes: Some(approx / 2), threads: 1 };
        let budget_enforced = matches!(
            gts_exec::IndexedGraph::try_build_with(&g, &tight),
            Err(gts_exec::IndexError::BudgetExceeded { .. })
        );
        // Sampled adjacency parity between the two builds: every label,
        // both directions, every 101st node.
        let mut agree = serial_idx.num_nodes() == chunked_idx.num_nodes();
        for label in m.vocab.edge_labels() {
            for sym in [EdgeSym::fwd(label), EdgeSym::bwd(label)] {
                for u in (0..g.num_nodes() as u32).step_by(101) {
                    agree &= serial_idx.successors(u, sym) == chunked_idx.successors(u, sym);
                }
            }
        }
        let peak_rss = peak_rss_bytes();
        let mut e = Json::obj();
        e.set("chains", chains)
            .set("chain_len", chain_len)
            .set("nodes", g.num_nodes())
            .set("edges", g.num_edges())
            .set("generate_micros", gen_micros)
            .set("serial_build_micros", serial_micros)
            .set("chunked_build_micros", chunked_micros)
            .set("chunked_speedup", ratio(serial_micros, chunked_micros))
            .set("index_approx_bytes", approx as u64)
            .set("budget_enforced", budget_enforced)
            .set("builds_agree", agree)
            .set("peak_rss_bytes", peak_rss);
        println!(
            "scale {:>8} nodes: build serial {serial_micros:>8}us vs chunked {chunked_micros:>8}us \
             ({:>4.1}x, {cores} cores) | index ~{:.1} MB | peak RSS {:.1} MB | budget gate {} | \
             agree {agree}",
            g.num_nodes(),
            ratio(serial_micros, chunked_micros),
            approx as f64 / 1e6,
            peak_rss as f64 / 1e6,
            budget_enforced,
        );
        assert!(agree, "serial and chunked index builds must produce identical adjacency");
        assert!(budget_enforced, "the memory budget gate must refuse an impossible budget");
        rows.push(e);
    }
    let mut e = Json::obj();
    e.set("workload", "medical chain instances (scale sweep; indexes built serial vs chunked)")
        .set("measured_parallelism", cores as u64)
        .set(
            "note",
            "chunked-vs-serial speedup requires >1 core; auto thread resolution stays serial \
             under 65536 edges and on single-core hosts",
        )
        .set("sizes", Json::Arr(rows));
    e
}

/// Incremental delta execution vs full re-execution: on a medical chain
/// instance, rewire k crossReacting edges (k from one edge up to ~1% of
/// the graph) and compare patching the previous output through
/// `Incremental::apply_delta` against re-running `execute_with` on the
/// patched graph. Every row checks the patched output graph is
/// identical to the full re-execution before timing is trusted.
fn delta_section(quick: bool, reps: usize) -> Json {
    use gts_core::graph::GraphDelta;
    let m = medical();
    let chain_len = 8;
    let chains = if quick { 256 } else { 4096 };
    let g = medical_instance(&m, chains, chain_len);
    let cr = m.vocab.find_edge_label("crossReacting").expect("fixture label");
    let per_chain = 2 + chain_len;
    // Antigen j of chain c (j < chain_len).
    let antigen = |c: usize, j: usize| NodeId((c * per_chain + 2 + j) as u32);
    // Rewire chain c: cut a2 -> a3, splice a2 -> a4 (a3 drops out of the
    // targets relation, a4.. stay reachable).
    let rewire = |k: usize| {
        let mut d = GraphDelta::default();
        for c in 0..k {
            d.removed_edges.push((antigen(c, 2), cr, antigen(c, 3)));
            d.added_edges.push((antigen(c, 2), cr, antigen(c, 4)));
        }
        d
    };
    let unwire = |k: usize| {
        let mut d = GraphDelta::default();
        for c in 0..k {
            d.removed_edges.push((antigen(c, 2), cr, antigen(c, 4)));
            d.added_edges.push((antigen(c, 2), cr, antigen(c, 3)));
        }
        d
    };
    // Each rewired chain touches 2 edges; the sweep tops out at 1% of
    // the graph's edges (the regime the incremental path is for).
    let edges = g.num_edges();
    let mut ks = vec![1, (edges / 2000).max(2), (edges / 200).max(3)];
    ks.dedup();
    let inline = ExecOptions { threads: 1 };
    let mut inc = gts_exec::Incremental::new(&m.t0, &g);
    let mut rows = Vec::new();
    for k in ks {
        let delta = rewire(k);
        let inverse = unwire(k);
        // Timed incremental patches; each rep undoes itself so every
        // rep patches the same base state.
        let mut incremental_micros = u64::MAX;
        let mut strategy = gts_exec::DeltaStrategy::Incremental;
        let mut outcome = gts_exec::DeltaOutcome::default();
        for _ in 0..reps.max(1) {
            let (o, us) = timed(|| inc.apply_delta(&delta).expect("delta applies"));
            if us < incremental_micros {
                incremental_micros = us;
                strategy = o.strategy;
                outcome = o;
            }
            inc.apply_delta(&inverse).expect("inverse applies");
        }
        // Agreement: leave the delta applied, compare against a full
        // execution of the patched graph, then restore.
        let mut patched = g.clone();
        delta.apply_in_place(&mut patched).expect("delta applies to the graph");
        inc.apply_delta(&delta).expect("delta applies");
        let (full_out, full_micros) = best_of(reps, || execute_with(&m.t0, &patched, &inline));
        let inc_out = inc.output_graph();
        let agree = inc_out.num_nodes() == full_out.num_nodes()
            && inc_out.edges().collect::<Vec<_>>() == full_out.edges().collect::<Vec<_>>();
        inc.apply_delta(&inverse).expect("inverse applies");
        let mut e = Json::obj();
        e.set("delta_edges", 2 * k)
            .set("delta_fraction_of_edges", 2.0 * k as f64 / edges as f64)
            .set("strategy", format!("{strategy:?}"))
            .set("affected_sources", outcome.affected_sources as u64)
            .set("facts_added", outcome.facts_added as u64)
            .set("facts_removed", outcome.facts_removed as u64)
            .set("incremental_micros", incremental_micros)
            .set("full_micros", full_micros)
            .set("incremental_speedup", ratio(full_micros, incremental_micros))
            .set("outputs_agree", agree);
        println!(
            "delta {:>6} edges ({:>5.2}% of {edges}): incremental {incremental_micros:>8}us vs \
             full {full_micros:>8}us ({:>5.1}x, {strategy:?}) | agree {agree}",
            2 * k,
            200.0 * k as f64 / edges as f64,
            ratio(full_micros, incremental_micros),
        );
        assert!(agree, "incremental and full execution must agree");
        rows.push(e);
    }
    let mut e = Json::obj();
    e.set("workload", "medical chains: rewire k crossReacting edges, patch vs re-execute")
        .set("nodes", g.num_nodes())
        .set("edges", edges)
        .set("sizes", Json::Arr(rows));
    e
}

/// Naive vs indexed execution of `T0` on the RPQ-heavy medical instance
/// family, across instance sizes. Three comparisons per size: rule-body
/// evaluation alone, end-to-end single-threaded execution, and the
/// auto-threaded executor whose work-size cutoff keeps small instances
/// inline (`auto_sharded` reports whether the cutoff let it shard).
fn exec_report(out_path: &str, quick: bool, scale: bool) {
    let m = medical();
    let chain_len = 8;
    let reps = if quick { 1 } else { 3 };
    let sizes: &[usize] = if quick { &[8, 64] } else { &[8, 64, 512, 2048] };
    let mut rows = Vec::new();
    for &chains in sizes {
        let g = medical_instance(&m, chains, chain_len);
        let bodies: Vec<_> =
            m.t0.rules
                .iter()
                .map(|rule| match rule {
                    gts_core::Rule::Node(r) => &r.body,
                    gts_core::Rule::Edge(r) => &r.body,
                })
                .collect();
        let inline = ExecOptions { threads: 1 };
        // Rule-body evaluation: per-pair NFA products vs indexed product-BFS.
        let (_, naive_eval) =
            best_of(reps, || bodies.iter().map(|b| b.eval(&g).len()).sum::<usize>());
        let (idx, index_build) = best_of(reps, || IndexedGraph::build(&g));
        let (_, indexed_eval) = best_of(reps, || {
            gts_exec::eval_rule_bodies(&idx, &m.t0, &inline).iter().map(Vec::len).sum::<usize>()
        });
        // End-to-end: apply vs execute (indexed numbers include the build).
        let (naive_out, naive) = best_of(reps, || m.t0.apply(&g));
        let (indexed_out, indexed) = best_of(reps, || execute_with(&m.t0, &g, &inline));
        // Auto mode: the work-size cutoff decides whether to shard.
        let auto_opts = ExecOptions::default();
        let work = m.t0.rules.len() * (g.num_nodes() + g.num_edges());
        let sharded = auto_opts.would_shard(m.t0.rules.len(), g.num_nodes() + g.num_edges());
        let (_, auto_micros) = best_of(reps, || execute_with(&m.t0, &g, &auto_opts));
        let agree = output_facts(&idx, &m.t0, &inline) == m.t0.output_facts(&g);
        let mut e = Json::obj();
        e.set("chains", chains)
            .set("chain_len", chain_len)
            .set("nodes", g.num_nodes())
            .set("edges", g.num_edges())
            .set("output_nodes", indexed_out.num_nodes())
            .set("output_edges", indexed_out.num_edges())
            .set("naive_eval_micros", naive_eval)
            .set("indexed_eval_micros", index_build + indexed_eval)
            .set("eval_speedup", ratio(naive_eval, index_build + indexed_eval))
            .set("naive_micros", naive)
            .set("index_build_micros", index_build)
            .set("indexed_micros", indexed)
            .set("auto_threaded_micros", auto_micros)
            .set("auto_sharded", sharded)
            .set("estimated_work", work as u64)
            .set("speedup_indexed_over_naive", ratio(naive, indexed))
            .set("outputs_agree", agree);
        println!(
            "exec {:>6} nodes: eval naive {:>8}us vs indexed {:>6}us ({:>5.1}x) | end-to-end \
             naive {:>8}us vs indexed {:>6}us ({:>4.1}x, auto {:>6}us sharded={}) | agree {}",
            g.num_nodes(),
            naive_eval,
            index_build + indexed_eval,
            ratio(naive_eval, index_build + indexed_eval),
            naive,
            indexed,
            ratio(naive, indexed),
            auto_micros,
            sharded,
            agree
        );
        assert_eq!(naive_out.num_edges(), indexed_out.num_edges(), "engines must agree");
        rows.push(e);
    }
    let parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let measured = gts_exec::parallel_cutoff();
    let mut cutoff = Json::obj();
    cutoff
        .set("min_parallel_work", measured.min_parallel_work as u64)
        .set("default_min_parallel_work", gts_exec::DEFAULT_MIN_PARALLEL_WORK as u64)
        .set("spawn_overhead_micros", measured.spawn_overhead_micros)
        .set("eval_nanos_per_element", measured.eval_nanos_per_element)
        .set("cores", measured.cores as u64)
        .set("work_metric", "rules * (nodes + edges)")
        .set("measured_parallelism", parallelism as u64)
        .set(
            "policy",
            "execute() shards across threads only when the estimated work clears the measured \
             cutoff (spawn overhead vs evaluation throughput, probed once per process) AND the \
             host has >1 core (auto_sharded reports what auto mode did here — single-core hosts \
             never shard)",
        );
    let mut doc = Json::obj();
    doc.set("schema_version", 3u64)
        .set("generated_by", "gts-bench baseline (exec comparison)")
        .set("transformation", "medical T0 (Example 4.1)")
        .set("workload", "crossReacting chains; targets = designTarget.crossReacting*")
        .set("parallel_cutoff", cutoff)
        .set("sizes", Json::Arr(rows));
    doc.set("delta", delta_section(quick, if quick { 1 } else { 3 }));
    if scale {
        doc.set("scale", scale_section(quick));
    }
    std::fs::write(out_path, doc.pretty())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
}

/// The per-family corpus sweep: for each scenario family, the headline
/// workload of its [`gts_corpus::Primary`] — type check measured
/// session-cold and session-warm, schema elicitation in the same
/// session, and single-threaded indexed execution of the primary
/// instance. The `medical` row replays exactly the Figure 1 analyses of
/// the headline `analyses` section (only the instance scale differs),
/// so its session numbers must agree with those rows within noise.
fn family_section(families: &[Family], params: &Params, reps: usize) -> Json {
    let mut rows = Vec::new();
    for &family in families {
        let sc = scenario(family, params);
        let source = sc.schema(&sc.primary.source).expect("primary source").clone();
        let target = sc.schema(&sc.primary.target).expect("primary target").clone();
        let t = sc.transform(&sc.primary.transform).expect("primary transform").clone();
        let inst = sc.instance(&sc.primary.instance).expect("primary instance");

        let mut session = AnalysisSession::new(source, sc.vocab.clone());
        let (d, s_cold) = timed(|| session.type_check(&t, &target).expect("type check"));
        let (_, s_warm) = timed(|| session.type_check(&t, &target).expect("type check"));
        let (_, elicit) = timed(|| session.elicit(&t).expect("elicit"));

        let inline = ExecOptions { threads: 1 };
        let (out, exec) = best_of(reps, || execute_with(&t, &inst.graph, &inline));
        let conforms = target.conforms(&out).is_ok();

        let mut e = Json::obj();
        e.set("family", family.name())
            .set("seed", params.seed)
            .set("scale", params.scale)
            .set("transform", sc.primary.transform.as_str())
            .set("source", sc.primary.source.as_str())
            .set("target", sc.primary.target.as_str())
            .set("instance_nodes", inst.graph.num_nodes())
            .set("instance_edges", inst.graph.num_edges())
            .set("type_check_session_cold_micros", s_cold)
            .set("type_check_session_warm_micros", s_warm)
            .set("type_check_holds", d.holds)
            .set("type_check_certified", d.certified)
            .set("elicit_micros", elicit)
            .set("exec_indexed_micros", exec)
            .set("output_nodes", out.num_nodes())
            .set("output_edges", out.num_edges())
            .set("output_conforms", conforms);
        println!(
            "family {:<10} check cold {s_cold:>8}us warm {s_warm:>6}us | elicit {elicit:>8}us | \
             exec {exec:>6}us ({} -> {} nodes, conforms {conforms})",
            family.name(),
            inst.graph.num_nodes(),
            out.num_nodes()
        );
        rows.push(e);
    }
    Json::Arr(rows)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = args.iter().any(|a| a == "--scale");
    let family_filter = args
        .iter()
        .position(|a| a == "--family")
        .map(|i| args.get(i + 1).expect("--family needs a value").clone());
    let families: Vec<Family> = match family_filter.as_deref() {
        None => Family::ALL.to_vec(),
        Some(name) => vec![Family::from_name(name)
            .unwrap_or_else(|| panic!("unknown family {name}; try `gts corpus list`"))],
    };
    let mut paths = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !(a.starts_with("--") || i > 0 && args[i - 1] == "--family"))
        .map(|(_, a)| a);
    let out_path = paths.next().cloned().unwrap_or_else(|| "BENCH_baseline.json".into());
    let exec_path = paths.next().cloned().unwrap_or_else(|| "BENCH_exec.json".into());
    let opts = ContainmentOptions::default();
    let reps = if quick { 1 } else { 3 };

    // ---- The three analyses over the Figure 1 medical fixture. Each
    // analysis gets a *fresh* session for its cold/warm pair, so
    // session_cold is genuinely a first run; cross-analysis reuse is
    // measured separately by the shared-session pass below. ----
    let mut rows = Vec::new();
    {
        let m = medical();
        let mut vocab = m.vocab.clone();
        let (_, cold) =
            timed(|| type_check(&m.t0, &m.s0, &m.s1, &mut vocab, &opts).expect("type check"));
        let mut session = AnalysisSession::new(m.s0.clone(), m.vocab);
        let (_, s_cold) = timed(|| session.type_check(&m.t0, &m.s1).expect("type check"));
        let (_, s_warm) = timed(|| session.type_check(&m.t0, &m.s1).expect("type check"));
        rows.push(AnalysisRow {
            name: "type_check_medical",
            cold_micros: cold,
            session_cold_micros: s_cold,
            session_warm_micros: s_warm,
        });
    }
    {
        let m = medical();
        let mut vocab = m.vocab.clone();
        let (_, cold) =
            timed(|| equivalence(&m.t0, &m.t0, &m.s0, &mut vocab, &opts).expect("equivalence"));
        let mut session = AnalysisSession::new(m.s0.clone(), m.vocab);
        let (_, s_cold) = timed(|| session.equivalence(&m.t0, &m.t0).expect("equivalence"));
        let (_, s_warm) = timed(|| session.equivalence(&m.t0, &m.t0).expect("equivalence"));
        rows.push(AnalysisRow {
            name: "equivalence_medical",
            cold_micros: cold,
            session_cold_micros: s_cold,
            session_warm_micros: s_warm,
        });
    }
    {
        let m = medical();
        let mut vocab = m.vocab.clone();
        let (_, cold) = timed(|| elicit_schema(&m.t0, &m.s0, &mut vocab, &opts).expect("elicit"));
        let mut session = AnalysisSession::new(m.s0.clone(), m.vocab);
        let (_, s_cold) = timed(|| session.elicit(&m.t0).expect("elicit"));
        let (_, s_warm) = timed(|| session.elicit(&m.t0).expect("elicit"));
        rows.push(AnalysisRow {
            name: "elicit_medical",
            cold_micros: cold,
            session_cold_micros: s_cold,
            session_warm_micros: s_warm,
        });
    }

    // ---- Disk-cache section: cold-start-to-first-verdict against a
    // warm on-disk store (what `--cache-dir` buys a restart). ----
    let disk_cache = disk_cache_section(reps);

    // ---- Per-family corpus sweep: the headline workload of every
    // scenario family (or the `--family` selection). ----
    let corpus_params = if quick { Params::quick() } else { Params::default() };
    let families_json = family_section(&families, &corpus_params, reps);

    // ---- Cross-analysis reuse: all three analyses through ONE session;
    // its cache stats quantify how much the analyses share. ----
    let session = {
        let m = medical();
        let mut s = AnalysisSession::new(m.s0.clone(), m.vocab);
        s.type_check(&m.t0, &m.s1).expect("type check");
        s.equivalence(&m.t0, &m.t0).expect("equivalence");
        s.elicit(&m.t0).expect("elicit");
        s
    };

    // ---- Repeated containment: the Figure 2 instance asked N times. ----
    let iters: usize = if quick { 3 } else { 10 };
    let repeated = {
        let mut f = fig2();
        let (_, cold) = timed(|| {
            for _ in 0..iters {
                contains(&f.p, &f.q, &f.schema, &mut f.vocab, &opts).expect("contains");
            }
        });
        let f = fig2();
        let mut s = AnalysisSession::new(f.schema.clone(), f.vocab.clone());
        let (_, warm) = timed(|| {
            for _ in 0..iters {
                s.contains(&f.p, &f.q).expect("contains");
            }
        });
        let stats = s.stats();
        let mut e = Json::obj();
        e.set("iterations", iters)
            .set("cold_micros", cold)
            .set("warm_micros", warm)
            .set("speedup", ratio(cold, warm))
            .set("warm_beats_cold", warm < cold)
            .set("cache_hits", stats.hits)
            .set("cache_misses", stats.misses);
        println!(
            "repeated containment ({iters}x fig2): cold {cold}us, warm session {warm}us \
             (speedup {:.1}x, {} hits / {} misses)",
            ratio(cold, warm),
            stats.hits,
            stats.misses
        );
        if warm >= cold {
            eprintln!("warning: warm session did not beat the cold path");
        }
        e
    };

    // ---- Assemble the report. ----
    let stats = session.stats();
    let (nfa_hits, nfa_misses) = gts_core::query::nfa_cache_stats();
    let mut doc = Json::obj();
    doc.set("schema_version", 2u64).set("generated_by", "gts-bench baseline");
    doc.set("analyses", Json::Arr(rows.iter().map(AnalysisRow::json).collect()));
    doc.set("disk_cache", disk_cache);
    doc.set("families", families_json);
    doc.set("repeated_containment", repeated);
    let mut cache = Json::obj();
    cache
        .set("hits", stats.hits)
        .set("misses", stats.misses)
        .set("entries", stats.entries)
        .set("hit_rate", stats.hit_rate());
    doc.set("containment_cache", cache);
    let mut nfa = Json::obj();
    nfa.set("hits", nfa_hits)
        .set("misses", nfa_misses)
        .set("hit_rate", ratio(nfa_hits, nfa_hits + nfa_misses));
    doc.set("nfa_cache", nfa);

    for r in &rows {
        println!(
            "{:22} cold {:>8}us | session cold {:>8}us | warm {:>8}us",
            r.name, r.cold_micros, r.session_cold_micros, r.session_warm_micros
        );
    }
    println!(
        "containment cache: {} hits / {} misses ({} entries, {:.0}% hit rate)",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.hit_rate() * 100.0
    );
    std::fs::write(&out_path, doc.pretty())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");

    exec_report(&exec_path, quick, scale);
}
