//! End-to-end and per-layer benchmark of the gts workspace; see
//! README.md for the workloads and metrics.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload cold-analysis --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{NAME:{"value":…,"unit":…}}}`.
//! A failed correctness gate exits non-zero.

mod cold;
mod common;
mod delta;
mod serve;

use common::Outcome;

/// First argument that turns this executable into the `gts serve`
/// child of the `serve-mixed` workload.
pub const SERVE_CHILD: &str = "--serve-child";

/// The end-to-end metrics, reported by every untraced run.
const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "op_ms_geomean", "op_ms_tail"];

/// The per-layer metrics with their units, reported by every traced run;
/// a layer a workload leaves idle reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("containment.contains_ms", "ms"),
    ("containment.contains_calls", "count"),
    ("containment.completion_ms", "ms"),
    ("containment.probe_ms", "ms"),
    ("containment.probes", "count"),
    ("containment.completion_memo_hit_rate", "ratio"),
    ("sat.decide_ms", "ms"),
    ("sat.decides", "count"),
    ("sat.saturate_ms", "ms"),
    ("sat.unknown_share", "ratio"),
    ("sat.solver_cache_hit_rate", "ratio"),
    ("sat.certified_share", "ratio"),
    ("engine.self_ms", "ms"),
    ("engine.memo_hit_rate", "ratio"),
    ("cli.parse_ms", "ms"),
    ("cli.parse_instance_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("store.bytes", "bytes"),
    ("store.records", "count"),
    ("store.hydrate_ms", "ms"),
    ("store.hydrated_records", "count"),
    ("store.warm_verdict_ms_geomean", "ms"),
    ("exec.delta_apply_ms", "ms"),
    ("exec.index_patch_ms", "ms"),
    ("exec.affected_sources_mean", "count"),
    ("exec.delta_fallback_share", "ratio"),
    ("exec.delta_scaling_ratio", "ratio"),
    ("exec.full_exec_ms_p50", "ms"),
    ("exec.index_build_ms", "ms"),
    ("exec.rule_eval_ms", "ms"),
    ("exec.assembly_ms", "ms"),
    ("serve.frame_ms_p50.analyze", "ms"),
    ("serve.frame_ms_p50.execute", "ms"),
    ("serve.memo_served_share", "ratio"),
    ("serve.pool_hit_rate", "ratio"),
    ("serve.rejected", "count"),
    ("net.ping_ms_p50", "ms"),
    ("net.residue_ms_p50", "ms"),
    ("mem.cold_pass_peak_mb", "MB"),
    ("mem.warm_pass_peak_mb", "MB"),
    ("mem.exec_bytes_per_node", "bytes"),
    ("gen.lateness_ms_p99", "ms"),
    ("obs.trace_overhead_share", "ratio"),
    ("residue_share", "ratio"),
];

fn usage() -> ! {
    eprintln!(
        "usage: gts-perfbench --workload cold-analysis|exec-delta|serve-mixed --seed N \
         --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(SERVE_CHILD) {
        let mut cli = vec!["serve".to_string()];
        cli.extend(args[1..].iter().cloned());
        let outcome = gts_cli::run(&cli, &|path| Err(format!("no file access ({path})")));
        print!("{}", outcome.output);
        std::process::exit(outcome.code);
    }
    let flag = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).unwrap_or_else(|| usage())
    };
    let seed: u64 = flag("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = flag("--seconds").parse().unwrap_or_else(|_| usage());
    let trace = match flag("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let outcome = match flag("--workload").as_str() {
        "cold-analysis" => cold::run(seed, seconds, trace),
        "exec-delta" => delta::run(seed, seconds, trace),
        "serve-mixed" => serve::run(seed, seconds, trace),
        _ => usage(),
    };
    report(outcome, trace);
}

fn report(mut outcome: Outcome, trace: bool) {
    let declared: Vec<&str> =
        if trace { PER_LAYER.iter().map(|m| m.0).collect() } else { END_TO_END.to_vec() };
    for m in &outcome.metrics {
        assert!(declared.contains(&m.name), "undeclared metric {}", m.name);
    }
    if trace {
        for (name, unit) in PER_LAYER {
            if !outcome.metrics.iter().any(|m| m.name == name) {
                outcome.push(name, 0.0, unit);
            }
        }
    }
    for m in &outcome.metrics {
        eprintln!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for w in &outcome.wrong {
        eprintln!("WRONG: {w}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.wrong.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if !outcome.wrong.is_empty() {
        std::process::exit(1);
    }
}
