//! `exec-delta`: one caller keeps the medical transform's output live over
//! a resident medical-chain instance, applying a seeded stream of small
//! deltas through `Incremental::apply_delta`. Every [`CHECKPOINT`]
//! deltas it re-executes the patched instance in full with
//! `execute_with`, the two outputs must render byte-identically, and the
//! caller starts over from the base instance.

use crate::common::*;
use gts_core::graph::GraphDelta;
use gts_core::prelude::*;
use gts_exec::{DeltaStrategy, ExecOptions, Incremental};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Deltas between two full re-executions.
const CHECKPOINT: usize = 50;
/// Antigens per chain (each chain is a vaccine, a pathogen, and these).
const CHAIN_LEN: usize = 8;
/// Nodes of the resident instance, and of its scaling twin in the traced
/// run. A delta's cost grows with the instance, and at 100k nodes its
/// working set spills out of the core's 4 MB L2: there the delay moved
/// with the neighbours' memory traffic on the shared host, and ten runs
/// spread by 0.19–0.23 of the median. At 10k nodes they spread by 0.1.
const NODES: usize = 10_000;
const TWIN_NODES: usize = 100_000;

struct Fixture {
    vocab: Vocab,
    t0: Transformation,
    antigen: NodeLabel,
    cr: EdgeLabel,
}

fn fixture() -> Fixture {
    let (vocab, _, _, t0) = gts_corpus::medical_fixture();
    let antigen = vocab.find_node_label("Antigen").expect("fixture label");
    let cr = vocab.find_edge_label("crossReacting").expect("fixture label");
    Fixture { vocab, t0, antigen, cr }
}

/// `nodes / (CHAIN_LEN + 2)` chains: vaccine → a0 ← pathogen, then
/// a0 → a1 → … over `crossReacting`.
fn chains(f: &Fixture, nodes: usize) -> Graph {
    let label = |n| f.vocab.find_node_label(n).expect("fixture label");
    let edge = |n| f.vocab.find_edge_label(n).expect("fixture label");
    let (vaccine, pathogen) = (label("Vaccine"), label("Pathogen"));
    let (dt, ex) = (edge("designTarget"), edge("exhibits"));
    let mut g = Graph::new();
    for _ in 0..nodes / (CHAIN_LEN + 2) {
        let v = g.add_labeled_node([vaccine]);
        let p = g.add_labeled_node([pathogen]);
        let mut prev = g.add_labeled_node([f.antigen]);
        g.add_edge(v, dt, prev);
        g.add_edge(p, ex, prev);
        for _ in 1..CHAIN_LEN {
            let a = g.add_labeled_node([f.antigen]);
            g.add_edge(prev, f.cr, a);
            prev = a;
        }
    }
    g
}

/// The set-up: the instance and its live output, timed in seconds.
fn build(f: &Fixture, nodes: usize) -> (Graph, Incremental, f64) {
    let start = Instant::now();
    let g = chains(f, nodes);
    let inc = Incremental::new(&f.t0, &g);
    (g, inc, start.elapsed().as_secs_f64())
}

/// The resident state: the live output and a mirror of the patched
/// instance for the full re-executions.
struct Resident {
    nodes: usize,
    inc: Incremental,
    patched: Graph,
    chains: usize,
    rng: StdRng,
    /// Deltas generated since the last [`Resident::restart`].
    issued: usize,
    /// Seconds each [`build`] took, the first one included.
    builds_s: Vec<f64>,
}

impl Resident {
    fn new(f: &Fixture, nodes: usize, seed: u64) -> Resident {
        let (patched, inc, build_s) = build(f, nodes);
        let chains = patched.num_nodes() / (CHAIN_LEN + 2);
        let rng = StdRng::seed_from_u64(seed);
        Resident { nodes, inc, patched, chains, rng, issued: 0, builds_s: vec![build_s] }
    }

    /// Redoes the set-up: the same base instance and a fresh live output.
    /// The edits restart their cycle and the seeded places go on, so
    /// every stretch between checkpoints patches the same graph with the
    /// same mix of edits, however many stretches a run fits. Without it,
    /// tombstones piled up over a run (about half the base antigens in
    /// 20 s) and the graph later deltas saw depended on how fast the
    /// earlier ones ran.
    fn restart(&mut self, f: &Fixture) {
        let build_s;
        (self.patched, self.inc, build_s) = build(f, self.nodes);
        self.builds_s.push(build_s);
        self.issued = 0;
    }

    /// A random base antigen of chain `c`.
    fn antigen(&mut self, c: usize) -> NodeId {
        NodeId((c * (CHAIN_LEN + 2) + 2 + self.rng.gen_range(0..CHAIN_LEN)) as u32)
    }

    /// 1–4 edits, all inside one random chain, so the affected region
    /// stays small whatever the instance size. The number and kinds of
    /// edits cycle, so every seed gets the same mix and only the places
    /// differ. Every edit changes the graph: one that would be a no-op
    /// on a tombstoned or edgeless antigen adds a fresh antigen instead.
    fn next_delta(&mut self, f: &Fixture) -> GraphDelta {
        let mut d = GraphDelta::default();
        let c = self.rng.gen_range(0..self.chains);
        let base = self.patched.num_nodes();
        let k = self.issued;
        self.issued += 1;
        for j in 0..1 + k % 4 {
            let (a, b) = (self.antigen(c), self.antigen(c));
            let live = !self.patched.labels(a).is_empty();
            let next = self.patched.successors(a, EdgeSym::fwd(f.cr)).next();
            match ((k + j) % 5, next) {
                // Rewire: move a's first crossReacting edge to b.
                (0, Some(old)) if old != b => {
                    d.removed_edges.push((a, f.cr, old));
                    d.added_edges.push((a, f.cr, b));
                }
                (1, _) if live && !self.patched.has_edge(a, f.cr, b) => {
                    d.added_edges.push((a, f.cr, b))
                }
                (2, Some(old)) => d.removed_edges.push((a, f.cr, old)),
                (4, _) if live => d.removed_nodes.push(a),
                _ => {
                    let fresh = NodeId((base + d.added_nodes.len()) as u32);
                    d.added_nodes.push(LabelSet::singleton(f.antigen.0));
                    d.added_edges.push((b, f.cr, fresh));
                }
            }
        }
        d
    }
}

/// Deltas measured over one phase.
#[derive(Default)]
struct Phase {
    delta_ms: Vec<f64>,
    /// Deltas applied inside a span collector.
    traced_ms: Vec<f64>,
    full_ms: Vec<f64>,
    affected: u64,
    fallbacks: u64,
    /// Traced root `(total µs, self µs)`.
    spans: (u64, u64),
}

/// Applies deltas for `seconds`, re-executing in full every
/// [`CHECKPOINT`] deltas, comparing the two outputs there and restarting
/// from the base instance. The run ends on a checkpoint. With
/// `traced`, every other delta and each re-execution runs inside a span
/// collector, so traced and untraced deltas alternate and the tracing
/// overhead compares like with like.
fn drive(f: &Fixture, r: &mut Resident, seconds: f64, traced: bool, out: &mut Outcome) -> Phase {
    let mut phase = Phase::default();
    let began = Instant::now();
    let inline = ExecOptions { threads: 1, ..Default::default() };
    let mut applied_ok = 0;
    while applied_ok % CHECKPOINT != 0
        || began.elapsed().as_secs_f64() < seconds
        || applied_ok < 2 * CHECKPOINT
    {
        let delta = r.next_delta(f);
        out.attempted += 1;
        let trace_this = traced && applied_ok % 2 == 1;
        let start = Instant::now();
        let applied = maybe_trace(trace_this, &mut phase.spans, || r.inc.apply_delta(&delta));
        let elapsed = ms(start);
        match applied {
            Ok(o) => {
                applied_ok += 1;
                if trace_this { &mut phase.traced_ms } else { &mut phase.delta_ms }.push(elapsed);
                phase.affected += o.affected_sources as u64;
                phase.fallbacks += u64::from(o.strategy == DeltaStrategy::FullRebuild);
            }
            Err(e) => {
                out.failed += 1;
                out.wrong.push(format!("delta rejected: {e}"));
                continue;
            }
        }
        delta.apply_in_place(&mut r.patched).expect("a delta the executor took applies");
        if applied_ok % CHECKPOINT == 0 {
            out.attempted += 1;
            let start = Instant::now();
            let full = maybe_trace(traced, &mut phase.spans, || {
                gts_exec::execute_with(&f.t0, &r.patched, &inline)
            });
            phase.full_ms.push(ms(start));
            let live = gts_cli::raw_instance(&r.inc.output_graph(), &f.vocab);
            if live != gts_cli::raw_instance(&full, &f.vocab) {
                out.failed += 1;
                out.wrong.push(format!(
                    "incremental output diverged from full re-execution after {applied_ok} deltas"
                ));
            }
            r.restart(f);
        }
    }
    phase
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let f = fixture();
    let rss_before = status_mb("self", "VmRSS:");
    let mut r = Resident::new(&f, NODES, seed);
    let bytes_per_node = (status_mb("self", "VmRSS:") - rss_before) * 1048576.0 / NODES as f64;
    reset_peak_rss();
    let obs0 = ObsSample::now();
    let plain = drive(&f, &mut r, seconds, trace, &mut out);
    let d = ObsSample::now().since(&obs0);
    eprintln!(
        "exec-delta: {} deltas p10 {:.2} ms p25 {:.2} ms p50 {:.2} ms p90 {:.2} ms, {} full \
         re-executions p50 {:.1} ms",
        plain.delta_ms.len(),
        quantile(&plain.delta_ms, 0.1),
        quantile(&plain.delta_ms, 0.25),
        median(&plain.delta_ms),
        quantile(&plain.delta_ms, 0.9),
        plain.full_ms.len(),
        median(&plain.full_ms)
    );
    if !trace {
        // One operation is one delta. `setup_s` is the median of the
        // set-up and its redoings at every restart (about 160 a run),
        // spread across the run like the deltas. One build takes about
        // 20 ms, and the host's speed switched between two levels every
        // few seconds: the median of 25 builds timed back to back before
        // the deltas caught one level, and spread by 0.25 of the median
        // over ten runs.
        out.end_to_end(median(&r.builds_s), peak_rss_mb(), &plain.delta_ms);
        return out;
    }
    drop(r);
    // The 100k-node twin, for the scaling ratio.
    let mut twin = Resident::new(&f, TWIN_NODES, seed);
    let large = drive(&f, &mut twin, (seconds / 6.0).max(1.0), false, &mut out);
    let n = (plain.delta_ms.len() + plain.traced_ms.len()) as f64;
    out.push("exec.delta_apply_ms", mean_ms(d.delta_apply), "ms");
    out.push("exec.index_patch_ms", mean_ms(d.index_patch), "ms");
    out.push("exec.affected_sources_mean", share(plain.affected as f64, n), "count");
    out.push("exec.delta_fallback_share", share(plain.fallbacks as f64, n), "ratio");
    out.push(
        "exec.delta_scaling_ratio",
        share(median(&large.delta_ms), median(&plain.delta_ms)),
        "ratio",
    );
    out.push("exec.full_exec_ms_p50", median(&plain.full_ms), "ms");
    out.push("exec.index_build_ms", mean_ms(d.index_build), "ms");
    out.push("exec.rule_eval_ms", mean_ms(d.rule_eval), "ms");
    out.push("exec.assembly_ms", mean_ms(d.assembly), "ms");
    out.push("mem.exec_bytes_per_node", bytes_per_node, "bytes");
    out.push(
        "obs.trace_overhead_share",
        share(mean(&plain.traced_ms), mean(&plain.delta_ms)) - 1.0,
        "ratio",
    );
    out.push("residue_share", share(plain.spans.1 as f64, plain.spans.0 as f64), "ratio");
    out
}
