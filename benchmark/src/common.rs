//! Shared measurement helpers: summary statistics, per-phase memory,
//! obs-registry deltas, span-tree self times, and the result record
//! every workload fills in.

use std::time::Instant;

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced: operation accounting, the correctness
/// verdict, and its metrics (end-to-end untraced, per-layer traced).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures, each a one-line description.
    pub wrong: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The end-to-end metrics every workload reports over its stream of
    /// operation times `op_ms`: their geometric mean and tail. Both are
    /// taken over the whole stream, not as medians of slices of it: the
    /// host's speed switched between a fast and a slow level every few
    /// seconds, and a median of slices flipped between the two levels
    /// from run to run, while a figure over the whole stream moves only
    /// with the share of time spent at each.
    pub fn end_to_end(&mut self, setup_s: f64, peak_rss_mb: f64, op_ms: &[f64]) {
        self.push("setup_s", setup_s, "s");
        self.push("peak_rss_mb", peak_rss_mb, "MB");
        self.push("op_ms_geomean", geomean(op_ms), "ms");
        self.push("op_ms_tail", tail(op_ms), "ms");
    }

    /// Records a correctness-gate failure (the run will exit non-zero).
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }
}

pub fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank quantile of an unsorted sample (`0.0` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail of a stream of operation times: p90 with at least 100
/// samples, and otherwise the geometric mean of the ten slowest, so every
/// tail rests on ten or more. With fewer samples the highest rank with
/// ten beyond it is one sample: with the 30 cold questions, one
/// question's time, which spread by a quarter of the median from run to
/// run. Not p99, nor the geometric mean of the slowest tenth: on a shared
/// host both followed the host's stalls and spread about twice as wide as
/// p90.
pub fn tail(values: &[f64]) -> f64 {
    if values.len() >= 100 {
        return quantile(values, 0.9);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    geomean(&v[v.len().saturating_sub(10)..])
}

/// Geometric mean of positive samples.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-6).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, `0.0` for an empty denominator.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time in seconds.
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// A `kB` field of `/proc/<pid>/status`, in MB (`0.0` without procfs).
pub fn status_mb(pid: &str, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_mb("self", "VmHWM:")
}

/// Resets this process's `VmHWM` to its current RSS, so the next
/// [`peak_rss_mb`] reads the peak of one phase, not of the process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A point-in-time copy of the obs-registry series the layer metrics are
/// deltas of.
#[derive(Clone, Copy, Default)]
pub struct ObsSample {
    pub contains: (u64, u64),
    pub completion: (u64, u64),
    pub probe: (u64, u64),
    pub decide: (u64, u64),
    pub saturate: (u64, u64),
    pub completion_hits: u64,
    pub completion_misses: u64,
    pub decide_unknown: u64,
    pub solver_hits: u64,
    pub solver_misses: u64,
    pub index_build: (u64, u64),
    pub rule_eval: (u64, u64),
    pub assembly: (u64, u64),
    pub index_patch: (u64, u64),
    pub delta_apply: (u64, u64),
}

/// `(count, sum µs)` of a global histogram cell.
fn hist(name: &str, labels: &[(&str, &str)]) -> (u64, u64) {
    let s = gts_obs::global().histogram(name, "", labels).snapshot();
    (s.count, s.sum)
}

fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
    gts_obs::global().counter_value(name, labels).unwrap_or(0)
}

impl ObsSample {
    pub fn now() -> ObsSample {
        let phase = |p| hist("gts_exec_phase_micros", &[("phase", p)]);
        ObsSample {
            contains: hist("gts_containment_contains_micros", &[]),
            completion: hist("gts_containment_completion_micros", &[]),
            probe: hist("gts_containment_probe_micros", &[]),
            decide: hist("gts_sat_decide_micros", &[]),
            saturate: hist("gts_sat_saturate_micros", &[]),
            completion_hits: counter(
                "gts_containment_completion_cache_total",
                &[("outcome", "hit")],
            ),
            completion_misses: counter(
                "gts_containment_completion_cache_total",
                &[("outcome", "miss")],
            ),
            decide_unknown: counter("gts_sat_decide_total", &[("verdict", "unknown")]),
            solver_hits: counter("gts_sat_solver_cache_total", &[("outcome", "hit")]),
            solver_misses: counter("gts_sat_solver_cache_total", &[("outcome", "miss")]),
            index_build: phase("index_build"),
            rule_eval: phase("rule_eval"),
            assembly: phase("assembly"),
            index_patch: phase("index_patch"),
            delta_apply: phase("delta_apply"),
        }
    }

    /// The change from `before` to `self`.
    pub fn since(&self, before: &ObsSample) -> ObsSample {
        self.zip(before, |a, b| a - b)
    }

    /// The sum of two changes.
    pub fn plus(&self, other: &ObsSample) -> ObsSample {
        self.zip(other, |a, b| a + b)
    }

    fn zip(&self, o: &ObsSample, f: fn(u64, u64) -> u64) -> ObsSample {
        let d = |a: (u64, u64), b: (u64, u64)| (f(a.0, b.0), f(a.1, b.1));
        ObsSample {
            contains: d(self.contains, o.contains),
            completion: d(self.completion, o.completion),
            probe: d(self.probe, o.probe),
            decide: d(self.decide, o.decide),
            saturate: d(self.saturate, o.saturate),
            completion_hits: f(self.completion_hits, o.completion_hits),
            completion_misses: f(self.completion_misses, o.completion_misses),
            decide_unknown: f(self.decide_unknown, o.decide_unknown),
            solver_hits: f(self.solver_hits, o.solver_hits),
            solver_misses: f(self.solver_misses, o.solver_misses),
            index_build: d(self.index_build, o.index_build),
            rule_eval: d(self.rule_eval, o.rule_eval),
            assembly: d(self.assembly, o.assembly),
            index_patch: d(self.index_patch, o.index_patch),
            delta_apply: d(self.delta_apply, o.delta_apply),
        }
    }
}

/// Sum of µs to ms.
pub fn sum_ms(cell: (u64, u64)) -> f64 {
    cell.1 as f64 / 1e3
}

/// Mean of a `(count, sum µs)` cell, in ms.
pub fn mean_ms(cell: (u64, u64)) -> f64 {
    share(cell.1 as f64, cell.0 as f64) / 1e3
}

/// Self time (µs) of the span tree's root: the part of its wall time no
/// child span covers, which is the time no layer accounts for.
pub fn root_self_micros(tree: &gts_obs::SpanNode) -> u64 {
    tree.micros.saturating_sub(tree.children.iter().map(|c| c.micros).sum())
}

/// Wraps `f` in a span collector when `traced`, adding the root's total
/// and self time to `acc` (`(total µs, self µs)`).
pub fn maybe_trace<R>(traced: bool, acc: &mut (u64, u64), f: impl FnOnce() -> R) -> R {
    if !traced {
        return f();
    }
    let (out, tree) = gts_obs::trace("bench_op", f);
    acc.0 += tree.micros;
    acc.1 += root_self_micros(&tree);
    out
}
