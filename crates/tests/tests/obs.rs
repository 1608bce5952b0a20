//! Integration tests for the gts-obs primitives: histogram quantile
//! accuracy against a sorted-sample reference, Prometheus exposition
//! conformance, span nesting, and panic-safety of the trace machinery.
//!
//! None of these tests touch `gts_obs::set_enabled` — the flag is
//! process-wide and these tests run in parallel threads; recording is on
//! by default and stays on for the whole binary.

use gts_obs::{
    recent_events, record_event, render_json, render_prometheus, span, trace, tracing_active,
    Histogram, Json, MetricsRegistry,
};
use proptest::prelude::*;

// ───────────────────── histogram quantile accuracy ─────────────────────

/// The exact order statistic the histogram's `quantile` approximates:
/// the `ceil(q·n)`-th smallest sample (1-based), clamped to `[1, n]`.
fn reference_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The histogram estimate is the upper bound of the log bucket holding
    /// the true order statistic (clamped at the observed max), so it never
    /// under-reports and overshoots by at most one sub-bucket width:
    /// `t <= est <= t + t/8 + 1` with 8 sub-buckets per octave.
    #[test]
    fn quantiles_track_sorted_sample_reference(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        q_idx in 0usize..3,
    ) {
        let q = [0.5f64, 0.9, 0.99][q_idx];
        let h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
        let t = reference_quantile(&sorted, q);
        let est = snap.quantile(q);
        prop_assert!(t <= est, "under-report: q={} true={} est={}", q, t, est);
        prop_assert!(
            est <= t + t / 8 + 1,
            "overshoot past bucket width: q={} true={} est={}",
            q, t, est
        );
    }

    /// `sum` and `mean` are exact (not bucketed).
    #[test]
    fn sum_and_mean_are_exact(
        values in proptest::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let sum: u64 = values.iter().sum();
        prop_assert_eq!(snap.sum, sum);
        let mean = sum as f64 / values.len() as f64;
        prop_assert!((snap.mean() - mean).abs() < 1e-9);
    }
}

// ──────────────────── Prometheus exposition format ─────────────────────

#[test]
fn exposition_renders_help_type_and_escapes() {
    let reg = MetricsRegistry::new();
    reg.counter("obs_it_requests_total", "requests\nwith \\ escapes", &[("verb", "a\"b\\c")])
        .add(3);
    reg.gauge("obs_it_depth", "queue depth", &[]).set(-2);
    let text = render_prometheus(&[&reg]);
    // HELP escapes newline and backslash; label values also escape quotes.
    assert!(text.contains("# HELP obs_it_requests_total requests\\nwith \\\\ escapes\n"), "{text}");
    assert!(text.contains("# TYPE obs_it_requests_total counter\n"));
    assert!(text.contains("obs_it_requests_total{verb=\"a\\\"b\\\\c\"} 3\n"), "{text}");
    assert!(text.contains("# TYPE obs_it_depth gauge\n"));
    assert!(text.contains("obs_it_depth -2\n"), "gauges can go negative: {text}");
}

#[test]
fn histogram_exposition_is_cumulative_and_consistent() {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("obs_it_lat_micros", "latency", &[("verb", "analyze")]);
    let values = [0u64, 3, 3, 17, 17, 17, 900, 65_000, 65_000, 4_000_000];
    for &v in &values {
        h.record(v);
    }
    let text = render_prometheus(&[&reg]);
    let buckets: Vec<(u64, u64)> = text
        .lines()
        .filter(|l| l.starts_with("obs_it_lat_micros_bucket"))
        .filter(|l| !l.contains("+Inf"))
        .map(|l| {
            let le = l.split("le=\"").nth(1).unwrap().split('"').next().unwrap();
            let n = l.rsplit(' ').next().unwrap();
            (le.parse().unwrap(), n.parse().unwrap())
        })
        .collect();
    // `le` bounds strictly increase and cumulative counts never decrease.
    for pair in buckets.windows(2) {
        assert!(pair[0].0 < pair[1].0, "le increasing: {buckets:?}");
        assert!(pair[0].1 <= pair[1].1, "cumulative: {buckets:?}");
    }
    // Every recorded value is covered by its bucket: the cumulative count
    // at `le` equals the number of samples <= le for each emitted bound.
    for &(le, cum) in &buckets {
        let expect = values.iter().filter(|&&v| v <= le).count() as u64;
        assert_eq!(cum, expect, "le={le}");
    }
    // The +Inf row equals _count, and _sum is the exact total.
    let count = values.len() as u64;
    assert!(text
        .contains(&format!("obs_it_lat_micros_bucket{{verb=\"analyze\",le=\"+Inf\"}} {count}\n")));
    assert!(text.contains(&format!("obs_it_lat_micros_count{{verb=\"analyze\"}} {count}\n")));
    let sum: u64 = values.iter().sum();
    assert!(text.contains(&format!("obs_it_lat_micros_sum{{verb=\"analyze\"}} {sum}\n")));
    // The last bucket's cumulative count also reaches _count (the largest
    // sample falls in an emitted bucket, not only in +Inf).
    assert_eq!(buckets.last().unwrap().1, count);
}

#[test]
fn json_mirror_matches_prometheus_counters() {
    let reg = MetricsRegistry::new();
    reg.counter("obs_it_json_total", "n", &[("kind", "x")]).add(11);
    let h = reg.histogram("obs_it_json_micros", "lat", &[]);
    for v in 1..=100u64 {
        h.record(v);
    }
    let doc = Json::parse(&render_json(&[&reg])).expect("the JSON mirror parses");
    let entries = doc.get("metrics").and_then(Json::as_arr).expect("a metrics array");
    let entry = |name: &str| {
        entries.iter().find(|e| e.get("name").and_then(Json::as_str) == Some(name)).unwrap()
    };
    let counter = entry("obs_it_json_total");
    assert_eq!(counter.get("kind").and_then(Json::as_str), Some("counter"));
    assert_eq!(counter.get("labels").and_then(|l| l.get("kind")).and_then(Json::as_str), Some("x"));
    assert_eq!(counter.get("value").and_then(Json::as_u64), Some(11));
    let hist = entry("obs_it_json_micros");
    assert_eq!(hist.get("count").and_then(Json::as_u64), Some(100));
    // True p50 of 1..=100 is 50; the log buckets report the containing
    // bucket's upper bound — deterministically 51 (bucket [48, 51]).
    assert_eq!(hist.get("p50").and_then(Json::as_u64), Some(51), "{}", doc.pretty());
}

#[test]
fn handles_share_cells_across_resolutions() {
    let reg = MetricsRegistry::new();
    let a = reg.counter("obs_it_shared_total", "h", &[("l", "v")]);
    let b = reg.counter("obs_it_shared_total", "h", &[("l", "v")]);
    a.inc();
    b.add(4);
    assert_eq!(reg.counter_value("obs_it_shared_total", &[("l", "v")]), Some(5));
    assert_eq!(reg.counter_value("obs_it_shared_total", &[("l", "other")]), None);
}

// ───────────────────────── span tracing ────────────────────────────────

#[test]
fn trace_merges_same_name_siblings_into_counted_nodes() {
    let (result, tree) = trace("request", || {
        {
            let _p = span("parse");
        }
        for _ in 0..5 {
            let _d = span("oracle_decide");
            let _probe = span("probe");
        }
        "done"
    });
    assert_eq!(result, "done");
    assert_eq!(tree.name, "request");
    let names: Vec<&str> = tree.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["parse", "oracle_decide"], "first-seen order");
    let decide = &tree.children[1];
    assert_eq!(decide.count, 5);
    assert_eq!(decide.children.len(), 1);
    assert_eq!(decide.children[0].count, 5, "children merge under the merged parent");
    assert!(!tracing_active(), "collector uninstalled");
}

#[test]
fn spans_outside_a_trace_are_inert_and_panic_unwinds_cleanly() {
    // No collector: opening and dropping spans leaves no state behind.
    assert!(!tracing_active());
    {
        let _orphan = span("orphan");
        assert!(!tracing_active(), "a bare span does not install a collector");
    }
    // A panic inside a traced closure must pop every open guard and
    // uninstall the collector (trace state is thread-local, so the
    // assertions below see exactly this thread).
    let caught = std::panic::catch_unwind(|| {
        trace("doomed", || {
            let _outer = span("outer");
            let _inner = span("inner");
            panic!("boom");
        })
    });
    assert!(caught.is_err());
    assert!(!tracing_active(), "panic left a collector installed");
    // The thread is clean: a fresh trace nests normally.
    let ((), tree) = trace("after", || {
        let _child = span("child");
    });
    assert_eq!(tree.name, "after");
    assert_eq!(tree.children.len(), 1);
    assert_eq!(tree.children[0].name, "child");
}

#[test]
fn nested_trace_degrades_to_a_span_of_the_outer_tree() {
    let ((), outer) = trace("outer", || {
        let (inner_result, inner_tree) = trace("inner", || 7);
        assert_eq!(inner_result, 7);
        assert_eq!(inner_tree.name, "inner");
        assert!(inner_tree.children.is_empty(), "inner trace returns an empty tree");
    });
    let names: Vec<&str> = outer.children.iter().map(|c| c.name.as_str()).collect();
    assert!(names.contains(&"inner"), "inner trace shows as a span of the outer: {names:?}");
}

#[test]
fn event_ring_buffer_is_bounded_with_increasing_seqs() {
    // Other tests in this binary run traces concurrently (each completed
    // trace records an event), so only assert race-robust properties:
    // the bound holds, our own marker is present, and seqs increase.
    for i in 0..300u64 {
        record_event("obs_it_tick", i);
    }
    record_event("obs_it_marker", 12345);
    let events = recent_events();
    assert!(events.len() <= 256, "ring buffer bounded, got {}", events.len());
    assert!(events.iter().any(|e| e.name == "obs_it_marker" && e.micros == 12345));
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seqs strictly increase, oldest first");
    }
}
