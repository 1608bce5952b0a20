//! Rendering: Prometheus text exposition format and a JSON mirror.
//!
//! The Prometheus renderer follows the text exposition format of the
//! Prometheus client-library spec: one `# HELP` and `# TYPE` line per
//! family, label values escaped (`\\`, `\"`, `\n`), histograms rendered
//! as cumulative `_bucket{le="…"}` rows ending in `le="+Inf"` plus
//! `_sum`/`_count`. The JSON mirror carries the same families with
//! pre-extracted quantiles, so scrapers that want p50/p99 without
//! bucket math read them directly.

use crate::metrics::{Handle, MetricsRegistry};
use crate::Json;
use std::fmt::Write as _;

/// Escapes a HELP text: backslash and newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double quote, newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders a label set (possibly with an extra `le` pair appended) as
/// `{k="v",…}`, or the empty string for no labels.
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Renders the given registries (in order) as Prometheus text exposition.
/// Families with the same name across registries are rendered as separate
/// family blocks only once per registry — callers keep names disjoint
/// (the `gts_serve_*` / library-layer split does).
pub fn render_prometheus(registries: &[&MetricsRegistry]) -> String {
    let mut out = String::new();
    for reg in registries {
        let fams = reg.families.lock().unwrap();
        for (name, fam) in fams.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&fam.help));
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
            for (labels, handle) in &fam.cells {
                match handle {
                    Handle::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), c.get());
                    }
                    Handle::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), g.get());
                    }
                    Handle::Histogram(h) => {
                        let s = h.snapshot();
                        for (le, cum) in s.cumulative_rows() {
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                render_labels(labels, Some(("le", &le.to_string())))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            render_labels(labels, Some(("le", "+Inf"))),
                            s.count
                        );
                        let _ =
                            writeln!(out, "{name}_sum{} {}", render_labels(labels, None), s.sum);
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels, None),
                            s.count
                        );
                    }
                }
            }
        }
    }
    out
}

/// Renders the given registries as one JSON document:
/// `{"metrics":[{name, kind, labels, …value fields…}, …]}`. Histogram
/// entries carry `count`, `sum`, `mean`, `max`, and `p50`/`p90`/`p99`
/// extracted server-side.
pub fn render_json(registries: &[&MetricsRegistry]) -> String {
    let mut entries = Vec::new();
    for reg in registries {
        let fams = reg.families.lock().unwrap();
        for (name, fam) in fams.iter() {
            for (labels, handle) in &fam.cells {
                let mut label_obj = Json::obj();
                for (k, v) in labels {
                    label_obj.set(k, v.as_str());
                }
                let mut e = Json::obj();
                e.set("name", name.as_str())
                    .set("kind", fam.kind.as_str())
                    .set("labels", label_obj);
                match handle {
                    Handle::Counter(c) => e.set("value", c.get()),
                    Handle::Gauge(g) => e.set("value", g.get()),
                    Handle::Histogram(h) => {
                        let s = h.snapshot();
                        e.set("count", s.count)
                            .set("sum", s.sum)
                            .set("mean", s.mean())
                            .set("max", s.max)
                            .set("p50", s.quantile(0.50))
                            .set("p90", s.quantile(0.90))
                            .set("p99", s.quantile(0.99))
                    }
                };
                entries.push(e);
            }
        }
    }
    let mut doc = Json::obj();
    doc.set("metrics", Json::Arr(entries));
    doc.compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_has_help_type_and_escaped_labels() {
        let _serial = crate::metrics::test_serial();
        let reg = MetricsRegistry::new();
        reg.counter("t_total", "a help\nwith newline \\ backslash", &[("q", "a\"b\\c\nd")]).inc();
        let text = render_prometheus(&[&reg]);
        assert!(text.contains("# HELP t_total a help\\nwith newline \\\\ backslash\n"));
        assert!(text.contains("# TYPE t_total counter\n"));
        assert!(text.contains("t_total{q=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn histogram_rows_are_cumulative_and_end_with_inf() {
        let _serial = crate::metrics::test_serial();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_micros", "latency", &[("verb", "x")]);
        for v in [1u64, 1, 100, 10_000] {
            h.record(v);
        }
        let text = render_prometheus(&[&reg]);
        assert!(text.contains("# TYPE lat_micros histogram"));
        assert!(text.contains("lat_micros_bucket{verb=\"x\",le=\"1\"} 2\n"));
        assert!(text.contains("lat_micros_bucket{verb=\"x\",le=\"+Inf\"} 4\n"));
        assert!(text.contains("lat_micros_sum{verb=\"x\"} 10102\n"));
        assert!(text.contains("lat_micros_count{verb=\"x\"} 4\n"));
        // Cumulative counts never decrease down the bucket list.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_micros_bucket")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "cumulative: {line}");
            last = n;
        }
    }

    #[test]
    fn json_mirror_carries_quantiles() {
        let _serial = crate::metrics::test_serial();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_micros", "latency", &[("verb", "analyze")]);
        for v in 1..=100u64 {
            h.record(v);
        }
        reg.counter("n_total", "n", &[]).add(7);
        let doc = Json::parse(&render_json(&[&reg])).expect("the JSON mirror parses");
        let entries = doc.get("metrics").and_then(Json::as_arr).expect("a metrics array");
        let entry = |name: &str| {
            entries.iter().find(|e| e.get("name").and_then(Json::as_str) == Some(name)).unwrap()
        };
        assert_eq!(entry("n_total").get("value").and_then(Json::as_u64), Some(7));
        let lat = entry("lat_micros");
        let verb = lat.get("labels").and_then(|l| l.get("verb")).and_then(Json::as_str);
        assert_eq!(verb, Some("analyze"));
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(100));
        assert!(lat.get("p99").and_then(Json::as_u64).is_some());
    }
}
