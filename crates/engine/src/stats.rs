//! The canonical stats shapes, built once as [`gts_obs::Snapshot`]s.
//!
//! `gts batch --stats`, the CLI `--stats` flag, and the serve `stats`
//! verb used to hand-assemble overlapping-but-divergent JSON objects.
//! They now all call these builders, so the field names and nesting of
//! every stats surface agree by construction. [`snapshot_to_json`]
//! bridges into the [`Json`] document model for surfaces that embed the
//! snapshot in a larger frame.

use crate::json::Json;
use crate::session::CacheStats;
use gts_core::containment::OracleCacheStats;
use gts_obs::{Snapshot, Value};

/// The canonical oracle-cache stats object (solver + completion layers).
/// Field names are stable wire surface — `gts batch --stats`, the serve
/// `stats` verb, and the benchmarks all expose exactly this shape. The
/// solver fields (`decides`, `solver_*`, `cores_*`, `types_interned`,
/// `realize_*`) count only the decides routed through the session's
/// solver cache; the completion sweep's entailment probes are not among
/// them (they still count in `gts_sat_decide_total`).
pub fn oracle_snapshot(oracle: &OracleCacheStats) -> Snapshot {
    let mut s = Snapshot::new();
    s.set("decides", oracle.solver.decides)
        .set("solver_cache_hits", oracle.solver.cache_hits)
        .set("solver_cache_misses", oracle.solver.cache_misses)
        .set("solver_entries", oracle.solver.entries)
        .set("cores_tried", oracle.solver.cores_tried)
        .set("cores_deduped", oracle.solver.cores_deduped)
        .set("types_interned", oracle.solver.types_interned)
        .set("realize_hits", oracle.solver.realize_hits)
        .set("realize_misses", oracle.solver.realize_misses)
        .set("completion_hits", oracle.completion_hits)
        .set("completion_misses", oracle.completion_misses);
    s
}

/// The canonical session containment-memo stats object.
pub fn session_cache_snapshot(stats: &CacheStats) -> Snapshot {
    let mut s = Snapshot::new();
    s.set("hits", stats.hits)
        .set("misses", stats.misses)
        .set("entries", stats.entries)
        .set("approx_bytes", stats.approx_bytes)
        .set("hydrated", stats.hydrated)
        .set("hit_rate", stats.hit_rate());
    s
}

/// Converts an observability snapshot into the [`Json`] document model
/// (order-preserving).
pub fn snapshot_to_json(snapshot: &Snapshot) -> Json {
    let mut obj = Json::obj();
    for (key, value) in snapshot.entries() {
        match value {
            Value::Bool(b) => obj.set(key, *b),
            Value::U64(n) => obj.set(key, *n),
            Value::I64(n) => obj.set(key, *n),
            Value::F64(x) => obj.set(key, *x),
            Value::Str(s) => obj.set(key, s.as_str()),
            Value::Nested(inner) => obj.set(key, snapshot_to_json(inner)),
        };
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_snapshot_shape_is_stable() {
        let s = oracle_snapshot(&OracleCacheStats::default());
        let keys: Vec<&str> = s.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "decides",
                "solver_cache_hits",
                "solver_cache_misses",
                "solver_entries",
                "cores_tried",
                "cores_deduped",
                "types_interned",
                "realize_hits",
                "realize_misses",
                "completion_hits",
                "completion_misses",
            ]
        );
    }

    #[test]
    fn snapshot_to_json_round_trips_the_shape() {
        let mut inner = Snapshot::new();
        inner.set("hits", 2u64);
        let mut s = Snapshot::new();
        s.set("ok", true).set("rate", 0.5).set("cache", inner);
        let json = snapshot_to_json(&s);
        // `Json::compact` and `Snapshot::to_json` differ in whitespace;
        // compare through the parser for structural equality.
        let reparsed = Json::parse(&s.to_json()).expect("snapshot JSON parses");
        assert_eq!(json.compact(), reparsed.compact());
    }
}
