//! The canonical stats shapes, built once as [`gts_obs::Snapshot`]s.
//!
//! `gts batch --stats` and the serve `analyze` response embed the same
//! session-memo object, built here once, so their field names and
//! nesting agree by construction. [`snapshot_to_json`]
//! bridges into the [`Json`] document model for surfaces that embed the
//! snapshot in a larger frame.

use crate::json::Json;
use crate::session::CacheStats;
use gts_obs::{Snapshot, Value};

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
    fn session_cache_snapshot_shape_is_stable() {
        let s = session_cache_snapshot(&CacheStats::default());
        let keys: Vec<&str> = s.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["hits", "misses", "entries", "approx_bytes", "hydrated", "hit_rate"]);
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
