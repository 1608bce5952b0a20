//! `Snapshot`: an ordered key-value tree that every stats surface renders
//! from.
//!
//! `gts batch --stats` and the serve `analyze` response used to build
//! overlapping-but-divergent JSON objects by hand. They now build one
//! [`Snapshot`] (via the helpers in `gts-engine`) and render it — to a JSON string here, or converted to
//! a richer document model by the caller — so field names and shapes
//! agree across surfaces by construction. Insertion order is preserved,
//! keeping output diffable.

use std::fmt::Write as _;

/// A leaf or nested value of a [`Snapshot`].
#[derive(Clone, Debug)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (counters, sizes).
    U64(u64),
    /// Signed integer (gauges).
    I64(i64),
    /// Floating point (rates, ratios).
    F64(f64),
    /// String.
    Str(String),
    /// Nested object.
    Nested(Snapshot),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Snapshot> for Value {
    fn from(v: Snapshot) -> Self {
        Value::Nested(v)
    }
}

/// An ordered key→[`Value`] map (one stats object).
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    entries: Vec<(String, Value)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends (or replaces) `key`, preserving first-insertion order.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        let value = value.into();
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.entries.push((key.to_string(), value)),
        }
        self
    }

    /// The entries in insertion order (for conversion into richer
    /// document models).
    pub fn entries(&self) -> &[(String, Value)] {
        &self.entries
    }

    /// Looks up a top-level key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Renders as a compact JSON object string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.json_into(&mut out);
        out
    }

    fn json_into(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", escape(k));
            match v {
                Value::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
                Value::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::I64(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::F64(x) => {
                    if x.is_finite() {
                        let _ = write!(out, "{x}");
                    } else {
                        out.push_str("null");
                    }
                }
                Value::Str(s) => {
                    let _ = write!(out, "\"{}\"", escape(s));
                }
                Value::Nested(s) => s.json_into(out),
            }
        }
        out.push('}');
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_preserves_order_and_nests() {
        let mut inner = Snapshot::new();
        inner.set("hits", 3u64).set("rate", 0.75);
        let mut s = Snapshot::new();
        s.set("name", "oracle").set("ok", true).set("cache", inner).set("delta", -2i64);
        assert_eq!(
            s.to_json(),
            "{\"name\":\"oracle\",\"ok\":true,\"cache\":{\"hits\":3,\"rate\":0.75},\"delta\":-2}"
        );
    }

    #[test]
    fn set_replaces_in_place() {
        let mut s = Snapshot::new();
        s.set("a", 1u64).set("b", 2u64).set("a", 9u64);
        assert_eq!(s.to_json(), "{\"a\":9,\"b\":2}");
        assert!(matches!(s.get("a"), Some(Value::U64(9))));
    }

    #[test]
    fn strings_are_escaped() {
        let mut s = Snapshot::new();
        s.set("k\"ey", "v\nal\\ue");
        assert_eq!(s.to_json(), "{\"k\\\"ey\":\"v\\nal\\\\ue\"}");
    }
}
