//! The wire protocol: frame grammar, error codes, and spec builders.
//!
//! Transport is TCP; each direction carries one JSON object per `\n`-
//! terminated line (no raw newlines can occur inside a frame — the JSON
//! escaper guarantees it). Every client frame carries the protocol
//! version `"v"` and a verb `"op"`; every server frame carries `"ok"`
//! plus the echoed `"op"`, and on failure an `"error"` code with a
//! human-readable `"message"`.
//!
//! Three fields are honored on *every* frame: an optional `"id"` (any
//! JSON value) is echoed verbatim in the response, so clients
//! multiplexing requests can correlate; an optional `"trace":true` asks
//! the server to collect the frame's span tree and attach it as the
//! response's `"trace"` field; an optional `"auth"` token names the
//! tenant the frame's work is accounted to (absent means the shared
//! `default` tenant).
//!
//! ## Versions 1 and 2
//!
//! The server speaks both protocol versions. They share the grammar
//! below; the difference is *response ordering*. A version-1 frame (and
//! a version-2 frame without an `"id"`) is answered strictly in arrival
//! order on its connection. A version-2 frame carrying an `"id"` may be
//! answered **out of order**: clients may pipeline many such frames
//! without waiting, and each response arrives as soon as its work
//! completes, correlated by the echoed `"id"`. Blocking one-at-a-time
//! clients work identically under both versions.
//!
//! ```text
//! frame      := version-verb fields*    # plus optional "id", "trace", "auth"
//! verbs      := ping | stats | metrics | load_schema | analyze
//!             | evict | cache_export | cache_import | shutdown
//!
//! ping       := {"v":V,"op":"ping"}                       # V ∈ {1, 2}
//! stats      := {"v":V,"op":"stats"}
//! metrics    := {"v":V,"op":"metrics"[,"format":"prometheus"|"json"]}
//! load_schema:= {"v":V,"op":"load_schema","gts":TEXT[,"schema":NAME]}
//! analyze    := {"v":V,"op":"analyze","gts":TEXT[,"source":NAME]
//!                ,"requests":[SPEC...]
//!                [,"deadline_ms":N]    # N >= 1; 0 is a bad_request
//!                [,"budget":"default"|"large"]
//!                [,"linger_ms":N]}     # test hook, off by default
//! evict      := {"v":V,"op":"evict"[,"fingerprint":HEX16]}
//! cache_export := {"v":V,"op":"cache_export","fingerprint":HEX16}
//! cache_import := {"v":V,"op":"cache_import","store":BASE64}
//! shutdown   := {"v":V,"op":"shutdown"}
//!
//! SPEC       := {"kind":"type_check","transform":T,"target":S[,"label":L]}
//!             | {"kind":"equivalence","left":T1,"right":T2[,"label":L]}
//!             | {"kind":"elicit","transform":T[,"label":L]}
//!             | {"kind":"execute","transform":T,"instance":TEXT
//!                [,"check_target":S][,"label":L]}
//! ```
//!
//! Error codes (the `"error"` field of `{"ok":false}` frames):
//! [`BAD_FRAME`], [`UNSUPPORTED_VERSION`], [`UNKNOWN_OP`],
//! [`BAD_REQUEST`], [`COMPILE_ERROR`], [`OVERLOADED`],
//! [`DEADLINE_EXCEEDED`], [`SHUTTING_DOWN`], [`NOT_FOUND`],
//! [`QUOTA_EXCEEDED`].

use gts_engine::Json;

/// The newest protocol version this build speaks (and the one
/// [`frame`] emits). The server also accepts [`MIN_PROTO_VERSION`];
/// frames outside the range are rejected with [`UNSUPPORTED_VERSION`]
/// so that incompatible peers fail loudly instead of mis-parsing each
/// other.
pub const PROTO_VERSION: i64 = 2;

/// The oldest protocol version the server still accepts. Version-1
/// frames are answered strictly in order, as they always were.
pub const MIN_PROTO_VERSION: i64 = 1;

/// The frame was not a JSON object, exceeded the size bound, or lacked
/// required fields.
pub const BAD_FRAME: &str = "bad_frame";
/// The `"v"` field did not match [`PROTO_VERSION`].
pub const UNSUPPORTED_VERSION: &str = "unsupported_version";
/// The `"op"` verb is not part of the protocol.
pub const UNKNOWN_OP: &str = "unknown_op";
/// A request spec was malformed or referenced a missing item.
pub const BAD_REQUEST: &str = "bad_request";
/// The shipped `.gts` (or instance) text did not compile.
pub const COMPILE_ERROR: &str = "compile_error";
/// Admission refused: all slots busy and the wait queue full.
pub const OVERLOADED: &str = "overloaded";
/// The request's deadline passed (queued too long, or mid-frame).
pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
/// The server is draining and takes no new work.
pub const SHUTTING_DOWN: &str = "shutting_down";
/// `evict` named a fingerprint that is not resident.
pub const NOT_FOUND: &str = "not_found";
/// Admission refused: global slots remain, but the frame's tenant is
/// over its fair share and the wait queue is full.
pub const QUOTA_EXCEEDED: &str = "quota_exceeded";

/// A client frame skeleton for `op` (version field included).
pub fn frame(op: &str) -> Json {
    let mut f = Json::obj();
    f.set("v", PROTO_VERSION).set("op", op);
    f
}

/// A success response skeleton echoing `op`.
pub fn ok_frame(op: &str) -> Json {
    let mut f = Json::obj();
    f.set("ok", true).set("op", op);
    f
}

/// An error response: `ok:false`, echoed `op` (when known), `error`
/// code, `message`.
pub fn error_frame(op: Option<&str>, code: &str, message: impl Into<String>) -> Json {
    let mut f = Json::obj();
    f.set("ok", false);
    if let Some(op) = op {
        f.set("op", op);
    }
    f.set("error", code).set("message", message.into());
    f
}

/// A `type_check` request spec.
pub fn spec_type_check(transform: &str, target: &str) -> Json {
    let mut s = Json::obj();
    s.set("kind", "type_check").set("transform", transform).set("target", target);
    s
}

/// An `equivalence` request spec.
pub fn spec_equivalence(left: &str, right: &str) -> Json {
    let mut s = Json::obj();
    s.set("kind", "equivalence").set("left", left).set("right", right);
    s
}

/// An `elicit` request spec.
pub fn spec_elicit(transform: &str) -> Json {
    let mut s = Json::obj();
    s.set("kind", "elicit").set("transform", transform);
    s
}

/// An `execute` request spec (`instance` is the standalone instance
/// text; `check_target` optionally names a schema to conformance-check
/// the output against).
pub fn spec_execute(transform: &str, instance: &str, check_target: Option<&str>) -> Json {
    let mut s = Json::obj();
    s.set("kind", "execute").set("transform", transform).set("instance", instance);
    if let Some(t) = check_target {
        s.set("check_target", t);
    }
    s
}

/// An `analyze` frame over `gts` text (`source` defaults to the file's
/// first schema server-side).
pub fn analyze_frame(gts: &str, source: Option<&str>, requests: Vec<Json>) -> Json {
    let mut f = frame("analyze");
    f.set("gts", gts);
    if let Some(s) = source {
        f.set("source", s);
    }
    f.set("requests", Json::Arr(requests));
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_carry_version_and_op() {
        let f = frame("ping");
        assert_eq!(f.get("v").and_then(Json::as_i64), Some(PROTO_VERSION));
        assert_eq!(f.get("op").and_then(Json::as_str), Some("ping"));
        let ok = ok_frame("stats");
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        let err = error_frame(Some("analyze"), OVERLOADED, "queue full");
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(err.get("error").and_then(Json::as_str), Some(OVERLOADED));
        assert_eq!(err.get("message").and_then(Json::as_str), Some("queue full"));
        let anon = error_frame(None, BAD_FRAME, "not json");
        assert!(anon.get("op").is_none());
    }

    #[test]
    fn specs_have_the_documented_shape() {
        let s = spec_execute("T", "node a A", Some("S1"));
        assert_eq!(s.get("kind").and_then(Json::as_str), Some("execute"));
        assert_eq!(s.get("check_target").and_then(Json::as_str), Some("S1"));
        assert!(spec_execute("T", "i", None).get("check_target").is_none());
        let f = analyze_frame("schema S {}", Some("S"), vec![spec_elicit("T")]);
        assert_eq!(f.get("requests").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        // A frame is one line: rendering never contains a raw newline.
        let multi = analyze_frame("line1\nline2", None, vec![spec_type_check("T", "S")]);
        assert!(!multi.compact().contains('\n'));
    }
}
