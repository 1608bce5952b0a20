//! Loopback integration suite for `gts-serve`: happy-path verdict parity
//! with direct sessions, the malformed-frame/early-disconnect battery,
//! backpressure rejection, eviction correctness, and graceful shutdown
//! mid-stream. Every test starts a real server on an ephemeral loopback
//! port and talks to it over TCP through `gts_serve::Client`.

use gts_engine::Json;
use gts_serve::{
    proto, AdmissionConfig, Client, Frontend, RegistryConfig, Server, ServerConfig, ServerHandle,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The medical fixture of Figure 1 in `.gts` text form.
const MEDICAL: &str = r#"
schema S0 {
  node Vaccine
  node Antigen
  node Pathogen
  edge Vaccine -designTarget-> Antigen [1, *]
  edge Antigen -crossReacting-> Antigen [*, *]
  edge Pathogen -exhibits-> Antigen [+, *]
}
schema S1 {
  node Vaccine
  node Antigen
  node Pathogen
  edge Vaccine -designTarget-> Antigen [1, *]
  edge Vaccine -targets-> Antigen [+, *]
  edge Pathogen -exhibits-> Antigen [+, *]
}
transform T0 {
  Vaccine(f(x)) <- (Vaccine)(x)
  Antigen(f(x)) <- (Antigen)(x)
  designTarget(Vaccine(x), Antigen(y)) <- (designTarget)(x, y)
  targets(Vaccine(x), Antigen(y)) <- (designTarget . crossReacting*)(x, y)
  Pathogen(f(x)) <- (Pathogen)(x)
  exhibits(Pathogen(x), Antigen(y)) <- (exhibits)(x, y)
}
"#;

const MEDICAL_INSTANCE: &str = "\
node v1 Vaccine
node a1 Antigen
node a2 Antigen
node p1 Pathogen
edge v1 designTarget a1
edge a1 crossReacting a2
edge p1 exhibits a1
edge p1 exhibits a2
";

/// A deliberately tiny second fixture (distinct fingerprint).
const TINY: &str = r#"
schema S {
  node Person
  edge Person -knows-> Person [*, *]
}
transform T {
  Person(f(x)) <- (Person)(x)
  knows(Person(x), Person(y)) <- (knows)(x, y)
}
"#;

fn start(cfg: ServerConfig) -> ServerHandle {
    Server::start(cfg, gts_cli::frontend()).expect("bind loopback")
}

fn start_default() -> ServerHandle {
    start(ServerConfig::default())
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr()).expect("connect loopback")
}

fn ok(frame: &Json) -> bool {
    frame.get("ok").and_then(Json::as_bool) == Some(true)
}

fn results(frame: &Json) -> &[Json] {
    frame.get("results").and_then(Json::as_arr).unwrap_or_default()
}

fn shutdown_and_join(handle: ServerHandle) {
    let mut c = connect(&handle);
    assert!(ok(&c.shutdown().unwrap()));
    handle.join();
}

#[test]
fn happy_path_verdicts_match_a_direct_session() {
    let handle = start_default();
    let mut client = connect(&handle);

    let resp = client
        .analyze(
            MEDICAL,
            Some("S0"),
            vec![
                proto::spec_type_check("T0", "S1"),
                proto::spec_type_check("T0", "S0"),
                proto::spec_equivalence("T0", "T0"),
                proto::spec_elicit("T0"),
                proto::spec_execute("T0", MEDICAL_INSTANCE, Some("S1")),
            ],
        )
        .unwrap();
    assert!(ok(&resp), "{}", resp.pretty());
    assert_eq!(resp.get("pool").and_then(Json::as_str), Some("miss"));
    let entries = results(&resp);
    assert_eq!(entries.len(), 5);

    // The same questions asked directly of gts-engine.
    let file = gts_cli::GtsFile::parse(MEDICAL).unwrap();
    let mut session =
        gts_engine::AnalysisSession::new(file.schema("S0").unwrap().clone(), file.vocab.clone());
    let t0 = file.transform("T0").unwrap();
    let direct_s1 = session.type_check(t0, file.schema("S1").unwrap()).unwrap();
    let direct_s0 = session.type_check(t0, file.schema("S0").unwrap()).unwrap();
    let direct_eq = session.equivalence(t0, t0).unwrap();
    let elicited = session.elicit(t0).unwrap();

    assert_eq!(entries[0].get("holds").and_then(Json::as_bool), Some(direct_s1.holds));
    assert_eq!(entries[0].get("certified").and_then(Json::as_bool), Some(direct_s1.certified));
    assert_eq!(entries[1].get("holds").and_then(Json::as_bool), Some(direct_s0.holds));
    assert_eq!(entries[2].get("holds").and_then(Json::as_bool), Some(direct_eq.holds));
    let wire_schema = entries[3].get("schema").and_then(Json::as_str).unwrap();
    assert!(wire_schema.contains("targets"), "{wire_schema}");
    assert_eq!(entries[3].get("certified").and_then(Json::as_bool), Some(elicited.certified));
    // Execution: 4 nodes survive, crossReacting collapses into targets.
    assert_eq!(entries[4].get("output_nodes").and_then(Json::as_u64), Some(4));
    assert_eq!(entries[4].get("conforms").and_then(Json::as_bool), Some(true));

    // A second identical frame is a pool hit answered from the memo.
    let resp2 =
        client.analyze(MEDICAL, Some("S0"), vec![proto::spec_type_check("T0", "S1")]).unwrap();
    assert!(ok(&resp2));
    assert_eq!(resp2.get("pool").and_then(Json::as_str), Some("hit"));
    let warm = &results(&resp2)[0];
    assert_eq!(warm.get("holds").and_then(Json::as_bool), Some(direct_s1.holds));
    let session_stats = resp2.get("session").unwrap();
    assert!(session_stats.get("hits").and_then(Json::as_u64).unwrap() > 0);
    assert!(session_stats.get("approx_bytes").and_then(Json::as_u64).unwrap() > 0);

    shutdown_and_join(handle);
}

#[test]
fn malformed_frames_get_error_responses_and_the_connection_survives() {
    let handle = start_default();
    let mut client = connect(&handle);

    let cases: &[(&str, &str)] = &[
        ("this is not json", proto::BAD_FRAME),
        ("[1, 2, 3]", proto::BAD_FRAME),
        (r#"{"v": 99, "op": "ping"}"#, proto::UNSUPPORTED_VERSION),
        (r#"{"op": "ping"}"#, proto::UNSUPPORTED_VERSION),
        (r#"{"v": 1, "op": "frobnicate"}"#, proto::UNKNOWN_OP),
        // Incremental execution is a local `gts run --delta` feature, not
        // a wire verb.
        (
            r#"{"v": 2, "op": "delta", "transform": "T", "instance": "", "delta": ""}"#,
            proto::UNKNOWN_OP,
        ),
        (r#"{"v": 1, "op": "analyze"}"#, proto::BAD_FRAME),
        (r#"{"v": 1, "op": "analyze", "gts": "schema S {", "requests": []}"#, proto::COMPILE_ERROR),
        (r#"{"v": 1, "op": "load_schema", "gts": "node A"}"#, proto::BAD_REQUEST),
        (r#"{"v": 1, "op": "evict", "fingerprint": "nope"}"#, proto::BAD_REQUEST),
    ];
    for (raw, want) in cases {
        let resp = client.roundtrip_raw(raw).unwrap();
        assert!(!ok(&resp), "accepted {raw}: {}", resp.pretty());
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some(*want),
            "{raw} → {}",
            resp.pretty()
        );
    }
    // Bad request specs inside an otherwise valid frame.
    let resp =
        client.analyze(TINY, None, vec![proto::spec_type_check("NoSuchTransform", "S")]).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::BAD_REQUEST));
    let resp = client
        .roundtrip_raw(
            r#"{"v":1,"op":"analyze","gts":"schema S { node A }","requests":[{"kind":"mystery"}]}"#,
        )
        .unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::BAD_REQUEST));

    // After all that abuse the same connection still answers pings and
    // real work.
    assert!(ok(&client.ping().unwrap()));
    let good = client.analyze(TINY, Some("S"), vec![proto::spec_elicit("T")]).unwrap();
    assert!(ok(&good), "{}", good.pretty());

    shutdown_and_join(handle);
}

#[test]
fn early_disconnects_leave_the_server_healthy() {
    let handle = start_default();

    // Half a frame, then gone.
    let c1 = connect(&handle);
    c1.send_partial_and_close(r#"{"v": 1, "op": "anal"#).unwrap();
    // A whole frame with no newline, then gone.
    let c2 = connect(&handle);
    c2.send_partial_and_close(r#"{"v": 1, "op": "ping"}"#).unwrap();
    // Connect and say nothing at all.
    let c3 = connect(&handle);
    drop(c3);

    // The server shrugged all three off.
    let mut c4 = connect(&handle);
    assert!(ok(&c4.ping().unwrap()));
    let resp = c4.analyze(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]).unwrap();
    assert!(ok(&resp), "{}", resp.pretty());
    assert_eq!(results(&resp)[0].get("holds").and_then(Json::as_bool), Some(true));

    shutdown_and_join(handle);
}

/// An analyze frame that holds its admission slot for `ms` (the server
/// honors `linger_ms` only when configured with `allow_linger`).
fn lingering_frame(ms: u64) -> Json {
    let mut f = proto::analyze_frame(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]);
    f.set("linger_ms", ms);
    f
}

#[test]
fn backpressure_rejects_rather_than_buffers() {
    let handle = start(ServerConfig {
        admission: AdmissionConfig { max_inflight: 1, max_queue: 0 },
        allow_linger: true,
        ..Default::default()
    });

    // Connection A occupies the only slot for a while.
    let addr = handle.addr();
    let slow = std::thread::spawn(move || {
        let mut a = Client::connect(addr).unwrap();
        a.roundtrip(&lingering_frame(1200)).unwrap()
    });
    // Wait until A's analysis is actually in flight.
    let mut b = connect(&handle);
    let t0 = Instant::now();
    while handle.admission().stats().inflight == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "A never got admitted");
        std::thread::sleep(Duration::from_millis(10));
    }

    // B is bounced immediately with a backpressure error — not queued.
    let t1 = Instant::now();
    let resp = b.roundtrip(&lingering_frame(0)).unwrap();
    assert!(t1.elapsed() < Duration::from_millis(600), "rejection was not prompt");
    assert!(!ok(&resp));
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::OVERLOADED));

    // A's own frame completes fine, and afterwards B gets a slot.
    let a_resp = slow.join().unwrap();
    assert!(ok(&a_resp), "{}", a_resp.pretty());
    let retry = b.roundtrip(&lingering_frame(0)).unwrap();
    assert!(ok(&retry), "{}", retry.pretty());
    assert!(handle.admission().metrics().rejected_overloaded.get() >= 1);

    shutdown_and_join(handle);
}

#[test]
fn queued_requests_respect_deadlines() {
    let handle = start(ServerConfig {
        admission: AdmissionConfig { max_inflight: 1, max_queue: 4 },
        allow_linger: true,
        ..Default::default()
    });
    let addr = handle.addr();
    let slow = std::thread::spawn(move || {
        let mut a = Client::connect(addr).unwrap();
        a.roundtrip(&lingering_frame(1000)).unwrap()
    });
    let mut b = connect(&handle);
    let t0 = Instant::now();
    while handle.admission().stats().inflight == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "A never got admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut f = lingering_frame(0);
    f.set("deadline_ms", 80u64);
    let resp = b.roundtrip(&f).unwrap();
    assert!(!ok(&resp));
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::DEADLINE_EXCEEDED));
    assert!(ok(&slow.join().unwrap()));
    shutdown_and_join(handle);
}

#[test]
fn eviction_correctness_evicted_schemas_reanalyze_to_identical_verdicts() {
    // A pool with room for exactly one session: alternating between two
    // schemas evicts on every switch.
    let handle = start(ServerConfig {
        registry: RegistryConfig { max_sessions: 1, max_bytes: usize::MAX, ..Default::default() },
        ..Default::default()
    });
    let mut client = connect(&handle);

    let medical = || {
        vec![
            proto::spec_type_check("T0", "S1"),
            proto::spec_type_check("T0", "S0"),
            proto::spec_elicit("T0"),
        ]
    };
    let tiny = || vec![proto::spec_type_check("T", "S"), proto::spec_elicit("T")];

    let first_medical = client.analyze(MEDICAL, Some("S0"), medical()).unwrap();
    assert!(ok(&first_medical));
    let first_tiny = client.analyze(TINY, Some("S"), tiny()).unwrap();
    assert!(ok(&first_tiny));
    // Round two: each schema was evicted by the other, so both are pool
    // misses that must reproduce the original verdicts from scratch.
    let second_medical = client.analyze(MEDICAL, Some("S0"), medical()).unwrap();
    let second_tiny = client.analyze(TINY, Some("S"), tiny()).unwrap();
    for (first, second) in [(&first_medical, &second_medical), (&first_tiny, &second_tiny)] {
        assert_eq!(second.get("pool").and_then(Json::as_str), Some("miss"), "evicted → rebuilt");
        assert_eq!(
            first.get("fingerprint").and_then(Json::as_str),
            second.get("fingerprint").and_then(Json::as_str),
            "same schema, same fingerprint"
        );
        for (a, b) in results(first).iter().zip(results(second)) {
            assert_eq!(a.get("label"), b.get("label"));
            assert_eq!(a.get("holds"), b.get("holds"), "verdict changed across eviction");
            assert_eq!(a.get("certified"), b.get("certified"));
            assert_eq!(a.get("schema"), b.get("schema"), "elicited schema changed");
        }
    }
    assert_eq!(handle.registry().stats().sessions, 1);
    let pool = handle.registry().metrics();
    assert!(pool.evictions.get() >= 3, "every switch evicted: {pool:?}");

    shutdown_and_join(handle);
}

#[test]
fn load_schema_and_evict_verbs_manage_the_pool() {
    let handle = start_default();
    let mut client = connect(&handle);

    let loaded = client.load_schema(MEDICAL, Some("S0")).unwrap();
    assert!(ok(&loaded), "{}", loaded.pretty());
    let fp = loaded.get("fingerprint").and_then(Json::as_str).unwrap().to_owned();
    assert_eq!(loaded.get("pool").and_then(Json::as_str), Some("miss"));
    // Loading again is a hit; analyzing against it is a hit too.
    let again = client.load_schema(MEDICAL, Some("S0")).unwrap();
    assert_eq!(again.get("pool").and_then(Json::as_str), Some("hit"));
    assert_eq!(again.get("fingerprint").and_then(Json::as_str), Some(fp.as_str()));
    let resp =
        client.analyze(MEDICAL, Some("S0"), vec![proto::spec_type_check("T0", "S1")]).unwrap();
    assert_eq!(resp.get("pool").and_then(Json::as_str), Some("hit"));

    // Evict by fingerprint, then by sweep.
    let evicted = client.evict(Some(&fp)).unwrap();
    assert!(ok(&evicted));
    assert_eq!(evicted.get("evicted").and_then(Json::as_u64), Some(1));
    let missing = client.evict(Some(&fp)).unwrap();
    assert_eq!(missing.get("error").and_then(Json::as_str), Some(proto::NOT_FOUND));
    client.load_schema(MEDICAL, Some("S0")).unwrap();
    client.load_schema(TINY, None).unwrap();
    let swept = client.evict(None).unwrap();
    assert_eq!(swept.get("evicted").and_then(Json::as_u64), Some(2));
    assert_eq!(handle.registry().stats().sessions, 0);

    shutdown_and_join(handle);
}

#[test]
fn stats_verb_reports_registry_admission_and_server() {
    let handle = start_default();
    let mut client = connect(&handle);
    client.analyze(TINY, Some("S"), vec![proto::spec_elicit("T")]).unwrap();
    let stats = client.stats().unwrap();
    assert!(ok(&stats), "{}", stats.pretty());
    let registry = stats.get("registry").unwrap();
    assert_eq!(registry.get("sessions").and_then(Json::as_u64), Some(1));
    assert!(registry.get("approx_bytes").and_then(Json::as_u64).unwrap() > 0);
    let admission = stats.get("admission").unwrap();
    assert_eq!(admission.get("admitted").and_then(Json::as_u64), Some(1));
    assert_eq!(admission.get("inflight").and_then(Json::as_u64), Some(0));
    // Sessions share no solver state across questions, so there is no
    // oracle-cache object to report.
    assert!(stats.get("oracle").is_none(), "{}", stats.pretty());
    let server = stats.get("server").unwrap();
    assert!(server.get("connections_total").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(server.get("draining").and_then(Json::as_bool), Some(false));
    shutdown_and_join(handle);
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let handle = start(ServerConfig { allow_linger: true, ..Default::default() });
    let addr = handle.addr();

    // A long-running frame on connection A…
    let slow = std::thread::spawn(move || {
        let mut a = Client::connect(addr).unwrap();
        a.roundtrip(&lingering_frame(700)).unwrap()
    });
    let t0 = Instant::now();
    while handle.admission().stats().inflight == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "A never got admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    // …then a shutdown from connection B mid-stream.
    let mut b = connect(&handle);
    let resp = b.shutdown().unwrap();
    assert!(ok(&resp));
    assert_eq!(resp.get("draining").and_then(Json::as_bool), Some(true));

    // A's response still arrives, complete and ok: drain waited for it.
    let a_resp = slow.join().unwrap();
    assert!(ok(&a_resp), "{}", a_resp.pretty());
    assert_eq!(results(&a_resp).len(), 1);

    // After the drain completes the listener is gone.
    handle.join();
    assert!(Client::connect(addr).is_err(), "post-drain connections must be refused");
}

#[test]
fn draining_servers_reject_new_analyses() {
    let handle = start(ServerConfig { allow_linger: true, ..Default::default() });
    let addr = handle.addr();
    // Hold a connection open from before the drain.
    let mut early = connect(&handle);
    assert!(ok(&early.ping().unwrap()));
    let slow = std::thread::spawn(move || {
        let mut a = Client::connect(addr).unwrap();
        a.roundtrip(&lingering_frame(600)).unwrap()
    });
    let t0 = Instant::now();
    while handle.admission().stats().inflight == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5));
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
    // The pre-existing connection's new analysis is refused…
    let resp = early.roundtrip(&lingering_frame(0)).unwrap();
    assert!(!ok(&resp));
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::SHUTTING_DOWN));
    // …while the in-flight one completes.
    assert!(ok(&slow.join().unwrap()));
    handle.join();
}

#[test]
fn deadline_ms_zero_is_a_bad_request_not_a_silent_skip() {
    let handle = start_default();
    let mut client = connect(&handle);
    let mut f = proto::analyze_frame(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]);
    f.set("deadline_ms", 0u64);
    let resp = client.roundtrip(&f).unwrap();
    assert!(!ok(&resp), "{}", resp.pretty());
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::BAD_REQUEST));
    // Rejected before any work: nothing was admitted, nothing counted.
    let stats = client.stats().unwrap();
    let server = stats.get("server").unwrap();
    assert_eq!(server.get("requests_total").and_then(Json::as_u64), Some(0));
    assert_eq!(server.get("deadline_skipped").and_then(Json::as_u64), Some(0));
    // The connection survives and a sane deadline works.
    let mut sane = proto::analyze_frame(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]);
    sane.set("deadline_ms", 30_000u64);
    assert!(ok(&client.roundtrip(&sane).unwrap()));
    shutdown_and_join(handle);
}

#[test]
fn deadline_skipped_requests_are_counted_in_requests_total_and_stats() {
    let handle = start(ServerConfig { allow_linger: true, ..Default::default() });
    let mut client = connect(&handle);
    // The linger burns the whole deadline while holding the admission
    // permit, so every request in the frame is skipped mid-frame — the
    // path that used to leave `requests_total` under-reporting.
    let mut f = proto::analyze_frame(
        TINY,
        Some("S"),
        vec![proto::spec_type_check("T", "S"), proto::spec_elicit("T")],
    );
    f.set("linger_ms", 300u64).set("deadline_ms", 50u64);
    let resp = client.roundtrip(&f).unwrap();
    assert!(ok(&resp), "skips are per-request, the frame itself is fine: {}", resp.pretty());
    let entries = results(&resp);
    assert_eq!(entries.len(), 2);
    for entry in entries {
        assert_eq!(entry.get("skipped").and_then(Json::as_bool), Some(true));
        assert_eq!(entry.get("error").and_then(Json::as_str), Some(proto::DEADLINE_EXCEEDED));
    }
    let stats = client.stats().unwrap();
    let server = stats.get("server").unwrap();
    assert_eq!(server.get("requests_total").and_then(Json::as_u64), Some(2));
    assert_eq!(server.get("deadline_skipped").and_then(Json::as_u64), Some(2));
    shutdown_and_join(handle);
}

#[test]
fn cache_export_import_moves_warm_state_between_servers() {
    let dir = std::env::temp_dir().join(format!("gts-serve-xfer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Server A works the medical schema cold and exports its session.
    let a = start_default();
    let mut ca = connect(&a);
    let specs = || vec![proto::spec_type_check("T0", "S1"), proto::spec_elicit("T0")];
    let a_resp = ca.analyze(MEDICAL, Some("S0"), specs()).unwrap();
    assert!(ok(&a_resp), "{}", a_resp.pretty());
    let fp = a_resp.get("fingerprint").and_then(Json::as_str).unwrap().to_owned();
    let exported = ca.cache_export(&fp).unwrap();
    assert!(ok(&exported), "{}", exported.pretty());
    assert_eq!(exported.get("fingerprint").and_then(Json::as_str), Some(fp.as_str()));
    let store_b64 = exported.get("store").and_then(Json::as_str).unwrap().to_owned();
    shutdown_and_join(a);

    // Server B has a cache dir but has never seen the schema; the import
    // lands on disk (no resident session yet) and the first analyze
    // hydrates from it.
    let b = start(ServerConfig {
        registry: RegistryConfig { cache_dir: Some(dir.clone()), ..Default::default() },
        ..Default::default()
    });
    let mut cb = connect(&b);
    let imported = cb.cache_import(&store_b64).unwrap();
    assert!(ok(&imported), "{}", imported.pretty());
    assert_eq!(imported.get("fingerprint").and_then(Json::as_str), Some(fp.as_str()));
    assert_eq!(imported.get("installed").and_then(Json::as_bool), Some(true));
    let b_resp = cb.analyze(MEDICAL, Some("S0"), specs()).unwrap();
    assert!(ok(&b_resp), "{}", b_resp.pretty());
    assert_eq!(b_resp.get("fingerprint").and_then(Json::as_str), Some(fp.as_str()));
    // Verdict-for-verdict parity with the donor.
    for (first, second) in results(&a_resp).iter().zip(results(&b_resp)) {
        assert_eq!(first.get("holds"), second.get("holds"));
        assert_eq!(first.get("certified"), second.get("certified"));
        assert_eq!(first.get("schema"), second.get("schema"));
    }
    let stats = cb.stats().unwrap();
    let registry = stats.get("registry").unwrap();
    assert!(registry.get("disk_hydrated").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(registry.get("cache_dir").and_then(Json::as_str), dir.to_str());

    // Re-import against the now-resident session: hydrates in place.
    let again = cb.cache_import(&store_b64).unwrap();
    assert!(ok(&again), "{}", again.pretty());
    assert_eq!(again.get("resident").and_then(Json::as_bool), Some(true));
    shutdown_and_join(b);

    // A server with neither a resident session nor a cache dir has
    // nowhere to put an import — and nothing to export.
    let c = start_default();
    let mut cc = connect(&c);
    let resp = cc.cache_import(&store_b64).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::NOT_FOUND));
    let resp = cc.cache_export(&fp).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::NOT_FOUND));
    let resp = cc.cache_import("!!!not-base64!!!").unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::BAD_REQUEST));
    shutdown_and_join(c);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_families_analyze_cleanly_through_one_server() {
    use gts_corpus::{scenario, Family, Params};
    // One resident server, every certifying corpus family pushed through
    // it: the rendered .gts compiles server-side, the primary type check
    // comes back certified-true, the primary instance executes to a
    // conforming output, and the second frame per family is a pool hit.
    // (The `stress` family's verdicts are deliberately uncertified at
    // default budgets, which the differential suites cover; it only has
    // to answer `ok`, checked last.)
    let families =
        [Family::Medical, Family::Fhir, Family::Social, Family::Retail, Family::Hardness];
    let handle = start(ServerConfig {
        registry: RegistryConfig { max_sessions: families.len() + 1, ..Default::default() },
        ..Default::default()
    });
    let mut client = connect(&handle);
    let mut fingerprints = std::collections::HashSet::new();
    for family in families {
        let sc = scenario(family, &Params::quick());
        let text = gts_cli::render_file(&gts_cli::scenario_file(&sc));
        let inst = sc.instance(&sc.primary.instance).unwrap();
        let fixture = gts_cli::raw_instance(&inst.graph, &sc.vocab);
        let specs = || {
            vec![
                proto::spec_type_check(&sc.primary.transform, &sc.primary.target),
                proto::spec_execute(&sc.primary.transform, &fixture, Some(&sc.primary.target)),
            ]
        };
        let resp = client.analyze(&text, Some(&sc.primary.source), specs()).unwrap();
        assert!(ok(&resp), "{}: {}", family.name(), resp.pretty());
        assert_eq!(resp.get("pool").and_then(Json::as_str), Some("miss"), "{}", family.name());
        let entries = results(&resp);
        assert_eq!(
            entries[0].get("holds").and_then(Json::as_bool),
            Some(true),
            "{}",
            family.name()
        );
        assert_eq!(
            entries[0].get("certified").and_then(Json::as_bool),
            Some(true),
            "{}",
            family.name()
        );
        assert_eq!(
            entries[1].get("conforms").and_then(Json::as_bool),
            Some(true),
            "{}: primary instance must execute to a conforming output",
            family.name()
        );
        fingerprints.insert(resp.get("fingerprint").and_then(Json::as_str).unwrap().to_owned());
        let warm = client.analyze(&text, Some(&sc.primary.source), specs()).unwrap();
        assert!(ok(&warm), "{}: {}", family.name(), warm.pretty());
        assert_eq!(warm.get("pool").and_then(Json::as_str), Some("hit"), "{}", family.name());
        assert_eq!(results(&warm)[0].get("holds"), entries[0].get("holds"), "{}", family.name());
    }
    assert_eq!(fingerprints.len(), families.len(), "one distinct session per family");
    let (stats, pool) = (handle.registry().stats(), handle.registry().metrics());
    assert_eq!(stats.sessions, families.len(), "{stats:?}");
    assert_eq!(pool.misses.get(), families.len() as u64, "{pool:?}");
    assert!(pool.hits.get() >= families.len() as u64, "{pool:?}");
    // The stress family's verdicts are uncertified, but its frames still
    // answer `ok`, cold and resident.
    let sc = scenario(Family::Stress, &Params::quick());
    let text = gts_cli::render_file(&gts_cli::scenario_file(&sc));
    let inst = sc.instance(&sc.primary.instance).unwrap();
    let fixture = gts_cli::raw_instance(&inst.graph, &sc.vocab);
    for _ in 0..2 {
        let specs = vec![
            proto::spec_type_check(&sc.primary.transform, &sc.primary.target),
            proto::spec_execute(&sc.primary.transform, &fixture, Some(&sc.primary.target)),
        ];
        let resp = client.analyze(&text, Some(&sc.primary.source), specs).unwrap();
        assert!(ok(&resp), "stress: {}", resp.pretty());
    }
    shutdown_and_join(handle);
}

#[test]
fn concurrent_clients_share_one_resident_session() {
    // Enough queue room for all six clients even on a single-core host
    // (the default bounds scale with the core count).
    let handle = start(ServerConfig {
        admission: AdmissionConfig { max_inflight: 2, max_queue: 16 },
        ..Default::default()
    });
    let addr = handle.addr();
    let workers: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let resp = c
                    .analyze(MEDICAL, Some("S0"), vec![proto::spec_type_check("T0", "S1")])
                    .unwrap();
                assert!(ok(&resp), "{}", resp.pretty());
                results(&resp)[0].get("holds").and_then(Json::as_bool).unwrap()
            })
        })
        .collect();
    let verdicts: Vec<bool> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert!(verdicts.iter().all(|&v| v), "every client saw the same (true) verdict");
    let (stats, pool) = (handle.registry().stats(), handle.registry().metrics());
    assert_eq!(stats.sessions, 1, "one schema → one resident session: {stats:?}");
    assert_eq!(pool.hits.get() + pool.misses.get(), 6);
    assert_eq!(pool.misses.get(), 1, "five clients reused the first client's session");
    shutdown_and_join(handle);
}

// ───────────────────── observability: metrics verb ─────────────────────

#[test]
fn metrics_verb_totals_agree_with_stats() {
    let handle = start_default();
    let mut client = connect(&handle);
    for _ in 0..3 {
        let resp = client.analyze(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]).unwrap();
        assert!(ok(&resp), "{}", resp.pretty());
    }
    assert!(ok(&client.ping().unwrap()));

    // The stats verb counts frames at arrival, so it includes itself:
    // 3 analyze + 1 ping + this stats frame.
    let stats = client.stats().unwrap();
    let server = stats.get("server").unwrap();
    assert_eq!(server.get("frames_total").and_then(Json::as_u64), Some(5));
    assert_eq!(server.get("requests_total").and_then(Json::as_u64), Some(3));

    // Prometheus exposition: per-verb counters agree with stats (the
    // metrics frame itself is counted after it renders, so it does not
    // appear in its own scrape).
    let resp = client.metrics(None).unwrap();
    assert!(ok(&resp), "{}", resp.pretty());
    assert_eq!(resp.get("format").and_then(Json::as_str), Some("prometheus"));
    let body = resp.get("body").and_then(Json::as_str).unwrap();
    assert!(body.contains("# TYPE gts_serve_frames_total counter"), "{body}");
    assert!(body.contains("# TYPE gts_serve_frame_micros histogram"), "{body}");
    assert!(body.contains("gts_serve_frames_total{verb=\"analyze\"} 3\n"), "{body}");
    assert!(body.contains("gts_serve_frames_total{verb=\"ping\"} 1\n"), "{body}");
    assert!(body.contains("gts_serve_frames_total{verb=\"stats\"} 1\n"), "{body}");
    assert!(body.contains("gts_serve_requests_total 3\n"), "{body}");
    assert!(body.contains("gts_serve_frame_micros_count{verb=\"analyze\"} 3\n"), "{body}");
    assert!(
        body.contains("gts_serve_frame_micros_bucket{verb=\"analyze\",le=\"+Inf\"} 3\n"),
        "{body}"
    );
    // Scrape-time gauges: one resident session, this one open connection.
    assert!(body.contains("gts_serve_sessions 1\n"), "{body}");
    assert!(body.contains("gts_serve_connections_open 1\n"), "{body}");
    // The process-global (library-layer) registries are merged in. Their
    // counts are process-wide — tests run in parallel — so only presence
    // is asserted.
    assert!(body.contains("# TYPE gts_sat_decide_micros histogram"), "{body}");

    // The JSON mirror carries the same families with extracted quantiles.
    let resp = client.metrics(Some("json")).unwrap();
    assert!(ok(&resp), "{}", resp.pretty());
    let mirror = Json::parse(resp.get("body").and_then(Json::as_str).unwrap()).unwrap();
    let entries = mirror.get("metrics").and_then(Json::as_arr).unwrap();
    let analyze = entries
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some("gts_serve_frame_micros")
                && e.get("labels").and_then(|l| l.get("verb")).and_then(Json::as_str)
                    == Some("analyze")
        })
        .expect("analyze histogram in JSON mirror");
    assert_eq!(analyze.get("count").and_then(Json::as_u64), Some(3));
    assert!(analyze.get("p50").and_then(Json::as_u64).is_some());

    // An unknown format is refused without killing the connection.
    let resp = client.metrics(Some("xml")).unwrap();
    assert!(!ok(&resp));
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::BAD_REQUEST));
    assert!(ok(&client.ping().unwrap()));

    shutdown_and_join(handle);
}

// ─────────────────── observability: trace and id echo ──────────────────

#[test]
fn trace_returns_a_span_tree_and_ids_echo_on_every_path() {
    let handle = start_default();
    let mut client = connect(&handle);

    let mut f = proto::analyze_frame(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]);
    f.set("id", 42u64).set("trace", true);
    let resp = client.roundtrip(&f).unwrap();
    assert!(ok(&resp), "{}", resp.pretty());
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(42));
    let tree = resp.get("trace").expect("trace requested");
    assert_eq!(tree.get("name").and_then(Json::as_str), Some("frame"));
    let children = tree.get("children").and_then(Json::as_arr).unwrap_or_default();
    let names: Vec<&str> =
        children.iter().filter_map(|c| c.get("name").and_then(Json::as_str)).collect();
    assert!(names.contains(&"parse"), "span tree decomposes the frame: {names:?}");
    assert!(names.contains(&"session_checkout"), "{names:?}");

    // Without `trace` the response stays lean.
    let resp = client.analyze(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]).unwrap();
    assert!(resp.get("trace").is_none());

    // Ids echo on error paths too: unknown verb…
    let mut bogus = Json::obj();
    bogus.set("v", 1u64).set("op", "frobnicate").set("id", "req-9");
    let resp = client.roundtrip(&bogus).unwrap();
    assert!(!ok(&resp));
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::UNKNOWN_OP));
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("req-9"));

    // …and version mismatches (the id is read before the frame is refused).
    let mut stale = Json::obj();
    stale.set("v", 99u64).set("op", "ping").set("id", 7u64);
    let resp = client.roundtrip(&stale).unwrap();
    assert!(!ok(&resp));
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::UNSUPPORTED_VERSION));
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(7));

    shutdown_and_join(handle);
}

// ─────────── observability: admission counters in both surfaces ────────

#[test]
fn deadline_skips_are_visible_in_stats_and_metrics() {
    let handle = start(ServerConfig { allow_linger: true, ..Default::default() });
    let mut client = connect(&handle);
    let mut f = proto::analyze_frame(
        TINY,
        Some("S"),
        vec![proto::spec_type_check("T", "S"), proto::spec_elicit("T")],
    );
    f.set("linger_ms", 300u64).set("deadline_ms", 50u64);
    let resp = client.roundtrip(&f).unwrap();
    assert!(ok(&resp), "{}", resp.pretty());

    let stats = client.stats().unwrap();
    let server = stats.get("server").unwrap();
    assert_eq!(server.get("requests_total").and_then(Json::as_u64), Some(2));
    assert_eq!(server.get("deadline_skipped").and_then(Json::as_u64), Some(2));

    let resp = client.metrics(None).unwrap();
    let body = resp.get("body").and_then(Json::as_str).unwrap();
    assert!(body.contains("gts_serve_requests_total 2\n"), "{body}");
    assert!(body.contains("gts_serve_deadline_skipped_total 2\n"), "{body}");

    shutdown_and_join(handle);
}

#[test]
fn overload_rejections_are_visible_in_stats_and_metrics() {
    let handle = start(ServerConfig {
        admission: AdmissionConfig { max_inflight: 1, max_queue: 0 },
        allow_linger: true,
        ..Default::default()
    });
    let addr = handle.addr();
    let slow = std::thread::spawn(move || {
        let mut a = Client::connect(addr).unwrap();
        a.roundtrip(&lingering_frame(1200)).unwrap()
    });
    let mut b = connect(&handle);
    let t0 = Instant::now();
    while handle.admission().stats().inflight == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "A never got admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let resp = b.roundtrip(&lingering_frame(0)).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::OVERLOADED));

    let stats = b.stats().unwrap();
    let admission = stats.get("admission").unwrap();
    assert_eq!(admission.get("rejected_overloaded").and_then(Json::as_u64), Some(1));
    let resp = b.metrics(None).unwrap();
    let body = resp.get("body").and_then(Json::as_str).unwrap();
    assert!(body.contains("gts_serve_rejected_total{reason=\"overloaded\"} 1\n"), "{body}");

    assert!(ok(&slow.join().unwrap()));
    shutdown_and_join(handle);
}

// ──────────────────── observability: slow-request log ──────────────────

#[test]
fn slow_ms_zero_flags_every_frame_without_disturbing_responses() {
    // `slow_ms: 0` logs every frame to stderr (captured by the harness) —
    // the point here is that the logging path, which installs a trace
    // collector even when the client asked for none, changes nothing
    // about the protocol surface.
    let handle = start(ServerConfig { slow_ms: Some(0), ..Default::default() });
    let mut client = connect(&handle);
    let resp = client.analyze(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]).unwrap();
    assert!(ok(&resp), "{}", resp.pretty());
    assert!(resp.get("trace").is_none(), "trace only appears when requested");
    let resp = client.metrics(None).unwrap();
    let body = resp.get("body").and_then(Json::as_str).unwrap();
    assert!(body.contains("gts_serve_frames_total{verb=\"analyze\"} 1\n"), "{body}");
    shutdown_and_join(handle);
}

// ─────────── observability: one cell per counted event ─────────────────

/// The value of one rendered exposition series (`name{labels}` exactly
/// as the server prints it), `None` when the series is absent.
fn series(body: &str, name: &str) -> Option<i64> {
    body.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

/// Every `stats` counter next to the exposition series backing it, read
/// from one `stats` frame and the `metrics` frame right after it. The
/// metrics frame counts itself on arrival, so `frames_total` is offset
/// by one.
fn stats_vs_metrics(client: &mut Client) -> Vec<(&'static str, Option<i64>, Option<i64>)> {
    let stats = client.stats().unwrap();
    let body = client.metrics(None).unwrap().get("body").and_then(Json::as_str).unwrap().to_owned();
    let field = |section: &str, key: &str| {
        stats.get(section).and_then(|s| s.get(key)).and_then(Json::as_i64)
    };
    let pairs: [(&str, &str, &str); 15] = [
        ("server", "connections_open", "gts_serve_connections_open"),
        ("server", "connections_total", "gts_serve_connections_total"),
        ("server", "requests_total", "gts_serve_requests_total"),
        ("server", "deadline_skipped", "gts_serve_deadline_skipped_total"),
        ("server", "errors_total", "gts_serve_errors_total"),
        ("server", "flushes_total", "gts_serve_flushes_total"),
        ("server", "memo_served", "gts_serve_memo_served_total"),
        ("server", "panics", "gts_serve_panics_total"),
        ("server", "idle_closed", "gts_serve_idle_closed_total"),
        ("admission", "admitted", "gts_serve_admitted_total"),
        ("admission", "rejected_overloaded", "gts_serve_rejected_total{reason=\"overloaded\"}"),
        ("admission", "rejected_deadline", "gts_serve_rejected_total{reason=\"deadline\"}"),
        ("admission", "rejected_draining", "gts_serve_rejected_total{reason=\"draining\"}"),
        ("admission", "rejected_quota", "gts_serve_rejected_total{reason=\"quota\"}"),
        ("server", "frames_total", "gts_serve_frames_received_total"),
    ];
    pairs
        .iter()
        .map(|&(section, key, name)| {
            let offset = if key == "frames_total" { 1 } else { 0 };
            (key, field(section, key), series(&body, name).map(|v| v - offset))
        })
        .collect()
}

#[test]
fn every_stats_counter_equals_its_metrics_series() {
    let handle = start(ServerConfig {
        admission: AdmissionConfig { max_inflight: 1, max_queue: 0 },
        allow_linger: true,
        max_frame_bytes: 4096,
        idle_timeout: Some(Duration::from_millis(800)),
        flush_interval: Some(Duration::from_millis(50)),
        ..Default::default()
    });

    // An idle close: a peer that never sends a frame.
    let silent = std::net::TcpStream::connect(handle.addr()).unwrap();
    let t0 = Instant::now();
    while handle.idle_closed() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "the silent peer was never idled out");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(silent);

    let mut client = connect(&handle);
    // An error frame.
    let resp = client.roundtrip_raw(r#"{"v":2,"op":"frobnicate"}"#).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::UNKNOWN_OP));
    // A decode error: an oversized frame, on a connection of its own
    // (the server answers it and closes).
    let mut oversized = connect(&handle);
    let resp = oversized.roundtrip_raw(&"x".repeat(8192)).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::BAD_FRAME));
    // A memo hit: the second identical frame.
    for _ in 0..2 {
        let resp = client.analyze(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]).unwrap();
        assert!(ok(&resp), "{}", resp.pretty());
    }
    // A deadline skip: the frame's deadline passes while it lingers.
    let mut f = lingering_frame(200);
    f.set("deadline_ms", 20u64);
    assert!(ok(&client.roundtrip(&f).unwrap()));
    // An overload rejection: the only slot is held by another connection.
    let addr = handle.addr();
    let slow = std::thread::spawn(move || {
        let mut a = Client::connect(addr).unwrap();
        a.roundtrip(&lingering_frame(300)).unwrap()
    });
    let t0 = Instant::now();
    while handle.admission().stats().inflight == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "the slow frame was never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let resp = client.roundtrip(&lingering_frame(0)).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::OVERLOADED));
    assert!(ok(&slow.join().unwrap()));

    // Flush ticks keep landing in the background, so take the first
    // stats/metrics pair no tick (or late disconnect) fell between.
    let mut pairs = stats_vs_metrics(&mut client);
    for _ in 0..20 {
        if pairs.iter().all(|(_, stats, metrics)| stats == metrics) {
            break;
        }
        pairs = stats_vs_metrics(&mut client);
    }
    for (key, stats, metrics) in &pairs {
        assert!(stats.is_some(), "stats lacks `{key}`");
        assert_eq!(stats, metrics, "`{key}`: stats and metrics disagree ({pairs:?})");
    }
    let value = |key: &str| pairs.iter().find(|p| p.0 == key).and_then(|p| p.1).unwrap();
    assert!(value("idle_closed") >= 1);
    assert!(value("errors_total") >= 3, "unknown verb + oversized frame + overload");
    assert_eq!(value("memo_served"), 1);
    assert_eq!(value("deadline_skipped"), 1);
    assert_eq!(value("rejected_overloaded"), 1);
    assert!(value("flushes_total") >= 1);
    assert!(value("connections_total") >= 4);
    shutdown_and_join(handle);
}

/// The exposition series backing one integer of the `stats` document's
/// `registry` or `admission` section (`tenant` for the entries of the
/// tenant table), `name{labels}` exactly as the server prints it.
fn series_for(section: &str, key: &str, tenant: &str) -> String {
    match (section, key) {
        ("registry", "sessions") => "gts_serve_sessions".into(),
        ("registry", "approx_bytes") => "gts_serve_session_bytes".into(),
        ("registry", "oversized") => "gts_serve_pool_oversized".into(),
        ("registry", k) => format!("gts_serve_pool_{k}_total"),
        ("admission", "admitted") => "gts_serve_admitted_total".into(),
        ("admission", k) => match k.strip_prefix("rejected_") {
            Some(reason) => format!("gts_serve_rejected_total{{reason=\"{reason}\"}}"),
            None => format!("gts_serve_{k}"),
        },
        (_, k) => format!("gts_serve_tenant_{k}{{tenant=\"{tenant}\"}}"),
    }
}

#[test]
fn every_pool_and_admission_figure_in_stats_has_an_equal_metrics_series() {
    let handle = start(ServerConfig {
        admission: AdmissionConfig { max_inflight: 1, max_queue: 0 },
        allow_linger: true,
        ..Default::default()
    });
    let mut client = connect(&handle);
    // A pool miss, then a pool hit: the same frame again.
    for _ in 0..2 {
        let resp = client.analyze(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]).unwrap();
        assert!(ok(&resp), "{}", resp.pretty());
    }
    // An overload rejection: another tenant's frame holds the only slot.
    let addr = handle.addr();
    let slow = std::thread::spawn(move || {
        let mut f = lingering_frame(300);
        f.set("auth", "slow");
        Client::connect(addr).unwrap().roundtrip(&f).unwrap()
    });
    let t0 = Instant::now();
    while handle.admission().stats().inflight == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "the slow frame was never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let resp = client.roundtrip(&lingering_frame(0)).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::OVERLOADED));
    assert!(ok(&slow.join().unwrap()));

    let stats = client.stats().unwrap();
    let body = client.metrics(None).unwrap().get("body").and_then(Json::as_str).unwrap().to_owned();
    // (series, stats value, metrics value) for every integer figure;
    // `max_*` are configuration, and floats and strings are not figures.
    let mut pairs = Vec::new();
    let mut compare = |section: &str, key: &str, value: &Json, tenant: &str| {
        if let Json::Int(v) = value {
            let name = series_for(section, key, tenant);
            let scraped = series(&body, &name);
            pairs.push((format!("{section}.{key}"), name, *v, scraped));
        }
    };
    for section in ["registry", "admission"] {
        let Some(Json::Obj(fields)) = stats.get(section) else {
            panic!("stats lacks `{section}`: {}", stats.pretty())
        };
        for (key, value) in fields.iter().filter(|(k, _)| !k.starts_with("max_")) {
            let Json::Obj(tenants) = value else {
                compare(section, key, value, "");
                continue;
            };
            for (tenant, figures) in tenants {
                let Json::Obj(figures) = figures else { panic!("tenant `{tenant}`: {figures:?}") };
                for (k, v) in figures {
                    compare("tenant", k, v, tenant);
                }
            }
        }
    }
    for (key, name, stats, metrics) in &pairs {
        assert_eq!(Some(*stats), *metrics, "`{key}` vs `{name}`:\n{body}");
    }
    let value = |key: &str| pairs.iter().find(|p| p.0 == key).map(|p| p.2).unwrap();
    assert!(value("registry.hits") >= 1);
    assert_eq!(value("registry.misses"), 1);
    assert_eq!(value("admission.rejected_overloaded"), 1);
    assert_eq!(value("admission.peak_inflight"), 1);
    assert!(pairs.iter().any(|p| p.1 == "gts_serve_tenant_admitted{tenant=\"slow\"}"));
    shutdown_and_join(handle);
}

#[test]
fn churned_tenants_leave_the_exposition_with_the_admission_table() {
    let handle = start_default();
    let mut client = connect(&handle);
    // More distinct `auth` tokens than the admission table keeps, with a
    // scrape after every batch. `deadline_ms` keeps each frame off the
    // response memo, so every one goes through admission.
    for batch in 0..3 {
        for i in 0..120 {
            let mut f =
                proto::analyze_frame(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]);
            f.set("auth", format!("tenant-{batch}-{i}")).set("deadline_ms", 60_000u64);
            assert!(ok(&client.roundtrip(&f).unwrap()));
        }
        let resp = client.metrics(None).unwrap();
        let body = resp.get("body").and_then(Json::as_str).unwrap();
        let mut exported: Vec<&str> = body
            .lines()
            .filter_map(|l| l.strip_prefix("gts_serve_tenant_admitted{tenant=\""))
            .filter_map(|l| l.split_once('"').map(|(t, _)| t))
            .collect();
        exported.sort_unstable();
        let stats = client.stats().unwrap();
        let Some(Json::Obj(tenants)) = stats.get("admission").and_then(|a| a.get("tenants")) else {
            panic!("stats lacks the tenant table: {}", stats.pretty())
        };
        let listed: Vec<&str> = tenants.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(
            exported, listed,
            "batch {batch}: the exposition must list exactly stats' tenants"
        );
    }
    shutdown_and_join(handle);
}

#[test]
fn repeated_identical_frames_are_served_from_the_response_memo() {
    let handle = start_default();
    let mut client = connect(&handle);

    let specs = || vec![proto::spec_type_check("T0", "S1"), proto::spec_elicit("T0")];
    let first = client.analyze(MEDICAL, Some("S0"), specs()).unwrap();
    assert!(ok(&first), "{}", first.pretty());
    // The second identical frame is answered from the rendered-response
    // memo: byte-identical verdicts, `pool: hit`, and the memo counter
    // advances while request accounting still counts every spec.
    let second = client.analyze(MEDICAL, Some("S0"), specs()).unwrap();
    assert!(ok(&second), "{}", second.pretty());
    assert_eq!(second.get("pool").and_then(Json::as_str), Some("hit"));
    assert_eq!(second.get("fingerprint"), first.get("fingerprint"));
    for (a, b) in results(&first).iter().zip(results(&second)) {
        assert_eq!(a.get("holds"), b.get("holds"));
        assert_eq!(a.get("schema"), b.get("schema"));
    }
    let stats = client.stats().unwrap();
    let server = stats.get("server").unwrap();
    assert_eq!(server.get("memo_served").and_then(Json::as_u64), Some(1));
    assert_eq!(server.get("requests_total").and_then(Json::as_u64), Some(4));

    // Traced frames bypass the memo (their value is the fresh timings).
    let mut traced = proto::analyze_frame(MEDICAL, Some("S0"), specs());
    traced.set("trace", true);
    let resp = client.roundtrip(&traced).unwrap();
    assert!(ok(&resp));
    assert!(resp.get("trace").is_some(), "traced frames must re-run the pipeline");

    // Eviction invalidates the memo: the next identical frame rebuilds
    // from scratch (`pool: miss`) rather than replaying a stale epoch.
    assert!(ok(&client.evict(None).unwrap()));
    let third = client.analyze(MEDICAL, Some("S0"), specs()).unwrap();
    assert!(ok(&third), "{}", third.pretty());
    assert_eq!(third.get("pool").and_then(Json::as_str), Some("miss"));
    for (a, b) in results(&first).iter().zip(results(&third)) {
        assert_eq!(a.get("holds"), b.get("holds"), "verdict changed across eviction");
    }

    shutdown_and_join(handle);
}

// ---------------------------------------------------------------------
// Protocol v2: pipelining, version negotiation, tenants, idle timeouts.

#[test]
fn v2_frames_with_ids_complete_out_of_order() {
    let cfg = ServerConfig { allow_linger: true, ..ServerConfig::default() };
    let handle = start(cfg);
    let mut client = connect(&handle);

    // A slow analyze (lingering on its permit) followed by a fast ping,
    // both v2 with ids: the ping's response must overtake the analyze.
    let mut slow = proto::analyze_frame(TINY, Some("S"), vec![proto::spec_elicit("T")]);
    slow.set("id", "slow").set("linger_ms", 400u64);
    let mut fast = proto::frame("ping");
    fast.set("id", "fast");
    let line = format!("{}\n{}\n", slow.compact(), fast.compact());
    let first = client.roundtrip_raw(line.trim_end()).unwrap();
    assert_eq!(first.get("id").and_then(Json::as_str), Some("fast"), "{}", first.pretty());
    assert_eq!(first.get("op").and_then(Json::as_str), Some("ping"));
    let second = client.roundtrip_raw("").unwrap_or_else(|_| panic!("second response missing"));
    assert_eq!(second.get("id").and_then(Json::as_str), Some("slow"), "{}", second.pretty());
    assert!(ok(&second));
    shutdown_and_join(handle);
}

#[test]
fn v1_frames_keep_strict_arrival_order_even_with_ids() {
    let cfg = ServerConfig { allow_linger: true, ..ServerConfig::default() };
    let handle = start(cfg);
    let mut client = connect(&handle);

    // Same shape as the v2 test, but v:1 — the fast ping must wait
    // behind the lingering analyze (pre-pipelining semantics). The
    // frames are built from scratch: `Json::set` appends, so overriding
    // the builders' `v:2` would leave the old value in front.
    let mut slow = Json::obj();
    slow.set("v", 1i64)
        .set("op", "analyze")
        .set("id", "slow")
        .set("linger_ms", 300u64)
        .set("gts", TINY)
        .set("source", "S")
        .set("requests", Json::Arr(vec![proto::spec_elicit("T")]));
    let mut fast = Json::obj();
    fast.set("v", 1i64).set("op", "ping").set("id", "fast");
    let line = format!("{}\n{}\n", slow.compact(), fast.compact());
    let first = client.roundtrip_raw(line.trim_end()).unwrap();
    assert_eq!(first.get("id").and_then(Json::as_str), Some("slow"), "{}", first.pretty());
    let second = client.roundtrip_raw("").unwrap();
    assert_eq!(second.get("id").and_then(Json::as_str), Some("fast"));
    shutdown_and_join(handle);
}

#[test]
fn version_negotiation_spans_v1_through_v2() {
    let handle = start_default();
    let mut client = connect(&handle);
    // A v1 client is still first-class; the response advertises the
    // newest version the server speaks.
    let resp = client.roundtrip_raw(r#"{"v":1,"op":"ping"}"#).unwrap();
    assert!(ok(&resp));
    assert_eq!(resp.get("proto").and_then(Json::as_i64), Some(gts_serve::PROTO_VERSION));
    // v2 likewise.
    let resp = client.roundtrip_raw(r#"{"v":2,"op":"ping"}"#).unwrap();
    assert!(ok(&resp));
    // The future stays rejected.
    let resp = client.roundtrip_raw(r#"{"v":3,"op":"ping"}"#).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::UNSUPPORTED_VERSION));
    shutdown_and_join(handle);
}

#[test]
fn client_pipeline_reassembles_submission_order() {
    let handle = start_default();
    let mut client = connect(&handle);
    let frames = vec![
        proto::frame("ping"),
        proto::analyze_frame(TINY, Some("S"), vec![proto::spec_elicit("T")]),
        proto::frame("stats"),
        proto::analyze_frame(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]),
    ];
    let responses = client.pipeline(&frames).unwrap();
    assert_eq!(responses.len(), 4);
    let ops: Vec<_> =
        responses.iter().map(|r| r.get("op").and_then(Json::as_str).unwrap()).collect();
    assert_eq!(ops, ["ping", "analyze", "stats", "analyze"]);
    assert!(responses.iter().all(ok));
    // Pipelined analyzes run concurrently, so pool hit/miss is racy —
    // but both name the same fingerprint (one resident schema).
    assert_eq!(
        responses[1].get("fingerprint").and_then(Json::as_str),
        responses[3].get("fingerprint").and_then(Json::as_str)
    );
    shutdown_and_join(handle);
}

#[test]
fn tenant_quotas_stop_a_greedy_tenant_from_starving_others() {
    let cfg = ServerConfig {
        admission: AdmissionConfig { max_inflight: 4, max_queue: 0 },
        allow_linger: true,
        ..ServerConfig::default()
    };
    let handle = start(cfg);

    // Greedy pipelines two lingering analyzes (fine while alone: quota
    // is the whole server) without waiting for the responses.
    use std::io::Write;
    let mut greedy = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut batch = String::new();
    for i in 0..2 {
        let mut f = proto::analyze_frame(TINY, Some("S"), vec![proto::spec_elicit("T")]);
        f.set("id", format!("g{i}")).set("auth", "greedy").set("linger_ms", 700u64);
        batch.push_str(&f.compact());
        batch.push('\n');
    }
    greedy.write_all(batch.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // A patient tenant shows up: two active tenants → quota 2 each.
    let patient = std::thread::spawn({
        let addr = handle.addr();
        move || {
            let mut c = Client::connect(addr).unwrap();
            let mut f = proto::analyze_frame(TINY, Some("S"), vec![proto::spec_elicit("T")]);
            f.set("auth", "patient").set("linger_ms", 300u64);
            c.roundtrip(&f).unwrap()
        }
    });
    std::thread::sleep(Duration::from_millis(150));

    // Greedy's third concurrent analyze busts its fair share while a
    // global slot is still free: the rejection names the quota.
    let mut third = connect(&handle);
    let mut f = proto::analyze_frame(TINY, Some("S"), vec![proto::spec_elicit("T")]);
    f.set("auth", "greedy");
    let resp = third.roundtrip(&f).unwrap();
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some(proto::QUOTA_EXCEEDED),
        "{}",
        resp.pretty()
    );

    // The patient tenant's work went through.
    assert!(ok(&patient.join().unwrap()));

    // Per-tenant accounting is visible in stats.
    let stats = third.stats().unwrap();
    let tenants = stats.get("admission").and_then(|a| a.get("tenants")).unwrap();
    let greedy_stats = tenants.get("greedy").unwrap();
    assert_eq!(greedy_stats.get("rejected_quota").and_then(Json::as_u64), Some(1));
    assert_eq!(tenants.get("patient").unwrap().get("admitted").and_then(Json::as_u64), Some(1));
    assert_eq!(
        stats.get("admission").and_then(|a| a.get("rejected_quota")).and_then(Json::as_u64),
        Some(1)
    );
    drop(greedy);
    shutdown_and_join(handle);
}

#[test]
fn idle_connections_are_closed_and_a_slowloris_drip_counts_as_idle() {
    use std::io::{Read, Write};
    let cfg =
        ServerConfig { idle_timeout: Some(Duration::from_millis(200)), ..ServerConfig::default() };
    let handle = start(cfg);

    // A byte-at-a-time drip never completes a frame; the idle clock
    // ignores it and the server cuts the connection at the timeout.
    let mut drip = std::net::TcpStream::connect(handle.addr()).unwrap();
    let start_t = Instant::now();
    let mut closed = false;
    while start_t.elapsed() < Duration::from_secs(3) {
        if drip.write_all(b"{").and_then(|()| drip.flush()).is_err() {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    if !closed {
        drip.shutdown(std::net::Shutdown::Write).ok();
        let mut buf = Vec::new();
        let _ = drip.read_to_end(&mut buf); // whatever remains, the peer is done
        closed = true;
    }
    assert!(closed);
    let deadline = Instant::now() + Duration::from_secs(2);
    while handle.idle_closed() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.idle_closed(), 1, "the drip must be closed *as idle*");

    // An active client survives (completing frames resets the clock),
    // and the counter shows up in stats and metrics.
    let mut client = connect(&handle);
    for _ in 0..8 {
        assert!(ok(&client.ping().unwrap()));
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("server").and_then(|s| s.get("idle_closed")).and_then(Json::as_u64),
        Some(1)
    );
    let metrics = client.metrics(None).unwrap();
    let body = metrics.get("body").and_then(Json::as_str).unwrap();
    assert!(body.contains("gts_serve_idle_closed_total 1\n"), "{body}");
    shutdown_and_join(handle);
}

// ──────────────── load: the resident server under traffic ──────────────

/// The four request kinds of the mixed medical workload.
fn medical_spec(kind: usize) -> Json {
    match kind % 4 {
        0 => proto::spec_type_check("T0", "S1"),
        1 => proto::spec_equivalence("T0", "T0"),
        2 => proto::spec_elicit("T0"),
        _ => proto::spec_execute("T0", MEDICAL_INSTANCE, Some("S1")),
    }
}

fn medical_frame(kind: usize) -> Json {
    proto::analyze_frame(MEDICAL, Some("S0"), vec![medical_spec(kind)])
}

/// `conns` concurrent clients, `requests` analyze frames each, kinds
/// staggered so every kind is in flight at once. Returns each frame's
/// latency in µs; panics on any frame that is not `ok`.
fn closed_loop(addr: std::net::SocketAddr, conns: usize, requests: usize) -> Vec<u64> {
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                (0..requests)
                    .map(|i| {
                        let t = Instant::now();
                        let resp =
                            client.analyze(MEDICAL, Some("S0"), vec![medical_spec(c + i)]).unwrap();
                        assert!(ok(&resp), "{}", resp.pretty());
                        t.elapsed().as_micros() as u64
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
}

/// Ships `n` analyze frames over one connection at seeded Poisson
/// arrival times (`rate` per second), whether or not earlier responses
/// are back, and checks that every frame is answered `ok` exactly once.
fn open_loop(addr: std::net::SocketAddr, rate: f64, n: usize, seed: u64) {
    use rand::{Rng, SeedableRng};
    use std::io::{BufRead, Write};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let offsets: Vec<Duration> = (0..n)
        .map(|_| {
            t += -rng.gen::<f64>().max(1e-12).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect();
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let base = Instant::now();
    let sender = std::thread::spawn(move || {
        for (i, at) in offsets.into_iter().enumerate() {
            std::thread::sleep(at.saturating_sub(base.elapsed()));
            let mut frame = medical_frame(i);
            frame.set("id", format!("o{i}"));
            writer.write_all(format!("{}\n", frame.compact()).as_bytes()).unwrap();
        }
    });
    let mut seen = vec![false; n];
    let mut line = String::new();
    for _ in 0..n {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server closed mid open-loop run");
        let resp = Json::parse(line.trim()).unwrap();
        assert!(ok(&resp), "{}", resp.pretty());
        let id = resp.get("id").and_then(Json::as_str).and_then(|s| s[1..].parse::<usize>().ok());
        let i = id.expect("responses echo the frame id");
        assert!(!std::mem::replace(&mut seen[i], true), "frame {i} answered twice");
    }
    sender.join().unwrap();
}

/// Closed-loop, pipelined and open-loop traffic against one resident
/// server: every frame answers `ok`, and the server's analyze counter
/// matches the number of analyze frames sent.
#[test]
fn resident_traffic_answers_every_frame_ok() {
    let (conns, depth) = (8, 4);
    let handle = start(ServerConfig {
        admission: AdmissionConfig { max_inflight: conns, max_queue: 128 },
        ..Default::default()
    });
    let addr = handle.addr();
    let mut sent = 0u64;

    // Warm-up (one frame per kind), then the closed loop.
    let mut client = connect(&handle);
    for kind in 0..4 {
        assert!(ok(&client.analyze(MEDICAL, Some("S0"), vec![medical_spec(kind)]).unwrap()));
    }
    sent += 4 + closed_loop(addr, conns, 6).len() as u64;

    // Pipelined: `depth` analyze frames resident per connection, two
    // rounds, plus a ping burst.
    let pipelined: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let frames: Vec<Json> = (0..depth).map(|i| medical_frame(c + i)).collect();
                for _ in 0..2 {
                    let resps = client.pipeline(&frames).unwrap();
                    assert_eq!(resps.len(), depth);
                    assert!(resps.iter().all(ok), "{resps:?}");
                }
                let pings = vec![proto::frame("ping"); 64];
                assert!(client.pipeline(&pings).unwrap().iter().all(ok));
            })
        })
        .collect();
    pipelined.into_iter().for_each(|h| h.join().unwrap());
    sent += (conns * depth * 2) as u64;

    open_loop(addr, 400.0, 200, 0x0DD_B1A5);
    sent += 200;

    let body = client.metrics(None).unwrap().get("body").and_then(Json::as_str).unwrap().to_owned();
    let analyze = series(&body, "gts_serve_frames_total{verb=\"analyze\"}");
    assert_eq!(analyze, Some(sent as i64), "server-side analyze count vs frames sent");
    shutdown_and_join(handle);
}

/// 64 connections held open at once: each answers a ping while the
/// others stay resident, and the server's gauge sees all of them.
#[test]
fn connection_sweep_keeps_64_connections_resident() {
    let handle = start_default();
    let mut clients: Vec<Client> = (0..64).map(|_| connect(&handle)).collect();
    for c in &mut clients {
        assert!(ok(&c.ping().unwrap()));
    }
    for c in &mut clients {
        assert!(ok(&c.ping().unwrap()));
    }
    let stats = clients[0].stats().unwrap();
    let open = stats.get("server").and_then(|s| s.get("connections_open")).and_then(Json::as_u64);
    assert!(open >= Some(64), "connections_open {open:?} with 64 clients resident");
    drop(clients);
    shutdown_and_join(handle);
}

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// A resident frame (warm session, verdict memo filled) is at least 5×
/// faster than a cold one-shot: parsing the text and answering from a
/// fresh session, which is what every `gts` invocation repeats.
#[test]
fn resident_frames_are_five_times_faster_than_a_cold_one_shot() {
    use gts_engine::{AnalysisSession, Request};
    let cold: Vec<u64> = (0..4)
        .map(|kind| {
            let t = Instant::now();
            let file = gts_cli::GtsFile::parse(MEDICAL).unwrap();
            let s1 = file.schema("S1").unwrap().clone();
            let t0 = file.transform("T0").unwrap().clone();
            let mut session =
                AnalysisSession::new(file.schema("S0").unwrap().clone(), file.vocab.clone());
            let request = match kind {
                0 => Request::TypeCheck { transform: t0, target: s1 },
                1 => Request::Equivalence { left: t0.clone(), right: t0 },
                2 => Request::Elicit { transform: t0 },
                _ => {
                    let mut vocab = file.vocab.clone();
                    let inst = gts_cli::parse_instance(MEDICAL_INSTANCE, &mut vocab).unwrap();
                    Request::Execute { transform: t0, instance: inst.graph, check_target: Some(s1) }
                }
            };
            request.run(&mut session).unwrap();
            t.elapsed().as_micros() as u64
        })
        .collect();

    let handle = start(ServerConfig {
        admission: AdmissionConfig { max_inflight: 4, max_queue: 64 },
        ..Default::default()
    });
    let mut client = connect(&handle);
    for kind in 0..4 {
        assert!(ok(&client.analyze(MEDICAL, Some("S0"), vec![medical_spec(kind)]).unwrap()));
    }
    let resident = closed_loop(handle.addr(), 4, 8);
    let (cold, resident) = (median(cold), median(resident));
    assert!(
        cold >= 5 * resident,
        "resident median {resident}us is not 5x faster than the cold median {cold}us"
    );
    shutdown_and_join(handle);
}

/// A regex nesting 20,000 groups is refused as a compile error, not a
/// stack overflow, and the connection keeps serving.
#[test]
fn deeply_nested_regexes_get_a_compile_error_and_the_server_survives() {
    let handle = start_default();
    let mut client = connect(&handle);
    let depth = 20_000;
    let text = format!(
        "{MEDICAL}\nquery Deep(x, y) {{ ({}designTarget{})(x, y) }}\n",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let resp = client.analyze(&text, Some("S0"), vec![proto::spec_elicit("T0")]).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::COMPILE_ERROR), "{resp:?}");
    assert!(ok(&client.ping().unwrap()));
    shutdown_and_join(handle);
}

/// The `.gts` frontend with a `compile` that counts its calls and panics
/// on any text containing `panic-marker`.
fn instrumented_frontend() -> (Frontend, Arc<AtomicUsize>) {
    let mut frontend = gts_cli::frontend();
    let compile = Arc::clone(&frontend.compile);
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    frontend.compile = Arc::new(move |src| {
        counted.fetch_add(1, Ordering::SeqCst);
        assert!(!src.contains("panic-marker"), "compile hit the panic marker");
        compile(src)
    });
    (frontend, calls)
}

fn memo_served(client: &mut Client) -> u64 {
    let stats = client.stats().unwrap();
    stats.get("server").and_then(|s| s.get("memo_served")).and_then(Json::as_u64).unwrap()
}

/// One compile serves every frame shipping the same text: new requests
/// over a seen file, and frames recomputed after their session was
/// evicted (the only entry of the file, then one of two).
#[test]
fn the_memo_compiles_each_file_once_across_requests_and_evictions() {
    let (frontend, compiles) = instrumented_frontend();
    let handle = Server::start(ServerConfig::default(), frontend).expect("bind loopback");
    let mut client = connect(&handle);
    let check = || vec![proto::spec_type_check("T0", "S1")];
    let elicit = || vec![proto::spec_elicit("T0")];
    let pool = |r: &Json| r.get("pool").and_then(Json::as_str).map(str::to_owned);

    let first = client.analyze(MEDICAL, Some("S0"), check()).unwrap();
    assert_eq!(pool(&first).as_deref(), Some("miss"), "{}", first.pretty());
    assert!(ok(&client.evict(None).unwrap()));
    let again = client.analyze(MEDICAL, Some("S0"), check()).unwrap();
    assert_eq!(pool(&again).as_deref(), Some("miss"), "a stale response was served");
    assert_eq!(results(&again)[0].get("holds"), results(&first)[0].get("holds"));
    assert_eq!(memo_served(&mut client), 0);

    let other = client.analyze(MEDICAL, Some("S0"), elicit()).unwrap();
    assert!(ok(&other), "{}", other.pretty());
    assert!(ok(&client.evict(None).unwrap()));
    let rebuilt = client.analyze(MEDICAL, Some("S0"), elicit()).unwrap();
    assert_eq!(pool(&rebuilt).as_deref(), Some("miss"));
    assert_eq!(results(&rebuilt)[0].get("schema"), results(&other)[0].get("schema"));
    let served = client.analyze(MEDICAL, Some("S0"), elicit()).unwrap();
    assert_eq!(pool(&served).as_deref(), Some("hit"));
    assert_eq!(memo_served(&mut client), 1);
    assert_eq!(compiles.load(Ordering::SeqCst), 1, "a seen text was compiled again");
    shutdown_and_join(handle);
}

/// The memo holds the 128 most recently used responses: after 129
/// distinct frames the first is recomputed and the last is served.
#[test]
fn the_memo_keeps_the_128_most_recent_responses() {
    let (frontend, compiles) = instrumented_frontend();
    let handle = Server::start(ServerConfig::default(), frontend).expect("bind loopback");
    let mut client = connect(&handle);
    let frame = |i: usize| {
        let mut spec = proto::spec_type_check("T", "S");
        spec.set("label", format!("q{i}"));
        proto::analyze_frame(TINY, Some("S"), vec![spec])
    };
    for i in 0..129 {
        assert!(ok(&client.roundtrip(&frame(i)).unwrap()));
    }
    assert_eq!(memo_served(&mut client), 0);
    assert!(ok(&client.roundtrip(&frame(128)).unwrap()));
    assert_eq!(memo_served(&mut client), 1, "the most recent frame was recomputed");
    assert!(ok(&client.roundtrip(&frame(0)).unwrap()));
    assert_eq!(memo_served(&mut client), 1, "the least recent frame outlived the capacity");
    assert_eq!(compiles.load(Ordering::SeqCst), 1);
    shutdown_and_join(handle);
}

/// A frame whose handling panics is answered with `internal_error` and
/// counted; the worker survives, and the same connection keeps serving.
#[test]
fn a_panicking_frame_gets_internal_error_and_the_connection_keeps_serving() {
    let (frontend, _) = instrumented_frontend();
    let handle = Server::start(ServerConfig::default(), frontend).expect("bind loopback");
    let mut client = connect(&handle);
    let mut boom = proto::analyze_frame("panic-marker", None, vec![proto::spec_elicit("T")]);
    boom.set("id", "boom");
    let resp = client.roundtrip(&boom).unwrap();
    assert_eq!(resp.get("error").and_then(Json::as_str), Some(proto::INTERNAL_ERROR), "{resp:?}");
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("boom"));
    assert!(ok(&client.ping().unwrap()));
    let normal = client.analyze(TINY, Some("S"), vec![proto::spec_elicit("T")]).unwrap();
    assert!(ok(&normal), "{}", normal.pretty());
    let stats = client.stats().unwrap();
    let server = stats.get("server").unwrap();
    assert_eq!(server.get("panics").and_then(Json::as_u64), Some(1));
    assert_eq!(server.get("errors_total").and_then(Json::as_u64), Some(1));
    shutdown_and_join(handle);
}
