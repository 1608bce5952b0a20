//! A seeded hostile-traffic soak against a private in-process
//! `gts-serve` server with a deliberately small frame bound. For three
//! seconds it interleaves six actions: pipelined corpus bursts,
//! mid-frame disconnects, malformed JSON, decode-fatal frames (invalid
//! UTF-8 or oversized), evict storms, and v1/blank-line frames. Then it
//! checks three invariants:
//!
//! * the server still answers;
//! * every connection the soak opened is gone (`connections_open`
//!   settles to 1, the checker itself);
//! * the per-verb frame counters, plus the two frames the scrape cannot
//!   include, tile `frames_total` exactly.

use gts_engine::Json;
use gts_serve::{proto, AdmissionConfig, Client, Server, ServerConfig};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

const SEED: u64 = 0x0DD_B1A5;
const SOAK: Duration = Duration::from_secs(3);
const FRAME_BOUND: usize = 256 << 10;

fn ok(frame: &Json) -> Option<bool> {
    frame.get("ok").and_then(Json::as_bool)
}

/// The benign traffic the hostile actions interleave with: the four
/// medical request kinds, plus one type-check frame for each of the
/// first three corpus families.
fn corpus_frames() -> Vec<Json> {
    use gts_corpus::{medical_fixture, medical_instance, scenario, Family, Params};
    let (vocab, s0, s1, t0) = medical_fixture();
    let file = gts_cli::GtsFile {
        schemas: vec![("S0".into(), s0), ("S1".into(), s1)],
        transforms: vec![("T0".into(), t0)],
        vocab: vocab.clone(),
        ..Default::default()
    };
    let gts = gts_cli::render_file(&file);
    let instance = gts_cli::raw_instance(&medical_instance(&vocab, 4, 6), &vocab);
    let specs = [
        proto::spec_type_check("T0", "S1"),
        proto::spec_equivalence("T0", "T0"),
        proto::spec_elicit("T0"),
        proto::spec_execute("T0", &instance, Some("S1")),
    ];
    let mut frames: Vec<Json> =
        specs.into_iter().map(|s| proto::analyze_frame(&gts, Some("S0"), vec![s])).collect();
    for &family in &Family::ALL[..3] {
        let sc = scenario(family, &Params::quick());
        let text = gts_cli::render_file(&gts_cli::scenario_file(&sc));
        frames.push(proto::analyze_frame(
            &text,
            Some(&sc.primary.source),
            vec![proto::spec_type_check(&sc.primary.transform, &sc.primary.target)],
        ));
    }
    frames
}

#[test]
fn hostile_traffic_leaves_no_leaks_and_tiling_counters() {
    let handle = Server::start(
        ServerConfig {
            admission: AdmissionConfig { max_inflight: 4, max_queue: 64 },
            max_frame_bytes: FRAME_BOUND,
            idle_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        },
        gts_cli::frontend(),
    )
    .expect("start chaos server");
    let addr = handle.addr();
    let corpus = corpus_frames();
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let start = Instant::now();
    while start.elapsed() < SOAK {
        match rng.gen_range(0u32..100) {
            // Pipelined corpus burst: 2..=6 frames shipped at once,
            // answered out of order; every frame must come back.
            0..=29 => {
                let mut c = Client::connect(addr).unwrap();
                let k = rng.gen_range(2usize..=6);
                let frames: Vec<Json> =
                    (0..k).map(|_| corpus.choose(&mut rng).unwrap().clone()).collect();
                let resps = c.pipeline(&frames).expect("pipelined burst");
                assert_eq!(resps.len(), k, "a pipelined frame went unanswered");
                for r in &resps {
                    assert!(r.get("op").is_some(), "{}", r.pretty());
                }
            }
            // Mid-frame disconnect: ship a random prefix, hang up.
            30..=49 => {
                let text = corpus.choose(&mut rng).unwrap().compact();
                let cut = rng.gen_range(1..text.len());
                let mut s = std::net::TcpStream::connect(addr).unwrap();
                let _ = s.write_all(&text.as_bytes()[..cut]);
            }
            // Malformed JSON: an error frame comes back and the
            // connection survives for a follow-up ping.
            50..=62 => {
                let mut c = Client::connect(addr).unwrap();
                assert_eq!(ok(&c.roundtrip_raw("{not json").unwrap()), Some(false));
                assert_eq!(ok(&c.ping().expect("ping after a malformed frame")), Some(true));
            }
            // Invalid UTF-8 and oversized frames: an error frame, then
            // the server hangs up (decode errors are unrecoverable). The
            // oversized write may die with EPIPE first, which is fine.
            63..=74 => {
                let mut s = std::net::TcpStream::connect(addr).unwrap();
                if rng.gen_bool(0.5) {
                    let _ = s.write_all(b"\"\xff\xfe\"\n");
                } else {
                    let _ = s.write_all(&vec![b'a'; FRAME_BOUND + 1024]);
                }
                let mut line = String::new();
                let _ = std::io::BufReader::new(&s).read_line(&mut line);
                if !line.is_empty() {
                    assert!(line.contains("\"ok\": false"), "unexpected reply: {line:?}");
                }
            }
            // Evict storm while analyzes may be in flight elsewhere.
            75..=84 => {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..3 {
                    assert_eq!(ok(&c.evict(None).unwrap()), Some(true));
                }
            }
            // Blank lines (ignored, uncounted) and v1 frames (strict
            // ordering, no `id`) interleaved with the v2 traffic.
            _ => {
                let mut c = Client::connect(addr).unwrap();
                let pong = c.roundtrip_raw("\n\n{\"v\":1,\"op\":\"ping\"}").expect("v1 ping");
                assert_eq!(ok(&pong), Some(true));
                assert_eq!(ok(&c.stats().unwrap()), Some(true));
            }
        }
    }

    // The server is still responsive.
    let mut checker = Client::connect(addr).unwrap();
    assert_eq!(ok(&checker.ping().expect("responsive after the soak")), Some(true));

    // No leaks: every soak connection is torn down and the gauge
    // settles to 1 (the checker itself).
    let settle = Instant::now();
    loop {
        let stats = checker.stats().unwrap();
        let open =
            stats.get("server").and_then(|s| s.get("connections_open")).and_then(Json::as_u64);
        if open == Some(1) {
            break;
        }
        assert!(
            settle.elapsed() < Duration::from_secs(5),
            "connection leak: {open:?} connections still open after the soak"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Frame accounting tiles: on the idle server, the per-verb counters
    // of a metrics scrape plus the metrics and stats frames themselves
    // (which the scraped body cannot include) equal `frames_total`.
    // Decode-fatal garbage lands in `errors_total`, never in the frame
    // counters.
    let m = checker.metrics(Some("json")).unwrap();
    let body = Json::parse(m.get("body").and_then(Json::as_str).unwrap()).unwrap();
    let per_verb_sum: u64 = body
        .get("metrics")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("gts_serve_frames_total"))
        .map(|e| e.get("value").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    let stats = checker.stats().unwrap();
    let frames_total =
        stats.get("server").and_then(|s| s.get("frames_total")).and_then(Json::as_u64);
    assert_eq!(frames_total, Some(per_verb_sum + 2), "frame accounting does not tile");

    assert_eq!(ok(&checker.shutdown().unwrap()), Some(true));
    handle.join();
}
