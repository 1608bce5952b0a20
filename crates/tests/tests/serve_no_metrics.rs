//! `gts serve --no-metrics`, in process: the enable flag gates latency
//! histograms only, so the `stats` counters keep counting. This suite is
//! a test binary of its own because the flag is process-wide and would
//! void the histogram assertions of the suites that share a process.

use gts_engine::Json;
use gts_serve::{proto, Client, Server, ServerConfig};

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

#[test]
fn stats_count_requests_with_metrics_disabled() {
    gts_obs::set_enabled(false);
    let handle =
        Server::start(ServerConfig::default(), gts_cli::frontend()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect loopback");
    let resp = client.analyze(TINY, Some("S"), vec![proto::spec_type_check("T", "S")]).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.pretty());

    let stats = client.stats().unwrap();
    let server = stats.get("server").unwrap();
    assert_eq!(server.get("requests_total").and_then(Json::as_u64), Some(1));
    assert_eq!(server.get("frames_total").and_then(Json::as_u64), Some(2));

    // The counters render; the latency histogram stayed empty.
    let resp = client.metrics(None).unwrap();
    let body = resp.get("body").and_then(Json::as_str).unwrap();
    assert!(body.contains("gts_serve_requests_total 1\n"), "{body}");
    assert!(body.contains("gts_serve_frames_total{verb=\"analyze\"} 1\n"), "{body}");
    assert!(body.contains("gts_serve_frame_micros_count{verb=\"analyze\"} 0\n"), "{body}");

    assert_eq!(client.shutdown().unwrap().get("ok").and_then(Json::as_bool), Some(true));
    handle.join();
}
