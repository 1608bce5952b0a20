//! Concurrent cold analyses against one in-process `gts serve` stay
//! inside one thread budget: the server's reactor and pool workers, plus
//! the `cores − 1` extra threads of `gts_obs::par`'s process-wide budget,
//! however many analyses fan out their completion sweeps at once. This
//! suite is a test binary of its own so that no other test's threads
//! are counted. It reads `/proc/self/status`, so it runs on Linux only.

#![cfg(target_os = "linux")]

use gts_corpus::{scenario, Expectation, Family, Params};
use gts_engine::Json;
use gts_serve::{proto, AdmissionConfig, Client, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

/// Cold analyses held in flight at once, one corpus family each.
const FAMILIES: [Family; 4] = [Family::Medical, Family::Fhir, Family::Retail, Family::Stress];

/// This process's thread count, from `/proc/self/status`.
fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("a Threads: line");
    line["Threads:".len()..].trim().parse().expect("a thread count")
}

/// One `analyze` frame per family: every expected question over the
/// family's primary source schema, in a file no other frame shares, so
/// each frame checks out a session of its own and decides cold.
fn cold_frames() -> Vec<(String, String, Vec<Json>)> {
    FAMILIES
        .iter()
        .map(|&family| {
            let sc = scenario(family, &Params::default());
            let gts = gts_cli::render_file(&gts_cli::scenario_file(&sc));
            let source = sc.primary.source.clone();
            let specs = sc
                .expectations
                .iter()
                .filter_map(|exp| match exp {
                    Expectation::TypeCheck { transform, source: s, target, .. } if *s == source => {
                        Some(proto::spec_type_check(transform, target))
                    }
                    Expectation::Equivalence { left, right, source: s, .. } if *s == source => {
                        Some(proto::spec_equivalence(left, right))
                    }
                    _ => None,
                })
                .collect();
            (gts, source, specs)
        })
        .collect()
}

#[test]
fn concurrent_cold_analyses_stay_within_the_thread_budget() {
    let k = FAMILIES.len();
    let frames = cold_frames();
    // Every frame has an admission slot and a pool worker of its own.
    let pool_workers = k + 1;
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        admission: AdmissionConfig { max_inflight: k, max_queue: k },
        workers: Some(pool_workers),
        ..ServerConfig::default()
    };

    // The sampler and the clients exist before the baseline is read; the
    // server's threads come after it.
    let start = Arc::new(Barrier::new(k + 2));
    let addr = Arc::new(OnceLock::new());
    let (stop, peak) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicUsize::new(0)));
    let sampler = {
        let (start, stop, peak) = (Arc::clone(&start), Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            start.wait();
            while !stop.load(Ordering::SeqCst) {
                peak.fetch_max(threads_now(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    let clients: Vec<_> = frames
        .into_iter()
        .map(|(gts, source, specs)| {
            let (start, addr) = (Arc::clone(&start), Arc::clone(&addr));
            std::thread::spawn(move || {
                start.wait();
                let mut client = Client::connect(*addr.get().unwrap()).expect("connect loopback");
                client.analyze(&gts, Some(&source), specs).expect("analyze roundtrip")
            })
        })
        .collect();
    let baseline = threads_now();

    let handle = Server::start(cfg, gts_cli::frontend()).expect("bind loopback");
    addr.set(handle.addr()).unwrap();
    start.wait();
    for client in clients {
        let resp = client.join().expect("client thread");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.pretty());
    }
    stop.store(true, Ordering::SeqCst);
    sampler.join().unwrap();
    let mut control = Client::connect(handle.addr()).expect("connect loopback");
    assert_eq!(control.shutdown().unwrap().get("ok").and_then(Json::as_bool), Some(true));
    handle.join();

    let permits = gts_obs::par::cores() - 1;
    let server_threads = 1 + pool_workers; // the reactor and its pool
    let peak = peak.load(Ordering::SeqCst);
    assert!(
        peak >= baseline + server_threads,
        "the sampler saw {peak} threads, fewer than the {baseline} + {server_threads} started"
    );
    assert!(
        peak <= baseline + server_threads + permits,
        "{peak} threads at the peak: more than {baseline} (baseline) + {server_threads} (reactor \
         and pool workers) + {permits} (fan-out permits)"
    );
}
