//! Load generator for the resident analysis server (`gts-serve`):
//! replays a mixed typecheck/equivalence/elicit/execute workload over N
//! concurrent connections and writes `BENCH_server.json` — throughput,
//! p50/p95/p99 latency, cold-one-shot vs resident speedup, the
//! session-pool hit rate, and a per-family corpus sweep (cold pool-miss
//! vs resident pool-hit latency for every scenario family's headline
//! workload; `--family NAME` restricts the sweep).
//!
//! ```sh
//! cargo run --release -p gts-bench --bin loadgen                  # in-process server
//! cargo run --release -p gts-bench --bin loadgen -- --quick       # CI smoke mode
//! cargo run --release -p gts-bench --bin loadgen -- --addr HOST:PORT   # external server
//! cargo run --release -p gts-bench --bin loadgen -- --spawn target/release/gts
//! #   spawns `gts serve` on an ephemeral port, drives it, sends the
//! #   shutdown verb, and asserts a clean drain (exit 0, "server drained")
//! cargo run --release -p gts-bench --bin loadgen -- --chaos [--quick]
//! #   soak mode: seeded hostile traffic (mid-frame disconnects,
//! #   malformed/oversized frames, pipelined bursts, evict storms,
//! #   corpus-family analyzes) with invariant checks instead of a report
//! ```
//!
//! Beyond the closed-loop drive, the report carries a `pipelining`
//! section (protocol-v2 batched submission at `--depth`), an
//! `open_loop` section (Poisson arrivals at stepped request rates —
//! latency under load, not latency under lockstep), and a
//! `connection_sweep` section (`--connections`, default 1000, resident
//! at once).
//!
//! The cold baseline re-parses the `.gts` text and builds a fresh
//! session (fresh oracle cache) per request — exactly the work a
//! one-shot `gts` invocation repeats every time, *minus* process spawn
//! and schema-file I/O, so the reported resident speedup is a floor.

use gts_bench::{medical, medical_instance};
use gts_core::containment::ContainmentOptions;
use gts_corpus::{scenario, Family, Params};
use gts_engine::{AnalysisSession, Json, Request};
use gts_serve::{proto, AdmissionConfig, Client, Server, ServerConfig};
use std::io::BufRead;
use std::time::Instant;

/// The four request kinds of the mixed workload, round-robined across
/// each connection's stream.
const KINDS: [&str; 4] = ["type_check", "equivalence", "elicit", "execute"];

struct Workload {
    gts: String,
    instance: String,
}

/// Renders the medical fixture (Figure 1 / Example 4.1) as wire text.
fn workload() -> Workload {
    let m = medical();
    let file = gts_cli::GtsFile {
        schemas: vec![("S0".into(), m.s0.clone()), ("S1".into(), m.s1.clone())],
        transforms: vec![("T0".into(), m.t0.clone())],
        vocab: m.vocab.clone(),
        ..Default::default()
    };
    let gts = gts_cli::render_file(&file);
    let instance = gts_cli::raw_instance(&medical_instance(&m, 4, 6), &m.vocab);
    Workload { gts, instance }
}

fn spec_for(kind: &str, w: &Workload) -> Json {
    match kind {
        "type_check" => proto::spec_type_check("T0", "S1"),
        "equivalence" => proto::spec_equivalence("T0", "T0"),
        "elicit" => proto::spec_elicit("T0"),
        "execute" => proto::spec_execute("T0", &w.instance, Some("S1")),
        other => unreachable!("unknown kind {other}"),
    }
}

/// One measured request: kind index, latency, success.
struct Sample {
    kind: usize,
    micros: u64,
    ok: bool,
    first_on_connection: bool,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let (mut sum, mut n) = (0u128, 0u64);
    for v in values {
        sum += v as u128;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// The cold one-shot baseline: for each kind, the latency of parsing
/// the text and answering through a fresh session + fresh oracle cache.
fn cold_oneshot(w: &Workload, reps: usize) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    for (ki, kind) in KINDS.iter().enumerate() {
        let mut best = u64::MAX;
        for _ in 0..reps {
            let start = Instant::now();
            let file = gts_cli::GtsFile::parse(&w.gts).expect("workload parses");
            let s0 = file.schema("S0").unwrap().clone();
            let s1 = file.schema("S1").unwrap().clone();
            let t0 = file.transform("T0").unwrap().clone();
            let mut session = AnalysisSession::with_options(
                s0,
                file.vocab.clone(),
                ContainmentOptions::default(),
            );
            let request = match *kind {
                "type_check" => Request::TypeCheck { transform: t0, target: s1 },
                "equivalence" => Request::Equivalence { left: t0.clone(), right: t0 },
                "elicit" => Request::Elicit { transform: t0 },
                "execute" => {
                    let mut vocab = file.vocab.clone();
                    let inst =
                        gts_cli::parse_instance(&w.instance, &mut vocab).expect("instance parses");
                    Request::Execute { transform: t0, instance: inst.graph, check_target: Some(s1) }
                }
                _ => unreachable!(),
            };
            request.run(&mut session).expect("cold request succeeds");
            best = best.min(start.elapsed().as_micros() as u64);
        }
        out.push((ki, best));
    }
    out
}

/// Drives `conns` concurrent connections, `requests` frames each.
fn drive(addr: &str, w: &Workload, conns: usize, requests: usize) -> (Vec<Sample>, u64) {
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(conns + 1));
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = std::sync::Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut local = Vec::with_capacity(requests);
                    barrier.wait();
                    for i in 0..requests {
                        // Stagger kinds across connections so every kind
                        // is in flight at any moment.
                        let kind = (c + i) % KINDS.len();
                        let start = Instant::now();
                        let resp = client
                            .analyze(&w.gts, Some("S0"), vec![spec_for(KINDS[kind], w)])
                            .expect("analyze roundtrip");
                        let micros = start.elapsed().as_micros() as u64;
                        let ok = resp.get("ok").and_then(Json::as_bool) == Some(true);
                        local.push(Sample { kind, micros, ok, first_on_connection: i == 0 });
                    }
                    local
                })
            })
            .collect();
        barrier.wait();
        let wall_start = Instant::now();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("connection thread"));
        }
        (all, wall_start.elapsed().as_micros() as u64)
    });
    samples
}

/// Sweeps the scenario corpus through the resident server over one
/// connection: per family, the first `analyze` frame (type check of the
/// primary transformation + checked execution of the primary instance)
/// builds the family's pooled session — the cold, pool-miss latency —
/// and an identical second frame measures the resident, pool-hit
/// latency. One row per family lands in the report's `families` array.
fn family_section(addr: &str, families: &[Family], quick: bool) -> Json {
    let params = if quick { Params::quick() } else { Params::default() };
    let mut client = Client::connect(addr).expect("connect for family sweep");
    let mut rows = Vec::new();
    for &family in families {
        let sc = scenario(family, &params);
        let gts = gts_cli::render_file(&gts_cli::scenario_file(&sc));
        let inst = sc.instance(&sc.primary.instance).expect("primary instance");
        let fixture = gts_cli::raw_instance(&inst.graph, &sc.vocab);
        let specs = || {
            vec![
                proto::spec_type_check(&sc.primary.transform, &sc.primary.target),
                proto::spec_execute(&sc.primary.transform, &fixture, Some(&sc.primary.target)),
            ]
        };
        let mut frame = || {
            let start = Instant::now();
            let resp = client
                .analyze(&gts, Some(&sc.primary.source), specs())
                .expect("family analyze roundtrip");
            let micros = start.elapsed().as_micros() as u64;
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(true),
                "{}: {}",
                family.name(),
                resp.pretty()
            );
            let pool = resp.get("pool").and_then(Json::as_str).unwrap_or("?").to_owned();
            (micros, pool)
        };
        let (cold, pool_cold) = frame();
        let (resident, pool_resident) = frame();
        let mut e = Json::obj();
        e.set("family", family.name())
            .set("seed", params.seed)
            .set("scale", params.scale)
            .set("transform", sc.primary.transform.as_str())
            .set("instance_nodes", inst.graph.num_nodes())
            .set("instance_edges", inst.graph.num_edges())
            .set("cold_micros", cold)
            .set("resident_micros", resident)
            .set("resident_speedup", cold as f64 / resident.max(1) as f64)
            .set("pool_cold", pool_cold.as_str())
            .set("pool_resident", pool_resident.as_str());
        println!(
            "family {:<10} cold {cold:>8}us ({pool_cold}) | resident {resident:>6}us \
             ({pool_resident}, {:.1}x)",
            family.name(),
            cold as f64 / resident.max(1) as f64
        );
        rows.push(e);
    }
    Json::Arr(rows)
}

/// The 8-connection closed-loop throughput measured against the
/// pre-reactor thread-per-connection server (the `BENCH_server.json`
/// this rewrite replaces). The pipelining section must clear 3x this.
const BASELINE_CLOSED_LOOP_RPS: f64 = 3486.7;

/// Drives `conns` connections, each submitting `rounds` pipelined
/// batches built by `build(conn_index)` through [`Client::pipeline`]
/// (one write, out-of-order completion, responses reassembled by `id`).
/// Returns per-batch latencies and the wall time across all threads.
fn pipelined_drive(
    addr: &str,
    conns: usize,
    rounds: usize,
    build: impl Fn(usize) -> Vec<Json> + Sync,
) -> (Vec<u64>, u64) {
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(conns + 1));
    let build = &build;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = std::sync::Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("pipeline connect");
                    let frames = build(c);
                    let mut local = Vec::with_capacity(rounds);
                    barrier.wait();
                    for _ in 0..rounds {
                        let start = Instant::now();
                        let resps = client.pipeline(&frames).expect("pipelined batch");
                        local.push(start.elapsed().as_micros() as u64);
                        for r in &resps {
                            assert_eq!(
                                r.get("ok").and_then(Json::as_bool),
                                Some(true),
                                "{}",
                                r.pretty()
                            );
                        }
                    }
                    local
                })
            })
            .collect();
        barrier.wait();
        let wall = Instant::now();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("pipeline thread"));
        }
        (all, wall.elapsed().as_micros() as u64)
    })
}

/// Protocol-v2 pipelining: every connection keeps `depth` analyze
/// frames resident at once instead of one lockstep roundtrip, which is
/// where an event-driven server actually earns its keep. A second drive
/// with `ping` frames measures the raw protocol ceiling (the reactor
/// pays full freight, the engine pays nothing). Returns the report
/// section, the analyze throughput, and the number of analyze frames
/// sent (the observability accounting needs it).
fn pipelined_section(
    addr: &str,
    w: &Workload,
    conns: usize,
    depth: usize,
    rounds: usize,
) -> (Json, f64, u64) {
    let (mut batches, wall_micros) = pipelined_drive(addr, conns, rounds, |c| {
        (0..depth)
            .map(|i| {
                let kind = KINDS[(c + i) % KINDS.len()];
                proto::analyze_frame(&w.gts, Some("S0"), vec![spec_for(kind, w)])
            })
            .collect()
    });
    let analyze_frames = (conns * rounds * depth) as u64;
    let rps = analyze_frames as f64 / (wall_micros as f64 / 1e6);
    batches.sort_unstable();
    let ping_depth = depth.max(64);
    let ping_rounds = rounds.clamp(2, 8);
    let (_, ping_wall) = pipelined_drive(addr, conns, ping_rounds, |_| {
        (0..ping_depth).map(|_| proto::frame("ping")).collect()
    });
    let ping_frames = (conns * ping_rounds * ping_depth) as u64;
    let ping_rps = ping_frames as f64 / (ping_wall as f64 / 1e6);
    println!(
        "pipelined depth {depth}: {rps:.0} analyze req/s over {conns} connections \
         ({:.1}x the {BASELINE_CLOSED_LOOP_RPS:.0} rps closed-loop baseline); \
         ping ceiling {ping_rps:.0} req/s",
        rps / BASELINE_CLOSED_LOOP_RPS
    );
    let mut j = Json::obj();
    j.set("depth", depth)
        .set("connections", conns)
        .set("rounds", rounds)
        .set("analyze_frames", analyze_frames)
        .set("wall_micros", wall_micros)
        .set("throughput_rps", rps)
        .set("batch_p50_micros", percentile(&batches, 0.50))
        .set("batch_p99_micros", percentile(&batches, 0.99))
        .set("baseline_closed_loop_rps", BASELINE_CLOSED_LOOP_RPS)
        .set("vs_baseline_closed_loop", rps / BASELINE_CLOSED_LOOP_RPS)
        .set("ping_frames", ping_frames)
        .set("ping_throughput_rps", ping_rps);
    (j, rps, analyze_frames)
}

/// One open-loop step: Poisson arrivals at `rate` req/s over a single
/// v2 connection. Arrival times are drawn up front (exponential
/// inter-arrivals, seeded), a writer thread ships each frame when its
/// time comes whether or not earlier responses are back, and latency is
/// measured from the *scheduled* arrival — so a server that falls
/// behind shows queueing delay instead of quietly slowing the clients,
/// which is exactly what closed-loop percentiles hide. Returns the
/// report row and the number of analyze frames sent.
fn open_loop_step(
    addr: &str,
    templates: &[String],
    rate: f64,
    duration_s: f64,
    seed: u64,
) -> (Json, u64) {
    use rand::{Rng as _, SeedableRng as _};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = ((rate * duration_s).ceil() as usize).clamp(1, 20_000);
    let mut offsets = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for _ in 0..n {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        t += -u.ln() / rate;
        offsets.push((t * 1e6) as u64);
    }
    let stream = std::net::TcpStream::connect(addr).expect("open-loop connect");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).ok();
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = std::io::BufWriter::new(stream);
    let offs = &offsets;
    let base = Instant::now();
    let (completed, rejected, mut lat, wall_micros) = std::thread::scope(|scope| {
        let writer_h = scope.spawn(move || {
            use std::io::Write as _;
            let mut chunk = String::new();
            let mut i = 0usize;
            while i < n {
                let now = base.elapsed().as_micros() as u64;
                if now < offs[i] {
                    std::thread::sleep(std::time::Duration::from_micros(offs[i] - now));
                    continue;
                }
                // Ship every frame whose arrival time has passed in one
                // write (micro-batching keeps the writer ahead of the
                // schedule at high rates).
                chunk.clear();
                while i < n && offs[i] <= base.elapsed().as_micros() as u64 {
                    let tpl = &templates[i % templates.len()];
                    chunk.push_str("{\"id\":\"o");
                    chunk.push_str(&i.to_string());
                    chunk.push_str("\",");
                    chunk.push_str(&tpl[1..]);
                    chunk.push('\n');
                    i += 1;
                }
                writer.write_all(chunk.as_bytes()).expect("open-loop write");
                writer.flush().expect("open-loop flush");
            }
        });
        let mut completed = 0u64;
        let mut rejected = 0u64;
        let mut lat = Vec::with_capacity(n);
        let mut line = String::new();
        for _ in 0..n {
            line.clear();
            let got = reader.read_line(&mut line).expect("open-loop read");
            assert!(got > 0, "server closed mid open-loop run");
            let now = base.elapsed().as_micros() as u64;
            let resp = Json::parse(line.trim()).expect("open-loop response parses");
            let idx: usize = resp
                .get("id")
                .and_then(Json::as_str)
                .and_then(|s| s.strip_prefix('o'))
                .and_then(|s| s.parse().ok())
                .expect("response echoes the frame id");
            if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                completed += 1;
                lat.push(now.saturating_sub(offs[idx]));
            } else {
                rejected += 1;
            }
        }
        let wall = base.elapsed().as_micros() as u64;
        writer_h.join().expect("open-loop writer");
        (completed, rejected, lat, wall)
    });
    lat.sort_unstable();
    let achieved = n as f64 / (wall_micros as f64 / 1e6);
    println!(
        "open-loop target {rate:>7.0} req/s -> achieved {achieved:>7.0}; p50 {}us p99 {}us \
         ({rejected} rejected)",
        percentile(&lat, 0.50),
        percentile(&lat, 0.99)
    );
    let mut j = Json::obj();
    j.set("target_rps", rate)
        .set("offered", n)
        .set("completed", completed)
        .set("rejected", rejected)
        .set("achieved_rps", achieved)
        .set("p50_micros", percentile(&lat, 0.50))
        .set("p90_micros", percentile(&lat, 0.90))
        .set("p99_micros", percentile(&lat, 0.99))
        .set("max_micros", lat.last().copied().unwrap_or(0));
    (j, n as u64)
}

/// Opens `n` connections and keeps every one resident at once: ping
/// latency while opening, a second full pass with all `n` held open,
/// and the server's own `connections_open` gauge as the cross-check
/// (asserted when the server is private to this run). Pings only — the
/// analyze accounting stays untouched.
fn connection_sweep(addr: &str, n: usize, exclusive: bool) -> Json {
    let open_start = Instant::now();
    let mut clients = Vec::with_capacity(n);
    let mut first = Vec::with_capacity(n);
    for _ in 0..n {
        let mut c = Client::connect(addr).expect("sweep connect");
        let t = Instant::now();
        let r = c.ping().expect("sweep ping");
        first.push(t.elapsed().as_micros() as u64);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{}", r.pretty());
        clients.push(c);
    }
    let open_wall = open_start.elapsed().as_micros() as u64;
    let resident_start = Instant::now();
    let mut resident = Vec::with_capacity(n);
    for c in &mut clients {
        let t = Instant::now();
        c.ping().expect("resident ping");
        resident.push(t.elapsed().as_micros() as u64);
    }
    let resident_wall = resident_start.elapsed().as_micros() as u64;
    let resident_rps = n as f64 / (resident_wall as f64 / 1e6);
    let stats = clients[0].stats().expect("sweep stats");
    let gauge = stats
        .get("server")
        .and_then(|s| s.get("connections_open"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if exclusive {
        assert!(gauge >= n as u64, "server sees {gauge} open connections, expected >= {n}");
    }
    first.sort_unstable();
    resident.sort_unstable();
    println!(
        "connection sweep: {n} resident (server gauge {gauge}); ping p50 {}us p99 {}us \
         with all held open",
        percentile(&resident, 0.50),
        percentile(&resident, 0.99)
    );
    let mut j = Json::obj();
    j.set("connections", n)
        .set("open_wall_micros", open_wall)
        .set("first_ping_p50_micros", percentile(&first, 0.50))
        .set("first_ping_p99_micros", percentile(&first, 0.99))
        .set("resident_ping_p50_micros", percentile(&resident, 0.50))
        .set("resident_ping_p99_micros", percentile(&resident, 0.99))
        .set("resident_ping_rps", resident_rps)
        .set("server_connections_open", gauge);
    j
}

/// `--chaos`: a seeded hostile-traffic soak against a private
/// in-process server with a deliberately small frame bound. No report
/// file — the output *is* the invariants: the server answers after the
/// storm, every connection the soak opened is gone (no leaks), and the
/// per-verb frame counters still tile `frames_total` exactly.
fn chaos_soak(quick: bool, seed: u64, families: &[Family]) {
    use rand::seq::SliceRandom as _;
    use rand::{Rng as _, SeedableRng as _};
    use std::io::Write as _;
    const FRAME_BOUND: usize = 256 << 10;
    let handle = Server::start(
        ServerConfig {
            admission: AdmissionConfig { max_inflight: 4, max_queue: 64 },
            max_frame_bytes: FRAME_BOUND,
            idle_timeout: Some(std::time::Duration::from_secs(10)),
            ..Default::default()
        },
        gts_cli::frontend(),
    )
    .expect("start chaos server");
    let addr = handle.addr().to_string();
    // The benign traffic the hostile actions interleave with: the four
    // medical kinds plus one type-check frame per corpus family.
    let params = Params::quick();
    let w = workload();
    let mut corpus: Vec<Json> = KINDS
        .iter()
        .map(|kind| proto::analyze_frame(&w.gts, Some("S0"), vec![spec_for(kind, &w)]))
        .collect();
    for &family in families.iter().take(3) {
        let sc = scenario(family, &params);
        let gts = gts_cli::render_file(&gts_cli::scenario_file(&sc));
        corpus.push(proto::analyze_frame(
            &gts,
            Some(&sc.primary.source),
            vec![proto::spec_type_check(&sc.primary.transform, &sc.primary.target)],
        ));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let soak = std::time::Duration::from_secs(if quick { 3 } else { 10 });
    let start = Instant::now();
    let (mut bursts, mut cuts, mut malformed, mut fatal, mut evicts, mut mixed) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    while start.elapsed() < soak {
        match rng.gen_range(0u32..100) {
            // Pipelined corpus burst: 2..=6 frames shipped at once,
            // answered out of order; every frame must come back.
            0..=29 => {
                let mut c = Client::connect(addr.as_str()).expect("chaos connect");
                let k = rng.gen_range(2usize..=6);
                let frames: Vec<Json> =
                    (0..k).map(|_| corpus.choose(&mut rng).expect("corpus").clone()).collect();
                let resps = c.pipeline(&frames).expect("chaos pipelined burst");
                assert_eq!(resps.len(), k, "a pipelined frame went unanswered");
                for r in &resps {
                    assert!(r.get("op").is_some(), "{}", r.pretty());
                }
                bursts += 1;
            }
            // Mid-frame disconnect: ship a random prefix, hang up.
            30..=49 => {
                let text = corpus.choose(&mut rng).expect("corpus").compact();
                let cut = rng.gen_range(1..text.len());
                let mut s = std::net::TcpStream::connect(addr.as_str()).expect("chaos connect");
                let _ = s.write_all(&text.as_bytes()[..cut]);
                drop(s);
                cuts += 1;
            }
            // Malformed JSON: an error frame comes back and the
            // connection survives for a follow-up ping.
            50..=62 => {
                let mut c = Client::connect(addr.as_str()).expect("chaos connect");
                let r = c.roundtrip_raw("{not json").expect("malformed roundtrip");
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
                let pong = c.ping().expect("ping after malformed frame");
                assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
                malformed += 1;
            }
            // Invalid UTF-8 and oversized frames: an error frame, then
            // the server hangs up (decode errors are unrecoverable). The
            // oversized write may die with EPIPE first — also fine.
            63..=74 => {
                let mut s = std::net::TcpStream::connect(addr.as_str()).expect("chaos connect");
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
                fatal += 1;
            }
            // Evict storm while analyzes may be in flight elsewhere.
            75..=84 => {
                let mut c = Client::connect(addr.as_str()).expect("chaos connect");
                for _ in 0..3 {
                    let r = c.evict(None).expect("evict");
                    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
                }
                evicts += 1;
            }
            // Blank lines (ignored, uncounted) and v1 frames (strict
            // ordering, no `id`) interleaved with the v2 traffic.
            _ => {
                let mut c = Client::connect(addr.as_str()).expect("chaos connect");
                let pong = c.roundtrip_raw("\n\n{\"v\":1,\"op\":\"ping\"}").expect("v1 ping");
                assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
                let stats = c.stats().expect("stats");
                assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
                mixed += 1;
            }
        }
    }
    // ---- Invariants. ----
    let mut checker = Client::connect(addr.as_str()).expect("checker connect");
    let pong = checker.ping().expect("responsive after soak");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    // No leaks: every soak connection is torn down, the gauge settles
    // to 1 (the checker itself).
    let settle = Instant::now();
    loop {
        let stats = checker.stats().expect("stats");
        let open = stats
            .get("server")
            .and_then(|s| s.get("connections_open"))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        if open == 1 {
            break;
        }
        assert!(
            settle.elapsed() < std::time::Duration::from_secs(5),
            "connection leak: {open} connections still open after the soak"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    // Frame accounting tiles: on the now-idle server, the per-verb
    // counters from a metrics scrape plus the metrics and stats frames
    // themselves (which the scraped body cannot include) must equal
    // `frames_total` exactly — decode-fatal garbage lands in
    // `errors_total`, never in the frame counters.
    let m = checker.metrics(Some("json")).expect("metrics");
    let body = m.get("body").and_then(Json::as_str).expect("metrics body");
    let metrics_doc = Json::parse(body).expect("metrics body parses");
    let mut per_verb_sum = 0u64;
    for entry in metrics_doc.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
        if entry.get("name").and_then(Json::as_str) == Some("gts_serve_frames_total") {
            per_verb_sum += entry.get("value").and_then(Json::as_u64).unwrap_or(0);
        }
    }
    let stats = checker.stats().expect("stats");
    let frames_total =
        stats.get("server").and_then(|s| s.get("frames_total")).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(
        frames_total,
        per_verb_sum + 2,
        "frame accounting does not tile after the soak (per-verb sum {per_verb_sum})"
    );
    let r = checker.shutdown().expect("shutdown");
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    handle.join();
    println!(
        "chaos soak passed ({:.1}s, seed {seed}): {bursts} pipelined bursts, {cuts} mid-frame \
         disconnects, {malformed} malformed frames, {fatal} decode-fatal frames, {evicts} evict \
         storms, {mixed} v1/blank interleaves; no leaks, frame counters tile",
        start.elapsed().as_secs_f64()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_server.json".into());
    let conns: usize = flag("--conns").map(|s| s.parse().expect("--conns")).unwrap_or(8);
    let requests: usize = flag("--requests")
        .map(|s| s.parse().expect("--requests"))
        .unwrap_or(if quick { 6 } else { 32 });
    let depth: usize =
        flag("--depth").map(|s| s.parse().expect("--depth")).unwrap_or(if quick { 4 } else { 16 });
    let sweep_conns: usize = flag("--connections")
        .map(|s| s.parse().expect("--connections"))
        .unwrap_or(if quick { 64 } else { 1000 });
    let target_rps: Option<f64> = flag("--target-rps").map(|s| s.parse().expect("--target-rps"));
    let seed: u64 = flag("--seed").map(|s| s.parse().expect("--seed")).unwrap_or(0x0DD_B1A5);
    let cold_reps = if quick { 1 } else { 3 };
    let families: Vec<Family> = match flag("--family").as_deref() {
        None => Family::ALL.to_vec(),
        Some(name) => vec![Family::from_name(name)
            .unwrap_or_else(|| panic!("unknown family {name}; try `gts corpus list`"))],
    };
    // `--chaos` is a different program: no report, just a seeded storm
    // and the invariants at the end.
    if args.iter().any(|a| a == "--chaos") {
        chaos_soak(quick, seed, &families);
        return;
    }
    let w = workload();
    // The queue must absorb a full pipelined burst (`conns * depth`
    // frames in flight at once) and a single connection at the
    // `max_pipeline` cap driving the open-loop step.
    let queue = (4 * conns).max(conns * depth).max(128);

    // ---- Pick the server: external (--addr), spawned binary (--spawn),
    // or in-process. ----
    let external_addr = flag("--addr");
    let spawn_bin = flag("--spawn");
    let mut spawned: Option<std::process::Child> = None;
    let mut spawned_banner: Option<std::thread::JoinHandle<String>> = None;
    let mut in_process: Option<gts_serve::ServerHandle> = None;
    let (addr, mode) = if let Some(addr) = external_addr {
        (addr, "external")
    } else if let Some(bin) = spawn_bin {
        let mut child = std::process::Command::new(&bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &conns.to_string(),
                "--queue",
                &queue.to_string(),
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
        // The first stdout line is `listening on ADDR` (flushed before
        // the server blocks); scrape the ephemeral port from it.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
            .to_owned();
        // Keep draining the child's stdout in the background so the
        // final `server drained` line can be asserted after shutdown.
        spawned_banner = Some(std::thread::spawn(move || {
            let mut rest = String::new();
            let mut l = String::new();
            while reader.read_line(&mut l).map(|n| n > 0).unwrap_or(false) {
                rest.push_str(&l);
                l.clear();
            }
            rest
        }));
        spawned = Some(child);
        (addr, "spawned")
    } else {
        let handle = Server::start(
            ServerConfig {
                admission: AdmissionConfig { max_inflight: conns, max_queue: queue },
                ..Default::default()
            },
            gts_cli::frontend(),
        )
        .expect("start in-process server");
        let addr = handle.addr().to_string();
        in_process = Some(handle);
        (addr, "in-process")
    };
    println!("loadgen: {mode} server at {addr}, {conns} connections x {requests} requests");

    // ---- Cold one-shot baseline (in-process, fresh state per call). ----
    let cold = cold_oneshot(&w, cold_reps);
    let cold_mean = mean(cold.iter().map(|&(_, us)| us));
    for &(ki, us) in &cold {
        println!("cold one-shot {:12} {us:>8}us", KINDS[ki]);
    }

    // ---- Warm the pool: one frame per kind over a single connection,
    // so the measured run sees the *resident* steady state (the verdict
    // memo filled) rather than a cold-question stampede. The time this
    // warmup takes is exactly one cold suite — what the very first
    // client ever pays. ----
    let warmup_micros = {
        let mut warm = Client::connect(addr.as_str()).expect("connect");
        let start = Instant::now();
        for kind in KINDS {
            let resp = warm.analyze(&w.gts, Some("S0"), vec![spec_for(kind, &w)]).expect("warmup");
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.pretty());
        }
        start.elapsed().as_micros() as u64
    };
    let (samples, wall_micros) = drive(&addr, &w, conns, requests);
    let failed = samples.iter().filter(|s| !s.ok).count();
    assert_eq!(failed, 0, "{failed} requests failed (queue bounds too tight for the workload?)");

    // ---- Aggregate. ----
    let mut sorted: Vec<u64> = samples.iter().map(|s| s.micros).collect();
    sorted.sort_unstable();
    let total = sorted.len() as u64;
    let throughput = total as f64 / (wall_micros as f64 / 1e6);
    let resident_mean = mean(samples.iter().map(|s| s.micros));
    let steady_mean = mean(samples.iter().filter(|s| !s.first_on_connection).map(|s| s.micros));
    let speedup = cold_mean / resident_mean.max(1.0);
    let steady_speedup = cold_mean / steady_mean.max(1.0);

    let mut latency = Json::obj();
    latency
        .set("mean", resident_mean)
        .set("p50", percentile(&sorted, 0.50))
        .set("p90", percentile(&sorted, 0.90))
        .set("p95", percentile(&sorted, 0.95))
        .set("p99", percentile(&sorted, 0.99))
        .set("max", sorted.last().copied().unwrap_or(0));

    let mut per_kind = Vec::new();
    for (ki, kind) in KINDS.iter().enumerate() {
        let mut ks: Vec<u64> = samples.iter().filter(|s| s.kind == ki).map(|s| s.micros).collect();
        ks.sort_unstable();
        let cold_us = cold.iter().find(|&&(k, _)| k == ki).map(|&(_, us)| us).unwrap_or(0);
        let k_mean = mean(ks.iter().copied());
        let mut e = Json::obj();
        e.set("kind", *kind)
            .set("count", ks.len())
            .set("cold_oneshot_micros", cold_us)
            .set("resident_mean_micros", k_mean)
            .set("resident_p95_micros", percentile(&ks, 0.95))
            .set("resident_p99_micros", percentile(&ks, 0.99))
            .set("resident_speedup", cold_us as f64 / k_mean.max(1.0));
        per_kind.push(e);
    }

    // ---- Metrics overhead: re-drive the same workload with recording
    // disabled. Only meaningful against the in-process server (the
    // enable flag is process-wide, so it reaches the server's
    // instrumentation sites); the pool is warm for both runs, so the
    // comparison isolates the record/span cost. ----
    let mut overhead_on_frames = 0u64;
    let overhead = if in_process.is_some() {
        // Both measured states run after the main drive, so the pool and
        // memos are equally warm, and the rounds interleave on/off so
        // neither state systematically benefits from running later.
        let (mut on_wall, mut on_n, mut off_wall, mut off_n) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..2 {
            let (s, wall) = drive(&addr, &w, conns, requests);
            assert!(s.iter().all(|s| s.ok), "metrics-on overhead round failed");
            on_wall += wall;
            on_n += s.len() as u64;
            gts_obs::set_enabled(false);
            let (s, wall) = drive(&addr, &w, conns, requests);
            gts_obs::set_enabled(true);
            assert!(s.iter().all(|s| s.ok), "metrics-off overhead round failed");
            off_wall += wall;
            off_n += s.len() as u64;
        }
        overhead_on_frames = on_n;
        let throughput_on = on_n as f64 / (on_wall as f64 / 1e6);
        let throughput_off = off_n as f64 / (off_wall as f64 / 1e6);
        let overhead_percent = (throughput_off - throughput_on) / throughput_off.max(1e-9) * 100.0;
        println!(
            "metrics overhead: {throughput_on:.0} req/s on vs {throughput_off:.0} req/s off \
             ({overhead_percent:+.1}%)"
        );
        let mut o = Json::obj();
        o.set("throughput_on_rps", throughput_on)
            .set("throughput_off_rps", throughput_off)
            .set("overhead_percent", overhead_percent);
        o
    } else {
        Json::Null
    };

    // ---- Per-family corpus sweep over the same resident server. ----
    let families_json = family_section(&addr, &families, quick);

    // ---- Protocol-v2 pipelining: `depth` frames resident per
    // connection, out-of-order completion. ----
    let (pipelining, pipelined_rps, pipelined_analyze_frames) =
        pipelined_section(&addr, &w, conns, depth, if quick { 2 } else { 16 });
    if !quick && mode != "external" {
        assert!(
            pipelined_rps >= 3.0 * BASELINE_CLOSED_LOOP_RPS,
            "acceptance: pipelined throughput {pipelined_rps:.0} rps must be >= 3x the \
             pre-reactor closed-loop baseline ({BASELINE_CLOSED_LOOP_RPS} rps)"
        );
    }

    // ---- Open loop: Poisson arrivals at stepped fractions of the
    // measured pipelined capacity (or of --target-rps when given). ----
    let templates: Vec<String> = KINDS
        .iter()
        .map(|kind| proto::analyze_frame(&w.gts, Some("S0"), vec![spec_for(kind, &w)]).compact())
        .collect();
    let steps: Vec<f64> = match target_rps {
        Some(r) => vec![0.50 * r, 0.75 * r, r],
        None => [0.25, 0.50, 0.75].iter().map(|f| f * pipelined_rps).collect(),
    };
    let duration_s = if quick { 1.0 } else { 2.5 };
    let mut open_loop_rows = Vec::new();
    let mut open_loop_analyze_frames = 0u64;
    for (si, rate) in steps.iter().enumerate() {
        let (row, sent) = open_loop_step(
            &addr,
            &templates,
            rate.max(1.0),
            duration_s,
            seed.wrapping_add(si as u64),
        );
        open_loop_rows.push(row);
        open_loop_analyze_frames += sent;
    }
    let mut open_loop = Json::obj();
    open_loop
        .set(
            "basis",
            if target_rps.is_some() {
                "explicit --target-rps"
            } else {
                "fractions of the measured pipelined throughput"
            },
        )
        .set("duration_seconds", duration_s)
        .set("seed", seed)
        .set("steps", Json::Arr(open_loop_rows));

    // ---- Connection sweep: every connection resident at once. ----
    let sweep = connection_sweep(&addr, sweep_conns, mode != "external");

    // ---- Server-side observability: scrape the `metrics` verb (JSON
    // mirror) and fold the per-verb latency histograms into the report.
    // The client-side analyze count is exact bookkeeping — warmup frames
    // + the measured run + two frames per family row (the metrics-off
    // overhead run records nothing by construction) — so the server-side
    // counter must agree with it on a private server. ----
    let mut obs_client = Client::connect(addr.as_str()).expect("connect for metrics");
    let metrics_resp = obs_client.metrics(Some("json")).expect("metrics verb");
    assert_eq!(
        metrics_resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        metrics_resp.pretty()
    );
    let body = metrics_resp.get("body").and_then(Json::as_str).expect("metrics body");
    let metrics_doc = Json::parse(body).expect("metrics body parses");
    let mut server_frames = Vec::new();
    let mut analyze_frames_server = 0u64;
    for entry in metrics_doc.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
        if entry.get("name").and_then(Json::as_str) != Some("gts_serve_frame_micros") {
            continue;
        }
        let verb =
            entry.get("labels").and_then(|l| l.get("verb")).and_then(Json::as_str).unwrap_or("?");
        let count = entry.get("count").and_then(Json::as_u64).unwrap_or(0);
        if count == 0 {
            continue;
        }
        if verb == "analyze" {
            analyze_frames_server = count;
        }
        let mut e = Json::obj();
        e.set("verb", verb).set("count", count);
        for q in ["p50", "p90", "p99", "max"] {
            e.set(q, entry.get(q).cloned().unwrap_or(Json::Null));
        }
        server_frames.push(e);
    }
    // Only `analyze` frames count here: warmup sends one frame per kind,
    // the measured run one per sample, and the pipelining and open-loop
    // sections add their exact frame counts (the connection sweep is
    // pings only).
    let analyze_frames_client = KINDS.len() as u64
        + samples.len() as u64
        + overhead_on_frames
        + 2 * families.len() as u64
        + pipelined_analyze_frames
        + open_loop_analyze_frames;
    let requests_match = analyze_frames_server == analyze_frames_client;
    if mode != "external" {
        assert!(
            requests_match,
            "server-side analyze frame count {analyze_frames_server} does not match the \
             client-side total {analyze_frames_client}"
        );
    }
    let mut observability = Json::obj();
    observability
        .set("server_frames", Json::Arr(server_frames))
        .set("analyze_frames_client", analyze_frames_client)
        .set("analyze_frames_server", analyze_frames_server)
        .set("requests_match", requests_match)
        .set("overhead", overhead);

    // ---- Pool + admission stats over the wire (works in all modes). ----
    let mut stats_client = Client::connect(addr.as_str()).expect("connect for stats");
    let stats = stats_client.stats().expect("stats verb");
    let pool = stats.get("registry").cloned().unwrap_or_else(Json::obj);
    let admission = stats.get("admission").cloned().unwrap_or_else(Json::obj);

    // ---- Shut the server down and assert a clean drain. ----
    let drain_clean = match mode {
        "external" => Json::Null, // not ours to stop
        _ => {
            let resp = stats_client.shutdown().expect("shutdown verb");
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
            if let Some(handle) = in_process.take() {
                handle.join();
            }
            if let Some(mut child) = spawned.take() {
                let status = child.wait().expect("wait for spawned server");
                assert!(status.success(), "spawned server exited with {status}");
                let banner = spawned_banner
                    .take()
                    .expect("spawn mode collects stdout")
                    .join()
                    .expect("banner collector");
                assert!(
                    banner.contains("server drained"),
                    "spawned server did not report a clean drain; stdout after the \
                     listening line was: {banner:?}"
                );
                println!("spawned server drained cleanly ({status})");
            }
            Json::Bool(true)
        }
    };

    let mut doc = Json::obj();
    doc.set("schema_version", 2u64)
        .set("generated_by", "gts-bench loadgen")
        .set(
            "workload",
            "medical T0 (Example 4.1) over S0: mixed type_check/equivalence/elicit/execute, \
             one request per frame, resident sessions vs cold one-shot re-analysis",
        )
        .set("mode", mode)
        .set("quick", quick)
        .set("connections", conns)
        .set("requests_per_connection", requests)
        .set("total_requests", total)
        .set("warmup_micros", warmup_micros)
        .set("wall_micros", wall_micros)
        .set("throughput_rps", throughput)
        .set("latency_micros", latency)
        .set("cold_oneshot_mean_micros", cold_mean)
        .set("resident_mean_micros", resident_mean)
        .set("steady_state_mean_micros", steady_mean)
        .set("resident_speedup_vs_cold", speedup)
        .set("steady_state_speedup_vs_cold", steady_speedup)
        .set("per_kind", Json::Arr(per_kind))
        .set("pipelining", pipelining)
        .set("open_loop", open_loop)
        .set("connection_sweep", sweep)
        .set("families", families_json)
        .set("pool", pool)
        .set("admission", admission)
        .set("observability", observability)
        .set("drain_clean", drain_clean);
    std::fs::write(&out_path, doc.pretty())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!(
        "resident mean {resident_mean:.0}us (steady {steady_mean:.0}us) vs cold one-shot \
         {cold_mean:.0}us -> {speedup:.1}x (steady {steady_speedup:.1}x); p99 {}us; {throughput:.0} req/s \
         over {conns} connections",
        percentile(&sorted, 0.99)
    );
    println!("wrote {out_path}");
    assert!(
        speedup >= 5.0,
        "acceptance: resident requests must be >= 5x faster than cold one-shot (got {speedup:.1}x)"
    );
}
