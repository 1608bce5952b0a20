//! `gts serve` and `gts client`: the CLI face of the resident server.
//!
//! `gts serve` starts a `gts-serve` server over the `.gts` front end and
//! blocks until a client sends the `shutdown` verb (it prints
//! `listening on ADDR` — with the real port when `--addr` asked for
//! `:0` — before accepting, so scripts can scrape the address).
//! `gts client` runs the same analysis suite as `gts batch`, but over
//! the wire against a resident server, so repeated invocations share
//! the server's session pool instead of each paying the cold oracle.

use crate::commands::{suite, Outcome, SuiteSpec};
use crate::parse::GtsFile;
use crate::print;
use gts_engine::Json;
use gts_serve::{proto, Client, Compiled, Frontend, Server, ServerConfig};
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;

/// The `.gts` front end handed to `gts-serve`: compiles shipped schema/
/// transformation text with [`GtsFile::parse`], instances with
/// [`crate::instance::parse_instance`], and renders elicited schemas in
/// the `.gts` block syntax (the same shape `gts batch` emits).
pub fn frontend() -> Frontend {
    Frontend {
        compile: Arc::new(|src| {
            let file = GtsFile::parse(src).map_err(|e| e.to_string())?;
            Ok(Compiled { vocab: file.vocab, schemas: file.schemas, transforms: file.transforms })
        }),
        parse_instance: Arc::new(|src, vocab| {
            crate::instance::parse_instance(src, vocab).map(|g| g.graph)
        }),
        render_schema: Arc::new(|schema, vocab| print::schema_block("Elicited", schema, vocab)),
    }
}

fn parse_num(flags: &HashMap<String, String>, name: &str) -> Result<Option<usize>, String> {
    match flags.get(name) {
        None => Ok(None),
        Some(s) => s.parse().map(Some).map_err(|_| format!("--{name}: not a number: `{s}`")),
    }
}

/// `gts serve [--addr A] [--threads N] [--queue N] [--max-sessions N]
/// [--max-session-mb N] [--deadline-ms N] [--cache-dir DIR]
/// [--flush-ms N] [--slow-ms N] [--idle-ms N] [--max-pipeline N]
/// [--no-metrics] [--allow-linger]`.
pub fn run_serve(flags: &HashMap<String, String>) -> Result<Outcome, String> {
    let mut cfg = ServerConfig {
        addr: flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:4815".into()),
        ..Default::default()
    };
    if let Some(n) = parse_num(flags, "threads")? {
        cfg.admission.max_inflight = n.max(1);
    }
    if let Some(n) = parse_num(flags, "queue")? {
        cfg.admission.max_queue = n;
    }
    if let Some(n) = parse_num(flags, "max-sessions")? {
        cfg.registry.max_sessions = n.max(1);
    }
    if let Some(n) = parse_num(flags, "max-session-mb")? {
        cfg.registry.max_bytes = n << 20;
    }
    if let Some(n) = parse_num(flags, "deadline-ms")? {
        cfg.default_deadline_ms = Some(n as u64);
    }
    // The server honors the same cache-dir resolution as local commands
    // (--cache-dir, then GTS_CACHE_DIR, vetoed by --no-cache): sessions
    // hydrate from DIR on first checkout and flush on drain (and every
    // --flush-ms milliseconds, when given).
    cfg.registry.cache_dir = crate::commands::cache_dir_from(flags);
    if let Some(n) = parse_num(flags, "flush-ms")? {
        cfg.flush_interval = Some(std::time::Duration::from_millis(n.max(1) as u64));
    }
    if let Some(n) = parse_num(flags, "slow-ms")? {
        cfg.slow_ms = Some(n as u64);
    }
    // `--idle-ms 0` disables the idle reaper entirely (the default is
    // five minutes); anything else is the per-connection idle bound.
    if let Some(n) = parse_num(flags, "idle-ms")? {
        cfg.idle_timeout = (n > 0).then(|| std::time::Duration::from_millis(n as u64));
    }
    if let Some(n) = parse_num(flags, "max-pipeline")? {
        cfg.max_pipeline = n.max(1);
    }
    // `--no-metrics` turns off latency-histogram recording process-wide
    // (spans, counters, and the `metrics`/`stats` verbs keep working;
    // the histograms and the clock reads feeding them stop).
    if flags.contains_key("no-metrics") {
        gts_obs::set_enabled(false);
    }
    cfg.allow_linger = flags.contains_key("allow-linger");
    let handle = Server::start(cfg, frontend()).map_err(|e| format!("cannot start server: {e}"))?;
    // Printed (and flushed) before blocking so wrappers (CI's metrics
    // smoke, `benchmark/`, shell scripts) can scrape the bound address.
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.join();
    Ok(Outcome { code: 0, output: "server drained\n".into() })
}

/// `gts client --addr A FILE... [--trace] [--pipeline] [--auth TOKEN]`
/// (the `gts batch` suite over the wire; `--pipeline` submits every
/// analyze frame of a file at once and lets the server answer out of
/// order, `--auth` names the tenant the work is accounted to), or `gts
/// client --addr A --verb
/// ping|stats|metrics|evict|shutdown|cache-export|cache-import`.
pub fn run_client(
    paths: &[String],
    flags: &HashMap<String, String>,
    read: &dyn Fn(&str) -> Result<String, String>,
) -> Result<Outcome, String> {
    let addr = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:4815".into());
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if let Some(verb) = flags.get("verb") {
        let resp = match verb.as_str() {
            "ping" => client.ping(),
            "stats" => client.stats(),
            "metrics" => client.metrics(flags.get("format").map(String::as_str)),
            "shutdown" => client.shutdown(),
            "evict" => client.evict(flags.get("fingerprint").map(String::as_str)),
            "cache-export" => {
                let fp = flags
                    .get("fingerprint")
                    .ok_or("cache-export needs --fingerprint HEX16 (see load_schema/stats)")?;
                client.cache_export(fp)
            }
            "cache-import" => {
                // --store FILE names a text file holding the base64
                // `store` field of a prior cache-export (the whole
                // response JSON also works: the field is extracted).
                let path = flags.get("store").ok_or("cache-import needs --store FILE (base64)")?;
                let text = read(path)?;
                let b64 = match Json::parse(text.trim()) {
                    Ok(doc) => doc
                        .get("store")
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or("the JSON in --store FILE has no `store` field")?,
                    Err(_) => text.split_whitespace().collect::<String>(),
                };
                client.cache_import(&b64)
            }
            other => return Err(format!("unknown --verb `{other}`")),
        }
        .map_err(|e| format!("{verb} failed: {e}"))?;
        let ok = resp.get("ok").and_then(Json::as_bool) == Some(true);
        let code = i32::from(!ok) * 2;
        // `metrics` prints the rendered document itself (Prometheus text
        // or the JSON mirror), not the protocol frame around it — the
        // output pipes straight into scrape tooling.
        let output = match resp.get("body").and_then(Json::as_str) {
            Some(body) if ok && verb == "metrics" => body.to_owned(),
            _ => resp.pretty(),
        };
        return Ok(Outcome { code, output });
    }
    if paths.is_empty() {
        return Err("client needs at least one .gts file (or --verb)".into());
    }
    let mut files_json = Vec::new();
    let mut all_hold = true;
    let mut any_error = false;
    for path in paths {
        let src = read(path)?;
        let file = GtsFile::parse(&src).map_err(|e| format!("{path}:{e}"))?;
        let mut results_json = Vec::new();
        let mut sources_json = Vec::new();
        // Build every source's analyze frame up front, so `--pipeline`
        // can ship them all before reading a single response.
        let mut pending: Vec<(String, Json)> = Vec::new();
        for (source_name, items) in suite(&file) {
            let specs = items
                .iter()
                .map(|(label, spec)| {
                    let mut s = match spec {
                        SuiteSpec::Check { transform, target } => {
                            proto::spec_type_check(transform, target)
                        }
                        SuiteSpec::Equiv { left, right } => proto::spec_equivalence(left, right),
                        SuiteSpec::Elicit { transform } => proto::spec_elicit(transform),
                    };
                    s.set("label", label.as_str());
                    s
                })
                .collect();
            let mut frame = proto::analyze_frame(&src, Some(&source_name), specs);
            if flags.contains_key("trace") {
                frame.set("trace", true);
            }
            if let Some(token) = flags.get("auth") {
                frame.set("auth", token.as_str());
            }
            pending.push((source_name, frame));
        }
        let responses: Vec<Json> = if flags.contains_key("pipeline") {
            let frames: Vec<Json> = pending.iter().map(|(_, f)| f.clone()).collect();
            client
                .pipeline(&frames)
                .map_err(|e| format!("{path}: pipelined analyze failed: {e}"))?
        } else {
            pending
                .iter()
                .map(|(_, f)| client.roundtrip(f))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("{path}: analyze failed: {e}"))?
        };
        for ((source_name, _), resp) in pending.iter().zip(&responses) {
            if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                any_error = true;
                results_json.push(resp.clone());
                continue;
            }
            for entry in resp.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
                if let Some(holds) = entry.get("holds").and_then(Json::as_bool) {
                    all_hold &= holds;
                }
                if let Some(ok) = entry.get("conforms").and_then(Json::as_bool) {
                    all_hold &= ok;
                }
                if entry.get("error").is_some() {
                    any_error = true;
                }
                results_json.push(entry.clone());
            }
            let mut source_json = Json::obj();
            source_json.set("source", source_name.as_str());
            for key in ["fingerprint", "pool", "session", "oracle", "trace"] {
                if let Some(v) = resp.get(key) {
                    source_json.set(key, v.clone());
                }
            }
            sources_json.push(source_json);
        }
        let mut fj = Json::obj();
        fj.set("file", path.as_str())
            .set("results", Json::Arr(results_json))
            .set("sources", Json::Arr(sources_json));
        files_json.push(fj);
    }
    let mut doc = Json::obj();
    doc.set("addr", addr.as_str()).set("files", Json::Arr(files_json));
    // Same exit-code contract as `gts batch`.
    let code = if any_error { 2 } else { i32::from(!all_hold) };
    Ok(Outcome { code, output: doc.pretty() })
}
