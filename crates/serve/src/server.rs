//! The resident server: a gts-net reactor speaking the frame protocol.
//!
//! Lifecycle: [`Server::start`] binds the listener (port `0` picks an
//! ephemeral port) and spawns one reactor thread that owns every
//! socket. Frames decode on the reactor through the sans-I/O codec and
//! run on a worker pool — oracle work never blocks the event loop, and
//! one slow analysis never stalls another connection's ping. Version-2
//! frames carrying an `id` are answered out of order as they complete
//! (pipelining); version-1 frames keep their strict arrival-order
//! replies through the reactor's per-connection reorder buffer.
//!
//! A `shutdown` frame (or [`ServerHandle::shutdown`]) flips the server
//! into drain: the listener closes, admission rejects new analyses,
//! in-flight frames run to completion and their responses flush, idle
//! connections get a short window to submit one final frame (and learn
//! the server is draining) before closing, and [`ServerHandle::join`]
//! returns once every connection is gone and the worker pool has
//! drained. Connections idle past [`ServerConfig::idle_timeout`] are
//! closed by the reactor's timer wheel; the clock only resets on
//! *complete* frames, so a byte-at-a-time slowloris drip idles out like
//! any silent peer.

use crate::admission::{Admission, AdmissionConfig, DEFAULT_TENANT};
use crate::proto::{self, MIN_PROTO_VERSION, PROTO_VERSION};
use crate::registry::{
    canonical_key, fingerprint_of, Fingerprint, RegistryConfig, SessionRegistry,
};
use gts_core::containment::ContainmentOptions;
use gts_core::graph::{Graph, Vocab};
use gts_core::sat::Budget;
use gts_core::schema::Schema;
use gts_core::Transformation;
use gts_engine::{AnalysisSession, Json, Request, Verdict};
use gts_net::{lock, CodecError, ConnId, FrameOutput, ReactorConfig, ReactorControl, Service};
use gts_obs::{Counter, Gauge, Histogram, MetricsRegistry, SpanNode};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A compiled `.gts` document: the artifacts the server resolves request
/// specs against.
pub struct Compiled {
    /// Labels interned in declaration order.
    pub vocab: Vocab,
    /// Named schemas, in file order.
    pub schemas: Vec<(String, Schema)>,
    /// Named transformations, in file order.
    pub transforms: Vec<(String, Transformation)>,
}

/// Compiles a `.gts` source text into analysis artifacts.
pub type CompileFn = dyn Fn(&str) -> Result<Compiled, String> + Send + Sync;
/// Parses the standalone graph-instance format against a vocabulary.
pub type ParseInstanceFn = dyn Fn(&str, &mut Vocab) -> Result<Graph, String> + Send + Sync;
/// Renders a schema for the wire (`elicit` results).
pub type RenderSchemaFn = dyn Fn(&Schema, &Vocab) -> String + Send + Sync;

/// The injected text front end (the server itself has no parser — see
/// the crate docs for why).
#[derive(Clone)]
pub struct Frontend {
    /// Compiles a `.gts` source text.
    pub compile: Arc<CompileFn>,
    /// Parses the standalone graph-instance format against a vocabulary.
    pub parse_instance: Arc<ParseInstanceFn>,
    /// Renders a schema (used for `elicit` results on the wire).
    pub render_schema: Arc<RenderSchemaFn>,
}

/// Server configuration. The defaults suit tests and local use; the CLI
/// maps `gts serve` flags onto the fields it exposes.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Admission bounds (in-flight analyses / wait-queue depth).
    pub admission: AdmissionConfig,
    /// Session-pool budgets.
    pub registry: RegistryConfig,
    /// Deadline applied to frames that carry none (`None` = unbounded).
    pub default_deadline_ms: Option<u64>,
    /// Hard cap on one frame's length in bytes; longer frames are
    /// rejected and the connection closed (a malformed peer, not a
    /// workload).
    pub max_frame_bytes: usize,
    /// Honor the `linger_ms` analyze field (holds the admission permit
    /// while sleeping). A test/benchmark hook for making "slow requests"
    /// deterministic; keep `false` in production setups.
    pub allow_linger: bool,
    /// Flush resident disk-bound sessions this often (no-op unless
    /// `registry.cache_dir` is set). `None` = only flush on drain and
    /// on session eviction/drop.
    pub flush_interval: Option<Duration>,
    /// Log one structured JSON line to stderr for every frame slower
    /// than this many milliseconds, including the frame's span
    /// breakdown. `None` disables the slow log (and its per-frame span
    /// collection).
    pub slow_ms: Option<u64>,
    /// Close connections that complete no frame for this long. The
    /// clock resets only on *complete* frames (a slowloris byte-drip
    /// does not count as activity). `None` disables.
    pub idle_timeout: Option<Duration>,
    /// In-flight frames per connection before the reactor stops reading
    /// it (pipelining depth bound; backpressure lands in the kernel
    /// socket buffer).
    pub max_pipeline: usize,
    /// Worker threads executing frames. `None` sizes the pool to
    /// `max_inflight + max_queue + 4`: every admissible analysis plus
    /// every queueable one can occupy a worker while control verbs
    /// still find a free thread.
    pub workers: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            admission: AdmissionConfig::default(),
            registry: RegistryConfig::default(),
            default_deadline_ms: None,
            max_frame_bytes: 16 << 20,
            allow_linger: false,
            flush_interval: None,
            slow_ms: None,
            idle_timeout: Some(Duration::from_secs(300)),
            max_pipeline: 128,
            workers: None,
        }
    }
}

/// Every label the per-verb metric families can carry: the protocol
/// verbs plus two fallbacks — `invalid` for frames that fail to parse
/// or carry the wrong protocol version, `unknown` for well-formed
/// frames naming a verb the server does not speak.
const VERB_LABELS: [&str; 11] = [
    "ping",
    "stats",
    "metrics",
    "load_schema",
    "analyze",
    "evict",
    "cache_export",
    "cache_import",
    "shutdown",
    "invalid",
    "unknown",
];

/// The server's own metrics registry plus pre-resolved handles for every
/// series dispatch touches. Handle resolution takes the registry lock;
/// the per-frame hot path must not, so every cell is resolved once at
/// startup. The registry is per-server (not the process-global one) so
/// that multiple servers in one process — the loopback test suites run
/// several — each report exactly their own traffic.
///
/// These cells are the server's only record of the events they count:
/// the `stats` verb reads them and the `metrics` verb renders them, so
/// the two surfaces agree by construction.
struct ProtoMetrics {
    registry: MetricsRegistry,
    verbs: Vec<(&'static str, Counter, Histogram)>,
    frames_received: Counter,
    requests_total: Counter,
    deadline_skipped: Counter,
    errors_total: Counter,
    connections_total: Counter,
    flushes_total: Counter,
    idle_closed: Counter,
    memo_served: Counter,
    panics: Counter,
    connections_open: Gauge,
}

impl ProtoMetrics {
    fn new() -> ProtoMetrics {
        let registry = MetricsRegistry::new();
        let verbs = VERB_LABELS
            .iter()
            .map(|&v| {
                (
                    v,
                    registry.counter(
                        "gts_serve_frames_total",
                        "Frames dispatched, by protocol verb",
                        &[("verb", v)],
                    ),
                    registry.histogram(
                        "gts_serve_frame_micros",
                        "Frame dispatch latency by protocol verb (microseconds)",
                        &[("verb", v)],
                    ),
                )
            })
            .collect();
        let counter = |name, help| registry.counter(name, help, &[]);
        ProtoMetrics {
            frames_received: counter(
                "gts_serve_frames_received_total",
                "Non-blank frames received, counted on arrival (the per-verb \
                 gts_serve_frames_total series tile it)",
            ),
            requests_total: counter(
                "gts_serve_requests_total",
                "Analysis requests carried by analyze frames (skipped ones included)",
            ),
            deadline_skipped: counter(
                "gts_serve_deadline_skipped_total",
                "Requests skipped because their frame's deadline had passed",
            ),
            errors_total: counter(
                "gts_serve_errors_total",
                "Error responses: ok:false frames plus decode-fatal frames",
            ),
            connections_total: counter("gts_serve_connections_total", "Connections accepted"),
            flushes_total: counter(
                "gts_serve_flushes_total",
                "Periodic flush ticks of disk-bound sessions",
            ),
            idle_closed: counter(
                "gts_serve_idle_closed_total",
                "Connections closed by the idle timeout",
            ),
            memo_served: counter(
                "gts_serve_memo_served_total",
                "Analyze frames answered from the rendered-response memo",
            ),
            panics: counter(
                "gts_serve_panics_total",
                "Frames whose handling panicked, answered with internal_error",
            ),
            connections_open: registry.gauge(
                "gts_serve_connections_open",
                "Open client connections",
                &[],
            ),
            registry,
            verbs,
        }
    }

    /// The pre-resolved (counter, histogram) cell for `label`, which must
    /// be one of [`VERB_LABELS`] (dispatch maps every frame onto one).
    fn verb(&self, label: &str) -> (&Counter, &Histogram) {
        let (_, c, h) = self
            .verbs
            .iter()
            .find(|(v, _, _)| *v == label)
            .unwrap_or_else(|| panic!("unregistered verb label `{label}`"));
        (c, h)
    }

    /// Maps a frame's `op` onto its metrics label (`unknown` for verbs
    /// the server does not speak).
    fn verb_label(&self, op: &str) -> &'static str {
        VERB_LABELS[..9].iter().find(|&&v| v == op).copied().unwrap_or("unknown")
    }
}

/// What the server reuses across frames, one entry per (file, request)
/// pair, most-recently-used-first. Analysis is a pure function of the
/// shipped `.gts` text, so the file is the unit of reuse: the entries of
/// one text share one [`SourceFile`], and an entry of a memoizable
/// `analyze` frame also holds the rendered response. A file with no
/// stored response keeps its compile in one response-less entry.
///
/// A stored response is served only while the session that computed it
/// is resident; after an eviction (explicit or by the budget sweep) the
/// next hit drops it and the frame recomputes, so evict-then-reanalyze
/// demonstrably rebuilds. Frames carrying `trace`, `deadline_ms`, or
/// `linger_ms` bypass stored responses, and responses with
/// deadline-skipped entries are never stored.
struct Memo {
    entries: Vec<MemoEntry>,
}

/// Entries kept, rendered responses and response-less compiles alike.
/// Each is a few KB next to one resident session.
const MEMO_CAP: usize = 128;

/// A compiled `.gts` text.
struct SourceFile {
    hash: u64,
    text: String,
    compiled: Compiled,
}

struct MemoEntry {
    file: Arc<SourceFile>,
    /// The request key and the rendered response, with the fingerprint of
    /// the session that computed it; `None` on a response-less entry.
    answer: Option<(String, Fingerprint, Json)>,
}

impl Memo {
    /// The position of the most recent entry of `gts`, whose hash is
    /// `hash`. The hash is a fast reject; the full text is compared so a
    /// collision can never serve the wrong document. The entries of one
    /// text share one [`SourceFile`], so later ones match by pointer.
    fn file_pos(&self, hash: u64, gts: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.file.hash == hash && e.file.text == gts)
    }

    /// Moves the entry at `pos` to the front.
    fn touch(&mut self, pos: usize) {
        self.entries[..=pos].rotate_right(1);
    }

    fn push(&mut self, entry: MemoEntry) {
        self.entries.insert(0, entry);
        self.entries.truncate(MEMO_CAP);
    }
}

/// The request half of a memo key for an `analyze` frame: every field
/// except the per-frame envelope and the `gts` text, which the memo
/// matches as the entry's file. `None` when the frame opts out of
/// memoization (tracing, deadlines, the linger test hook).
fn memo_request_key(frame: &Json) -> Option<String> {
    let Json::Obj(fields) = frame else { return None };
    let mut key = String::new();
    for (k, v) in fields {
        match k.as_str() {
            "id" | "auth" | "v" | "gts" => {}
            "trace" | "deadline_ms" | "linger_ms" => return None,
            _ => {
                key.push_str(k);
                key.push('=');
                key.push_str(&v.compact());
                key.push('\u{1f}');
            }
        }
    }
    Some(key)
}

/// Replaces an existing field's value in place ([`Json::set`] appends a
/// duplicate key rather than overwriting).
fn replace_field(obj: &mut Json, key: &str, value: Json) {
    if let Json::Obj(fields) = obj {
        if let Some((_, v)) = fields.iter_mut().find(|(k, _)| k == key) {
            *v = value;
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    frontend: Frontend,
    registry: SessionRegistry,
    admission: Admission,
    draining: AtomicBool,
    started: Instant,
    memo: Mutex<Memo>,
    obs: ProtoMetrics,
}

impl Shared {
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.admission.begin_drain();
        }
    }

    /// The compile of `gts`, shared from any memo entry of that text. A
    /// first-seen text compiles outside the lock (a slow compile must not
    /// serialize every other frame's lookup behind it) and is kept as a
    /// response-less entry. Only a response-less entry moves to the front
    /// here, so only memo hits and stores reorder rendered responses.
    fn compile(&self, gts: &str) -> Result<Arc<SourceFile>, String> {
        let hash = gts_store::fnv64(gts.as_bytes());
        {
            let mut memo = lock(&self.memo);
            if let Some(mut pos) = memo.file_pos(hash, gts) {
                if memo.entries[pos].answer.is_none() {
                    memo.touch(pos);
                    pos = 0;
                }
                return Ok(Arc::clone(&memo.entries[pos].file));
            }
        }
        let compiled = (self.frontend.compile)(gts)?;
        let mut memo = lock(&self.memo);
        // Another frame may have compiled the text meanwhile; keep one copy.
        if let Some(pos) = memo.file_pos(hash, gts) {
            return Ok(Arc::clone(&memo.entries[pos].file));
        }
        let file = Arc::new(SourceFile { hash, text: gts.to_owned(), compiled });
        memo.push(MemoEntry { file: Arc::clone(&file), answer: None });
        Ok(file)
    }

    /// The stored response to `request` over `gts`, while the session that
    /// computed it is resident. A hit whose session is gone is dropped
    /// (the file stays compiled) and the frame recomputes. Lock order:
    /// the memo, then the registry.
    fn memo_answer(&self, gts: &str, request: &str) -> Option<Json> {
        let hash = gts_store::fnv64(gts.as_bytes());
        let mut memo = lock(&self.memo);
        let first = memo.file_pos(hash, gts)?;
        let file = Arc::clone(&memo.entries[first].file);
        let of_file = |e: &MemoEntry| Arc::ptr_eq(&e.file, &file);
        let pos = first
            + memo.entries[first..]
                .iter()
                .position(|e| of_file(e) && e.answer.as_ref().is_some_and(|a| a.0 == request))?;
        let fp = memo.entries[pos].answer.as_ref().map(|a| a.1)?;
        if !self.registry.note_resident_hit(fp) {
            if memo.entries.iter().filter(|e| of_file(e)).count() == 1 {
                memo.entries[pos].answer = None;
            } else {
                memo.entries.remove(pos);
            }
            return None;
        }
        memo.touch(pos);
        memo.entries[0].answer.as_ref().map(|a| a.2.clone())
    }

    /// Stores the rendered response to `request` over `file`, in place of
    /// the file's response-less entry.
    fn memo_store(&self, file: &Arc<SourceFile>, request: String, fp: Fingerprint, response: Json) {
        let mut memo = lock(&self.memo);
        // Share the resident copy of the text, if another frame's compile
        // replaced ours while we computed.
        let file = match memo.file_pos(file.hash, &file.text) {
            Some(pos) => Arc::clone(&memo.entries[pos].file),
            None => Arc::clone(file),
        };
        memo.entries.retain(|e| e.answer.is_some() || !Arc::ptr_eq(&e.file, &file));
        memo.push(MemoEntry { file, answer: Some((request, fp, response)) });
    }
}

/// The server type; [`Server::start`] is the entry point.
pub struct Server;

/// A running server: address, stats access, shutdown/join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    control: Arc<ReactorControl>,
    reactor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr` and starts accepting.
    pub fn start(cfg: ServerConfig, frontend: Frontend) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers =
            cfg.workers.unwrap_or(cfg.admission.max_inflight.max(1) + cfg.admission.max_queue + 4);
        let reactor_cfg = ReactorConfig {
            workers,
            max_frame_bytes: cfg.max_frame_bytes,
            max_pipeline: cfg.max_pipeline.max(1),
            idle_timeout: cfg.idle_timeout,
            tick_interval: cfg.flush_interval,
            ..ReactorConfig::default()
        };
        let shared = Arc::new(Shared {
            admission: Admission::new(cfg.admission),
            registry: SessionRegistry::new(cfg.registry.clone()),
            cfg,
            frontend,
            draining: AtomicBool::new(false),
            started: Instant::now(),
            memo: Mutex::new(Memo { entries: Vec::new() }),
            obs: ProtoMetrics::new(),
        });
        let control = Arc::new(ReactorControl::new());
        let service: Arc<dyn Service> = Arc::new(ProtoService { shared: Arc::clone(&shared) });
        let reactor = {
            let control = Arc::clone(&control);
            std::thread::Builder::new().name("gts-serve-reactor".into()).spawn(move || {
                if let Err(e) = gts_net::run(listener, service, reactor_cfg, control) {
                    eprintln!("{{\"server_error\":\"reactor exited: {e}\"}}");
                }
            })?
        };
        Ok(ServerHandle { addr, shared, control, reactor: Some(reactor) })
    }
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session pool (stats inspection in tests and benchmarks).
    pub fn registry(&self) -> &SessionRegistry {
        &self.shared.registry
    }

    /// The admission controller (stats inspection).
    pub fn admission(&self) -> &Admission {
        &self.shared.admission
    }

    /// Connections closed by the idle timeout so far.
    pub fn idle_closed(&self) -> u64 {
        self.shared.obs.idle_closed.get()
    }

    /// Begins graceful drain (idempotent): stop accepting, reject new
    /// analyses, let in-flight work finish. Admission flips before this
    /// returns; the reactor notices through its self-pipe.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
        self.control.begin_drain();
    }

    /// Waits until the reactor (and with it every connection and
    /// worker) has exited. Call [`ServerHandle::shutdown`] first (or
    /// have a client send the `shutdown` verb), otherwise this blocks
    /// for the server's lifetime.
    pub fn join(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

/// The protocol layer, driven by the gts-net reactor. `handle` runs on
/// a worker thread; the lifecycle callbacks run on the reactor thread
/// and only touch metric cells.
struct ProtoService {
    shared: Arc<Shared>,
}

impl Service for ProtoService {
    fn handle(&self, _conn: ConnId, frame: String) -> FrameOutput {
        let shared = &self.shared;
        let line = frame.trim();
        if line.is_empty() {
            return FrameOutput::none(); // blank keep-alive lines: uncounted, unanswered
        }
        shared.obs.frames_received.inc();
        let (response, control, ordered) = dispatch(shared, line);
        if response.get("ok").and_then(Json::as_bool) == Some(false) {
            shared.obs.errors_total.inc();
        }
        let shutdown = matches!(control, Control::Shutdown);
        if shutdown {
            // Flip admission before the response is even queued: a frame
            // racing the drain must already see `shutting_down`.
            shared.begin_drain();
        }
        FrameOutput { bytes: response.compact().into_bytes(), ordered, shutdown }
    }

    fn decode_error(&self, _conn: ConnId, err: &CodecError) -> Vec<u8> {
        self.shared.obs.errors_total.inc();
        let msg = match err {
            CodecError::TooBig { .. } => "frame exceeds size bound",
            CodecError::Utf8 => "frame is not valid UTF-8",
        };
        proto::error_frame(None, proto::BAD_FRAME, msg).compact().into_bytes()
    }

    fn on_connect(&self, _conn: ConnId) {
        self.shared.obs.connections_total.inc();
        self.shared.obs.connections_open.add(1);
    }

    fn on_disconnect(&self, _conn: ConnId) {
        self.shared.obs.connections_open.add(-1);
    }

    fn on_idle_close(&self, _conn: ConnId) {
        self.shared.obs.idle_closed.inc();
    }

    fn on_drain(&self) {
        self.shared.begin_drain();
    }

    fn on_tick(&self) {
        // tick_interval mirrors cfg.flush_interval, so every tick is a
        // flush tick.
        self.shared.registry.flush_all();
        self.shared.obs.flushes_total.inc();
    }

    fn on_exit(&self) {
        // The worker pool has drained, so every admitted analysis has
        // released its permit; this returns immediately and documents
        // the invariant more than it waits.
        self.shared.admission.await_idle();
        // Persist what the pool learned before the process goes away. A
        // no-op when no session is disk-bound.
        self.shared.registry.flush_all();
    }
}

enum Control {
    Continue,
    Shutdown,
}

/// Validates a frame's envelope, routes it to its verb handler, and
/// applies the cross-cutting protocol features: per-verb metrics, `id`
/// echo, the `trace` span tree, and the slow-request log. Every frame
/// that [`ProtoService::handle`] counted on arrival goes through here
/// exactly once, so the per-verb counters tile `frames_total`.
///
/// The returned flag is the response's *ordering class*: `true` means
/// the reactor must hold it until every earlier frame on the connection
/// has answered; `false` (a version-2 frame carrying an `id`) lets it
/// jump the queue the moment it completes.
fn dispatch(shared: &Shared, raw: &str) -> (Json, Control, bool) {
    let start = Instant::now();
    let frame = match Json::parse(raw) {
        Ok(f) if f.get("op").is_some() || f.get("v").is_some() => f,
        Ok(_) => {
            let r =
                proto::error_frame(None, proto::BAD_FRAME, "expected an object with `v` and `op`");
            return finish_frame(shared, "invalid", None, None, start, r, Control::Continue, true);
        }
        Err(e) => {
            let r = proto::error_frame(None, proto::BAD_FRAME, e.to_string());
            return finish_frame(shared, "invalid", None, None, start, r, Control::Continue, true);
        }
    };
    let op = frame.get("op").and_then(Json::as_str).unwrap_or_default().to_owned();
    let id = frame.get("id").cloned();
    let version = frame.get("v").and_then(Json::as_i64);
    match version {
        Some(v) if (MIN_PROTO_VERSION..=PROTO_VERSION).contains(&v) => {}
        other => {
            let msg = format!(
                "this server speaks protocol versions \
                 {MIN_PROTO_VERSION} through {PROTO_VERSION}, frame carries {other:?}"
            );
            let r = proto::error_frame(Some(&op), proto::UNSUPPORTED_VERSION, msg);
            return finish_frame(shared, "invalid", id, None, start, r, Control::Continue, true);
        }
    }
    // Version-2 frames with an `id` opted into out-of-order completion.
    let ordered = !(version == Some(PROTO_VERSION) && id.is_some());
    let verb = shared.obs.verb_label(&op);
    // One span collector serves both consumers: the response's `trace`
    // field (client asked) and the slow log's span breakdown (server
    // configured). Installing it only on demand keeps untraced frames on
    // the inert thread-local path.
    let want_trace = frame.get("trace").and_then(Json::as_bool) == Some(true);
    let ((mut response, control), tree) = if want_trace || shared.cfg.slow_ms.is_some() {
        let (out, tree) = gts_obs::trace("frame", || route_guarded(shared, &op, &frame));
        (out, Some(tree))
    } else {
        (route_guarded(shared, &op, &frame), None)
    };
    if want_trace {
        if let Some(tree) = &tree {
            response.set("trace", tree.to_json());
        }
    }
    finish_frame(shared, verb, id, tree, start, response, control, ordered)
}

/// [`route`], answering a panic in the frame's work with
/// `internal_error` instead of unwinding into the worker: the frame still
/// gets its `id` echo and per-verb count, and the worker and connection
/// keep serving. Permits and span guards release on the unwind; the
/// panic hook has already logged the message.
fn route_guarded(shared: &Shared, op: &str, frame: &Json) -> (Json, Control) {
    let run = std::panic::AssertUnwindSafe(|| route(shared, op, frame));
    std::panic::catch_unwind(run).unwrap_or_else(|_| {
        shared.obs.panics.inc();
        let msg = "the server failed while handling this frame";
        (proto::error_frame(Some(op), proto::INTERNAL_ERROR, msg), Control::Continue)
    })
}

/// Routes one validated frame to its verb handler.
fn route(shared: &Shared, op: &str, frame: &Json) -> (Json, Control) {
    match op {
        "ping" => {
            let mut r = proto::ok_frame("ping");
            r.set("proto", PROTO_VERSION)
                .set("uptime_micros", shared.started.elapsed().as_micros() as u64);
            (r, Control::Continue)
        }
        "stats" => (stats_frame(shared), Control::Continue),
        "metrics" => (metrics_frame(shared, frame), Control::Continue),
        "load_schema" => (load_schema(shared, frame), Control::Continue),
        "analyze" => (analyze(shared, frame), Control::Continue),
        "evict" => (evict(shared, frame), Control::Continue),
        "cache_export" => (cache_export(shared, frame), Control::Continue),
        "cache_import" => (cache_import(shared, frame), Control::Continue),
        "shutdown" => {
            let mut r = proto::ok_frame("shutdown");
            r.set("draining", true);
            (r, Control::Shutdown)
        }
        other => (
            proto::error_frame(Some(other), proto::UNKNOWN_OP, format!("unknown verb `{other}`")),
            Control::Continue,
        ),
    }
}

/// The common tail of every dispatch path: echo the request `id`, record
/// the per-verb counter/histogram cell, and emit the slow-request log
/// line when the frame crossed the configured threshold.
#[allow(clippy::too_many_arguments)]
fn finish_frame(
    shared: &Shared,
    verb: &str,
    id: Option<Json>,
    tree: Option<SpanNode>,
    start: Instant,
    mut response: Json,
    control: Control,
    ordered: bool,
) -> (Json, Control, bool) {
    let elapsed = start.elapsed();
    if let Some(ms) = shared.cfg.slow_ms {
        if elapsed >= Duration::from_millis(ms) {
            let mut line = Json::obj();
            line.set("slow_request", true)
                .set("op", verb)
                .set("micros", elapsed.as_micros() as u64);
            if let Some(id) = &id {
                line.set("id", id.clone());
            }
            if let Some(tree) = &tree {
                line.set("spans", tree.to_json());
            }
            eprintln!("{}", line.compact());
        }
    }
    if let Some(id) = id {
        response.set("id", id);
    }
    let (counter, hist) = shared.obs.verb(verb);
    counter.inc();
    hist.record(elapsed.as_micros() as u64);
    (response, control, ordered)
}

/// The tenant a frame's work is accounted to (its `auth` token, or the
/// shared default).
fn tenant_of(frame: &Json) -> &str {
    frame.get("auth").and_then(Json::as_str).unwrap_or(DEFAULT_TENANT)
}

/// The `metrics` verb: render this server's registries — protocol,
/// admission and session pool — merged with the process-global one
/// (oracle, executor, and engine series live there) in Prometheus text
/// exposition (default) or the JSON mirror.
///
/// Current-state figures are not events: they are read from their
/// owners once per scrape, by the same reads `stats` makes, into a
/// registry built for this scrape alone, so a tenant recycled out of the
/// admission table leaves the exposition with it.
fn metrics_frame(shared: &Shared, frame: &Json) -> Json {
    let now = MetricsRegistry::new();
    let gauge = |name, help, labels: &[(&str, &str)], v: i64| now.gauge(name, help, labels).set(v);
    let pool = shared.registry.stats();
    gauge("gts_serve_sessions", "Resident analysis sessions", &[], pool.sessions as i64);
    gauge(
        "gts_serve_session_bytes",
        "Approximate bytes held by resident sessions",
        &[],
        pool.approx_bytes as i64,
    );
    gauge(
        "gts_serve_pool_oversized",
        "Resident sessions whose memo alone exceeds the byte budget",
        &[],
        pool.oversized as i64,
    );
    let adm = shared.admission.stats();
    gauge("gts_serve_inflight", "Analyses holding an admission slot", &[], adm.inflight as i64);
    gauge("gts_serve_queued", "Analyses waiting for an admission slot", &[], adm.queued as i64);
    gauge(
        "gts_serve_peak_inflight",
        "Highest number of analyses holding admission slots at once",
        &[],
        adm.peak_inflight as i64,
    );
    for t in &adm.tenants {
        let labels = &[("tenant", t.tenant.as_str())];
        gauge(
            "gts_serve_tenant_inflight",
            "In-flight analyses by tenant",
            labels,
            t.inflight as i64,
        );
        gauge("gts_serve_tenant_queued", "Queued analyses by tenant", labels, t.queued as i64);
        gauge(
            "gts_serve_tenant_admitted",
            "Analyses admitted by tenant",
            labels,
            t.admitted as i64,
        );
        gauge(
            "gts_serve_tenant_rejected_quota",
            "Analyses rejected over the tenant's fair share, by tenant",
            labels,
            t.rejected_quota as i64,
        );
    }
    let regs: [&MetricsRegistry; 5] = [
        &shared.obs.registry,
        &shared.admission.metrics().registry,
        &shared.registry.metrics().registry,
        &now,
        gts_obs::global(),
    ];
    let format = frame.get("format").and_then(Json::as_str).unwrap_or("prometheus");
    let body = match format {
        "prometheus" => gts_obs::render_prometheus(&regs),
        "json" => gts_obs::render_json(&regs),
        other => {
            return proto::error_frame(
                Some("metrics"),
                proto::BAD_REQUEST,
                format!("unknown format `{other}` (expected `prometheus` or `json`)"),
            )
        }
    };
    let mut r = proto::ok_frame("metrics");
    r.set("format", format).set("body", body);
    r
}

/// The uniform statistics document: session registry, admission
/// controller, server counters. Every counter is read from the cell the
/// `metrics` verb renders. The registry's memo counters are the numbers
/// `gts batch --stats` reports locally.
fn stats_frame(shared: &Shared) -> Json {
    let mut r = proto::ok_frame("stats");
    let pool = shared.registry.stats();
    let m = shared.registry.metrics();
    let mut registry = Json::obj();
    registry
        .set("sessions", pool.sessions)
        .set("approx_bytes", pool.approx_bytes)
        .set("hits", m.hits.get())
        .set("misses", m.misses.get())
        .set("evictions", m.evictions.get())
        .set("collisions", m.collisions.get())
        .set("hit_rate", m.hit_rate())
        .set("oversized", pool.oversized)
        .set("disk_hydrated", m.disk_hydrated.get())
        .set("max_sessions", shared.registry.config().max_sessions)
        .set("max_bytes", shared.registry.config().max_bytes);
    if let Some(dir) = shared.registry.cache_dir() {
        registry.set("cache_dir", dir.display().to_string());
    }
    r.set("registry", registry);
    let adm = shared.admission.stats();
    let m = shared.admission.metrics();
    let mut admission = Json::obj();
    admission
        .set("inflight", adm.inflight)
        .set("queued", adm.queued)
        .set("admitted", m.admitted.get())
        .set("rejected_overloaded", m.rejected_overloaded.get())
        .set("rejected_deadline", m.rejected_deadline.get())
        .set("rejected_draining", m.rejected_draining.get())
        .set("rejected_quota", m.rejected_quota.get())
        .set("peak_inflight", adm.peak_inflight)
        .set("max_inflight", shared.admission.config().max_inflight)
        .set("max_queue", shared.admission.config().max_queue);
    let mut tenants = Json::obj();
    for t in &adm.tenants {
        let mut entry = Json::obj();
        entry
            .set("inflight", t.inflight)
            .set("queued", t.queued)
            .set("admitted", t.admitted)
            .set("rejected_quota", t.rejected_quota);
        tenants.set(&t.tenant, entry);
    }
    admission.set("tenants", tenants);
    r.set("admission", admission);
    let m = &shared.obs;
    let mut server = Json::obj();
    server
        .set("uptime_micros", shared.started.elapsed().as_micros() as u64)
        .set("connections_open", m.connections_open.get())
        .set("connections_total", m.connections_total.get())
        .set("frames_total", m.frames_received.get())
        .set("requests_total", m.requests_total.get())
        .set("deadline_skipped", m.deadline_skipped.get())
        .set("errors_total", m.errors_total.get())
        .set("flushes_total", m.flushes_total.get())
        .set("memo_served", m.memo_served.get())
        .set("panics", m.panics.get())
        .set("idle_closed", m.idle_closed.get())
        .set("draining", shared.draining.load(Ordering::SeqCst));
    r.set("server", server);
    r
}

/// Resolves the frame's `.gts` text, source schema, and engine options;
/// shared by `load_schema` and `analyze`.
fn resolve_source(
    shared: &Shared,
    frame: &Json,
    op: &str,
) -> Result<(Arc<SourceFile>, usize, ContainmentOptions, Fingerprint, String), Json> {
    let gts = frame
        .get("gts")
        .and_then(Json::as_str)
        .ok_or_else(|| proto::error_frame(Some(op), proto::BAD_FRAME, "missing `gts` text"))?;
    let file = {
        // The span covers the memo lookup too, so traced frames always
        // decompose into a `parse` step (a hit is just a fast one).
        let _span = gts_obs::span("parse");
        shared.compile(gts).map_err(|e| proto::error_frame(Some(op), proto::COMPILE_ERROR, e))?
    };
    let compiled = &file.compiled;
    let source_key = if op == "load_schema" { "schema" } else { "source" };
    let source_idx = match frame.get(source_key).and_then(Json::as_str) {
        Some(name) => compiled.schemas.iter().position(|(n, _)| n == name).ok_or_else(|| {
            proto::error_frame(
                Some(op),
                proto::BAD_REQUEST,
                format!("no schema named `{name}` in the shipped text"),
            )
        })?,
        None if !compiled.schemas.is_empty() => 0,
        None => {
            return Err(proto::error_frame(
                Some(op),
                proto::BAD_REQUEST,
                "the shipped text declares no schema",
            ))
        }
    };
    let opts = match frame.get("budget").and_then(Json::as_str) {
        None | Some("default") => ContainmentOptions::default(),
        Some("large") => ContainmentOptions { budget: Budget::large(), ..Default::default() },
        Some(other) => {
            return Err(proto::error_frame(
                Some(op),
                proto::BAD_REQUEST,
                format!("unknown budget `{other}` (expected `default` or `large`)"),
            ))
        }
    };
    let key = canonical_key(&compiled.schemas[source_idx].1, &compiled.vocab, &opts);
    let fp = fingerprint_of(&key);
    Ok((file, source_idx, opts, fp, key))
}

fn load_schema(shared: &Shared, frame: &Json) -> Json {
    let (file, idx, opts, fp, key) = match resolve_source(shared, frame, "load_schema") {
        Ok(x) => x,
        Err(e) => return e,
    };
    let compiled = &file.compiled;
    let schema = compiled.schemas[idx].1.clone();
    let vocab = compiled.vocab.clone();
    let _span = gts_obs::span("session_checkout");
    let (_, hit) =
        shared.registry.checkout(fp, &key, || AnalysisSession::with_options(schema, vocab, opts));
    drop(_span);
    let mut r = proto::ok_frame("load_schema");
    r.set("fingerprint", fp.to_string())
        .set("schema", compiled.schemas[idx].0.as_str())
        .set("pool", if hit { "hit" } else { "miss" });
    r
}

fn evict(shared: &Shared, frame: &Json) -> Json {
    match frame.get("fingerprint") {
        // Only a genuinely absent field means "evict everything": a
        // present-but-malformed fingerprint must never escalate a typo
        // into a full pool wipe.
        None => {
            let n = shared.registry.evict_all();
            let mut r = proto::ok_frame("evict");
            r.set("evicted", n as u64);
            r
        }
        Some(v) => match v.as_str().and_then(Fingerprint::parse) {
            Some(fp) if shared.registry.evict(fp) => {
                let mut r = proto::ok_frame("evict");
                r.set("evicted", 1u64);
                r
            }
            Some(fp) => proto::error_frame(
                Some("evict"),
                proto::NOT_FOUND,
                format!("fingerprint {fp} is not resident"),
            ),
            None => proto::error_frame(
                Some("evict"),
                proto::BAD_REQUEST,
                "fingerprint must be a string of 16 hex digits",
            ),
        },
    }
}

/// `cache_export`: serialize the named session's verdict memo as a base64
/// store snapshot.
/// Prefers the resident session (freshest state); falls back to the
/// on-disk store under `cache_dir`, re-encoded to its validated clean
/// prefix so a torn tail never ships over the wire.
fn cache_export(shared: &Shared, frame: &Json) -> Json {
    let fp = match frame.get("fingerprint").and_then(Json::as_str).and_then(Fingerprint::parse) {
        Some(fp) => fp,
        None => {
            return proto::error_frame(
                Some("cache_export"),
                proto::BAD_REQUEST,
                "fingerprint must be a string of 16 hex digits",
            )
        }
    };
    let bytes = shared.registry.export_resident(fp).or_else(|| {
        let dir = shared.registry.cache_dir()?;
        let raw = std::fs::read(gts_store::store_path(dir, fp.0)).ok()?;
        let (identity, _) = gts_store::decode_identity(&raw)?;
        let loaded = gts_store::decode_store(&raw, None);
        Some(gts_store::encode_store(&identity, &loaded.records))
    });
    match bytes {
        Some(bytes) => {
            let mut r = proto::ok_frame("cache_export");
            r.set("fingerprint", fp.to_string())
                .set("bytes", bytes.len() as u64)
                .set("store", gts_store::base64_encode(&bytes));
            r
        }
        None => proto::error_frame(
            Some("cache_export"),
            proto::NOT_FOUND,
            format!("fingerprint {fp} is neither resident nor in the disk cache"),
        ),
    }
}

/// `cache_import`: accept a base64 store snapshot, install it into the
/// disk cache (when configured), and hydrate the matching resident
/// session in place. The snapshot names its own identity; the server
/// derives the fingerprint from it rather than trusting a client field.
fn cache_import(shared: &Shared, frame: &Json) -> Json {
    let op = "cache_import";
    let Some(b64) = frame.get("store").and_then(Json::as_str) else {
        return proto::error_frame(Some(op), proto::BAD_REQUEST, "missing `store` (base64 bytes)");
    };
    let Some(bytes) = gts_store::base64_decode(b64) else {
        return proto::error_frame(Some(op), proto::BAD_REQUEST, "store is not valid base64");
    };
    let Some((identity, _)) = gts_store::decode_identity(&bytes) else {
        return proto::error_frame(
            Some(op),
            proto::BAD_REQUEST,
            "store is not a valid snapshot (bad magic, version, or header)",
        );
    };
    let fp = Fingerprint(gts_store::fnv64(identity.as_bytes()));
    let mut r = proto::ok_frame(op);
    r.set("fingerprint", fp.to_string());
    let mut applied = false;
    if let Some(report) = shared.registry.hydrate_resident(fp, &bytes) {
        let mut h = Json::obj();
        h.set("verdicts", report.verdicts as u64).set("degraded", report.degraded);
        r.set("hydrated", h).set("resident", true);
        applied = true;
    }
    // When a resident session absorbed the snapshot, install its merged
    // export (local state ∪ snapshot) rather than the raw snapshot —
    // overwriting the store file with the import alone would drop
    // locally learned records the snapshot doesn't carry.
    let install = if applied {
        shared.registry.export_resident(fp).unwrap_or_else(|| bytes.clone())
    } else {
        bytes.clone()
    };
    if let Some(dir) = shared.registry.cache_dir() {
        match gts_store::install_snapshot(&gts_store::store_path(dir, fp.0), &install) {
            Ok(_) => {
                r.set("installed", true);
                applied = true;
            }
            Err(e) => {
                return proto::error_frame(
                    Some(op),
                    proto::BAD_REQUEST,
                    format!("store rejected: {e}"),
                )
            }
        }
    }
    if !applied {
        return proto::error_frame(
            Some(op),
            proto::NOT_FOUND,
            "no resident session matches the snapshot and the server has no cache directory",
        );
    }
    r
}

fn analyze(shared: &Shared, frame: &Json) -> Json {
    // Validate the deadline before doing any work: `deadline_ms: 0`
    // would mint an already-expired deadline, so every request in the
    // frame would be skipped while the frame itself reported `ok:true` —
    // a malformed request, not a slow one.
    let deadline_ms = frame.get("deadline_ms").and_then(Json::as_u64);
    if deadline_ms == Some(0) {
        return proto::error_frame(
            Some("analyze"),
            proto::BAD_REQUEST,
            "deadline_ms must be >= 1 (0 expires before any request can run)",
        );
    }
    // A frame the server has answered before is served straight from
    // the memo — analysis is deterministic in the shipped text, so the
    // resident steady state is a lookup. The cached copy carries the
    // advisory `session`/`micros` numbers from when it was computed; the
    // request counters still advance per spec.
    let request_key = memo_request_key(frame);
    if let (Some(gts), Some(request)) =
        (frame.get("gts").and_then(Json::as_str), request_key.as_deref())
    {
        if let Some(cached) = shared.memo_answer(gts, request) {
            let n = cached.get("results").and_then(Json::as_arr).map_or(0, |r| r.len() as u64);
            shared.obs.requests_total.add(n);
            shared.obs.memo_served.inc();
            return cached;
        }
    }
    let (file, idx, opts, fp, key) = match resolve_source(shared, frame, "analyze") {
        Ok(x) => x,
        Err(e) => return e,
    };
    let compiled = &file.compiled;
    let Some(specs) = frame.get("requests").and_then(Json::as_arr) else {
        return proto::error_frame(Some("analyze"), proto::BAD_FRAME, "missing `requests` array");
    };
    // Resolve every spec BEFORE admission: malformed frames must not
    // consume an analysis slot.
    let mut resolved: Vec<(String, Request)> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        match resolve_spec(shared, compiled, spec) {
            Ok(labeled) => resolved.push(labeled),
            Err(msg) => {
                return proto::error_frame(
                    Some("analyze"),
                    proto::BAD_REQUEST,
                    format!("request #{i}: {msg}"),
                )
            }
        }
    }
    let deadline = deadline_ms
        .or(shared.cfg.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let permit = match shared.admission.admit_for(tenant_of(frame), deadline) {
        Ok(p) => p,
        Err(e) => return proto::error_frame(Some("analyze"), e.code(), admission_message(e)),
    };
    // Test/benchmark hook: hold the permit without doing work, so suites
    // can exercise backpressure and drain deterministically.
    if shared.cfg.allow_linger {
        if let Some(ms) = frame.get("linger_ms").and_then(Json::as_u64) {
            std::thread::sleep(Duration::from_millis(ms.min(10_000)));
        }
    }
    let schema = compiled.schemas[idx].1.clone();
    let checkout_span = gts_obs::span("session_checkout");
    let (mut session, pool_hit) = shared
        .registry
        .checkout(fp, &key, || AnalysisSession::with_options(schema, compiled.vocab.clone(), opts));
    drop(checkout_span);
    let mut results = Vec::with_capacity(resolved.len());
    let mut any_skipped = false;
    for (label, request) in resolved {
        // Count every request the frame carried — skipped ones included,
        // or `requests_total` under-reports exactly when the server is
        // pressed hardest (the moment the counters matter most).
        shared.obs.requests_total.inc();
        if deadline.is_some_and(|d| Instant::now() >= d) {
            any_skipped = true;
            shared.obs.deadline_skipped.inc();
            let mut entry = Json::obj();
            entry.set("label", label).set("error", proto::DEADLINE_EXCEEDED).set("skipped", true);
            results.push(entry);
            continue;
        }
        let start = Instant::now();
        let verdict = request.run(&mut session);
        let micros = start.elapsed().as_micros() as u64;
        results.push(verdict_json(shared, &session, label, verdict, micros));
    }
    drop(permit);
    let stats = session.stats();
    let mut r = proto::ok_frame("analyze");
    r.set("fingerprint", fp.to_string())
        .set("source", compiled.schemas[idx].0.as_str())
        .set("pool", if pool_hit { "hit" } else { "miss" })
        .set("results", Json::Arr(results))
        .set("session", stats.to_json());
    // Store the rendered response for the next identical frame. The
    // stored copy reports `pool: hit` — a memo-served answer *is* the
    // resident state answering. Partially-skipped responses depend on
    // timing, not text, so they are never stored.
    if let Some(request) = request_key {
        if !any_skipped {
            let mut stored = r.clone();
            replace_field(&mut stored, "pool", Json::Str("hit".into()));
            shared.memo_store(&file, request, fp, stored);
        }
    }
    r
}

fn admission_message(e: crate::AdmissionError) -> &'static str {
    match e {
        crate::AdmissionError::Overloaded => {
            "all analysis slots busy and the wait queue is full; retry later"
        }
        crate::AdmissionError::DeadlineExceeded => "deadline passed while queued for a slot",
        crate::AdmissionError::Draining => "server is draining; no new analyses",
        crate::AdmissionError::QuotaExceeded => {
            "tenant is over its fair share of analysis slots; retry later"
        }
    }
}

/// Resolves one request spec against the compiled document.
fn resolve_spec(
    shared: &Shared,
    compiled: &Compiled,
    spec: &Json,
) -> Result<(String, Request), String> {
    let kind = spec.get("kind").and_then(Json::as_str).ok_or("missing `kind`")?;
    let transform = |key: &str| -> Result<Transformation, String> {
        let name = spec
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing `{key}` transform name"))?;
        compiled
            .transforms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.clone())
            .ok_or_else(|| format!("no transform named `{name}` in the shipped text"))
    };
    let schema = |key: &str| -> Result<Schema, String> {
        let name = spec
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing `{key}` schema name"))?;
        compiled
            .schemas
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.clone())
            .ok_or_else(|| format!("no schema named `{name}` in the shipped text"))
    };
    let label = |default: String| -> String {
        spec.get("label").and_then(Json::as_str).map(str::to_owned).unwrap_or(default)
    };
    match kind {
        "type_check" => {
            let t = spec.get("transform").and_then(Json::as_str).unwrap_or("?").to_owned();
            let target = spec.get("target").and_then(Json::as_str).unwrap_or("?").to_owned();
            Ok((
                label(format!("check {t} -> {target}")),
                Request::TypeCheck {
                    transform: transform("transform")?,
                    target: schema("target")?,
                },
            ))
        }
        "equivalence" => {
            let l = spec.get("left").and_then(Json::as_str).unwrap_or("?").to_owned();
            let r = spec.get("right").and_then(Json::as_str).unwrap_or("?").to_owned();
            Ok((
                label(format!("equiv {l} ~ {r}")),
                Request::Equivalence { left: transform("left")?, right: transform("right")? },
            ))
        }
        "elicit" => {
            let t = spec.get("transform").and_then(Json::as_str).unwrap_or("?").to_owned();
            Ok((
                label(format!("elicit {t}")),
                Request::Elicit { transform: transform("transform")? },
            ))
        }
        "execute" => {
            let text =
                spec.get("instance").and_then(Json::as_str).ok_or("missing `instance` text")?;
            // Instances may intern new labels; parse against a scratch
            // vocabulary clone (the session keeps its own).
            let mut vocab = compiled.vocab.clone();
            let instance = (shared.frontend.parse_instance)(text, &mut vocab)
                .map_err(|e| format!("instance: {e}"))?;
            let check_target = match spec.get("check_target").and_then(Json::as_str) {
                Some(_) => Some(schema("check_target")?),
                None => None,
            };
            let t = spec.get("transform").and_then(Json::as_str).unwrap_or("?").to_owned();
            Ok((
                label(format!("execute {t}")),
                Request::Execute { transform: transform("transform")?, instance, check_target },
            ))
        }
        other => Err(format!("unknown request kind `{other}`")),
    }
}

/// Renders one request outcome as a result entry (same field names as
/// the `gts batch` JSON).
fn verdict_json(
    shared: &Shared,
    session: &AnalysisSession,
    label: String,
    verdict: Result<Verdict, gts_core::AnalysisError>,
    micros: u64,
) -> Json {
    let mut entry = Json::obj();
    entry.set("label", label).set("micros", micros);
    match verdict {
        Ok(Verdict::Decision(d)) => {
            entry.set("holds", d.holds).set("certified", d.certified);
        }
        Ok(Verdict::Elicited { schema, certified }) => {
            entry
                .set("schema", (shared.frontend.render_schema)(&schema, session.vocab()))
                .set("certified", certified);
        }
        Ok(Verdict::Executed { output, conforms }) => {
            entry
                .set("output_nodes", output.num_nodes() as u64)
                .set("output_edges", output.num_edges() as u64);
            if let Some(ok) = conforms {
                entry.set("conforms", ok);
            }
        }
        Err(e) => {
            entry.set("error", format!("{e:?}"));
        }
    }
    entry
}
