//! # gts-serve
//!
//! A long-running analysis/execution server for the paper's decidable
//! static analyses (*Static Analysis of Graph Database Transformations*,
//! PODS 2023). Every other entry point of the workspace is a one-shot
//! process: each `gts` invocation rebuilds schemas, re-interns automata,
//! and discards the `AnalysisSession` verdict memo when it exits. This
//! crate makes that memo *resident*:
//!
//! * [`SessionRegistry`] — a concurrency-safe pool of
//!   [`gts_engine::AnalysisSession`]s keyed by a [`Fingerprint`] of
//!   (vocabulary, schema, engine budgets), with LRU eviction under entry
//!   and byte budgets, so containment verdict memos persist across
//!   connections and clients;
//! * [`Admission`] — a semaphore-style admission controller bounding
//!   in-flight analyses and queue depth, returning backpressure errors
//!   instead of buffering without bound, with per-request deadlines;
//! * [`Server`] — a readiness-driven TCP server built on the `gts-net`
//!   reactor (one event-loop thread, nonblocking sockets, a worker pool
//!   for oracle work) speaking newline-delimited JSON over a versioned
//!   protocol ([`PROTO_VERSION`], [`MIN_PROTO_VERSION`]) that wraps
//!   [`gts_engine::Request`] / [`gts_engine::Verdict`] plus control
//!   verbs (`ping`, `stats`, `metrics`, `load_schema`, `evict`,
//!   `cache_export`, `cache_import`, `shutdown`), with pipelined
//!   out-of-order version-2 responses, per-tenant fair-share admission,
//!   idle timeouts, and graceful drain. Above the pool sits one memo
//!   keyed on the shipped `.gts` file: every frame shipping a text shares
//!   its one compile, and a repeated `analyze` frame is answered with its
//!   stored rendered response while the session that computed it is
//!   still resident (an evicted session's responses are recomputed).
//!   A frame whose handling panics gets an `internal_error` response and
//!   the server keeps serving;
//! * [`Client`] — a blocking client for the protocol, used by
//!   `gts client` and the loopback test suites, including pipelined
//!   batch submission.
//!
//! The crate deliberately does not depend on the `.gts` parser (that
//! lives in `gts-cli`, which itself depends on this crate for the `gts
//! serve` / `gts client` subcommands): the text formats carried on the
//! wire are compiled through an injected [`Frontend`], keeping the
//! dependency graph acyclic.
//!
//! ## Protocol
//!
//! One JSON object per line in each direction; see [`proto`] for the
//! frame grammar and error codes, and ARCHITECTURE.md for the full
//! description.
//!
//! ```text
//! → {"v":2,"op":"ping"}
//! ← {"ok":true,"op":"ping","proto":2}
//! → {"v":2,"op":"analyze","id":"a1","gts":"schema S {...} ...","source":"S",
//!    "requests":[{"kind":"elicit","transform":"T"}]}
//! ← {"ok":true,"op":"analyze","fingerprint":"…","pool":"miss",
//!    "results":[{"label":"elicit T","micros":…,"schema":"…","certified":true}],
//!    "session":{…},"id":"a1"}
//! ```
//!
//! Version-1 frames remain accepted and are answered strictly in
//! arrival order; version-2 frames carrying an `id` may be pipelined
//! and complete out of order (see [`proto`]).

#![warn(missing_docs)]

mod admission;
mod client;
pub mod proto;
mod registry;
mod server;

pub use admission::{
    Admission, AdmissionConfig, AdmissionError, AdmissionMetrics, AdmissionStats, Permit,
    TenantStats, DEFAULT_TENANT,
};
pub use client::{Client, ClientError};
pub use proto::{MIN_PROTO_VERSION, PROTO_VERSION};
pub use registry::{
    canonical_key, fingerprint, fingerprint_of, Fingerprint, FlushSummary, PoolMetrics,
    RegistryConfig, RegistryStats, SessionRegistry,
};
pub use server::{Compiled, Frontend, Server, ServerConfig, ServerHandle};
