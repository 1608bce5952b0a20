//! gts-obs — the unified observability layer.
//!
//! Std-only substrate for seeing where time goes across the stack:
//!
//! * **Metrics** ([`MetricsRegistry`]): atomic counters, gauges, and
//!   fixed-log-bucket latency histograms with lock-free recording and
//!   p50/p90/p99/max extraction, organized into labeled families
//!   (`verb`, `family`, `phase`). Library layers record into the
//!   process-global registry ([`global`]); a `gts-serve` server keeps
//!   per-server registries for its protocol, admission and session-pool
//!   series, each owned by the component whose events it counts.
//! * **Exposition** ([`render_prometheus`], [`render_json`]): the
//!   Prometheus text format served by the `metrics` protocol verb, and a
//!   JSON mirror with pre-extracted quantiles for benchmarks.
//! * **Tracing** ([`trace`], [`span`], [`SpanNode`]): thread-local span
//!   stacks that decompose one `analyze` request into
//!   parse → session checkout → oracle decide → completion sweep → exec,
//!   with same-name sibling merging, a renderable tree, and a bounded
//!   ring-buffer event log ([`recent_events`]).
//! * **Fan-out** ([`par`]): the one ordered shard map every parallel
//!   section runs through, under one process-wide thread budget.
//! * **JSON** ([`Json`]): the workspace's one document model, builder
//!   and parser (and its one string escaper). Every JSON surface renders
//!   through it: the metrics mirror, span trees, `gts batch`, and the
//!   serve wire protocol (`gts-engine` re-exports it).
//!
//! Overhead: recording is a relaxed atomic add; histograms (and the
//! clock reads around them) sit behind one relaxed load of a
//! process-wide enable flag ([`set_enabled`]); spans outside an active
//! [`trace`] are a thread-local read.

#![warn(missing_docs)]

mod json;
mod metrics;
pub mod par;
mod prom;
mod span;

pub use json::{Json, JsonError};
pub use metrics::{
    enabled, global, set_enabled, Counter, Gauge, Histogram, HistogramSnapshot, MetricKind,
    MetricsRegistry,
};
pub use prom::{render_json, render_prometheus};
pub use span::{
    format_micros, recent_events, record_event, span, trace, tracing_active, SpanGuard, SpanNode,
    TraceEvent,
};
