//! gts-obs — the unified observability layer.
//!
//! Std-only substrate for seeing where time goes across the stack:
//!
//! * **Metrics** ([`MetricsRegistry`]): atomic counters, gauges, and
//!   fixed-log-bucket latency histograms with lock-free recording and
//!   p50/p90/p99/max extraction, organized into labeled families
//!   (`verb`, `family`, `phase`). Library layers record into the
//!   process-global registry ([`global`]); `gts-serve` keeps a second,
//!   per-server registry for protocol-level series.
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
//! * **Snapshots** ([`Snapshot`]): the ordered key-value tree every
//!   stats surface (`gts batch --stats`, the serve `analyze` response)
//!   renders from, so their JSON shapes agree by construction.
//!
//! Overhead: recording is a relaxed atomic add; histograms (and the
//! clock reads around them) sit behind one relaxed load of a
//! process-wide enable flag ([`set_enabled`]); spans outside an active
//! [`trace`] are a thread-local read.

#![warn(missing_docs)]

mod metrics;
pub mod par;
mod prom;
mod snapshot;
mod span;

pub use metrics::{
    enabled, global, set_enabled, Counter, Gauge, Histogram, HistogramSnapshot, MetricKind,
    MetricsRegistry,
};
pub use prom::{render_json, render_prometheus};
pub use snapshot::{Snapshot, Value};
pub use span::{
    format_micros, recent_events, record_event, span, trace, tracing_active, SpanGuard, SpanNode,
    TraceEvent,
};
