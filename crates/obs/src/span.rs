//! Span-based tracing: thread-local span stacks with enter/exit timing,
//! a renderable span tree, and a bounded ring-buffer event log.
//!
//! Tracing is *opt-in per call tree*: [`trace`] installs a collector on
//! the current thread, runs a closure, and returns the merged span tree.
//! Instrumentation sites call [`span`] unconditionally — when no
//! collector is installed the guard is inert and the cost is one
//! thread-local read (no clock read, no allocation), so the library
//! layers stay instrumented at all times without a tracing tax.
//!
//! Spans are captured on the *calling thread only*: shards a
//! [`crate::par`] map runs on its extra threads (sweep shards, rule-body
//! shards) show up as the enclosing span's time. Guards are `!Send` and
//! panic-safe — an unwind pops every open span and uninstalls the
//! collector, leaving the thread clean for the next trace.

use crate::Json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::Mutex;
use std::time::Instant;

/// Raw in-flight span storage; converted to [`SpanNode`]s when the trace
/// finishes.
struct RawSpan {
    name: &'static str,
    start: Instant,
    micros: u64,
    children: Vec<usize>,
}

/// Hard cap on raw spans per trace — a runaway loop of spans degrades to
/// counting (the open guards still balance) instead of unbounded memory.
const MAX_RAW_SPANS: usize = 65_536;

struct TraceState {
    spans: Vec<RawSpan>,
    /// Indices of currently-open spans; `stack[0]` is the root.
    stack: Vec<usize>,
    /// Depth of spans entered past [`MAX_RAW_SPANS`] (not recorded).
    overflow_depth: usize,
    /// Spans dropped due to the cap (reported on the root node's name).
    overflowed: u64,
}

thread_local! {
    static TRACE: RefCell<Option<TraceState>> = const { RefCell::new(None) };
}

/// `true` iff a [`trace`] collector is installed on this thread (used by
/// callers that only want to build trace metadata when it will be kept).
pub fn tracing_active() -> bool {
    TRACE.with(|t| t.borrow().is_some())
}

/// How the guard must undo its enter.
enum GuardKind {
    /// No collector installed: nothing to undo.
    Inert,
    /// A recorded span to close.
    Recorded,
    /// Entered past the span cap: only the overflow depth to unwind.
    Overflow,
}

/// Closes its span on drop (including during unwinding). `!Send`: spans
/// belong to the thread that opened them.
pub struct SpanGuard {
    kind: GuardKind,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        match self.kind {
            GuardKind::Inert => {}
            GuardKind::Recorded => TRACE.with(|t| {
                if let Some(state) = t.borrow_mut().as_mut() {
                    if let Some(idx) = state.stack.pop() {
                        let span = &mut state.spans[idx];
                        span.micros = span.start.elapsed().as_micros() as u64;
                    }
                }
            }),
            GuardKind::Overflow => TRACE.with(|t| {
                if let Some(state) = t.borrow_mut().as_mut() {
                    state.overflow_depth = state.overflow_depth.saturating_sub(1);
                }
            }),
        }
    }
}

/// Opens a span named `name` under the current span of this thread's
/// active trace. Inert (and nearly free) when no trace is active.
pub fn span(name: &'static str) -> SpanGuard {
    let kind = TRACE.with(|t| {
        let mut borrow = t.borrow_mut();
        let Some(state) = borrow.as_mut() else {
            return GuardKind::Inert;
        };
        if state.overflow_depth > 0 || state.spans.len() >= MAX_RAW_SPANS {
            state.overflow_depth += 1;
            state.overflowed += 1;
            return GuardKind::Overflow;
        }
        let idx = state.spans.len();
        state.spans.push(RawSpan { name, start: Instant::now(), micros: 0, children: Vec::new() });
        if let Some(&parent) = state.stack.last() {
            state.spans[parent].children.push(idx);
        }
        state.stack.push(idx);
        GuardKind::Recorded
    });
    SpanGuard { kind, _not_send: PhantomData }
}

/// One node of a finished span tree. Same-name siblings are merged: a
/// loop that opens `oracle_decide` 400 times becomes one node with
/// `count = 400` and summed `micros`.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span name (instrumentation-site static string).
    pub name: String,
    /// Total time in this span across all merged occurrences, µs.
    pub micros: u64,
    /// Number of merged occurrences.
    pub count: u64,
    /// Child spans, first-seen order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn leaf(name: &str) -> SpanNode {
        SpanNode { name: name.to_string(), micros: 0, count: 1, children: Vec::new() }
    }

    /// Builds the merged node for raw span `idx`.
    fn build(spans: &[RawSpan], idx: usize) -> SpanNode {
        let raw = &spans[idx];
        let mut node = SpanNode {
            name: raw.name.to_string(),
            micros: raw.micros,
            count: 1,
            children: Vec::new(),
        };
        for &child in &raw.children {
            let built = SpanNode::build(spans, child);
            match node.children.iter_mut().find(|c| c.name == built.name) {
                Some(existing) => existing.merge(built),
                None => node.children.push(built),
            }
        }
        node
    }

    fn merge(&mut self, other: SpanNode) {
        self.micros += other.micros;
        self.count += other.count;
        for child in other.children {
            match self.children.iter_mut().find(|c| c.name == child.name) {
                Some(existing) => existing.merge(child),
                None => self.children.push(child),
            }
        }
    }

    /// Renders the tree as indented text with human-readable durations,
    /// e.g. `oracle_decide ×42  8.9ms`.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        if self.count > 1 {
            let _ = write!(out, " \u{00d7}{}", self.count);
        }
        let _ = writeln!(out, "  {}", format_micros(self.micros));
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }

    /// The tree as a JSON object: `name`, `micros`, `count`, and
    /// `children` (recursively; omitted on a leaf). The shape of the serve
    /// protocol's `trace` field.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("name", self.name.as_str()).set("micros", self.micros).set("count", self.count);
        if !self.children.is_empty() {
            obj.set("children", Json::Arr(self.children.iter().map(SpanNode::to_json).collect()));
        }
        obj
    }
}

/// Formats a microsecond duration for humans: `17µs`, `4.2ms`, `1.73s`.
pub fn format_micros(us: u64) -> String {
    if us < 1_000 {
        format!("{us}\u{00b5}s")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Uninstalls the collector on drop so a panicking closure leaves the
/// thread clean for the next trace.
struct Uninstall;

impl Drop for Uninstall {
    fn drop(&mut self) {
        TRACE.with(|t| t.borrow_mut().take());
    }
}

/// Runs `f` with a span collector installed on this thread, returning its
/// result and the merged span tree rooted at `name`.
///
/// A nested `trace` on a thread that is already tracing degrades
/// gracefully: the inner call contributes a [`span`] to the outer trace
/// and returns an empty tree of its own.
pub fn trace<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, SpanNode) {
    if tracing_active() {
        let _inner = span(name);
        return (f(), SpanNode::leaf(name));
    }
    TRACE.with(|t| {
        *t.borrow_mut() = Some(TraceState {
            spans: Vec::new(),
            stack: Vec::new(),
            overflow_depth: 0,
            overflowed: 0,
        });
    });
    let uninstall = Uninstall;
    let result = {
        let _root = span(name);
        f()
    };
    let state = TRACE.with(|t| t.borrow_mut().take()).expect("trace state still installed");
    drop(uninstall);
    let mut root = if state.spans.is_empty() {
        SpanNode::leaf(name)
    } else {
        SpanNode::build(&state.spans, 0)
    };
    if state.overflowed > 0 {
        root.children.push(SpanNode {
            name: format!("(+{} spans over cap)", state.overflowed),
            micros: 0,
            count: state.overflowed,
            children: Vec::new(),
        });
    }
    record_event(&root.name, root.micros);
    (result, root)
}

/// One entry of the process-wide event ring buffer.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Monotone sequence number (process-wide).
    pub seq: u64,
    /// Event name (usually a trace root name).
    pub name: String,
    /// Duration in microseconds.
    pub micros: u64,
}

/// Ring-buffer capacity for [`recent_events`].
const EVENT_CAP: usize = 256;

static EVENTS: Mutex<Option<(u64, VecDeque<TraceEvent>)>> = Mutex::new(None);

/// Appends an entry to the bounded process-wide event log (completed
/// traces land here automatically; servers also push slow-request
/// markers). The oldest entry is evicted past the 256-entry cap.
pub fn record_event(name: &str, micros: u64) {
    let mut guard = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
    let (next_seq, buf) = guard.get_or_insert_with(|| (0, VecDeque::new()));
    let seq = *next_seq;
    *next_seq += 1;
    if buf.len() == EVENT_CAP {
        buf.pop_front();
    }
    buf.push_back(TraceEvent { seq, name: name.to_string(), micros });
}

/// The most recent event-log entries, oldest first (bounded by the
/// 256-entry cap).
pub fn recent_events() -> Vec<TraceEvent> {
    let guard = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|(_, buf)| buf.iter().cloned().collect()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_without_a_trace_are_inert() {
        assert!(!tracing_active());
        let g = span("orphan");
        assert!(matches!(g.kind, GuardKind::Inert));
        drop(g);
        assert!(!tracing_active());
    }

    #[test]
    fn trace_builds_a_nested_merged_tree() {
        let (value, tree) = trace("request", || {
            {
                let _p = span("parse");
            }
            for _ in 0..3 {
                let _d = span("decide");
                let _probe = span("probe");
            }
            42
        });
        assert_eq!(value, 42);
        assert_eq!(tree.name, "request");
        assert_eq!(tree.count, 1);
        let names: Vec<&str> = tree.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["parse", "decide"]);
        let decide = &tree.children[1];
        assert_eq!(decide.count, 3, "same-name siblings merge");
        assert_eq!(decide.children.len(), 1);
        assert_eq!(decide.children[0].name, "probe");
        assert_eq!(decide.children[0].count, 3);
        let rendered = tree.render_tree();
        assert!(rendered.contains("decide \u{00d7}3"), "{rendered}");
        assert!(rendered.starts_with("request"));
        let json = Json::parse(&tree.to_json().compact()).expect("span tree JSON parses");
        let decide = &json.get("children").and_then(Json::as_arr).expect("children")[1];
        assert_eq!(decide.get("name").and_then(Json::as_str), Some("decide"));
        assert_eq!(decide.get("count").and_then(Json::as_u64), Some(3));
        let probe = &decide.get("children").and_then(Json::as_arr).expect("children")[0];
        assert!(probe.get("children").is_none(), "a leaf carries no `children`");
        assert!(!tracing_active(), "collector uninstalled after trace");
    }

    #[test]
    fn panicking_closure_unwinds_guards_and_uninstalls() {
        let caught = std::panic::catch_unwind(|| {
            trace("doomed", || {
                let _inner = span("inner");
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        assert!(!tracing_active(), "panic left a collector installed");
        // The thread is clean: a fresh trace works and sees no leftovers.
        let (_, tree) = trace("after", || {
            let _s = span("child");
        });
        assert_eq!(tree.name, "after");
        assert_eq!(tree.children.len(), 1);
    }

    #[test]
    fn nested_trace_degrades_to_a_span() {
        let ((), outer) = trace("outer", || {
            let ((), inner) = trace("inner", || ());
            assert_eq!(inner.name, "inner");
            assert!(inner.children.is_empty());
        });
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
    }

    #[test]
    fn event_log_is_bounded_and_ordered() {
        for i in 0..(EVENT_CAP + 10) {
            record_event("tick", i as u64);
        }
        let events = recent_events();
        assert!(events.len() <= EVENT_CAP);
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "oldest first");
        }
    }

    #[test]
    fn format_micros_picks_sane_units() {
        assert_eq!(format_micros(17), "17\u{00b5}s");
        assert_eq!(format_micros(4_200), "4.2ms");
        assert_eq!(format_micros(1_730_000), "1.73s");
    }
}
