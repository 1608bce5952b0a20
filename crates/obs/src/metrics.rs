//! The metrics core: counters, gauges, log-bucket latency histograms, and
//! the registry of labeled families.
//!
//! Recording is lock-free: every handle wraps `Arc`ed atomics, so the hot
//! path is a relaxed fetch-add (histograms add one relaxed load of the
//! process-wide enable flag). The registry lock is only taken to
//! *resolve* a handle — callers on hot paths cache handles in `OnceLock`
//! statics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Process-wide metrics enable flag ([`set_enabled`]). Gates histogram
/// recording (and, at the call sites, the clock reads that feed it), so
/// an instrumentation-overhead measurement needs no rebuild.
/// Counters and gauges ignore it: they are the single record of their
/// events, and the `stats` verb reads them whatever the flag says.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns histogram recording on or off process-wide (handles stay valid;
/// recording a histogram while disabled is a no-op, counters and gauges
/// keep counting). Used by `gts serve --no-metrics`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` iff metric recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing counter. Cloning shares the underlying
/// cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (occupancy, queue depth).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value (scrape-time synchronization from a source of
    /// truth that lives elsewhere).
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution bits: 8 sub-buckets per power of two, bounding
/// the relative error of percentile extraction at `1/8 = 12.5%`.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count for the full `u64` range under this scheme: the
/// largest index is `bucket_index(u64::MAX)` = `(61·SUB) + (SUB-1)`.
pub(crate) const N_BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * (SUB as usize);

/// Bucket index of a recorded value: values below [`SUB`] map directly
/// (exact at the low end); above, the top [`SUB_BITS`]+1 significant bits
/// select (octave, sub-bucket). Monotone in `v`.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) - SUB;
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// Inclusive `[lo, hi]` value range of bucket `idx` (the inverse of
/// [`bucket_index`]). `hi - lo < lo / SUB` for all buckets past the exact
/// low range, which is what bounds the percentile error.
pub(crate) fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, idx);
    }
    let shift = (idx / SUB - 1) as u32;
    let sub = idx % SUB;
    let lo = (SUB + sub) << shift;
    let hi = lo + ((1u64 << shift) - 1);
    (lo, hi)
}

struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-log-bucket latency histogram: lock-free recording, quantile
/// extraction with ≤ 12.5% relative error (the estimate is the upper
/// bound of the bucket holding the true order statistic, clamped at the
/// observed maximum — so it never under-reports).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .field("max", &s.max)
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Records one observation (e.g. a latency in microseconds).
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current state (individual loads are
    /// relaxed; concurrent recording can skew `count` vs buckets by the
    /// in-flight handful, which is immaterial for reporting).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        HistogramSnapshot {
            buckets: c.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: c.count.load(Ordering::Relaxed),
            sum: c.sum.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a histogram, with quantile extraction.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub(crate) buckets: Vec<u64>,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`): the upper bound of the bucket
    /// containing the `ceil(q·count)`-th smallest observation, clamped at
    /// the observed maximum. `0` when nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(upper_bound, cumulative_count)` rows for every non-empty bucket,
    /// in increasing order — the Prometheus `le` series (the renderer
    /// appends the `+Inf` row).
    pub fn cumulative_rows(&self) -> Vec<(u64, u64)> {
        let mut rows = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                cum += n;
                rows.push((bucket_bounds(i).1, cum));
            }
        }
        rows
    }
}

/// What kind of metric a family is (drives the `# TYPE` line and the
/// rendering shape).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Distribution with log buckets.
    Histogram,
}

impl MetricKind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
pub(crate) enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One registered family: help text, kind, and the per-label-set cells.
pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: MetricKind,
    /// Keyed by the rendered label pairs (sorted by label name).
    pub(crate) cells: BTreeMap<Vec<(String, String)>, Handle>,
}

/// A registry of metric families. Handle resolution
/// ([`MetricsRegistry::counter`] & co.) takes the registry lock and is
/// idempotent: the same `(name, labels)` always yields handles sharing
/// one cell. Recording through a resolved handle never locks.
///
/// There is one process-global registry ([`crate::global`]) that
/// library-layer instrumentation records into, and `gts-serve` creates
/// one *per server* for its protocol-level series, so per-server counters
/// stay exact even when several servers share a process (test suites).
#[derive(Default)]
pub struct MetricsRegistry {
    pub(crate) families: Mutex<BTreeMap<String, Family>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fams = self.families.lock().unwrap();
        f.debug_struct("MetricsRegistry").field("families", &fams.len()).finish()
    }
}

fn label_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut key: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    key.sort();
    key
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn resolve(&self, name: &str, help: &str, kind: MetricKind, labels: &[(&str, &str)]) -> Handle {
        let mut fams = self.families.lock().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            cells: BTreeMap::new(),
        });
        assert_eq!(fam.kind, kind, "metric family `{name}` registered twice with different kinds");
        fam.cells
            .entry(label_key(labels))
            .or_insert_with(|| match kind {
                MetricKind::Counter => Handle::Counter(Counter(Arc::new(AtomicU64::new(0)))),
                MetricKind::Gauge => Handle::Gauge(Gauge(Arc::new(AtomicI64::new(0)))),
                MetricKind::Histogram => Handle::Histogram(Histogram::default()),
            })
            .clone()
    }

    /// The counter cell for `(name, labels)`, registering it on first use.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.resolve(name, help, MetricKind::Counter, labels) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked in resolve"),
        }
    }

    /// The gauge cell for `(name, labels)`, registering it on first use.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.resolve(name, help, MetricKind::Gauge, labels) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked in resolve"),
        }
    }

    /// The histogram cell for `(name, labels)`, registering it on first
    /// use.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.resolve(name, help, MetricKind::Histogram, labels) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked in resolve"),
        }
    }

    /// The current value of a counter cell, `None` if never registered.
    /// (Read-side convenience for tests and benchmarks; does not
    /// register.)
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let fams = self.families.lock().unwrap();
        match fams.get(name)?.cells.get(&label_key(labels))? {
            Handle::Counter(c) => Some(c.get()),
            _ => None,
        }
    }
}

/// The process-global registry: where library-layer instrumentation
/// (`gts-sat`, `gts-containment`, `gts-exec`, `gts-engine`) records.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Serializes unit tests that record metrics against the one that toggles
/// the process-wide enable flag (tests run in parallel threads).
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_inverse_and_monotone() {
        let mut last = 0usize;
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1000, 4095, 4096, 1 << 20, u64::MAX / 2, u64::MAX]
        {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
            assert!(i >= last, "monotone");
            last = i;
        }
        // Exhaustive inverse check over every bucket.
        for i in 0..N_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            if i + 1 < N_BUCKETS {
                assert_eq!(bucket_bounds(i + 1).0, hi + 1, "buckets tile the range");
            }
        }
    }

    #[test]
    fn counters_and_gauges_share_cells_by_name_and_labels() {
        let _serial = test_serial();
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", "help", &[("verb", "ping")]);
        let b = reg.counter("x_total", "help", &[("verb", "ping")]);
        let other = reg.counter("x_total", "help", &[("verb", "stats")]);
        a.inc();
        b.add(2);
        other.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(reg.counter_value("x_total", &[("verb", "ping")]), Some(3));
        assert_eq!(reg.counter_value("x_total", &[("verb", "stats")]), Some(1));
        let g = reg.gauge("occupancy", "help", &[]);
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _serial = test_serial();
        let reg = MetricsRegistry::new();
        let c = reg.counter("y_total", "h", &[]);
        let h = reg.histogram("y_micros", "h", &[]);
        set_enabled(false);
        c.inc();
        h.record(10);
        set_enabled(true);
        // Only histograms are gated: the counter is its event's one
        // record, so it counts with the flag off.
        assert_eq!(c.get(), 1);
        assert_eq!(h.snapshot().count, 0);
        c.inc();
        h.record(10);
        assert_eq!(c.get(), 2);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn histogram_quantiles_track_the_distribution() {
        let _serial = test_serial();
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        // True median is 500; the estimate is the containing bucket's
        // upper bound, within 12.5% above.
        assert!((500..=563).contains(&p50), "p50={p50}");
        let p99 = s.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.quantile(1.0), 1000);
        assert!(s.mean() > 499.0 && s.mean() < 502.0);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
