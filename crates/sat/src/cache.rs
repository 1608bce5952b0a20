//! Persistent per-TBox solver state.
//!
//! Every [`crate::decide`] call over a TBox `T` rebuilds the same
//! expensive artifacts: the interned type universe, its saturation
//! fixpoints and dead-type set, and the coinductive realizability verdicts
//! of witness-tree candidates. All of them are pure functions of `T` (and
//! the engine budgets), so a [`SolverCache`] keeps one [`RealizeCtx`] per
//! *TBox fingerprint* and lets [`crate::decide_cached`] reuse it across
//! calls — the dominant cost of a cold containment analysis, whose
//! reductions ask dozens of satisfiability questions over a handful of
//! completed TBoxes.
//!
//! ## Determinism
//!
//! A cached call must agree verdict-for-verdict with a fresh-context call
//! (the differential suites in `crates/tests` enforce this). Three design
//! points make that hold:
//!
//! * cached state is keyed by the **exact** CI set (order-insensitive) and
//!   the full budget, with hash collisions resolved by comparing the
//!   canonicalized key — no verdict ever bleeds between TBoxes;
//! * memo entries carry taint bits replaying the `uncertain` flag (see
//!   [`crate::RealizeCtx`]);
//! * entries are **lock-striped**: one mutex per fingerprint, so parallel
//!   `decide` calls over different TBoxes proceed concurrently while calls
//!   over the same TBox serialize and observe the exact sequential
//!   algorithm on a warm context.
//!
//! The only intentional divergence is budget accounting: a warm context
//! skips work a fresh context would count against `max_candidates`, so a
//! *budget-bound* fresh `Unknown` can resolve to a cheaper cached verdict.
//! Callers that need bit-identical budget behavior must use budgets the
//! workload does not exhaust (all differential tests do).

use crate::budget::Budget;
use crate::realize::RealizeCtx;
use crate::types::TypeUniverse;
use gts_dl::{HornCi, HornTbox};
use gts_graph::FxHashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A full oracle-statistics snapshot: cache effectiveness plus the search
/// counters of every `decide` routed through the cache. Snapshots are
/// cumulative; use [`OracleStats::delta_since`] to attribute work to one
/// call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// `decide_cached` calls routed through the cache.
    pub decides: u64,
    /// Calls that found a warm per-TBox context.
    pub cache_hits: u64,
    /// Calls that built a fresh per-TBox context.
    pub cache_misses: u64,
    /// Distinct (TBox, budget) entries held.
    pub entries: usize,
    /// Candidate cores chased.
    pub cores_tried: u64,
    /// Candidate cores skipped by canonical-form deduplication.
    pub cores_deduped: u64,
    /// Node types interned across all entries.
    pub types_interned: usize,
    /// Realizability memo hits (verdicts + option sets).
    pub realize_hits: u64,
    /// Realizability memo misses (verdicts + option sets).
    pub realize_misses: u64,
}

impl OracleStats {
    /// The work recorded between `earlier` and `self` (gauges — `entries`
    /// and `types_interned` — keep their current value).
    pub fn delta_since(&self, earlier: &OracleStats) -> OracleStats {
        OracleStats {
            decides: self.decides - earlier.decides,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            entries: self.entries,
            cores_tried: self.cores_tried - earlier.cores_tried,
            cores_deduped: self.cores_deduped - earlier.cores_deduped,
            types_interned: self.types_interned,
            realize_hits: self.realize_hits - earlier.realize_hits,
            realize_misses: self.realize_misses - earlier.realize_misses,
        }
    }

    /// Folds another snapshot's counters into this one (for aggregating
    /// per-call deltas).
    pub fn absorb(&mut self, other: &OracleStats) {
        self.decides += other.decides;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.entries = self.entries.max(other.entries);
        self.cores_tried += other.cores_tried;
        self.cores_deduped += other.cores_deduped;
        self.types_interned = self.types_interned.max(other.types_interned);
        self.realize_hits += other.realize_hits;
        self.realize_misses += other.realize_misses;
    }

    /// Fraction of `decide` calls that found a warm context.
    pub fn cache_hit_rate(&self) -> f64 {
        rate(self.cache_hits, self.cache_misses)
    }

    /// Fraction of realizability questions answered from the memo.
    pub fn realize_hit_rate(&self) -> f64 {
        rate(self.realize_hits, self.realize_misses)
    }
}

/// The global-registry `(hit, miss)` counters for warm-context reuse,
/// resolved once (handle resolution is on the per-decide path).
fn solver_cache_obs() -> &'static (gts_obs::Counter, gts_obs::Counter) {
    static CELLS: std::sync::OnceLock<(gts_obs::Counter, gts_obs::Counter)> =
        std::sync::OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = gts_obs::global();
        let name = "gts_sat_solver_cache_total";
        let help = "Per-TBox solver-context lookups by outcome";
        (
            reg.counter(name, help, &[("outcome", "hit")]),
            reg.counter(name, help, &[("outcome", "miss")]),
        )
    })
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// The canonical identity of a cache entry: the CI *set* plus the budget
/// (budgets bound enumeration caps, so they are part of the verdict).
struct CacheKey {
    cis: gts_graph::FxHashSet<HornCi>,
    budget: [usize; 6],
}

impl CacheKey {
    /// Exact set equality against a probe's CI list (which may contain
    /// duplicates when constructed directly rather than via `push`).
    fn matches(&self, tbox: &HornTbox, budget: [usize; 6]) -> bool {
        if self.budget != budget {
            return false;
        }
        if tbox.cis.len() < self.cis.len() {
            return false;
        }
        if !tbox.cis.iter().all(|ci| self.cis.contains(ci)) {
            return false;
        }
        // Containment plus equal *distinct* counts is set equality; the
        // probe's raw length is not enough (it may carry duplicates).
        let distinct: gts_graph::FxHashSet<&HornCi> = tbox.cis.iter().collect();
        distinct.len() == self.cis.len()
    }
}

fn budget_key(budget: &Budget) -> [usize; 6] {
    budget.cache_key()
}

/// Order-insensitive fingerprint of `(tbox, budget)` — a commutative fold
/// of per-CI hashes, so no allocation or sorting on the lookup path;
/// collisions are resolved by an exact CI-set comparison in
/// [`SolverCache`].
pub fn tbox_fingerprint(tbox: &HornTbox, budget: &Budget) -> u64 {
    let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
    for ci in &tbox.cis {
        let mut h = gts_graph::FxHasher::default();
        ci.hash(&mut h);
        // Wrapping sum commutes; duplicates would shift the sum, but a
        // set-semantics TBox has none and the exact key check catches the
        // rest.
        acc = acc.wrapping_add(h.finish() | 1);
    }
    let mut h = gts_graph::FxHasher::default();
    budget_key(budget).hash(&mut h);
    acc ^ h.finish()
}

struct Entry {
    key: CacheKey,
    ctx: Mutex<RealizeCtx>,
    /// Number of calls served by this entry (first call = the cold miss).
    uses: AtomicU64,
    /// Interned-type count last mirrored into the cache-wide gauge.
    types_reported: AtomicU64,
}

/// A not-yet-claimed portable snapshot: the exact portable TBox key plus
/// the serialized [`RealizeCtx`] memo tables (see [`crate::portable`]).
struct PendingSnapshot {
    key: Vec<u8>,
    payload: Vec<u8>,
}

/// A resolved reference to one per-TBox solver context. Cloning is cheap
/// (an `Arc` bump); the handle stays valid for the cache's lifetime and
/// skips the CI-set hashing of [`SolverCache::handle`] on every reuse.
#[derive(Clone)]
pub struct SolverHandle {
    entry: Arc<Entry>,
}

/// A concurrency-safe store of per-TBox solver contexts (type universe,
/// saturation fixpoints, realizability memos), keyed by TBox fingerprint.
///
/// Shareable across threads (`Arc<SolverCache>`): the outer map lock is
/// held only for entry lookup, and each entry has its own mutex, so
/// parallel `decide` calls stripe by TBox.
#[derive(Default)]
pub struct SolverCache {
    entries: Mutex<FxHashMap<u64, Vec<Arc<Entry>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    decides: AtomicU64,
    cores_tried: AtomicU64,
    cores_deduped: AtomicU64,
    /// Running totals mirrored out of the per-entry contexts, so stats
    /// snapshots (taken on every `contains` call) never touch an entry
    /// mutex a long decide might be holding.
    realize_hits: AtomicU64,
    realize_misses: AtomicU64,
    types_interned_gauge: AtomicU64,
    /// Imported portable snapshots awaiting their TBox's first `handle`
    /// call, keyed by the FNV of the portable key (exact key compared on
    /// claim — a hash collision only wastes the snapshot, never bleeds
    /// state between TBoxes).
    pending: Mutex<FxHashMap<u64, Vec<PendingSnapshot>>>,
    /// Memo entries hydrated out of claimed snapshots.
    hydrated: AtomicU64,
}

impl std::fmt::Debug for SolverCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.oracle_stats();
        f.debug_struct("SolverCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.cache_hits)
            .field("misses", &stats.cache_misses)
            .finish()
    }
}

impl SolverCache {
    /// An empty cache.
    pub fn new() -> Self {
        SolverCache::default()
    }

    /// Number of distinct (TBox, budget) entries.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().values().map(Vec::len).sum()
    }

    /// `true` iff no entry was created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves the (warm or fresh) entry for `(tbox, budget)` into a
    /// reusable handle. The lookup hashes the whole CI set, so callers
    /// that probe one TBox repeatedly should resolve the handle once and
    /// use [`crate::decide_on`].
    pub fn handle(&self, tbox: &HornTbox, budget: &Budget) -> SolverHandle {
        let fp = tbox_fingerprint(tbox, budget);
        let bkey = budget_key(budget);
        let mut map = self.entries.lock().unwrap();
        let bucket = map.entry(fp).or_default();
        let entry = match bucket.iter().find(|e| e.key.matches(tbox, bkey)) {
            Some(e) => Arc::clone(e),
            None => {
                let key = CacheKey { cis: tbox.cis.iter().cloned().collect(), budget: bkey };
                let mut ctx = RealizeCtx::new(TypeUniverse::new(tbox), budget.clone());
                self.try_hydrate(&key, &mut ctx);
                let entry = Arc::new(Entry {
                    key,
                    ctx: Mutex::new(ctx),
                    uses: AtomicU64::new(0),
                    types_reported: AtomicU64::new(0),
                });
                bucket.push(Arc::clone(&entry));
                entry
            }
        };
        SolverHandle { entry }
    }

    /// Runs `f` on the handle's context: resets the per-call state, holds
    /// the entry's lock for the duration of `f` (serializing same-TBox
    /// callers). The first call on an entry counts as the cold miss;
    /// every later call is a warm hit.
    pub fn with_handle<R>(
        &self,
        handle: &SolverHandle,
        budget: &Budget,
        f: impl FnOnce(&mut RealizeCtx) -> R,
    ) -> R {
        debug_assert_eq!(
            handle.entry.key.budget,
            budget_key(budget),
            "handle resolved under a different budget than this call's"
        );
        if handle.entry.uses.fetch_add(1, Ordering::Relaxed) == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            solver_cache_obs().1.inc();
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            solver_cache_obs().0.inc();
        }
        let mut ctx = handle.entry.ctx.lock().unwrap();
        ctx.begin_call(budget.clone());
        let before = ctx.stats();
        let out = f(&mut ctx);
        // Mirror the context's counters into cache-wide atomics, so stats
        // snapshots need no entry locks.
        let after = ctx.stats();
        self.realize_hits.fetch_add(
            (after.status_hits - before.status_hits) + (after.options_hits - before.options_hits),
            Ordering::Relaxed,
        );
        self.realize_misses.fetch_add(
            (after.status_misses - before.status_misses)
                + (after.options_misses - before.options_misses),
            Ordering::Relaxed,
        );
        let types = ctx.types.len() as u64;
        let reported = handle.entry.types_reported.swap(types, Ordering::Relaxed);
        self.types_interned_gauge.fetch_add(types - reported, Ordering::Relaxed);
        out
    }

    /// Runs `f` on the (warm or fresh) solver context for `(tbox, budget)`.
    /// The per-call state is reset before `f` runs; the entry's lock is
    /// held for the duration of `f`, serializing same-TBox callers.
    pub fn with_ctx<R>(
        &self,
        tbox: &HornTbox,
        budget: &Budget,
        f: impl FnOnce(&mut RealizeCtx) -> R,
    ) -> R {
        let handle = self.handle(tbox, budget);
        self.with_handle(&handle, budget, f)
    }

    /// Serializes every entry's durable memo tables as
    /// `(portable key, payload)` pairs — the portable key is
    /// [`crate::portable_tbox_key`] of the entry's exact CI set and
    /// budget; the payload is [`RealizeCtx::export_portable`]. The pairs
    /// round-trip through [`SolverCache::import_portable`] on any process.
    pub fn export_portable(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.snapshot_entries()
            .iter()
            .map(|e| {
                let key = crate::portable::portable_tbox_key(e.key.cis.iter(), e.key.budget);
                let payload = e.ctx.lock().unwrap().export_portable();
                (key, payload)
            })
            .collect()
    }

    /// Stashes portable snapshots (from [`SolverCache::export_portable`],
    /// possibly of another process) for lazy hydration: each snapshot is
    /// claimed — exact-key-compared and replayed into the fresh context —
    /// the first time its TBox reaches [`SolverCache::handle`]. Returns
    /// the number of snapshots stashed.
    pub fn import_portable(
        &self,
        snapshots: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> usize {
        let mut pending = self.pending.lock().unwrap();
        let mut n = 0;
        for (key, payload) in snapshots {
            let fp = gts_store::hash64(&key);
            let bucket = pending.entry(fp).or_default();
            // Last import wins per exact key (a re-import carries a
            // superset of the earlier memo tables).
            bucket.retain(|p| p.key != key);
            bucket.push(PendingSnapshot { key, payload });
            n += 1;
        }
        n
    }

    /// Memo entries hydrated from imported snapshots so far.
    pub fn hydrated_entries(&self) -> u64 {
        self.hydrated.load(Ordering::Relaxed)
    }

    /// Snapshots imported but not yet claimed by a `handle` call.
    pub fn pending_snapshots(&self) -> usize {
        self.pending.lock().unwrap().values().map(Vec::len).sum()
    }

    /// Claims a pending snapshot for a freshly built entry, replaying its
    /// memo tables into `ctx`. Exact portable-key equality is required;
    /// the snapshot is consumed either way once matched (a payload that
    /// fails to parse imports nothing — cold path).
    fn try_hydrate(&self, key: &CacheKey, ctx: &mut RealizeCtx) {
        let snap = {
            let mut pending = self.pending.lock().unwrap();
            if pending.is_empty() {
                return;
            }
            let pkey = crate::portable::portable_tbox_key(key.cis.iter(), key.budget);
            let fp = gts_store::hash64(&pkey);
            let Some(bucket) = pending.get_mut(&fp) else { return };
            let Some(pos) = bucket.iter().position(|p| p.key == pkey) else { return };
            let snap = bucket.swap_remove(pos);
            if bucket.is_empty() {
                pending.remove(&fp);
            }
            snap
        };
        if let Some(report) = ctx.import_portable(&snap.payload) {
            self.hydrated.fetch_add(report.entries() as u64, Ordering::Relaxed);
        }
    }

    /// Records the search counters of one `decide_cached` call.
    pub(crate) fn record_decide(&self, cores_tried: usize, cores_deduped: usize) {
        self.decides.fetch_add(1, Ordering::Relaxed);
        self.cores_tried.fetch_add(cores_tried as u64, Ordering::Relaxed);
        self.cores_deduped.fetch_add(cores_deduped as u64, Ordering::Relaxed);
    }

    /// A full cumulative statistics snapshot (cache effectiveness, core
    /// search, realizability memos). Reads only atomics and the entry-map
    /// length — never an entry's context mutex — so it is safe to call
    /// per-question even while decides are in flight.
    pub fn oracle_stats(&self) -> OracleStats {
        OracleStats {
            decides: self.decides.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            cores_tried: self.cores_tried.load(Ordering::Relaxed),
            cores_deduped: self.cores_deduped.load(Ordering::Relaxed),
            types_interned: self.types_interned_gauge.load(Ordering::Relaxed) as usize,
            realize_hits: self.realize_hits.load(Ordering::Relaxed),
            realize_misses: self.realize_misses.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of every entry, taken without holding the map lock while
    /// touching entry contexts (an export must not stall `handle`).
    fn snapshot_entries(&self) -> Vec<Arc<Entry>> {
        let map = self.entries.lock().unwrap();
        map.values().flat_map(|bucket| bucket.iter()).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_insensitive() {
        let a = HornCi::Bottom { lhs: gts_graph::LabelSet::singleton(0) };
        let b = HornCi::Bottom { lhs: gts_graph::LabelSet::singleton(1) };
        let mut t1 = HornTbox::new();
        t1.push(a.clone());
        t1.push(b.clone());
        let mut t2 = HornTbox::new();
        t2.push(b);
        t2.push(a);
        let budget = Budget::default();
        assert_eq!(tbox_fingerprint(&t1, &budget), tbox_fingerprint(&t2, &budget));
        assert_ne!(tbox_fingerprint(&t1, &budget), tbox_fingerprint(&HornTbox::new(), &budget));
    }

    #[test]
    fn budget_is_part_of_the_key() {
        let t = HornTbox::new();
        assert_ne!(
            tbox_fingerprint(&t, &Budget::default()),
            tbox_fingerprint(&t, &Budget::large())
        );
    }

    #[test]
    fn entries_are_reused_per_tbox() {
        let cache = SolverCache::new();
        let mut t1 = HornTbox::new();
        t1.push(HornCi::Bottom { lhs: gts_graph::LabelSet::singleton(0) });
        let t2 = HornTbox::new();
        let budget = Budget::default();
        cache.with_ctx(&t1, &budget, |_| ());
        cache.with_ctx(&t1, &budget, |_| ());
        cache.with_ctx(&t2, &budget, |_| ());
        let stats = cache.oracle_stats();
        assert_eq!((stats.cache_hits, stats.cache_misses, stats.entries), (1, 2, 2));
        assert!((stats.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn portable_snapshots_hydrate_fresh_entries() {
        let mut t = HornTbox::new();
        t.push(HornCi::Exists {
            lhs: gts_graph::LabelSet::singleton(0),
            role: gts_graph::EdgeSym::fwd(gts_graph::EdgeLabel(0)),
            rhs: gts_graph::LabelSet::singleton(0),
        });
        let budget = Budget::default();
        let src = SolverCache::new();
        src.with_ctx(&t, &budget, |ctx| {
            let a = ctx.types.close(&gts_graph::LabelSet::singleton(0)).unwrap();
            assert!(ctx.node_extendable(a, &[]).unwrap());
        });
        let snapshots = src.export_portable();
        assert_eq!(snapshots.len(), 1);

        let dst = SolverCache::new();
        assert_eq!(dst.import_portable(snapshots), 1);
        assert_eq!(dst.pending_snapshots(), 1);
        // An unrelated TBox must not claim the snapshot.
        dst.with_ctx(&HornTbox::new(), &budget, |_| ());
        assert_eq!(dst.pending_snapshots(), 1);
        assert_eq!(dst.hydrated_entries(), 0);
        // The matching TBox claims it and answers warm.
        let misses = dst.with_ctx(&t, &budget, |ctx| {
            let a = ctx.types.close(&gts_graph::LabelSet::singleton(0)).unwrap();
            assert!(ctx.node_extendable(a, &[]).unwrap());
            ctx.stats().status_misses
        });
        assert_eq!(misses, 0, "hydrated context answers from the memo");
        assert_eq!(dst.pending_snapshots(), 0);
        assert!(dst.hydrated_entries() > 0);
    }

    #[test]
    fn contexts_persist_between_calls() {
        let cache = SolverCache::new();
        let t = HornTbox::new();
        let budget = Budget::default();
        cache.with_ctx(&t, &budget, |ctx| {
            ctx.types.close(&gts_graph::LabelSet::singleton(3));
        });
        let types = cache.with_ctx(&t, &budget, |ctx| ctx.types.len());
        assert_eq!(types, 1, "interned types survive between calls");
        assert_eq!(cache.oracle_stats().types_interned, 1);
    }
}
