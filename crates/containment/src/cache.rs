//! The per-session oracle cache: persistent solver state plus memoized
//! TBox completions.
//!
//! One [`OracleCache`] accompanies a source schema for the lifetime of an
//! analysis session (or, when the caller passes none, the duration of a
//! single `contains` call — even one call asks many satisfiability
//! questions over few TBoxes). It bundles:
//!
//! * a [`SolverCache`] — per-TBox type universes, saturation fixpoints,
//!   and realizability memos shared by the top-level decides over each
//!   completed TBox (`contains`, witness search, TBox containment); the
//!   completion's entailment sweep owns its probe contexts and never
//!   enters it;
//! * a completion memo — `complete` is a deterministic function of its
//!   inputs, and the negation choices of one containment question (and
//!   repeated questions in a session) regularly complete identical
//!   TBoxes.

use crate::completion::{Completion, CompletionConfig};
use gts_dl::{HornCi, HornTbox};
use gts_graph::{FxHashMap, LabelSet, NodeLabel};
use gts_sat::{Budget, OracleStats, SolverCache};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cumulative statistics of an [`OracleCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleCacheStats {
    /// Solver-level counters (decides, per-TBox context reuse, core
    /// search, realizability memos).
    pub solver: OracleStats,
    /// Completions answered from the memo.
    pub completion_hits: u64,
    /// Completions computed.
    pub completion_misses: u64,
}

impl OracleCacheStats {
    /// The work recorded between `earlier` and `self`.
    pub fn delta_since(&self, earlier: &OracleCacheStats) -> OracleCacheStats {
        OracleCacheStats {
            solver: self.solver.delta_since(&earlier.solver),
            completion_hits: self.completion_hits - earlier.completion_hits,
            completion_misses: self.completion_misses - earlier.completion_misses,
        }
    }

    /// Folds another snapshot's counters into this one.
    pub fn absorb(&mut self, other: &OracleCacheStats) {
        self.solver.absorb(&other.solver);
        self.completion_hits += other.completion_hits;
        self.completion_misses += other.completion_misses;
    }
}

#[derive(PartialEq, Eq)]
struct CompletionKey {
    cis: Vec<HornCi>,
    schema_labels: LabelSet,
    fresh: (NodeLabel, NodeLabel),
    budget: [usize; 6],
    caps: [usize; 2],
}

impl CompletionKey {
    fn new(
        tbox: &HornTbox,
        schema_labels: &LabelSet,
        fresh: (NodeLabel, NodeLabel),
        budget: &Budget,
        cfg: &CompletionConfig,
    ) -> (u64, CompletionKey) {
        let mut cis = tbox.cis.clone();
        cis.sort_unstable();
        cis.dedup();
        let key = CompletionKey {
            cis,
            schema_labels: schema_labels.clone(),
            fresh,
            budget: budget.cache_key(),
            caps: [cfg.max_nodes, cfg.max_rounds],
        };
        (key.fingerprint(), key)
    }

    /// In-process bucket fingerprint (recomputed on import — never
    /// persisted, so the hasher needs no cross-process stability).
    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.cis.hash(&mut h);
        self.schema_labels.hash(&mut h);
        (self.fresh.0 .0, self.fresh.1 .0).hash(&mut h);
        self.budget.hash(&mut h);
        self.caps.hash(&mut h);
        h.finish()
    }
}

/// The global-registry `(hit, miss)` counters for the completion memo.
fn completion_cache_obs() -> &'static (gts_obs::Counter, gts_obs::Counter) {
    static CELLS: std::sync::OnceLock<(gts_obs::Counter, gts_obs::Counter)> =
        std::sync::OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = gts_obs::global();
        let name = "gts_containment_completion_cache_total";
        let help = "Completion-memo lookups by outcome";
        (
            reg.counter(name, help, &[("outcome", "hit")]),
            reg.counter(name, help, &[("outcome", "miss")]),
        )
    })
}

/// The latency histogram for freshly computed completions (memo misses).
fn completion_obs_hist() -> &'static gts_obs::Histogram {
    static CELL: std::sync::OnceLock<gts_obs::Histogram> = std::sync::OnceLock::new();
    CELL.get_or_init(|| {
        gts_obs::global().histogram(
            "gts_containment_completion_micros",
            "Latency of TBox completion computations (memo misses)",
            &[],
        )
    })
}

/// Shared, thread-safe cache for the containment pipeline. See the module
/// docs for what it holds.
#[derive(Default)]
pub struct OracleCache {
    solver: SolverCache,
    completions: Mutex<FxHashMap<u64, Vec<(CompletionKey, Completion)>>>,
    completion_hits: AtomicU64,
    completion_misses: AtomicU64,
}

impl std::fmt::Debug for OracleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("OracleCache")
            .field("solver_entries", &stats.solver.entries)
            .field("completion_hits", &stats.completion_hits)
            .field("completion_misses", &stats.completion_misses)
            .finish()
    }
}

impl OracleCache {
    /// An empty cache.
    pub fn new() -> Self {
        OracleCache::default()
    }

    /// The solver-state cache shared by every engine call of the pipeline.
    pub fn solver(&self) -> &SolverCache {
        &self.solver
    }

    /// Cumulative counters.
    pub fn stats(&self) -> OracleCacheStats {
        OracleCacheStats {
            solver: self.solver.oracle_stats(),
            completion_hits: self.completion_hits.load(Ordering::Relaxed),
            completion_misses: self.completion_misses.load(Ordering::Relaxed),
        }
    }

    /// Returns the memoized completion for these exact inputs, or computes
    /// it with `f` and stores it.
    pub(crate) fn completion_or_insert(
        &self,
        tbox: &HornTbox,
        schema_labels: &LabelSet,
        fresh: (NodeLabel, NodeLabel),
        budget: &Budget,
        cfg: &CompletionConfig,
        f: impl FnOnce() -> Completion,
    ) -> Completion {
        let (fp, key) = CompletionKey::new(tbox, schema_labels, fresh, budget, cfg);
        {
            let memo = self.completions.lock().unwrap();
            if let Some(bucket) = memo.get(&fp) {
                if let Some((_, c)) = bucket.iter().find(|(k, _)| *k == key) {
                    self.completion_hits.fetch_add(1, Ordering::Relaxed);
                    completion_cache_obs().0.inc();
                    return c.clone();
                }
            }
        }
        self.completion_misses.fetch_add(1, Ordering::Relaxed);
        completion_cache_obs().1.inc();
        // Not held across `f`: concurrent workers may race on the same
        // key, but `complete` is deterministic, so the duplicate insert is
        // idempotent.
        let c = {
            let _span = gts_obs::span("completion");
            let start = gts_obs::enabled().then(std::time::Instant::now);
            let c = f();
            if let Some(t0) = start {
                completion_obs_hist().record(t0.elapsed().as_micros() as u64);
            }
            c
        };
        let mut memo = self.completions.lock().unwrap();
        let bucket = memo.entry(fp).or_default();
        if !bucket.iter().any(|(k, _)| *k == key) {
            bucket.push((key, c.clone()));
        }
        c
    }

    /// Serializes every memoized completion as a self-contained payload
    /// (full key material + result), importable on any process via
    /// [`OracleCache::import_completions`].
    pub fn export_completions(&self) -> Vec<Vec<u8>> {
        use gts_sat::portable::{enc_horn_ci, enc_label_set};
        let memo = self.completions.lock().unwrap();
        let mut out = Vec::new();
        for (key, c) in memo.values().flatten() {
            let mut e = gts_store::Enc::new();
            e.usize(key.cis.len());
            for ci in &key.cis {
                enc_horn_ci(&mut e, ci);
            }
            enc_label_set(&mut e, &key.schema_labels);
            e.u32(key.fresh.0 .0);
            e.u32(key.fresh.1 .0);
            for v in key.budget {
                e.usize(v);
            }
            for v in key.caps {
                e.usize(v);
            }
            // The completed TBox keeps its CI *order* — downstream decide
            // calls enumerate it, so replay must be bit-identical.
            e.usize(c.tbox.cis.len());
            for ci in &c.tbox.cis {
                enc_horn_ci(&mut e, ci);
            }
            e.usize(c.added);
            e.u8(c.complete as u8);
            out.push(e.finish());
        }
        out
    }

    /// Replays payloads from [`OracleCache::export_completions`]. Each
    /// payload carries its full key, so no external identity check is
    /// needed; malformed payloads are skipped (cold path), and locally
    /// computed completions are never overridden. Returns the number of
    /// entries installed.
    pub fn import_completions<'a>(&self, payloads: impl IntoIterator<Item = &'a [u8]>) -> usize {
        use gts_sat::portable::{dec_horn_ci, dec_label_set};
        let mut installed = 0;
        for payload in payloads {
            let decoded = (|| {
                let mut d = gts_store::Dec::new(payload);
                let n = d.usize()?;
                let mut cis = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    cis.push(dec_horn_ci(&mut d)?);
                }
                let schema_labels = dec_label_set(&mut d)?;
                let fresh = (NodeLabel(d.u32()?), NodeLabel(d.u32()?));
                let mut budget = [0usize; 6];
                for v in &mut budget {
                    *v = d.usize()?;
                }
                let mut caps = [0usize; 2];
                for v in &mut caps {
                    *v = d.usize()?;
                }
                let n = d.usize()?;
                let mut tbox = HornTbox::new();
                tbox.cis.reserve(n.min(1 << 16));
                for _ in 0..n {
                    // Straight into the CI list: the payload was encoded
                    // from a (set-like) `HornTbox` in enumeration order,
                    // so it carries no duplicates, and `push`'s O(n)
                    // dedup scan would make replay quadratic per tbox.
                    tbox.cis.push(dec_horn_ci(&mut d)?);
                }
                let added = d.usize()?;
                let complete = match d.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                if !d.done() {
                    return None;
                }
                let key = CompletionKey { cis, schema_labels, fresh, budget, caps };
                Some((key, Completion { tbox, added, complete }))
            })();
            let Some((key, completion)) = decoded else { continue };
            let fp = key.fingerprint();
            let mut memo = self.completions.lock().unwrap();
            let bucket = memo.entry(fp).or_default();
            if !bucket.iter().any(|(k, _)| *k == key) {
                bucket.push((key, completion));
                installed += 1;
            }
        }
        installed
    }

    /// Number of memoized completions currently held.
    pub fn completions_len(&self) -> usize {
        self.completions.lock().unwrap().values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_memo_hits_on_exact_repeats() {
        let cache = OracleCache::new();
        let t = HornTbox::new();
        let labels = LabelSet::singleton(0);
        let fresh = (NodeLabel(7), NodeLabel(8));
        let budget = Budget::default();
        let cfg = CompletionConfig::default();
        let mut computed = 0;
        for _ in 0..3 {
            cache.completion_or_insert(&t, &labels, fresh, &budget, &cfg, || {
                computed += 1;
                Completion { tbox: t.clone(), added: 0, complete: true }
            });
        }
        assert_eq!(computed, 1);
        let stats = cache.stats();
        assert_eq!((stats.completion_hits, stats.completion_misses), (2, 1));
        // A different fresh pair is a different key.
        cache.completion_or_insert(
            &t,
            &labels,
            (NodeLabel(9), NodeLabel(10)),
            &budget,
            &cfg,
            || Completion { tbox: t.clone(), added: 0, complete: true },
        );
        assert_eq!(cache.stats().completion_misses, 2);
    }

    #[test]
    fn completions_roundtrip_through_portable_payloads() {
        let cache = OracleCache::new();
        let mut t = HornTbox::new();
        t.push(HornCi::Bottom { lhs: LabelSet::from_iter([0, 1]) });
        let labels = LabelSet::from_iter([0, 1, 2]);
        let budget = Budget::default();
        let cfg = CompletionConfig::default();
        let mut completed = t.clone();
        completed.push(HornCi::SubAtom { lhs: LabelSet::singleton(2), rhs: NodeLabel(0) });
        cache.completion_or_insert(
            &t,
            &labels,
            (NodeLabel(7), NodeLabel(8)),
            &budget,
            &cfg,
            || Completion { tbox: completed.clone(), added: 1, complete: true },
        );

        let payloads = cache.export_completions();
        assert_eq!(payloads.len(), 1);
        let fresh_cache = OracleCache::new();
        assert_eq!(fresh_cache.import_completions(payloads.iter().map(Vec::as_slice)), 1);
        // The imported entry is a hit: the closure must never run.
        let c = fresh_cache.completion_or_insert(
            &t,
            &labels,
            (NodeLabel(7), NodeLabel(8)),
            &budget,
            &cfg,
            || panic!("imported completion must be a memo hit"),
        );
        assert_eq!(c.tbox.cis, completed.cis);
        assert_eq!((c.added, c.complete), (1, true));
        assert_eq!(fresh_cache.stats().completion_hits, 1);
        // A truncated payload is skipped, never half-imported.
        let empty = OracleCache::new();
        let cut = &payloads[0][..payloads[0].len() - 2];
        assert_eq!(empty.import_completions([cut]), 0);
        assert_eq!(empty.completions_len(), 0);
    }
}
