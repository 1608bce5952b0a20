//! The resident session pool: `AnalysisSession`s keyed by schema
//! fingerprint, shared across connections, evicted LRU under budgets.
//!
//! A [`Fingerprint`] identifies everything a cached verdict depends on:
//! the *entire* vocabulary in intern order (label ids on the wire are
//! positional, so two clients only share a session when their label
//! numbering agrees), the source schema, and the engine budgets (a
//! verdict decided under small budgets may be `uncertified` where larger
//! budgets would certify — they must not share a memo). Checkout hands
//! back a *clone* of the pooled session: clones share the verdict memo
//! (that is the point of pooling) but own their
//! vocabulary, so per-request label interning — e.g. by `execute`
//! instances — cannot corrupt the pooled master.
//!
//! The server's memo of rendered responses sits above the pool and keeps
//! no state of its own about it: each stored response records the
//! fingerprint of the session that computed it, and a hit is served only
//! while [`SessionRegistry::note_resident_hit`] finds that session
//! resident. Evicting a session therefore retires exactly the responses
//! it computed.

use gts_core::containment::ContainmentOptions;
use gts_core::graph::{FxHashMap, Vocab};
use gts_core::schema::Schema;
use gts_engine::{AnalysisSession, HydrateReport};
use gts_net::lock;
use gts_obs::{Counter, MetricsRegistry};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A 64-bit FNV-1a identity of (vocabulary, schema, budgets).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Fingerprint {
    /// Parses the 16-hex-digit rendering.
    pub fn parse(s: &str) -> Option<Fingerprint> {
        (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok().map(Fingerprint)).flatten()
    }
}

/// The canonical preimage of a [`Fingerprint`]: every byte of session
/// identity, spelled out. The registry stores it alongside each entry
/// and compares it on checkout, so a 64-bit hash collision between two
/// distinct (vocabulary, schema, budgets) identities can never silently
/// share a verdict memo — FNV is not collision-resistant, and the memo
/// is correctness-critical.
pub fn canonical_key(schema: &Schema, vocab: &Vocab, opts: &ContainmentOptions) -> String {
    gts_engine::identity::canonical_key(schema, vocab, opts)
}

/// Hashes a canonical key down to its wire-sized fingerprint. Delegates
/// to [`gts_engine::identity`] so the pool key and the on-disk store
/// filename are the same 64 bits.
pub fn fingerprint_of(key: &str) -> Fingerprint {
    Fingerprint(gts_engine::identity::fingerprint_of(key))
}

/// Computes the pool key of a session over `schema` under `opts`.
pub fn fingerprint(schema: &Schema, vocab: &Vocab, opts: &ContainmentOptions) -> Fingerprint {
    fingerprint_of(&canonical_key(schema, vocab, opts))
}

/// Pool budgets.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Maximum resident sessions (≥ 1; the most recently used session is
    /// never evicted by the budget sweep).
    pub max_sessions: usize,
    /// Approximate byte budget across all resident verdict memos
    /// ([`gts_engine::CacheStats::approx_bytes`]).
    pub max_bytes: usize,
    /// When set, freshly built sessions hydrate from (and bind to) the
    /// store file for their fingerprint under this directory, and
    /// [`SessionRegistry::flush_all`] persists resident memos back.
    pub cache_dir: Option<PathBuf>,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig { max_sessions: 64, max_bytes: 256 << 20, cache_dir: None }
    }
}

/// The pool's event counters: cells in a registry the pool owns, so they
/// are the one record of their events — the `metrics` verb renders
/// [`PoolMetrics::registry`] and the `stats` verb reads the same cells.
#[derive(Debug)]
pub struct PoolMetrics {
    /// The registry holding the cells below.
    pub registry: MetricsRegistry,
    /// Checkouts served by a resident session, and frames the server's
    /// response memo answered from one.
    pub hits: Counter,
    /// Checkouts that built a fresh session.
    pub misses: Counter,
    /// Sessions evicted (LRU budget sweeps + explicit evictions).
    pub evictions: Counter,
    /// Checkouts whose fingerprint matched a resident entry but whose
    /// canonical key did not (64-bit hash collisions; the entry is
    /// replaced, never shared).
    pub collisions: Counter,
    /// Records hydrated from on-disk stores when sessions were built
    /// (0 unless `cache_dir` is configured).
    pub disk_hydrated: Counter,
}

impl PoolMetrics {
    fn new() -> PoolMetrics {
        let registry = MetricsRegistry::new();
        let counter = |name, help| registry.counter(name, help, &[]);
        PoolMetrics {
            hits: counter("gts_serve_pool_hits_total", "Frames served by a resident session"),
            misses: counter("gts_serve_pool_misses_total", "Checkouts that built a fresh session"),
            evictions: counter("gts_serve_pool_evictions_total", "Sessions evicted from the pool"),
            collisions: counter(
                "gts_serve_pool_collisions_total",
                "Checkouts whose fingerprint matched another identity's session",
            ),
            disk_hydrated: counter(
                "gts_serve_pool_disk_hydrated_total",
                "Verdict records hydrated from on-disk stores into new sessions",
            ),
            registry,
        }
    }

    /// Fraction of checkouts served from the pool.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = (self.hits.get(), self.misses.get());
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// The pool's occupancy, read under its lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Resident sessions right now.
    pub sessions: usize,
    /// Approximate bytes across resident verdict memos, from the sizes
    /// cached at each session's last checkout (memos grow while clones
    /// are in use; the figure refreshes the next time that session is
    /// checked out).
    pub approx_bytes: usize,
    /// Resident sessions whose memo *alone* exceeds `max_bytes`. The
    /// sweep never evicts the most recently used session, so a single
    /// oversized memo legitimately outlives the budget — this gauge
    /// reports it instead of letting it blow the budget silently.
    pub oversized: usize,
}

struct Entry {
    /// The full identity preimage — compared on checkout so hash
    /// collisions can never alias two sessions.
    key: String,
    session: AnalysisSession,
    last_used: u64,
    /// Memo size as of this entry's last checkout. Cached so the budget
    /// sweep works off a running total instead of re-asking every
    /// session (each `stats()` call takes that session's memo lock) on
    /// every eviction step — that rescan made `enforce` O(n²).
    approx_bytes: usize,
}

#[derive(Default)]
struct Inner {
    entries: FxHashMap<u64, Entry>,
    /// Invariant: the sum of `entries[*].approx_bytes`.
    total_bytes: usize,
    tick: u64,
}

/// A concurrency-safe LRU pool of [`AnalysisSession`]s keyed by
/// [`Fingerprint`].
pub struct SessionRegistry {
    cfg: RegistryConfig,
    inner: Mutex<Inner>,
    metrics: PoolMetrics,
}

impl SessionRegistry {
    /// An empty pool under `cfg` (`max_sessions` clamped to ≥ 1).
    pub fn new(mut cfg: RegistryConfig) -> Self {
        cfg.max_sessions = cfg.max_sessions.max(1);
        SessionRegistry { cfg, inner: Mutex::new(Inner::default()), metrics: PoolMetrics::new() }
    }

    /// The event counters.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.metrics
    }

    /// The pool budgets.
    pub fn config(&self) -> RegistryConfig {
        self.cfg.clone()
    }

    /// The disk-cache directory sessions hydrate from, when configured.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cfg.cache_dir.as_deref()
    }

    /// Fetches the session for `fp` (whose canonical preimage is `key`),
    /// building (and pooling) it with `build` on a miss. Returns the
    /// session clone and whether the pool had it. A resident entry is
    /// only shared when its stored key matches `key` byte-for-byte; a
    /// fingerprint collision between distinct identities counts as a
    /// miss and replaces the entry (newest wins — correctness over
    /// retention). Runs the budget sweep after every checkout, since
    /// memos grow as sessions are used.
    pub fn checkout(
        &self,
        fp: Fingerprint,
        key: &str,
        build: impl FnOnce() -> AnalysisSession,
    ) -> (AnalysisSession, bool) {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        // On a hit, refresh the cached size: checkout is the one moment
        // the pool touches an entry, and memos grow while clones are in
        // use between checkouts.
        let mut refreshed: Option<(AnalysisSession, usize, usize)> = None;
        let mut collided = false;
        match inner.entries.get_mut(&fp.0) {
            Some(entry) if entry.key == key => {
                entry.last_used = tick;
                let bytes = entry.session.stats().approx_bytes;
                let stale = std::mem::replace(&mut entry.approx_bytes, bytes);
                refreshed = Some((entry.session.clone(), stale, bytes));
            }
            Some(_) => collided = true,
            None => {}
        }
        let (session, hit) = match refreshed {
            Some((session, stale, fresh)) => {
                inner.total_bytes = inner.total_bytes - stale + fresh;
                self.metrics.hits.inc();
                (session, true)
            }
            None => {
                if collided {
                    self.metrics.collisions.inc();
                }
                // Build OUTSIDE the lock? Building a session is cheap (no
                // analysis runs), and holding the lock keeps the pool
                // single-flight per fingerprint — concurrent first
                // requests for one schema warm a single memo instead of
                // racing on independent ones.
                let mut session = build();
                if let Some(dir) = &self.cfg.cache_dir {
                    let report = session.attach_disk(dir);
                    self.metrics.disk_hydrated.add(report.total() as u64);
                }
                self.metrics.misses.inc();
                let bytes = session.stats().approx_bytes;
                let prev = inner.entries.insert(
                    fp.0,
                    Entry {
                        key: key.to_owned(),
                        session: session.clone(),
                        last_used: tick,
                        approx_bytes: bytes,
                    },
                );
                if let Some(prev) = prev {
                    inner.total_bytes -= prev.approx_bytes;
                }
                inner.total_bytes += bytes;
                (session, false)
            }
        };
        self.enforce(&mut inner);
        drop(inner);
        (session, hit)
    }

    /// Notes a frame answered from resident state without a session
    /// checkout (the server's memo of rendered responses) and returns
    /// whether `fp` is resident. A resident hit bumps the hit counter and
    /// the entry's LRU recency, so memo-served traffic participates in
    /// the same hit/miss accounting and pool aging as checked-out
    /// traffic; a miss changes nothing, and the caller recomputes (its
    /// checkout then counts the miss).
    pub fn note_resident_hit(&self, fp: Fingerprint) -> bool {
        let inner = &mut *lock(&self.inner);
        let Some(entry) = inner.entries.get_mut(&fp.0) else { return false };
        inner.tick += 1;
        entry.last_used = inner.tick;
        self.metrics.hits.inc();
        true
    }

    /// Evicts one fingerprint; `true` iff it was resident.
    pub fn evict(&self, fp: Fingerprint) -> bool {
        let mut inner = lock(&self.inner);
        match inner.entries.remove(&fp.0) {
            Some(entry) => {
                inner.total_bytes -= entry.approx_bytes;
                self.metrics.evictions.inc();
                true
            }
            None => false,
        }
    }

    /// Evicts everything; returns how many sessions were dropped.
    pub fn evict_all(&self) -> usize {
        let mut inner = lock(&self.inner);
        let n = inner.entries.len();
        inner.entries.clear();
        inner.total_bytes = 0;
        self.metrics.evictions.add(n as u64);
        n
    }

    /// The occupancy, read under one lock. Refreshes each entry's cached size
    /// from its live memo first (stats calls are rare and observability
    /// wants current numbers); the eviction sweep itself stays on the
    /// cached values so it never touches memo locks per iteration.
    pub fn stats(&self) -> RegistryStats {
        let mut inner = lock(&self.inner);
        let mut total = 0;
        for entry in inner.entries.values_mut() {
            entry.approx_bytes = entry.session.stats().approx_bytes;
            total += entry.approx_bytes;
        }
        inner.total_bytes = total;
        RegistryStats {
            sessions: inner.entries.len(),
            approx_bytes: inner.total_bytes,
            oversized: inner
                .entries
                .values()
                .filter(|e| e.approx_bytes > self.cfg.max_bytes)
                .count(),
        }
    }

    /// Best-effort flush of every resident disk-bound session. Sessions
    /// are cloned out and flushed outside the pool lock (clones share
    /// the [`gts_engine::DiskBinding`]), so checkouts are never blocked
    /// on I/O.
    pub fn flush_all(&self) -> FlushSummary {
        let sessions: Vec<AnalysisSession> = {
            let inner = lock(&self.inner);
            inner.entries.values().map(|e| e.session.clone()).collect()
        };
        let mut out = FlushSummary::default();
        for session in sessions {
            match session.flush_disk() {
                None => {}
                Some(Ok(report)) => {
                    out.sessions += 1;
                    out.records += report.records;
                    out.bytes += report.bytes;
                }
                Some(Err(_)) => out.errors += 1,
            }
        }
        out
    }

    /// Exports the resident session for `fp` as store bytes (the same
    /// format [`gts_store`] persists), or `None` if not resident.
    pub fn export_resident(&self, fp: Fingerprint) -> Option<Vec<u8>> {
        let session = {
            let inner = lock(&self.inner);
            inner.entries.get(&fp.0).map(|e| e.session.clone())
        }?;
        Some(session.export_store_bytes())
    }

    /// Hydrates the resident session for `fp` from exported store bytes.
    /// The clone shares the pooled memo, so imported
    /// state lands in the pool. `None` when no session is resident or
    /// the bytes belong to a different identity.
    pub fn hydrate_resident(&self, fp: Fingerprint, bytes: &[u8]) -> Option<HydrateReport> {
        let mut session = {
            let inner = lock(&self.inner);
            inner.entries.get(&fp.0).map(|e| e.session.clone())
        }?;
        session.hydrate_from_bytes(bytes)
    }

    /// LRU sweep: drop least-recently-used entries while over the entry
    /// or byte budget, always keeping the most recent one. Works off the
    /// running byte total and the per-entry cached sizes — each step is
    /// O(sessions) with no memo locks, so the whole sweep is O(sessions ·
    /// evictions) instead of the former O(sessions²) rescan.
    fn enforce(&self, inner: &mut Inner) {
        while inner.entries.len() > 1 {
            let over_entries = inner.entries.len() > self.cfg.max_sessions;
            let over_bytes = inner.total_bytes > self.cfg.max_bytes;
            if !over_entries && !over_bytes {
                return;
            }
            // Ties on `last_used` cannot arise through checkout (ticks
            // are unique) but can through imported or hand-built state;
            // break them toward the smaller fingerprint so eviction is
            // deterministic rather than hash-iteration-order dependent.
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(&k, e)| (e.last_used, k))
                .map(|(&k, _)| k)
                .expect("non-empty");
            let entry = inner.entries.remove(&oldest).expect("just found");
            inner.total_bytes -= entry.approx_bytes;
            self.metrics.evictions.inc();
        }
    }

    /// Test hook: overwrite an entry's `last_used` tick to construct
    /// LRU ties deterministically.
    #[cfg(test)]
    fn set_last_used(&self, fp: Fingerprint, tick: u64) {
        let mut inner = lock(&self.inner);
        if let Some(e) = inner.entries.get_mut(&fp.0) {
            e.last_used = tick;
        }
    }

    /// Test hook: the running byte total and an entry-by-entry recount,
    /// for asserting the invariant after churn.
    #[cfg(test)]
    fn byte_accounting(&self) -> (usize, usize) {
        let inner = lock(&self.inner);
        (inner.total_bytes, inner.entries.values().map(|e| e.approx_bytes).sum())
    }
}

/// What [`SessionRegistry::flush_all`] wrote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushSummary {
    /// Disk-bound sessions flushed without error.
    pub sessions: usize,
    /// Records written across them.
    pub records: usize,
    /// Bytes written across them.
    pub bytes: usize,
    /// Sessions whose flush failed (I/O errors; the store degrades to
    /// its clean prefix on the next load).
    pub errors: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_core::prelude::*;
    use std::sync::Arc;

    fn fixture(n_labels: usize) -> (Vocab, Schema, Transformation) {
        let mut v = Vocab::new();
        let labels: Vec<_> = (0..n_labels.max(1)).map(|i| v.node_label(&format!("A{i}"))).collect();
        let r = v.edge_label("r");
        let a = labels[0];
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        for &l in &labels[1..] {
            s.add_node_label(l);
        }
        let mut t = Transformation::new();
        t.add_node_rule(
            a,
            C2rpq::new(1, vec![Var(0)], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }]),
        );
        (v, s, t)
    }

    fn fp_of(v: &Vocab, s: &Schema) -> Fingerprint {
        fingerprint(s, v, &ContainmentOptions::default())
    }

    fn key_of(v: &Vocab, s: &Schema) -> String {
        canonical_key(s, v, &ContainmentOptions::default())
    }

    #[test]
    fn fingerprints_separate_schemas_budgets_and_vocabularies() {
        let (v, s, _) = fixture(1);
        let base = fp_of(&v, &s);
        assert_eq!(base, fp_of(&v, &s), "deterministic");
        assert_eq!(Fingerprint::parse(&base.to_string()), Some(base), "hex roundtrip");

        // A different schema over the same vocabulary.
        let mut s2 = s.clone();
        let a = v.find_node_label("A0").unwrap();
        let r = v.find_edge_label("r").unwrap();
        s2.set_edge(a, r, a, Mult::One, Mult::Star);
        assert_ne!(base, fp_of(&v, &s2));

        // The same schema under larger budgets.
        let large = ContainmentOptions { budget: Budget::large(), ..Default::default() };
        assert_ne!(base, fingerprint(&s, &v, &large));

        // The same schema text with an extra interned label: positional
        // label ids shift meaning, so the pool must separate them.
        let mut v2 = v.clone();
        v2.node_label("Extra");
        assert_ne!(base, fp_of(&v2, &s));
    }

    #[test]
    fn checkout_pools_and_shares_the_memo() {
        let (v, s, t) = fixture(1);
        let reg = SessionRegistry::new(RegistryConfig::default());
        let fp = fp_of(&v, &s);
        let (mut s1, hit1) =
            reg.checkout(fp, &key_of(&v, &s), || AnalysisSession::new(s.clone(), v.clone()));
        assert!(!hit1);
        s1.type_check(&t, &s).unwrap();
        let warmed = s1.stats().misses;
        assert!(warmed > 0);
        let (mut s2, hit2) =
            reg.checkout(fp, &key_of(&v, &s), || AnalysisSession::new(s.clone(), v.clone()));
        assert!(hit2);
        s2.type_check(&t, &s).unwrap();
        let after = s2.stats();
        assert_eq!(after.misses, warmed, "the re-analysis was answered from the shared memo");
        assert!(after.hits > 0);
        let (stats, pool) = (reg.stats(), reg.metrics());
        assert_eq!((pool.hits.get(), pool.misses.get(), stats.sessions), (1, 1, 1));
        assert!(stats.approx_bytes > 0);
        assert!((pool.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_under_entry_budget() {
        let reg = SessionRegistry::new(RegistryConfig {
            max_sessions: 2,
            max_bytes: usize::MAX,
            ..Default::default()
        });
        let fixtures: Vec<_> = (1..=3).map(fixture).collect();
        let fps: Vec<_> = fixtures.iter().map(|(v, s, _)| fp_of(v, s)).collect();
        assert_eq!(fps.iter().collect::<std::collections::HashSet<_>>().len(), 3);
        for (v, s, _) in &fixtures {
            reg.checkout(fp_of(v, s), &key_of(v, s), || AnalysisSession::new(s.clone(), v.clone()));
        }
        let stats = reg.stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(reg.metrics().evictions.get(), 1);
        // The least-recently-used (first) fingerprint was the victim.
        let (v0, s0, _) = &fixtures[0];
        let (_, hit) =
            reg.checkout(fps[0], &key_of(v0, s0), || AnalysisSession::new(s0.clone(), v0.clone()));
        assert!(!hit, "fixture 0 was evicted");
        let (v2, s2, _) = &fixtures[2];
        let (_, hit2) =
            reg.checkout(fps[2], &key_of(v2, s2), || AnalysisSession::new(s2.clone(), v2.clone()));
        assert!(hit2, "fixture 2 stayed resident");
    }

    #[test]
    fn byte_budget_evicts_grown_memos_but_keeps_the_newest() {
        let reg = SessionRegistry::new(RegistryConfig {
            max_sessions: 16,
            max_bytes: 1,
            ..Default::default()
        });
        let (v, s, t) = fixture(1);
        let (mut sess, _) = reg.checkout(fp_of(&v, &s), &key_of(&v, &s), || {
            AnalysisSession::new(s.clone(), v.clone())
        });
        sess.type_check(&t, &s).unwrap();
        assert!(sess.stats().approx_bytes > 1);
        // Still resident: the newest session is never evicted.
        assert_eq!(reg.stats().sessions, 1);
        // Growth is observed at the next checkout (sizes are cached per
        // entry; the pool doesn't rescan live sessions).
        reg.checkout(fp_of(&v, &s), &key_of(&v, &s), || unreachable!("resident"));
        assert!(reg.stats().approx_bytes > 1, "refreshed past the budget");
        // A second schema pushes the grown one out.
        let (v2, s2, _) = fixture(2);
        reg.checkout(fp_of(&v2, &s2), &key_of(&v2, &s2), || {
            AnalysisSession::new(s2.clone(), v2.clone())
        });
        let stats = reg.stats();
        assert_eq!(stats.sessions, 1);
        assert!(reg.metrics().evictions.get() >= 1);
    }

    #[test]
    fn explicit_eviction_and_evict_all() {
        let reg = SessionRegistry::new(RegistryConfig::default());
        let (v, s, _) = fixture(1);
        let fp = fp_of(&v, &s);
        reg.checkout(fp, &key_of(&v, &s), || AnalysisSession::new(s.clone(), v.clone()));
        assert!(reg.evict(fp));
        assert!(!reg.evict(fp), "double eviction is a no-op");
        reg.checkout(fp, &key_of(&v, &s), || AnalysisSession::new(s.clone(), v.clone()));
        let (v2, s2, _) = fixture(2);
        reg.checkout(fp_of(&v2, &s2), &key_of(&v2, &s2), || {
            AnalysisSession::new(s2.clone(), v2.clone())
        });
        assert_eq!(reg.evict_all(), 2);
        assert_eq!(reg.stats().sessions, 0);
    }

    #[test]
    fn fingerprint_collisions_never_share_a_session() {
        // Simulate a 64-bit collision: same fingerprint, different
        // canonical keys (as two colliding (vocab, schema) identities
        // would produce). The pool must treat the second checkout as a
        // miss, not hand over the first identity's memo.
        let (v, s, t) = fixture(1);
        let reg = SessionRegistry::new(RegistryConfig::default());
        let fp = Fingerprint(0xdead_beef);
        let (mut s1, hit1) =
            reg.checkout(fp, "identity-A", || AnalysisSession::new(s.clone(), v.clone()));
        assert!(!hit1);
        s1.type_check(&t, &s).unwrap();
        let (s2, hit2) =
            reg.checkout(fp, "identity-B", || AnalysisSession::new(s.clone(), v.clone()));
        assert!(!hit2, "a collision is a miss, never a hit");
        assert_eq!(s2.stats().entries, 0, "the colliding checkout got a fresh memo");
        assert_eq!(reg.metrics().collisions.get(), 1);
        // Newest wins: identity-B is now resident under that fingerprint.
        let (_, hit3) =
            reg.checkout(fp, "identity-B", || AnalysisSession::new(s.clone(), v.clone()));
        assert!(hit3);
    }

    #[test]
    fn many_threads_hammering_one_schema_share_one_memo() {
        let (v, s, t) = fixture(1);
        let reg = Arc::new(SessionRegistry::new(RegistryConfig::default()));
        let fp = fp_of(&v, &s);
        let key = key_of(&v, &s);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let key = key.clone();
                let (v, s, t) = (v.clone(), s.clone(), t.clone());
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        let (mut sess, _) =
                            reg.checkout(fp, &key, || AnalysisSession::new(s.clone(), v.clone()));
                        let d = sess.type_check(&t, &s).unwrap();
                        assert!(d.holds && d.certified);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let stats = reg.stats();
        assert_eq!(stats.sessions, 1, "one fingerprint → one resident session");
        assert_eq!(reg.metrics().hits.get() + reg.metrics().misses.get(), 8 * 5);
        assert_eq!(reg.metrics().misses.get(), 1, "exactly one thread built the session");
        // All 40 analyses shared one memo. Concurrent first-askers can
        // race on a cold key (the decide runs outside the memo lock), so
        // the structural bound is: at most one miss per (thread, key)
        // pair — everything else must have been a shared-memo hit.
        let (mut sess, _) = reg.checkout(fp, &key_of(&v, &s), || unreachable!("resident"));
        let memo = sess.stats();
        assert!(
            memo.misses <= 8 * memo.entries as u64,
            "more misses than cold races can explain: {memo:?}"
        );
        assert!(memo.hits > 0, "repeat questions hit the shared memo: {memo:?}");
        let d = sess.type_check(&t, &s).unwrap();
        assert!(d.holds);
    }

    #[test]
    fn many_schemas_under_budget_evict_consistently_across_threads() {
        let reg = Arc::new(SessionRegistry::new(RegistryConfig {
            max_sessions: 3,
            max_bytes: usize::MAX,
            ..Default::default()
        }));
        let fixtures: Arc<Vec<_>> = Arc::new((1..=10).map(fixture).collect());
        let threads: Vec<_> = (0..8)
            .map(|tid| {
                let reg = Arc::clone(&reg);
                let fixtures = Arc::clone(&fixtures);
                std::thread::spawn(move || {
                    for i in 0..30 {
                        let (v, s, t) = &fixtures[(tid + i) % fixtures.len()];
                        let fp = fp_of(v, s);
                        let (mut sess, _) = reg.checkout(fp, &key_of(v, s), || {
                            AnalysisSession::new(s.clone(), v.clone())
                        });
                        let d = sess.type_check(t, s).unwrap();
                        assert!(d.holds, "verdicts survive eviction churn");
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let stats = reg.stats();
        assert!(stats.sessions <= 3, "budget holds under concurrency: {stats:?}");
        assert!(reg.metrics().evictions.get() > 0);
        assert_eq!(reg.metrics().hits.get() + reg.metrics().misses.get(), 8 * 30);
    }

    #[test]
    fn single_oversized_session_is_counted_not_silently_tolerated() {
        let reg = SessionRegistry::new(RegistryConfig {
            max_sessions: 16,
            max_bytes: 1,
            ..Default::default()
        });
        let (v, s, t) = fixture(1);
        let fp = fp_of(&v, &s);
        let (mut sess, _) =
            reg.checkout(fp, &key_of(&v, &s), || AnalysisSession::new(s.clone(), v.clone()));
        sess.type_check(&t, &s).unwrap();
        // The entry was sized before the analysis grew the shared memo:
        // a second checkout refreshes the cached size past the budget.
        reg.checkout(fp, &key_of(&v, &s), || unreachable!("resident"));
        let stats = reg.stats();
        assert_eq!(stats.sessions, 1, "the sole (newest) session survives the sweep");
        assert!(stats.approx_bytes > 1, "its memo exceeds max_bytes: {stats:?}");
        assert_eq!(stats.oversized, 1, "…and the stats say so: {stats:?}");
        // A small second schema displaces it; the gauge clears.
        let (v2, s2, _) = fixture(2);
        reg.checkout(fp_of(&v2, &s2), &key_of(&v2, &s2), || {
            AnalysisSession::new(s2.clone(), v2.clone())
        });
        let after = reg.stats();
        assert_eq!((after.sessions, after.oversized), (1, 0), "{after:?}");
    }

    #[test]
    fn eviction_ties_on_last_used_break_toward_the_smaller_fingerprint() {
        let reg = SessionRegistry::new(RegistryConfig {
            max_sessions: 2,
            max_bytes: usize::MAX,
            ..Default::default()
        });
        let fixtures: Vec<_> = (1..=2).map(fixture).collect();
        let mut fps: Vec<_> = fixtures.iter().map(|(v, s, _)| fp_of(v, s)).collect();
        for (v, s, _) in &fixtures {
            reg.checkout(fp_of(v, s), &key_of(v, s), || AnalysisSession::new(s.clone(), v.clone()));
        }
        // Force a tie strictly older than any later tick, then overflow
        // the entry budget with a third schema.
        reg.set_last_used(fps[0], 1);
        reg.set_last_used(fps[1], 1);
        let (v3, s3, _) = fixture(3);
        reg.checkout(fp_of(&v3, &s3), &key_of(&v3, &s3), || {
            AnalysisSession::new(s3.clone(), v3.clone())
        });
        fps.sort();
        let (iv, is_, _) = fixtures.iter().find(|(v, s, _)| fp_of(v, s) == fps[1]).unwrap();
        let (_, survived) = reg
            .checkout(fps[1], &key_of(iv, is_), || AnalysisSession::new(is_.clone(), iv.clone()));
        assert!(survived, "the larger tied fingerprint stayed resident");
        let (lv, ls, _) = fixtures.iter().find(|(v, s, _)| fp_of(v, s) == fps[0]).unwrap();
        let (_, hit) =
            reg.checkout(fps[0], &key_of(lv, ls), || AnalysisSession::new(ls.clone(), lv.clone()));
        assert!(!hit, "the smaller tied fingerprint was the victim");
    }

    #[test]
    fn byte_accounting_survives_an_eviction_storm() {
        let reg = SessionRegistry::new(RegistryConfig {
            max_sessions: 2,
            max_bytes: usize::MAX,
            ..Default::default()
        });
        let fixtures: Vec<_> = (1..=6).map(fixture).collect();
        for round in 0..4 {
            for (i, (v, s, t)) in fixtures.iter().enumerate() {
                let (mut sess, _) = reg.checkout(fp_of(v, s), &key_of(v, s), || {
                    AnalysisSession::new(s.clone(), v.clone())
                });
                if (round + i) % 2 == 0 {
                    sess.type_check(t, s).unwrap();
                }
                let (total, recount) = reg.byte_accounting();
                assert_eq!(total, recount, "running total drifted from per-entry sizes");
            }
        }
        let stats = reg.stats();
        assert_eq!(stats.sessions, 2);
        // 6 schemas cycled through a 2-slot pool 4 times: every round
        // after the first evicts all 6 misses' predecessors.
        assert!(reg.metrics().evictions.get() >= 6, "{stats:?}");
        assert_eq!(reg.metrics().hits.get() + reg.metrics().misses.get(), 24);
        let (total, recount) = reg.byte_accounting();
        assert_eq!(total, recount);
        assert_eq!(stats.approx_bytes, total);
    }

    #[test]
    fn cache_dir_hydrates_new_sessions_from_disk() {
        let dir = std::env::temp_dir().join(format!("gts-reg-hydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (v, s, t) = fixture(1);
        let fp = fp_of(&v, &s);
        let cfg = RegistryConfig { cache_dir: Some(dir.clone()), ..Default::default() };
        // First life: build cold, analyze, flush to disk.
        {
            let reg = SessionRegistry::new(cfg.clone());
            let (mut sess, _) = reg.checkout(fp, &key_of(&v, &s), || {
                AnalysisSession::with_options(s.clone(), v.clone(), Default::default())
            });
            sess.type_check(&t, &s).unwrap();
            let flush = reg.flush_all();
            assert_eq!(flush.errors, 0);
            assert!(flush.records > 0, "{flush:?}");
        }
        // Second life: a fresh registry (fresh process, morally) warms
        // the session straight from the store file.
        let reg = SessionRegistry::new(cfg);
        let (mut sess, hit) = reg.checkout(fp, &key_of(&v, &s), || {
            AnalysisSession::with_options(s.clone(), v.clone(), Default::default())
        });
        assert!(!hit, "new registry, so a build miss");
        assert!(reg.metrics().disk_hydrated.get() > 0, "{:?}", reg.metrics());
        let before = sess.stats();
        let d = sess.type_check(&t, &s).unwrap();
        assert!(d.holds && d.certified);
        let after = sess.stats();
        assert_eq!(after.misses, before.misses, "the re-analysis replayed disk verdicts");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
