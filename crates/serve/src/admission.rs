//! Semaphore-style admission control for the analysis server.
//!
//! Analyses are CPU-bound and can take arbitrarily long (the decision
//! procedure is EXPTIME-bounded by explicit budgets), so a resident
//! server must not let every connection run one concurrently: an
//! [`Admission`] bounds the number of in-flight analyses and the number
//! of frames allowed to *wait* for a slot. Anything beyond that is
//! rejected immediately with a backpressure error — bounded latency for
//! admitted work beats unbounded buffering for everyone. Waiters with a
//! deadline give up (and free their queue slot) when it passes.
//!
//! ## Tenants
//!
//! Work is attributed to a *tenant* (the protocol's `auth` token;
//! absent means the shared `"default"` tenant). Tenants share the same
//! global bounds, but each is additionally held to a fair share of the
//! in-flight slots: `max(1, max_inflight / active_tenants)` (rounded
//! up), recomputed as tenants come and go. With one tenant the quota
//! equals `max_inflight`, so single-tenant behavior is exactly the
//! pre-tenant semantics. A tenant over its share waits in the same
//! bounded queue; when the queue is full, the rejection says *why* —
//! [`AdmissionError::Overloaded`] when the server is globally full,
//! [`AdmissionError::QuotaExceeded`] when slots are free but the tenant
//! has consumed its share.

use gts_net::lock;
use gts_obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// The tenant used when a frame carries no `auth` token.
pub const DEFAULT_TENANT: &str = "default";

/// Idle tenant entries beyond this count are dropped (their cumulative
/// counters with them) to bound memory against churning auth tokens.
const TENANT_TABLE_CAP: usize = 256;

/// Admission bounds.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum analyses running concurrently (≥ 1).
    pub max_inflight: usize,
    /// Maximum frames waiting for a slot; `0` rejects as soon as all
    /// slots are busy.
    pub max_queue: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        let cores = gts_obs::par::cores();
        AdmissionConfig { max_inflight: cores, max_queue: 2 * cores }
    }
}

/// Why admission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// All slots busy and the wait queue is full — retry later.
    Overloaded,
    /// The request's deadline passed while it was queued.
    DeadlineExceeded,
    /// The server is draining and accepts no new work.
    Draining,
    /// Slots are free, but this tenant is over its fair share and the
    /// wait queue is full.
    QuotaExceeded,
}

impl AdmissionError {
    /// The protocol error code of this rejection.
    pub fn code(self) -> &'static str {
        match self {
            AdmissionError::Overloaded => "overloaded",
            AdmissionError::DeadlineExceeded => "deadline_exceeded",
            AdmissionError::Draining => "shutting_down",
            AdmissionError::QuotaExceeded => "quota_exceeded",
        }
    }
}

/// The admission controller's event counters: cells in a registry the
/// controller owns, so they are the one record of their events — the
/// `metrics` verb renders [`AdmissionMetrics::registry`] and the `stats`
/// verb reads the same cells.
#[derive(Debug)]
pub struct AdmissionMetrics {
    /// The registry holding the cells below.
    pub registry: MetricsRegistry,
    /// Analyses admitted (granted a permit).
    pub admitted: Counter,
    /// Frames rejected because the queue was full.
    pub rejected_overloaded: Counter,
    /// Frames whose deadline expired while queued.
    pub rejected_deadline: Counter,
    /// Frames rejected during drain.
    pub rejected_draining: Counter,
    /// Frames rejected because their tenant was over its fair share.
    pub rejected_quota: Counter,
}

impl AdmissionMetrics {
    fn new() -> AdmissionMetrics {
        let registry = MetricsRegistry::new();
        let rejected = |reason| {
            registry.counter(
                "gts_serve_rejected_total",
                "Analyze frames refused by admission control, by reason",
                &[("reason", reason)],
            )
        };
        AdmissionMetrics {
            admitted: registry.counter(
                "gts_serve_admitted_total",
                "Analyses granted an admission slot",
                &[],
            ),
            rejected_overloaded: rejected("overloaded"),
            rejected_deadline: rejected("deadline"),
            rejected_draining: rejected("draining"),
            rejected_quota: rejected("quota"),
            registry,
        }
    }
}

/// The controller's current state, read under its lock: what is running
/// and waiting now, the in-flight high-water mark, and the tenant table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Analyses running right now.
    pub inflight: usize,
    /// Frames waiting for a slot right now.
    pub queued: usize,
    /// Highest concurrent in-flight count observed.
    pub peak_inflight: usize,
    /// Per-tenant figures, sorted by tenant name. Tenants that never
    /// submitted work do not appear.
    pub tenants: Vec<TenantStats>,
}

/// One tenant's view of the admission counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's `auth` token (or [`DEFAULT_TENANT`]).
    pub tenant: String,
    /// This tenant's analyses running right now.
    pub inflight: usize,
    /// This tenant's frames waiting for a slot right now.
    pub queued: usize,
    /// Analyses admitted for this tenant.
    pub admitted: u64,
    /// Frames rejected because this tenant was over its fair share.
    pub rejected_quota: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct TenantEntry {
    inflight: usize,
    queued: usize,
    admitted: u64,
    rejected_quota: u64,
}

impl TenantEntry {
    fn active(&self) -> bool {
        self.inflight + self.queued > 0
    }
}

#[derive(Default)]
struct State {
    inflight: usize,
    queued: usize,
    peak_inflight: usize,
    draining: bool,
    tenants: HashMap<String, TenantEntry>,
}

impl State {
    /// This tenant's current in-flight quota: its fair share of the
    /// global slots among tenants with work in the system (itself
    /// included), never below one.
    fn quota(&self, cfg: &AdmissionConfig, tenant: &str) -> usize {
        let mut active = self.tenants.values().filter(|t| t.active()).count();
        if !self.tenants.get(tenant).is_some_and(TenantEntry::active) {
            active += 1; // the asker counts even before it enqueues
        }
        (cfg.max_inflight.div_ceil(active)).max(1)
    }

    /// `true` when `tenant` cannot be admitted right now.
    fn blocked(&self, cfg: &AdmissionConfig, tenant: &str) -> bool {
        let mine = self.tenants.get(tenant).map_or(0, |t| t.inflight);
        self.inflight >= cfg.max_inflight || mine >= self.quota(cfg, tenant)
    }

    fn entry(&mut self, tenant: &str) -> &mut TenantEntry {
        if !self.tenants.contains_key(tenant) {
            // Bound the table: recycle an idle entry's slot rather than
            // growing without limit under churning auth tokens.
            if self.tenants.len() >= TENANT_TABLE_CAP {
                if let Some(idle) =
                    self.tenants.iter().find(|(_, t)| !t.active()).map(|(k, _)| k.clone())
                {
                    self.tenants.remove(&idle);
                }
            }
            self.tenants.insert(tenant.to_owned(), TenantEntry::default());
        }
        self.tenants.get_mut(tenant).unwrap()
    }
}

/// The admission controller: a counting semaphore with a bounded wait
/// queue, per-tenant fair-share quotas, deadlines, and drain support,
/// built on `Mutex` + `Condvar` (std-only, like the rest of the server).
pub struct Admission {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    cv: Condvar,
    metrics: AdmissionMetrics,
}

/// An admitted analysis slot; releasing is dropping.
pub struct Permit<'a> {
    adm: &'a Admission,
    tenant: String,
}

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Permit({})", self.tenant)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut s = lock(&self.adm.state);
        s.inflight -= 1;
        if let Some(t) = s.tenants.get_mut(&self.tenant) {
            t.inflight -= 1;
        }
        drop(s);
        // notify_all, not notify_one: the condvar is shared by queued
        // `admit` waiters AND `await_idle` blockers — a single wakeup
        // could land on an idle-waiter and leave a queued request
        // sleeping next to a free slot.
        self.adm.cv.notify_all();
    }
}

impl Admission {
    /// A controller with the given bounds (`max_inflight` is clamped to
    /// ≥ 1).
    pub fn new(mut cfg: AdmissionConfig) -> Self {
        cfg.max_inflight = cfg.max_inflight.max(1);
        Admission {
            cfg,
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            metrics: AdmissionMetrics::new(),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// The event counters.
    pub fn metrics(&self) -> &AdmissionMetrics {
        &self.metrics
    }

    /// Counts a rejection under its reason and returns it.
    fn reject(&self, e: AdmissionError) -> Result<Permit<'_>, AdmissionError> {
        let m = &self.metrics;
        match e {
            AdmissionError::Overloaded => &m.rejected_overloaded,
            AdmissionError::DeadlineExceeded => &m.rejected_deadline,
            AdmissionError::Draining => &m.rejected_draining,
            AdmissionError::QuotaExceeded => &m.rejected_quota,
        }
        .inc();
        Err(e)
    }

    /// Requests a slot for the [`DEFAULT_TENANT`], waiting (up to
    /// `deadline`, if any) in the bounded queue when all slots are busy.
    pub fn admit(&self, deadline: Option<Instant>) -> Result<Permit<'_>, AdmissionError> {
        self.admit_for(DEFAULT_TENANT, deadline)
    }

    /// Requests a slot for `tenant`, waiting (up to `deadline`, if any)
    /// in the bounded queue when the server is full or the tenant has
    /// consumed its fair share.
    pub fn admit_for(
        &self,
        tenant: &str,
        deadline: Option<Instant>,
    ) -> Result<Permit<'_>, AdmissionError> {
        let mut s = lock(&self.state);
        if s.draining {
            return self.reject(AdmissionError::Draining);
        }
        if s.blocked(&self.cfg, tenant) {
            // Blocked: take a queue slot or bounce, naming the cause —
            // a full server is `overloaded`, free slots behind a tenant
            // quota are `quota_exceeded`.
            if s.queued >= self.cfg.max_queue {
                if s.inflight >= self.cfg.max_inflight {
                    return self.reject(AdmissionError::Overloaded);
                }
                s.entry(tenant).rejected_quota += 1;
                return self.reject(AdmissionError::QuotaExceeded);
            }
            s.queued += 1;
            s.entry(tenant).queued += 1;
            loop {
                if s.draining {
                    s.queued -= 1;
                    s.entry(tenant).queued -= 1;
                    return self.reject(AdmissionError::Draining);
                }
                if !s.blocked(&self.cfg, tenant) {
                    s.queued -= 1;
                    s.entry(tenant).queued -= 1;
                    break;
                }
                match deadline {
                    None => s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            s.queued -= 1;
                            s.entry(tenant).queued -= 1;
                            return self.reject(AdmissionError::DeadlineExceeded);
                        }
                        let (guard, _timeout) = self
                            .cv
                            .wait_timeout(s, d - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        s = guard;
                    }
                }
            }
        }
        s.inflight += 1;
        self.metrics.admitted.inc();
        s.peak_inflight = s.peak_inflight.max(s.inflight);
        let e = s.entry(tenant);
        e.inflight += 1;
        e.admitted += 1;
        Ok(Permit { adm: self, tenant: tenant.to_owned() })
    }

    /// Starts draining: queued waiters are woken and rejected, later
    /// `admit` calls fail fast. Already-admitted permits run to
    /// completion.
    pub fn begin_drain(&self) {
        lock(&self.state).draining = true;
        self.cv.notify_all();
    }

    /// `true` once [`Admission::begin_drain`] has run.
    pub fn draining(&self) -> bool {
        lock(&self.state).draining
    }

    /// Blocks until no analysis is in flight (drain completion).
    pub fn await_idle(&self) {
        let mut s = lock(&self.state);
        while s.inflight > 0 {
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The current state, read under one lock.
    pub fn stats(&self) -> AdmissionStats {
        let s = lock(&self.state);
        let mut tenants: Vec<TenantStats> = s
            .tenants
            .iter()
            .map(|(name, t)| TenantStats {
                tenant: name.clone(),
                inflight: t.inflight,
                queued: t.queued,
                admitted: t.admitted,
                rejected_quota: t.rejected_quota,
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        AdmissionStats {
            inflight: s.inflight,
            queued: s.queued,
            peak_inflight: s.peak_inflight,
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn permits_are_bounded_and_released() {
        let adm = Admission::new(AdmissionConfig { max_inflight: 2, max_queue: 0 });
        let p1 = adm.admit(None).unwrap();
        let p2 = adm.admit(None).unwrap();
        assert_eq!(adm.admit(None).unwrap_err(), AdmissionError::Overloaded);
        drop(p1);
        let p3 = adm.admit(None).unwrap();
        drop(p2);
        drop(p3);
        let stats = adm.stats();
        assert_eq!(adm.metrics().admitted.get(), 3);
        assert_eq!(adm.metrics().rejected_overloaded.get(), 1);
        assert_eq!(stats.peak_inflight, 2);
        assert_eq!(stats.inflight, 0);
    }

    #[test]
    fn queued_waiters_get_slots_in_turn() {
        let adm = Arc::new(Admission::new(AdmissionConfig { max_inflight: 1, max_queue: 8 }));
        let held = adm.admit(None).unwrap();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let adm = Arc::clone(&adm);
                std::thread::spawn(move || {
                    let p = adm.admit(None).unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                    drop(p);
                })
            })
            .collect();
        // Give the workers time to enqueue, then open the gate.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(adm.stats().queued, 4);
        drop(held);
        for w in workers {
            w.join().unwrap();
        }
        let stats = adm.stats();
        assert_eq!(adm.metrics().admitted.get(), 5);
        assert_eq!(stats.inflight, 0);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.peak_inflight, 1, "never more than one in flight");
    }

    #[test]
    fn deadlines_bound_the_queue_wait() {
        let adm = Admission::new(AdmissionConfig { max_inflight: 1, max_queue: 4 });
        let _held = adm.admit(None).unwrap();
        let deadline = Instant::now() + Duration::from_millis(30);
        let start = Instant::now();
        let err = adm.admit(Some(deadline)).unwrap_err();
        assert_eq!(err, AdmissionError::DeadlineExceeded);
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(adm.metrics().rejected_deadline.get(), 1);
        assert_eq!(adm.stats().queued, 0, "the queue slot was released");
        // An already-expired deadline still rejects (without waiting).
        let err2 = adm.admit(Some(Instant::now() - Duration::from_millis(1))).unwrap_err();
        assert_eq!(err2, AdmissionError::DeadlineExceeded);
    }

    #[test]
    fn drain_rejects_new_work_and_wakes_waiters() {
        let adm = Arc::new(Admission::new(AdmissionConfig { max_inflight: 1, max_queue: 4 }));
        let held = adm.admit(None).unwrap();
        let waiter = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || adm.admit(None).map(|_| ()))
        };
        std::thread::sleep(Duration::from_millis(20));
        adm.begin_drain();
        assert_eq!(waiter.join().unwrap().unwrap_err(), AdmissionError::Draining);
        assert_eq!(adm.admit(None).unwrap_err(), AdmissionError::Draining);
        // The held permit still completes; drain waits for it.
        let adm2 = Arc::clone(&adm);
        let joiner = std::thread::spawn(move || adm2.await_idle());
        drop(held);
        joiner.join().unwrap();
        assert_eq!(adm.stats().inflight, 0);
    }

    #[test]
    fn hammering_admission_from_many_threads_is_consistent() {
        let adm = Arc::new(Admission::new(AdmissionConfig { max_inflight: 3, max_queue: 64 }));
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let adm = Arc::clone(&adm);
                std::thread::spawn(move || {
                    let mut admitted = 0u64;
                    for _ in 0..20 {
                        if let Ok(_p) = adm.admit(None) {
                            admitted += 1;
                            std::hint::spin_loop();
                        }
                    }
                    admitted
                })
            })
            .collect();
        let total: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(total, 16 * 20, "no unbounded queue → but queue of 64 fits 16 waiters");
        let stats = adm.stats();
        assert_eq!(adm.metrics().admitted.get(), total);
        assert!(stats.peak_inflight <= 3);
        assert_eq!(stats.inflight, 0);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn a_single_tenant_gets_the_whole_server() {
        // The fair-share quota must degenerate to plain admission when
        // only one tenant exists: full capacity, no quota rejections.
        let adm = Admission::new(AdmissionConfig { max_inflight: 3, max_queue: 0 });
        let p1 = adm.admit_for("alice", None).unwrap();
        let p2 = adm.admit_for("alice", None).unwrap();
        let p3 = adm.admit_for("alice", None).unwrap();
        assert_eq!(adm.admit_for("alice", None).unwrap_err(), AdmissionError::Overloaded);
        assert_eq!(adm.metrics().rejected_quota.get(), 0);
        drop((p1, p2, p3));
    }

    #[test]
    fn a_greedy_tenant_cannot_starve_a_newcomer() {
        let adm = Arc::new(Admission::new(AdmissionConfig { max_inflight: 2, max_queue: 4 }));
        // Greedy takes both slots while alone (quota = 2/1 = 2).
        let g1 = adm.admit_for("greedy", None).unwrap();
        let g2 = adm.admit_for("greedy", None).unwrap();
        // A newcomer queues (two active tenants → quota 1 each), and a
        // third greedy request queues behind its own exhausted share.
        let newcomer = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || adm.admit_for("patient", None).map(drop))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(adm.stats().queued, 1);
        // One greedy permit releases: the freed slot must go to the
        // newcomer (greedy is over its fair share of 1).
        drop(g1);
        newcomer.join().unwrap().unwrap();
        let tenants = adm.stats().tenants;
        let patient = tenants.iter().find(|t| t.tenant == "patient").unwrap();
        assert_eq!(patient.admitted, 1);
        // With the other slot still held by greedy, a queue-full quota
        // overflow for greedy names the quota, not overload.
        let adm_small = Admission::new(AdmissionConfig { max_inflight: 4, max_queue: 0 });
        let _a = adm_small.admit_for("a", None).unwrap();
        let _b = adm_small.admit_for("b", None).unwrap();
        // Two active tenants → quota 2 each; `a` may take one more…
        let _a2 = adm_small.admit_for("a", None).unwrap();
        // …but not a third, and the error says quota (slots remain free).
        assert_eq!(
            adm_small.admit_for("a", None).unwrap_err(),
            AdmissionError::QuotaExceeded,
            "free global slot + exhausted share must name the quota"
        );
        assert_eq!(adm_small.metrics().rejected_quota.get(), 1);
        drop(g2);
    }
}
