//! Per-(schema, vocabulary) analysis sessions with a memoized containment
//! oracle.
//!
//! A session reuses two things across questions: the verdict memo, and
//! the prepared schema TBoxes `T̂_{S°}` of the Booleanized schemas its
//! questions meet ([`SchemaTboxes`], one per arity and vocabulary), which
//! every completion layers its own CIs over and which memoize those
//! completions, so questions of one `Q°` complete it once. Each
//! containment call owns the solver contexts it decides over and drops
//! them when it returns.
//!
//! Every analysis of the paper is a polynomial Turing reduction to
//! `P ⊆_S Q` for a *fixed* source schema `S`, and the reduction asks many
//! overlapping questions: trimming re-tests the same rule bodies type
//! checking tests, elicitation probes all three L0 statement forms over
//! the same `Q_A`/`Q_{A,R,B}` queries, and equivalence checks both
//! directions of each pair. A session interns the answers once, keyed on a
//! *canonicalized* form of the query pair (variables renamed by first
//! occurrence, union disjuncts sorted), so any α-equivalent repeat — from
//! the same analysis, a later analysis, or another worker thread of a
//! [`crate::Batch`] — is a hash lookup.
//!
//! Correctness of the memo rests on two properties of the decision
//! procedure: its verdict depends only on `(P, Q, S)` and the engine
//! budgets (the vocabulary merely names auxiliary labels), and it is
//! deterministic for fixed budgets — so a cached verdict is exactly what
//! the cold path would recompute (the differential suites in
//! `crates/tests` enforce this).

use gts_core::containment::{contains_with, ContainmentError, ContainmentOptions, SchemaTboxes};
use gts_core::graph::{FxHashMap, FxHashSet, Vocab};
use gts_core::query::{C2rpq, Uc2rpq, Var};
use gts_core::schema::Schema;
use gts_core::{
    elicit_schema_with, equivalence_with, label_coverage_with, trim_with, type_check_with,
    AnalysisError, ContainmentOracle, Decision, Elicited, Transformation,
};
use gts_obs::Json;
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Cache-effectiveness counters of one session (cumulative, shared by all
/// clones of the session).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Containment questions answered from the memo.
    pub hits: u64,
    /// Containment questions that ran the full decision procedure.
    pub misses: u64,
    /// Distinct canonicalized query pairs currently interned.
    pub entries: usize,
    /// Approximate heap occupancy in bytes of the memo (keys + verdicts +
    /// table overhead) and of the prepared schema TBoxes with their
    /// memoized completions — the figure the
    /// `gts-serve` session registry budgets against.
    pub approx_bytes: usize,
    /// Verdicts installed from a disk store ([`AnalysisSession::with_disk`]
    /// and friends) rather than decided by this process.
    pub hydrated: u64,
}

impl CacheStats {
    /// Fraction of questions answered from the memo (`0.0` when none were
    /// asked).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The one JSON rendering of these counters: the serve `analyze`
    /// response's `session` object, and `gts batch`'s `session` and
    /// `containment_cache` objects.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("hits", self.hits)
            .set("misses", self.misses)
            .set("entries", self.entries)
            .set("approx_bytes", self.approx_bytes)
            .set("hydrated", self.hydrated)
            .set("hit_rate", self.hit_rate());
        obj
    }
}

#[derive(Default)]
pub(crate) struct Memo {
    pub(crate) map: FxHashMap<String, Decision>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    /// Verdicts installed from a disk store rather than decided here.
    pub(crate) hydrated: u64,
    /// Keys some clone is deciding now; other askers wait for them.
    in_flight: FxHashSet<String>,
}

/// A reusable analysis context owning the shared state of all analyses
/// over one source schema: the schema, its vocabulary, the engine
/// budgets, the memoized containment oracle, and the prepared schema
/// TBoxes.
///
/// Cloning a session is cheap in the way that matters: the memo and the
/// prepared TBoxes are shared (behind an [`Arc`]), so clones handed to
/// worker threads of a [`crate::Batch`] warm one common cache. Both drop
/// with the last clone. The memo is single-flight: a question one clone
/// is deciding is not decided again by another, which waits for the
/// verdict instead.
#[derive(Clone)]
pub struct AnalysisSession {
    schema: Schema,
    vocab: Vocab,
    opts: ContainmentOptions,
    memo: Arc<Mutex<Memo>>,
    /// Signalled whenever a key leaves `Memo::in_flight`; shared by the
    /// clones with the memo.
    landed: Arc<Condvar>,
    /// `T̂_{S°}` per Booleanized schema `S°`, shared by the clones.
    tboxes: SchemaTboxes,
    /// The canonical identity, captured at construction: the analyses
    /// intern reduction-internal fresh labels into the vocabulary as they
    /// run, but cached state stays keyed by the vocabulary the session
    /// *started* from (what a twin process constructing the same session
    /// would also compute).
    identity: Arc<String>,
    /// The on-disk store this session persists to, if any. Shared by all
    /// clones; the last clone to drop flushes it (see [`crate::disk`]).
    disk: Option<Arc<crate::disk::DiskBinding>>,
}

impl AnalysisSession {
    /// A session over `schema` with default engine budgets. `vocab` must
    /// contain every label the schema (and later queries) mention.
    pub fn new(schema: Schema, vocab: Vocab) -> Self {
        Self::with_options(schema, vocab, ContainmentOptions::default())
    }

    /// A session with explicit engine budgets. Budgets are part of the
    /// session identity: cached verdicts are only replayed for questions
    /// asked under the same options.
    pub fn with_options(schema: Schema, vocab: Vocab, opts: ContainmentOptions) -> Self {
        let identity = Arc::new(crate::identity::canonical_key(&schema, &vocab, &opts));
        AnalysisSession {
            schema,
            vocab,
            opts,
            memo: Arc::new(Mutex::new(Memo::default())),
            landed: Arc::new(Condvar::new()),
            tboxes: SchemaTboxes::default(),
            identity,
            disk: None,
        }
    }

    /// The session's source schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The session's vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Mutable access to the vocabulary (e.g. to intern labels for ad-hoc
    /// queries against [`AnalysisSession::contains`]).
    pub fn vocab_mut(&mut self) -> &mut Vocab {
        &mut self.vocab
    }

    /// The engine budgets used by every question this session answers.
    pub fn options(&self) -> &ContainmentOptions {
        &self.opts
    }

    /// Current cache counters (shared across clones of this session).
    pub fn stats(&self) -> CacheStats {
        let memo = self.memo.lock().unwrap();
        // Per-entry overhead: the `String` header + `Decision` + the hash
        // table's bucket slot, approximated as 64 bytes.
        let approx_bytes: usize =
            memo.map.keys().map(|k| k.capacity() + 64).sum::<usize>() + self.tboxes.approx_bytes();
        CacheStats {
            hits: memo.hits,
            misses: memo.misses,
            entries: memo.map.len(),
            approx_bytes,
            hydrated: memo.hydrated,
        }
    }

    /// The canonical identity string of this session — every byte a
    /// cached verdict depends on: the *construction-time* vocabulary in
    /// intern order, the rendered schema, and the engine budgets. Two
    /// sessions may share persisted state iff their identities are equal.
    /// (Labels interned later — by the analyses themselves or through
    /// [`AnalysisSession::vocab_mut`] — do not change the identity; a
    /// caller that wants ad-hoc labels inside the persistent identity
    /// must intern them before constructing the session.)
    pub fn identity(&self) -> String {
        (*self.identity).clone()
    }

    /// The 64-bit fingerprint of [`AnalysisSession::identity`] — the
    /// store's file name under a cache directory, and the session pool
    /// key of `gts-serve`.
    pub fn store_fingerprint(&self) -> u64 {
        crate::identity::fingerprint_of(&self.identity())
    }

    /// Binds this session (and every clone made *after* this call) to the
    /// on-disk store for its identity under `cache_dir`: existing verdicts
    /// are hydrated into the memo now, and new ones are flushed on
    /// [`AnalysisSession::flush_disk`] and when the last bound clone
    /// drops. Returns what the store contributed.
    pub fn attach_disk(&mut self, cache_dir: &std::path::Path) -> crate::disk::HydrateReport {
        let identity = self.identity();
        let path = gts_store::store_path(cache_dir, crate::identity::fingerprint_of(&identity));
        let (binding, report) =
            crate::disk::DiskBinding::open(path, identity, Arc::clone(&self.memo));
        self.disk = Some(Arc::new(binding));
        report
    }

    /// A session bound to its on-disk store under `cache_dir` — the
    /// one-call form of [`AnalysisSession::with_options`] +
    /// [`AnalysisSession::attach_disk`].
    pub fn with_disk(
        schema: Schema,
        vocab: Vocab,
        opts: ContainmentOptions,
        cache_dir: &std::path::Path,
    ) -> (Self, crate::disk::HydrateReport) {
        let mut session = Self::with_options(schema, vocab, opts);
        let report = session.attach_disk(cache_dir);
        (session, report)
    }

    /// Hydrates this session from in-memory store bytes (the
    /// `cache_import` wire shape) without binding it to any file. The
    /// snapshot's identity header must match this session's identity;
    /// `None` when it does not (or the bytes are not a store).
    pub fn hydrate_from_bytes(&mut self, bytes: &[u8]) -> Option<crate::disk::HydrateReport> {
        let identity = self.identity();
        let loaded = gts_store::decode_store(bytes, Some(&identity));
        if matches!(
            loaded.status,
            gts_store::LoadStatus::Missing | gts_store::LoadStatus::HeaderMismatch
        ) {
            return None;
        }
        Some(crate::disk::apply_records(&loaded, &self.memo))
    }

    /// Serializes this session's verdict memo as store bytes — the
    /// payload of the server's `cache_export` verb, installable on disk
    /// via [`gts_store::install_snapshot`] or into a twin session via
    /// [`AnalysisSession::hydrate_from_bytes`].
    pub fn export_store_bytes(&self) -> Vec<u8> {
        let identity =
            self.disk.as_ref().map(|d| d.identity().to_owned()).unwrap_or_else(|| self.identity());
        crate::disk::export_store_bytes(&identity, &self.memo)
    }

    /// Flushes new cached state to the bound store, if any. `None` when
    /// the session has no disk binding.
    pub fn flush_disk(&self) -> Option<std::io::Result<crate::disk::FlushReport>> {
        self.disk.as_ref().map(|d| d.flush())
    }

    /// The bound store file, if any.
    pub fn disk_path(&self) -> Option<&std::path::Path> {
        self.disk.as_deref().map(crate::disk::DiskBinding::path)
    }

    fn oracle(&mut self) -> SessionOracle<'_> {
        SessionOracle {
            schema: &self.schema,
            vocab: &mut self.vocab,
            opts: &self.opts,
            memo: &self.memo,
            landed: &self.landed,
            tboxes: &self.tboxes,
        }
    }

    /// Memoized `p ⊆_S q` modulo the session schema.
    pub fn contains(&mut self, p: &Uc2rpq, q: &Uc2rpq) -> Result<Decision, ContainmentError> {
        self.oracle().contains(p, q)
    }

    /// Memoized satisfiability of `q` modulo the session schema; returns
    /// `(satisfiable, certified)`.
    pub fn satisfiable(&mut self, q: &C2rpq) -> Result<(bool, bool), ContainmentError> {
        self.oracle().satisfiable(q)
    }

    /// Type checking (Lemma B.2) of `t` from the session schema into
    /// `target`, through the memoized oracle.
    pub fn type_check(
        &mut self,
        t: &Transformation,
        target: &Schema,
    ) -> Result<Decision, AnalysisError> {
        type_check_with(t, target, &mut self.oracle())
    }

    /// Equivalence (Lemma B.8) of two transformations modulo the session
    /// schema, through the memoized oracle.
    pub fn equivalence(
        &mut self,
        t1: &Transformation,
        t2: &Transformation,
    ) -> Result<Decision, AnalysisError> {
        equivalence_with(t1, t2, &mut self.oracle())
    }

    /// Schema elicitation (Lemma B.5) for `t` from the session schema,
    /// through the memoized oracle.
    pub fn elicit(&mut self, t: &Transformation) -> Result<Elicited, AnalysisError> {
        elicit_schema_with(t, &mut self.oracle())
    }

    /// Label coverage (Lemma B.6) of `t` modulo the session schema.
    pub fn label_coverage(&mut self, t: &Transformation) -> Result<Decision, AnalysisError> {
        label_coverage_with(t, &mut self.oracle())
    }

    /// Trimming (Appendix B) of `t` modulo the session schema.
    pub fn trim(&mut self, t: &Transformation) -> Result<(Transformation, bool), AnalysisError> {
        trim_with(t, &mut self.oracle())
    }
}

/// The memoizing [`ContainmentOracle`] borrowed out of a session for the
/// duration of one analysis.
struct SessionOracle<'a> {
    schema: &'a Schema,
    vocab: &'a mut Vocab,
    opts: &'a ContainmentOptions,
    memo: &'a Mutex<Memo>,
    landed: &'a Condvar,
    tboxes: &'a SchemaTboxes,
}

impl ContainmentOracle for SessionOracle<'_> {
    fn contains(&mut self, p: &Uc2rpq, q: &Uc2rpq) -> Result<Decision, ContainmentError> {
        let key = canonical_pair(p, q);
        {
            let mut memo = self.memo.lock().unwrap();
            // Single flight: a key another clone is deciding is waited
            // for, then read as a hit. If that decide fails, the key is
            // free again and the first waiter to wake decides it.
            while memo.in_flight.contains(&key) {
                memo = self.landed.wait(memo).unwrap_or_else(PoisonError::into_inner);
            }
            if let Some(&d) = memo.map.get(&key) {
                memo.hits += 1;
                return Ok(d);
            }
            memo.misses += 1;
            memo.in_flight.insert(key.clone());
        }
        // The lock is NOT held while deciding; the guard frees the key and
        // wakes the waiters however the decide ends, a panic included.
        let flight = InFlight { memo: self.memo, landed: self.landed, key };
        let ans = contains_with(p, q, self.schema, self.vocab, self.opts, self.tboxes)?;
        let d = Decision { holds: ans.holds, certified: ans.certified };
        flight.land(d);
        Ok(d)
    }
}

/// A key a clone is deciding. Landing it stores the verdict; dropping it
/// frees the key either way and wakes every clone waiting for it.
struct InFlight<'a> {
    memo: &'a Mutex<Memo>,
    landed: &'a Condvar,
    key: String,
}

impl InFlight<'_> {
    fn land(self, d: Decision) {
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        memo.map.insert(self.key.clone(), d);
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner).in_flight.remove(&self.key);
        self.landed.notify_all();
    }
}

/// Canonical key of a containment question `p ⊆ q`.
fn canonical_pair(p: &Uc2rpq, q: &Uc2rpq) -> String {
    let mut key = canonical_union(p);
    key.push('⊑');
    key.push_str(&canonical_union(q));
    key
}

/// Canonical form of a union: each disjunct canonicalized independently,
/// then sorted and deduplicated (union is an idempotent commutative
/// monoid, so this is verdict-preserving).
fn canonical_union(u: &Uc2rpq) -> String {
    let mut parts: Vec<String> = u.disjuncts.iter().map(canonical_c2rpq).collect();
    parts.sort();
    parts.dedup();
    parts.join("|")
}

/// Canonical form of one C2RPQ: variables renamed in first-occurrence
/// order over (free tuple, then atom endpoints), so α-equivalent queries —
/// same atoms and answer tuple under a variable bijection — share a key.
/// The count of never-occurring variables is kept: an isolated existential
/// variable still asserts a node's existence.
fn canonical_c2rpq(q: &C2rpq) -> String {
    let mut rename: FxHashMap<u32, u32> = FxHashMap::default();
    let mut id = |v: Var| -> u32 {
        let next = rename.len() as u32;
        *rename.entry(v.0).or_insert(next)
    };
    let mut s = String::new();
    s.push('(');
    for v in &q.free {
        let _ = write!(s, "{},", id(*v));
    }
    s.push(';');
    for a in &q.atoms {
        let _ = write!(s, "{}-{:?}-{},", id(a.x), a.regex, id(a.y));
    }
    let _ = write!(s, ";{})", q.num_vars);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_core::containment::{booleanize, contains};
    use gts_core::prelude::*;

    #[test]
    fn cache_stats_json_shape_is_stable() {
        let json = CacheStats::default().to_json();
        let Json::Obj(fields) = &json else { panic!("not an object: {json:?}") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["hits", "misses", "entries", "approx_bytes", "hydrated", "hit_rate"]);
    }

    fn fixture() -> (Vocab, Schema, Uc2rpq, Uc2rpq) {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let p = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        let q = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r).or(Regex::node(a)) }],
        ));
        (v, s, p, q)
    }

    /// A failed decide frees its key: clones asking one erroring question
    /// at once each get the error, and none waits for ever.
    #[test]
    fn a_failed_decide_frees_its_key() {
        let (v, s, p, _) = fixture();
        let a = v.find_node_label("A").unwrap();
        let unary = Uc2rpq::single(C2rpq::new(
            1,
            vec![Var(0)],
            vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }],
        ));
        let session = AnalysisSession::new(s, v);
        let answers = gts_obs::par::map(0..4, |_| session.clone().contains(&p, &unary));
        assert!(answers.iter().all(|a| *a == Err(ContainmentError::ArityMismatch)), "{answers:?}");
        let stats = session.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 4, 0));
    }

    /// A decide that panics frees its key too: the guard's drop runs while
    /// the panic unwinds, so the next asker decides instead of waiting.
    #[test]
    fn a_panicked_decide_frees_its_key() {
        let (v, s, p, q) = fixture();
        let mut session = AnalysisSession::new(s, v);
        let key = canonical_pair(&p, &q);
        session.memo.lock().unwrap().in_flight.insert(key.clone());
        let (memo, landed) = (&session.memo, &session.landed);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _flight = InFlight { memo, landed, key };
            panic!("the decide panics");
        }));
        assert!(unwound.is_err());
        assert!(session.memo.lock().unwrap().in_flight.is_empty());
        assert!(session.contains(&p, &q).is_ok());
    }

    #[test]
    fn alpha_equivalent_queries_share_a_key() {
        let (v, _, _, _) = fixture();
        let r = v.find_edge_label("r").unwrap();
        let q1 = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        // Same query with the variable ids swapped.
        let q2 = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(1), Var(0)],
            vec![Atom { x: Var(1), y: Var(0), regex: Regex::edge(r) }],
        ));
        assert_eq!(canonical_union(&q1), canonical_union(&q2));
        // A genuinely different query (reversed answer tuple) must not
        // collide.
        let q3 = Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(1), Var(0)],
            vec![Atom { x: Var(0), y: Var(1), regex: Regex::edge(r) }],
        ));
        assert_ne!(canonical_union(&q1), canonical_union(&q3));
    }

    #[test]
    fn disjunct_order_is_canonicalized() {
        let (_, _, p, q) = fixture();
        let u1 = Uc2rpq { disjuncts: vec![p.disjuncts[0].clone(), q.disjuncts[0].clone()] };
        let u2 = Uc2rpq { disjuncts: vec![q.disjuncts[0].clone(), p.disjuncts[0].clone()] };
        assert_eq!(canonical_union(&u1), canonical_union(&u2));
    }

    #[test]
    fn unused_variable_counts_are_distinguished() {
        let (_, _, p, _) = fixture();
        let mut with_isolated = p.disjuncts[0].clone();
        with_isolated.num_vars += 1; // ∃z. (z unconstrained)
        assert_ne!(canonical_c2rpq(&p.disjuncts[0]), canonical_c2rpq(&with_isolated));
    }

    #[test]
    fn repeat_questions_hit_the_memo() {
        let (v, s, p, q) = fixture();
        let mut session = AnalysisSession::new(s, v);
        let d1 = session.contains(&p, &q).unwrap();
        let cold = session.stats();
        assert_eq!((cold.hits, cold.misses, cold.entries), (0, 1, 1));
        // The figure counts the prepared T̂_S° and the memo entry beside it.
        let tbox_bytes = session.tboxes.approx_bytes();
        assert!(tbox_bytes > 0, "the prepared schema TBox occupies memory");
        assert!(cold.approx_bytes > tbox_bytes, "so does one interned entry");
        let d2 = session.contains(&p, &q).unwrap();
        assert_eq!(d1, d2);
        let stats = session.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    /// Questions of one arity booleanize to one `S°`: the marker labels
    /// are interned once, and one prepared T̂_S° serves them all. The
    /// roll-up's state labels are named by their place in `Q°`, so the
    /// second question adds no node label either.
    #[test]
    fn questions_of_one_arity_share_one_schema_tbox() {
        let (v, s, p, q) = fixture();
        let mut session = AnalysisSession::new(s, v);
        session.contains(&p, &q).unwrap();
        let labels = session.vocab().num_node_labels();
        session.contains(&q, &p).unwrap();
        assert_eq!(session.stats().misses, 2, "both questions ran the procedure");
        assert_eq!(session.tboxes.len(), 1, "one S°, one prepared TBox");
        let vocab = session.vocab();
        let nodes: Vec<&str> = vocab.node_labels().map(|l| vocab.node_name(l)).collect();
        let edges: Vec<&str> = vocab.edge_labels().map(|l| vocab.edge_name(l)).collect();
        let marker = |n: &&&str| n.contains('#') && (n.starts_with('X') || n.starts_with("rX"));
        assert_eq!(nodes.iter().filter(marker).collect::<Vec<_>>(), [&"X0#", &"X1#"]);
        assert_eq!(edges.iter().filter(marker).collect::<Vec<_>>(), [&"rX0#", &"rX1#"]);
        assert_eq!(nodes.len(), labels, "the roll-up states are named by their place in Q°");
    }

    /// Clones own their vocabularies: one that interned a label of its
    /// own interns the markers at other ids, so its `S°` differs and it
    /// gets a T̂_S° of its own, never the other's.
    #[test]
    fn clones_with_diverged_vocabularies_keep_apart_schema_tboxes() {
        let (v, s, p, q) = fixture();
        let session = AnalysisSession::new(s.clone(), v.clone());
        let (mut a, mut b) = (session.clone(), session.clone());
        a.vocab_mut().node_label("Diverged");
        let da = a.contains(&p, &q).unwrap();
        let db = b.contains(&q, &p).unwrap();
        assert_eq!(session.tboxes.len(), 2, "the clones share the list, not an entry");
        let s_deg =
            |clone: &AnalysisSession| booleanize(&p, &q, &s, &mut clone.vocab().clone()).schema;
        let (sa, sb) = (s_deg(&a), s_deg(&b));
        assert_ne!(sa, sb, "the markers sit at other ids");
        for s_deg in [&sa, &sb] {
            let prepared = session.tboxes.get(s_deg);
            assert_eq!(prepared.merged(&Default::default()), s_deg.hat_tbox());
        }
        assert_eq!(session.tboxes.len(), 2, "both were found, none was prepared");
        let direct = |p: &Uc2rpq, q: &Uc2rpq| {
            let ans = contains(p, q, &s, &mut v.clone(), &ContainmentOptions::default()).unwrap();
            Decision { holds: ans.holds, certified: ans.certified }
        };
        assert_eq!((da, db), (direct(&p, &q), direct(&q, &p)));
    }

    #[test]
    fn clones_share_the_memo() {
        let (v, s, p, q) = fixture();
        let mut session = AnalysisSession::new(s, v);
        session.contains(&p, &q).unwrap();
        let mut clone = session.clone();
        clone.contains(&p, &q).unwrap();
        assert_eq!(session.stats().hits, 1, "the clone's question hit the shared memo");
    }
}
