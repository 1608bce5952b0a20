//! The session ⇄ store bridge: persisting an [`crate::AnalysisSession`]'s
//! verdict memo to a `gts-store` record log and replaying it.
//!
//! ## Records
//!
//! A store holds one record kind, [`KIND_VERDICT`]: a canonical pair key
//! and a flags byte, one containment verdict each, first-wins on replay.
//! The store header pins the session identity (vocabulary, schema,
//! budgets), so replay can never install a verdict under the wrong
//! question. Older versions also wrote kinds 2 and 3 (per-TBox solver
//! snapshots and completion-memo entries); the loader skips them like any
//! unknown kind, and the next flush rewrites the file without them.
//!
//! ## Flush strategy
//!
//! A [`DiskBinding`] tracks which verdicts the file already holds and
//! appends only new ones. Verdicts are never superseded, so appends alone
//! keep the file minimal — except after a load that dropped a corrupt
//! tail (new records appended behind it would be unreachable) or met
//! retired record kinds: the first flush after such a load rewrites the
//! file as one fresh snapshot. Flushes happen on demand
//! ([`crate::AnalysisSession::flush_disk`], the server's periodic flush)
//! and when the last session clone holding the binding drops.
//!
//! Concurrent writers (two processes sharing a cache dir) are tolerated,
//! not coordinated: appends are single `O_APPEND` writes, so interleaving
//! can at worst tear the tail, which the loader drops — degraded, never
//! wrong.

use crate::session::Memo;
use gts_core::Decision;
use gts_store::{append_records, load_file, Dec, Enc, LoadStatus, Loaded, Record};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Record kind: one canonical containment verdict.
pub const KIND_VERDICT: u8 = 1;

/// What replaying a store contributed to a session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HydrateReport {
    /// Containment verdicts installed into the memo.
    pub verdicts: usize,
    /// `true` when a corrupt tail was dropped (the records above are the
    /// clean prefix — still sound, just fewer).
    pub degraded: bool,
}

impl HydrateReport {
    /// Total entries contributed.
    pub fn total(&self) -> usize {
        self.verdicts
    }
}

/// What one flush wrote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Records written (appended, or total in the rewritten store).
    pub records: usize,
    /// Bytes written.
    pub bytes: usize,
    /// `true` when the flush rewrote the file as one fresh snapshot
    /// instead of appending.
    pub compacted: bool,
}

fn verdict_record(key: &str, d: Decision) -> Record {
    let mut e = Enc::new();
    e.str(key);
    e.u8((d.holds as u8) | ((d.certified as u8) << 1));
    Record { kind: KIND_VERDICT, payload: e.finish() }
}

fn decode_verdict(payload: &[u8]) -> Option<(String, Decision)> {
    let mut d = Dec::new(payload);
    let key = d.str()?.to_owned();
    let flags = d.u8()?;
    if flags > 3 || !d.done() {
        return None;
    }
    Some((key, Decision { holds: flags & 1 != 0, certified: flags & 2 != 0 }))
}

/// Replays the verdict records of a decoded store into a session's memo
/// (first wins — locally decided verdicts are never overridden). Used by
/// both the disk path and the wire path (`cache_import`).
pub(crate) fn apply_records(loaded: &Loaded, memo: &Mutex<Memo>) -> HydrateReport {
    let mut report = HydrateReport {
        degraded: loaded.status == LoadStatus::TruncatedTail,
        ..HydrateReport::default()
    };
    let mut memo = memo.lock().unwrap();
    // Other kinds — retired ones, or a newer writer's under the same
    // format version — carry nothing a session can use: skip.
    for rec in loaded.records.iter().filter(|r| r.kind == KIND_VERDICT) {
        if let Some((key, d)) = decode_verdict(&rec.payload) {
            if let std::collections::hash_map::Entry::Vacant(e) = memo.map.entry(key) {
                e.insert(d);
                report.verdicts += 1;
            }
        }
    }
    memo.hydrated += report.verdicts as u64;
    report
}

/// Serializes every verdict of `memo` as store-file bytes.
pub(crate) fn export_store_bytes(identity: &str, memo: &Mutex<Memo>) -> Vec<u8> {
    let memo = memo.lock().unwrap();
    let records: Vec<Record> = memo.map.iter().map(|(k, &d)| verdict_record(k, d)).collect();
    gts_store::encode_store(identity, &records)
}

/// What the bound file already holds, so flushes append only new
/// verdicts.
#[derive(Default)]
struct PersistState {
    /// [`gts_store::hash64`] of every persisted verdict key (in-memory
    /// only, never persisted — a hash collision merely skips persisting
    /// one verdict, never corrupts replay).
    verdict_keys: gts_core::graph::FxHashSet<u64>,
    /// Set when the file must be rewritten whole on the next flush: its
    /// load dropped a corrupt tail or met retired record kinds.
    needs_rewrite: bool,
}

/// A session's live connection to its on-disk store. Shared (`Arc`) by
/// every clone of the bound session; flushes explicitly on
/// [`DiskBinding::flush`] and implicitly when the last clone drops.
pub struct DiskBinding {
    path: PathBuf,
    /// The identity captured at bind time (a clone's vocabulary may grow
    /// afterwards through ad-hoc interning; persisted state stays keyed
    /// by the identity it was hydrated under).
    identity: String,
    memo: Arc<Mutex<Memo>>,
    state: Mutex<PersistState>,
}

impl DiskBinding {
    /// Opens (or prepares to create) the store at `path`, replaying its
    /// clean verdicts into `memo`.
    pub(crate) fn open(
        path: PathBuf,
        identity: String,
        memo: Arc<Mutex<Memo>>,
    ) -> (DiskBinding, HydrateReport) {
        let loaded = load_file(&path, Some(&identity));
        let report = apply_records(&loaded, &memo);
        // Kinds 2 and 3 are the retired solver-snapshot and
        // completion-memo records.
        let mut state = PersistState {
            needs_rewrite: report.degraded
                || loaded.records.iter().any(|r| matches!(r.kind, 2 | 3)),
            ..PersistState::default()
        };
        // Everything the file already holds needs no re-append.
        for rec in loaded.records.iter().filter(|r| r.kind == KIND_VERDICT) {
            if let Some((key, _)) = decode_verdict(&rec.payload) {
                state.verdict_keys.insert(gts_store::hash64(key.as_bytes()));
            }
        }
        let binding = DiskBinding { path, identity, memo, state: Mutex::new(state) };
        (binding, report)
    }

    /// The bound file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The identity the store is keyed by.
    pub fn identity(&self) -> &str {
        &self.identity
    }

    /// Writes every verdict decided since the last flush: appends them,
    /// or rewrites the file as one fresh snapshot when its load left it
    /// degraded or holding retired records. A flush with nothing to do
    /// writes nothing.
    pub fn flush(&self) -> std::io::Result<FlushReport> {
        let mut state = self.state.lock().unwrap();
        let rewrite = state.needs_rewrite;
        let records: Vec<Record> = {
            let memo = self.memo.lock().unwrap();
            if rewrite {
                state.verdict_keys =
                    memo.map.keys().map(|k| gts_store::hash64(k.as_bytes())).collect();
                memo.map.iter().map(|(k, &d)| verdict_record(k, d)).collect()
            } else {
                memo.map
                    .iter()
                    .filter(|(k, _)| state.verdict_keys.insert(gts_store::hash64(k.as_bytes())))
                    .map(|(k, &d)| verdict_record(k, d))
                    .collect()
            }
        };
        if rewrite {
            let bytes = gts_store::encode_store(&self.identity, &records);
            gts_store::install_snapshot(&self.path, &bytes).map_err(std::io::Error::other)?;
            state.needs_rewrite = false;
            return Ok(FlushReport { records: records.len(), bytes: bytes.len(), compacted: true });
        }
        if records.is_empty() {
            return Ok(FlushReport::default());
        }
        let written = append_records(&self.path, &self.identity, &records)?;
        Ok(FlushReport { records: records.len(), bytes: written, compacted: false })
    }
}

impl Drop for DiskBinding {
    fn drop(&mut self) {
        // Best-effort: a failing final flush must not panic in drop; the
        // store degrades to whatever the last successful flush persisted.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use crate::AnalysisSession;
    use gts_core::prelude::*;

    fn fixture() -> (Vocab, Schema, Transformation) {
        let mut v = Vocab::new();
        let a = v.node_label("A");
        let r = v.edge_label("r");
        let mut s = Schema::new();
        s.set_edge(a, r, a, Mult::Star, Mult::Star);
        let mut t = Transformation::new();
        t.add_node_rule(
            a,
            C2rpq::new(1, vec![Var(0)], vec![Atom { x: Var(0), y: Var(0), regex: Regex::node(a) }]),
        );
        (v, s, t)
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gts-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn drop_flushes_and_reopen_hydrates_warm() {
        let dir = tmp_dir("roundtrip");
        let (v, s, t) = fixture();
        {
            let (mut sess, report) =
                AnalysisSession::with_disk(s.clone(), v.clone(), Default::default(), &dir);
            assert_eq!(report.total(), 0, "first open finds nothing");
            let d = sess.type_check(&t, &s).unwrap();
            assert!(d.holds && d.certified);
            assert!(sess.stats().misses > 0);
        } // last clone drops → flush
        let (mut warm, report) =
            AnalysisSession::with_disk(s.clone(), v.clone(), Default::default(), &dir);
        assert!(report.verdicts > 0, "verdicts came back: {report:?}");
        assert!(!report.degraded);
        let d = warm.type_check(&t, &s).unwrap();
        assert!(d.holds && d.certified);
        let stats = warm.stats();
        assert_eq!(stats.misses, 0, "the warm run decided nothing: {stats:?}");
        assert_eq!(stats.hydrated as usize, report.verdicts);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_budgets_use_separate_stores() {
        let dir = tmp_dir("budgets");
        let (v, s, t) = fixture();
        {
            let (mut sess, _) =
                AnalysisSession::with_disk(s.clone(), v.clone(), Default::default(), &dir);
            sess.type_check(&t, &s).unwrap();
        }
        let large = gts_core::containment::ContainmentOptions {
            budget: Budget::large(),
            ..Default::default()
        };
        let (sess, report) = AnalysisSession::with_disk(s.clone(), v.clone(), large, &dir);
        assert_eq!(report.total(), 0, "budget is part of the identity");
        assert!(sess.disk_path().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_store_degrades_to_clean_prefix_and_identical_verdicts() {
        let dir = tmp_dir("truncate");
        let (v, s, t) = fixture();
        {
            let (mut sess, _) =
                AnalysisSession::with_disk(s.clone(), v.clone(), Default::default(), &dir);
            sess.type_check(&t, &s).unwrap();
        }
        let path = {
            let sess = AnalysisSession::new(s.clone(), v.clone());
            gts_store::store_path(&dir, sess.store_fingerprint())
        };
        // Chop mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut warm, report) =
            AnalysisSession::with_disk(s.clone(), v.clone(), Default::default(), &dir);
        assert!(report.degraded, "the torn tail was detected");
        // Verdicts agree with a fresh session regardless.
        let d_warm = warm.type_check(&t, &s).unwrap();
        let mut fresh = AnalysisSession::new(s.clone(), v.clone());
        let d_fresh = fresh.type_check(&t, &s).unwrap();
        assert_eq!(d_warm, d_fresh);
        // Bit-flip the header: the whole store is ignored, cold path.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[5] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (mut cold, report) =
            AnalysisSession::with_disk(s.clone(), v.clone(), Default::default(), &dir);
        assert_eq!(report.total(), 0);
        assert_eq!(cold.type_check(&t, &s).unwrap(), d_fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_bytes_hydrate_a_twin_session_over_the_wire() {
        let (v, s, t) = fixture();
        let mut src = AnalysisSession::new(s.clone(), v.clone());
        src.type_check(&t, &s).unwrap();
        let bytes = src.export_store_bytes();

        let mut twin = AnalysisSession::new(s.clone(), v.clone());
        let report = twin.hydrate_from_bytes(&bytes).expect("identity matches");
        assert!(report.verdicts > 0);
        twin.type_check(&t, &s).unwrap();
        assert_eq!(twin.stats().misses, 0, "twin answered fully warm");

        // A session with a different identity refuses the snapshot.
        let mut v2 = v.clone();
        v2.node_label("Extra");
        let mut other = AnalysisSession::new(s.clone(), v2);
        assert!(other.hydrate_from_bytes(&bytes).is_none());
    }
}
