//! Differential suite for the persistent on-disk verdict store: sessions
//! hydrated from a warm store must agree verdict-for-verdict with fresh
//! cold-path decides — on randomized schemas and query batteries, and
//! under store corruption (truncation anywhere, bit flips anywhere),
//! where the tolerant decoder must degrade to a clean prefix or the cold
//! path without ever changing an answer. A store holds one record per
//! memoized verdict, and a store left degraded or holding retired record
//! kinds is rewritten whole by the next flush.

use gts_core::prelude::*;
use gts_corpus::medical_fixture;
use gts_corpus::{scenario, Family, Params};
use gts_engine::AnalysisSession;
use gts_schema::{random_schema, SchemaGenConfig};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gts-tests-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic battery of boolean containment questions over a
/// schema's labels: single-atom 2RPQ pairs, some forced equal so both
/// holds- and fails-verdicts appear.
fn query_battery<R: Rng>(schema: &Schema, rng: &mut R, n: usize) -> Vec<(Uc2rpq, Uc2rpq)> {
    let labels = schema.node_labels().to_vec();
    let edges = schema.edge_labels().to_vec();
    let random_regex = |rng: &mut R| -> Regex {
        let mut re = Regex::Epsilon;
        for _ in 0..rng.gen_range(1..=2) {
            let e = edges[rng.gen_range(0..edges.len())];
            let sym = if rng.gen_bool(0.3) { EdgeSym::bwd(e) } else { EdgeSym::fwd(e) };
            let step = if rng.gen_bool(0.25) { Regex::sym(sym).star() } else { Regex::sym(sym) };
            re = re.then(step);
        }
        if rng.gen_bool(0.5) {
            re = Regex::node(labels[rng.gen_range(0..labels.len())]).then(re);
        }
        re
    };
    let mk = |re: Regex| {
        Uc2rpq::single(C2rpq::new(
            2,
            vec![Var(0), Var(1)],
            vec![Atom { x: Var(0), y: Var(1), regex: re }],
        ))
    };
    (0..n)
        .map(|_| {
            let p = mk(random_regex(rng));
            let q = if rng.gen_bool(0.3) { p.clone() } else { mk(random_regex(rng)) };
            (p, q)
        })
        .collect()
}

/// One "life" over a random schema: a session built from `seed`'s schema
/// (bit-identical vocabulary and thus identity each time), asked `seed`'s
/// battery. Returns the verdicts. When `dir` is given the session is
/// disk-bound (hydrating on open, flushing on drop).
fn run_life(seed: u64, dir: Option<&PathBuf>) -> (Vec<Decision>, usize, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vocab = Vocab::new();
    let cfg = SchemaGenConfig {
        num_node_labels: 3,
        num_edge_labels: 2,
        edge_density: 0.5,
        allow_lower_bounds: true,
    };
    let schema = random_schema(&cfg, &mut vocab, &mut rng);
    let battery = query_battery(&schema, &mut rng, 5);
    let mut session = AnalysisSession::new(schema, vocab);
    let (hydrated, degraded) = match dir {
        Some(dir) => {
            let report = session.attach_disk(dir);
            (report.total(), report.degraded)
        }
        None => (0, false),
    };
    let mut verdicts = Vec::new();
    for (p, q) in &battery {
        if let Ok(d) = session.contains(p, q) {
            verdicts.push(d);
        }
    }
    (verdicts, hydrated, degraded)
}

#[test]
fn disk_hydrated_sessions_agree_with_fresh_decide_on_random_schemas() {
    let dir = tmp_dir("random");
    let mut hydrated_lives = 0;
    for seed in 0..12u64 {
        // Life 1 decides cold and seeds the store; life 2 hydrates from
        // it; the control never touches a disk. All three must agree on
        // every verdict.
        let (cold, h0, _) = run_life(seed, Some(&dir));
        assert_eq!(h0, 0, "seed {seed}: first life found a store it never wrote");
        let (warm, h1, degraded) = run_life(seed, Some(&dir));
        let (control, _, _) = run_life(seed, None);
        assert!(!degraded, "seed {seed}: clean store reported degraded");
        if h1 > 0 {
            hydrated_lives += 1;
        }
        assert_eq!(cold, warm, "seed {seed}: hydrated verdicts diverge from the cold run");
        assert_eq!(cold, control, "seed {seed}: disk-bound verdicts diverge from disk-free");
        assert!(!cold.is_empty(), "seed {seed}: battery produced no verdicts");
    }
    assert!(hydrated_lives >= 10, "only {hydrated_lives}/12 second lives hydrated anything");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One "life" over a corpus family: a session bound to the family's
/// primary source schema (bit-identical vocabulary each time, hence the
/// same store identity), asked a deterministic battery over that
/// schema's labels. Mirrors [`run_life`] with corpus schemas standing in
/// for the random ones.
fn run_corpus_life(family: Family, dir: Option<&PathBuf>) -> (Vec<Decision>, usize, bool) {
    let sc = scenario(family, &Params::quick());
    let schema = sc.schema(&sc.primary.source).expect("primary source exists").clone();
    let mut rng = StdRng::seed_from_u64(0x5702E + family as u64);
    let battery = query_battery(&schema, &mut rng, 3);
    let mut session = AnalysisSession::new(schema, sc.vocab.clone());
    let (hydrated, degraded) = match dir {
        Some(dir) => {
            let report = session.attach_disk(dir);
            (report.total(), report.degraded)
        }
        None => (0, false),
    };
    let mut verdicts = Vec::new();
    for (p, q) in &battery {
        if let Ok(d) = session.contains(p, q) {
            verdicts.push(d);
        }
    }
    (verdicts, hydrated, degraded)
}

#[test]
fn disk_hydrated_sessions_agree_with_fresh_decide_on_corpus_families() {
    // The realistic-schema end of the differential: named corpus
    // families instead of generator output. Cold life seeds the store,
    // warm life hydrates, control never touches disk — verdict-for-
    // verdict agreement across all three.
    for family in [Family::Fhir, Family::Retail] {
        let dir = tmp_dir(family.name());
        let (cold, h0, _) = run_corpus_life(family, Some(&dir));
        assert_eq!(h0, 0, "{}: first life found a store it never wrote", family.name());
        let (warm, h1, degraded) = run_corpus_life(family, Some(&dir));
        let (control, _, _) = run_corpus_life(family, None);
        assert!(!degraded, "{}: clean store reported degraded", family.name());
        assert!(h1 > 0, "{}: second life hydrated nothing", family.name());
        assert_eq!(cold, warm, "{}: hydrated verdicts diverge from cold", family.name());
        assert_eq!(cold, control, "{}: disk-bound verdicts diverge from disk-free", family.name());
        assert!(!cold.is_empty(), "{}: battery produced no verdicts", family.name());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Warms a store over the medical fixture and returns the session's
/// reference verdicts plus the store file's full bytes.
fn warm_medical_store(dir: &Path) -> (Decision, Decision, Schema, Vec<u8>) {
    let (vocab, s0, s1, t0) = medical_fixture();
    let mut session = AnalysisSession::new(s0.clone(), vocab);
    session.attach_disk(dir);
    let elicited = session.elicit(&t0).expect("elicit");
    let check = session.type_check(&t0, &s1).expect("type check");
    let equiv = session.equivalence(&t0, &t0).expect("equivalence");
    let path = session.disk_path().expect("disk-bound").to_path_buf();
    session.flush_disk().expect("disk-bound").expect("flush");
    drop(session);
    let bytes = std::fs::read(path).expect("store file");
    (check, equiv, elicited.schema, bytes)
}

/// Re-runs the medical suite against whatever store content `bytes`
/// holds, asserting every verdict matches the reference. Returns the
/// hydrate report as `(records, degraded)`.
fn assert_medical_verdicts_survive(
    dir: &Path,
    path: &std::path::Path,
    bytes: &[u8],
    reference: &(Decision, Decision, Schema),
) -> (usize, bool) {
    std::fs::write(path, bytes).expect("write mutated store");
    let (vocab, s0, s1, t0) = medical_fixture();
    let mut session = AnalysisSession::new(s0.clone(), vocab);
    let report = session.attach_disk(dir);
    let elicited = session.elicit(&t0).expect("elicit");
    let check = session.type_check(&t0, &s1).expect("type check");
    let equiv = session.equivalence(&t0, &t0).expect("equivalence");
    assert_eq!(check, reference.0, "type-check verdict changed under corruption");
    assert_eq!(equiv, reference.1, "equivalence verdict changed under corruption");
    assert_eq!(elicited.schema, reference.2, "elicited schema changed under corruption");
    // The session flushes on drop, repairing the store; rewrite happens
    // per-case from the saved full bytes, so cases stay independent.
    (report.total(), report.degraded)
}

#[test]
fn truncated_stores_fall_back_to_the_clean_prefix_with_identical_verdicts() {
    let dir = tmp_dir("truncate");
    let (check, equiv, schema, bytes) = warm_medical_store(&dir);
    let reference = (check, equiv, schema);
    let (vocab, s0, ..) = medical_fixture();
    let path =
        gts_store::store_path(&dir, AnalysisSession::new(s0.clone(), vocab).store_fingerprint());
    let (full_records, clean_degraded) =
        assert_medical_verdicts_survive(&dir, &path, &bytes, &reference);
    assert!(full_records > 0, "warm store hydrated nothing");
    assert!(!clean_degraded);

    // Cuts everywhere: mid-tail (drops whole records), mid-record, just
    // past the header, inside the header, empty file.
    let cuts = [bytes.len() - 3, bytes.len() / 2, bytes.len() / 4, 40, 12, 4, 0];
    let mut saw_degraded_with_records = false;
    for cut in cuts {
        let (records, _degraded) =
            assert_medical_verdicts_survive(&dir, &path, &bytes[..cut], &reference);
        assert!(records <= full_records, "cut {cut}: more records than the full store");
        if _degraded && records > 0 {
            saw_degraded_with_records = true;
        }
    }
    assert!(
        saw_degraded_with_records,
        "no truncation exercised the degraded-but-useful clean-prefix path"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_stores_are_detected_and_verdicts_never_change() {
    let dir = tmp_dir("bitflip");
    let (check, equiv, schema, bytes) = warm_medical_store(&dir);
    let reference = (check, equiv, schema);
    let (vocab, s0, ..) = medical_fixture();
    let path =
        gts_store::store_path(&dir, AnalysisSession::new(s0.clone(), vocab).store_fingerprint());
    // Flip one byte at a spread of offsets: magic, version, identity,
    // early records, the middle, the tail.
    let offsets = [0, 5, 20, 100, bytes.len() / 2, bytes.len() - 7];
    for off in offsets {
        let mut mutated = bytes.clone();
        mutated[off] ^= 0x40;
        let (records, _degraded) =
            assert_medical_verdicts_survive(&dir, &path, &mutated, &reference);
        // A flip in the CRC-protected record area truncates hydration at
        // the damaged record; a flip in the header rejects the whole
        // file. Either way the answers above already proved soundness.
        let _ = records;
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_snapshots_hydrate_twin_sessions_and_reject_strangers() {
    // export_store_bytes → hydrate_from_bytes is the cache_export/import
    // wire path minus TCP; a twin (same identity) must absorb it, a
    // different schema must refuse it.
    let (vocab, s0, s1, t0) = medical_fixture();
    let mut donor = AnalysisSession::new(s0.clone(), vocab.clone());
    let elicited = donor.elicit(&t0).expect("elicit");
    let bytes = donor.export_store_bytes();

    let mut twin = AnalysisSession::new(s0.clone(), vocab.clone());
    let report = twin.hydrate_from_bytes(&bytes).expect("twin identity matches");
    assert!(report.total() > 0, "snapshot carried no records");
    let twin_elicited = twin.elicit(&t0).expect("elicit");
    assert_eq!(twin_elicited.schema, elicited.schema);
    assert!(twin.stats().hydrated > 0, "twin answered without touching hydrated state");

    let mut stranger = AnalysisSession::new(s1.clone(), vocab.clone());
    assert!(
        stranger.hydrate_from_bytes(&bytes).is_none(),
        "a different schema absorbed a foreign snapshot"
    );
}

/// A store holds verdicts only: after the primary elicitation of each
/// family in a fresh disk-bound session, the flush writes exactly one
/// record per memoized verdict.
#[test]
fn flush_writes_exactly_one_record_per_memoized_verdict() {
    let dir = tmp_dir("one-record-per-verdict");
    for family in [Family::Medical, Family::Fhir, Family::Retail] {
        let sc = scenario(family, &Params::quick());
        let source = sc.schema(&sc.primary.source).expect("primary source").clone();
        let t = sc.transform(&sc.primary.transform).expect("primary transform");
        let (mut session, report) =
            AnalysisSession::with_disk(source, sc.vocab.clone(), Default::default(), &dir);
        assert_eq!(report.total(), 0, "{}: a fresh store", family.name());
        session.elicit(t).expect("elicit");
        let flush = session.flush_disk().expect("disk-bound").expect("flush");
        let entries = session.stats().entries;
        assert!(entries > 0, "{}: the elicitation asked questions", family.name());
        assert_eq!(flush.records, entries, "{}: {flush:?}", family.name());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose tail was torn mid-record heals: the first flush after
/// the degraded load rewrites the file, so the next load is clean and
/// hydrates every verdict the session held.
#[test]
fn degraded_stores_heal_on_the_next_flush() {
    let dir = tmp_dir("heal");
    let (check, equiv, schema, bytes) = warm_medical_store(&dir);
    let reference = (check, equiv, schema);
    let (vocab, s0, s1, t0) = medical_fixture();
    let path = gts_store::store_path(
        &dir,
        AnalysisSession::new(s0.clone(), vocab.clone()).store_fingerprint(),
    );
    let full = gts_store::decode_store(&bytes, None).records.len();
    // Truncate inside the last record, then ask the suite again.
    std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");
    let (mut session, report) =
        AnalysisSession::with_disk(s0.clone(), vocab.clone(), Default::default(), &dir);
    assert!(report.degraded && report.verdicts < full, "{report:?}");
    let elicited = session.elicit(&t0).expect("elicit");
    assert_eq!(session.type_check(&t0, &s1).expect("type check"), reference.0);
    assert_eq!(session.equivalence(&t0, &t0).expect("equivalence"), reference.1);
    assert_eq!(elicited.schema, reference.2);
    let flush = session.flush_disk().expect("disk-bound").expect("flush");
    assert!(flush.compacted, "a degraded store is rewritten whole: {flush:?}");
    drop(session);
    let (_, reopened) = AnalysisSession::with_disk(s0, vocab, Default::default(), &dir);
    assert!(!reopened.degraded, "{reopened:?}");
    assert_eq!(reopened.verdicts, full);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stores written before the verdict-only format carried solver
/// snapshots (kind 2) and completion-memo entries (kind 3). They hydrate
/// their verdicts, and the next flush rewrites the file without them.
#[test]
fn retired_record_kinds_are_skipped_and_dropped_by_the_next_flush() {
    let dir = tmp_dir("retired-kinds");
    let (vocab, s0, _, t0) = medical_fixture();
    let mut donor = AnalysisSession::new(s0.clone(), vocab.clone());
    donor.elicit(&t0).expect("elicit");
    let verdicts = gts_store::decode_store(&donor.export_store_bytes(), None).records;
    assert!(!verdicts.is_empty());
    let mut records = verdicts.clone();
    records.insert(0, gts_store::Record { kind: 2, payload: vec![7; 32] });
    records.push(gts_store::Record { kind: 3, payload: vec![9; 16] });
    let path = gts_store::store_path(&dir, donor.store_fingerprint());
    std::fs::create_dir_all(&dir).expect("cache dir");
    std::fs::write(&path, gts_store::encode_store(&donor.identity(), &records)).expect("store");

    let (session, report) =
        AnalysisSession::with_disk(s0.clone(), vocab.clone(), Default::default(), &dir);
    assert_eq!(report.verdicts, verdicts.len());
    assert!(!report.degraded);
    let flush = session.flush_disk().expect("disk-bound").expect("flush");
    assert!(flush.compacted, "{flush:?}");
    drop(session);
    let kinds: Vec<u8> = gts_store::load_file(&path, None).records.iter().map(|r| r.kind).collect();
    assert_eq!(kinds.len(), verdicts.len());
    assert!(kinds.iter().all(|&k| k == gts_engine::disk::KIND_VERDICT), "{kinds:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
