//! Warm-start smoke for the persistent verdict store: runs the medical
//! suite through an `AnalysisSession` optionally bound to `--cache-dir`,
//! checks every answer against a fresh disk-free session (the
//! differential guard), and prints one machine-scrapable line:
//!
//! ```text
//! first_verdict_micros=N hydrated=K degraded=0 verdicts_agree=1
//! ```
//!
//! CI runs it twice against a shared cache dir — the second run must
//! hydrate (`hydrated>0`) and beat the first run's first-verdict time —
//! and once with `--corrupt`, which truncates the store mid-record
//! before opening it to prove the tolerant decoder falls back to the
//! clean prefix (or cold) without changing any verdict. The corrupt
//! run's final flush rewrites the store whole, so a run after it reports
//! `degraded=0` and hydrates every verdict again.
//!
//! ```sh
//! cargo run --release -p gts-bench --bin warmstart -- --cache-dir DIR
//! cargo run --release -p gts-bench --bin warmstart -- --cache-dir DIR --corrupt
//! ```
//!
//! Exits 0 on agreement, 1 on any verdict mismatch, 2 on usage errors.

use gts_bench::medical;
use gts_engine::AnalysisSession;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cache_dir: Option<PathBuf> = None;
    let mut corrupt = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cache-dir" => match args.next() {
                Some(d) => cache_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--cache-dir needs a directory");
                    std::process::exit(2);
                }
            },
            "--corrupt" => corrupt = true,
            other => {
                eprintln!(
                    "unknown argument `{other}` (usage: warmstart [--cache-dir DIR] [--corrupt])"
                );
                std::process::exit(2);
            }
        }
    }
    if corrupt && cache_dir.is_none() {
        eprintln!("--corrupt needs --cache-dir");
        std::process::exit(2);
    }

    // Corruption drill: chop the existing store mid-record (past the
    // header, inside the record log) so the tolerant decoder must stop
    // at the clean prefix. A store too small to cut survives untouched.
    if let Some(dir) = &cache_dir {
        if corrupt {
            let m = medical();
            let session = AnalysisSession::new(m.s0.clone(), m.vocab);
            let path = gts_store::store_path(dir, session.store_fingerprint());
            if let Ok(bytes) = std::fs::read(&path) {
                if bytes.len() > 64 {
                    let cut = bytes.len() - bytes.len() / 4 - 1;
                    std::fs::write(&path, &bytes[..cut]).expect("truncate store");
                    eprintln!("corrupted {} ({} -> {cut} bytes)", path.display(), bytes.len());
                }
            }
        }
    }

    // The measured run: session construction through the first verdict,
    // including store read + hydration when a cache dir is given.
    let m = medical();
    let start = Instant::now();
    let mut session = AnalysisSession::new(m.s0.clone(), m.vocab.clone());
    let report = cache_dir.as_ref().map(|dir| session.attach_disk(dir));
    let elicited = session.elicit(&m.t0).expect("elicit");
    let first_verdict_micros = start.elapsed().as_micros() as u64;
    let check = session.type_check(&m.t0, &m.s1).expect("type check");
    let equiv = session.equivalence(&m.t0, &m.t0).expect("equivalence");

    // Differential guard: a fresh session with no disk in sight must
    // answer every question identically, hydrated state or not.
    let f = medical();
    let mut fresh = AnalysisSession::new(f.s0.clone(), f.vocab);
    let fresh_elicited = fresh.elicit(&f.t0).expect("elicit");
    let fresh_check = fresh.type_check(&f.t0, &f.s1).expect("type check");
    let fresh_equiv = fresh.equivalence(&f.t0, &f.t0).expect("equivalence");
    let agree = elicited.schema == fresh_elicited.schema
        && elicited.certified == fresh_elicited.certified
        && check == fresh_check
        && equiv == fresh_equiv;

    let (hydrated, degraded) = report.map(|r| (r.total(), r.degraded)).unwrap_or((0, false));
    println!(
        "first_verdict_micros={first_verdict_micros} hydrated={hydrated} degraded={} \
         verdicts_agree={}",
        u8::from(degraded),
        u8::from(agree)
    );
    if !agree {
        eprintln!("verdict mismatch between disk-hydrated and fresh sessions");
        std::process::exit(1);
    }
}
