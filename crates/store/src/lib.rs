//! # gts-store
//!
//! The on-disk cache substrate of the `gts` workspace: a dependency-free,
//! std-only record log under `.gts/cache/`, one file per analysis-session
//! identity, holding the memoized oracle state (containment verdicts)
//! that otherwise dies with the process.
//!
//! ## File layout
//!
//! ```text
//! header  := MAGIC("GTSC") VERSION(u32 LE) ID_LEN(u32 LE) ID(bytes) ID_CRC(u32 LE)
//! record  := LEN(u32 LE) CRC(u32 LE) KIND(u8) PAYLOAD(LEN-1 bytes)
//! file    := header record*
//! ```
//!
//! `ID` is the full canonical identity of the session the log caches for
//! (vocabulary + rendered schema + engine budgets) — the *preimage* of the
//! file's fingerprint name, stored so a 64-bit fingerprint collision
//! between two identities can never hydrate the wrong cache. `LEN` covers
//! the kind byte plus the payload; `CRC` is CRC-32 (IEEE) over the same
//! bytes.
//!
//! ## Failure semantics
//!
//! Every way a file can be wrong degrades to the **cold path**, never to a
//! wrong verdict:
//!
//! * missing file / unreadable file → no records;
//! * bad magic, unknown version, identity mismatch → no records (the file
//!   is superseded wholesale on the next flush);
//! * truncated tail (a torn append) → every complete record before the
//!   tear is returned, the tear is dropped;
//! * CRC mismatch (bit flip) → decoding stops at the flipped record; the
//!   prefix is returned. (A corrupt length field cannot be distinguished
//!   from a corrupt body, so resynchronizing past a bad record would risk
//!   misframing — stopping is the safe choice.)
//!
//! Appends go through `O_APPEND` writes of whole records, so a crash can
//! only ever produce a truncated tail. Snapshot installs
//! ([`install_snapshot`]) go through a temp file + rename.

#![warn(missing_docs)]

use std::io::Write as _;
use std::path::{Path, PathBuf};

mod b64;
mod codec;

pub use b64::{base64_decode, base64_encode};
pub use codec::{Dec, Enc};

/// The four magic bytes opening every store file.
pub const MAGIC: [u8; 4] = *b"GTSC";

/// The store format version. Bump on ANY change to record payload
/// encodings: a version mismatch invalidates the whole file (cold path),
/// which is exactly what a format change must do.
pub const FORMAT_VERSION: u32 = 1;

/// Hard bound on one record's length; longer length fields are treated as
/// corruption (they would otherwise ask the loader to allocate garbage).
pub const MAX_RECORD_BYTES: usize = 256 << 20;

/// 64-bit FNV-1a — the workspace's standard content fingerprint.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Fast 64-bit content hash for **in-memory** bookkeeping (flush dedup
/// sets): folds eight bytes per multiply, so it is an order of magnitude
/// faster than [`fnv64`] on long keys. The value is never persisted — anything
/// written to disk or used as a file name keeps using [`fnv64`], whose
/// output is part of the store contract.
pub fn hash64(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h: u64 = (bytes.len() as u64).wrapping_mul(SEED);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
    let mut tail = 0u64;
    for &b in chunks.remainder() {
        tail = (tail << 8) | b as u64;
    }
    (h.rotate_left(5) ^ tail).wrapping_mul(SEED)
}

/// Slicing-by-8 lookup tables for [`crc32`], built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; table `k` maps a
/// byte to its CRC contribution from `k` positions further back, so eight
/// table lookups retire eight input bytes per iteration.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Slicing-by-8: the hot
/// path of every store load and flush (a warm multi-megabyte store is
/// checksummed on each start, so the byte-at-a-time loop was the single
/// largest cost of a warm start).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// One decoded log record: a kind tag (meaning assigned by the layer that
/// wrote it — see `gts-engine`'s disk module) and an opaque payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Consumer-defined record kind.
    pub kind: u8,
    /// The payload bytes (encoded with [`Enc`] by convention).
    pub payload: Vec<u8>,
}

/// Why a load returned fewer records than the file might hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadStatus {
    /// No file (or an unreadable one): the cold path, nothing lost.
    Missing,
    /// Header + every record decoded and checksummed clean.
    Clean,
    /// The file's magic/version/identity did not match: all records
    /// ignored (the file belongs to another format or identity).
    HeaderMismatch,
    /// A truncated or checksum-failing tail was dropped; the returned
    /// records are the clean prefix.
    TruncatedTail,
}

/// Outcome of loading a store file: the clean records plus what happened.
#[derive(Clone, Debug)]
pub struct Loaded {
    /// Every record that decoded and checksummed clean, in write order.
    pub records: Vec<Record>,
    /// Load disposition (clean / degraded / ignored).
    pub status: LoadStatus,
    /// Total bytes read from the file (0 when missing).
    pub bytes: usize,
}

impl Loaded {
    fn empty(status: LoadStatus) -> Loaded {
        Loaded { records: Vec::new(), status, bytes: 0 }
    }

    /// `true` when the tail of the file was lost to corruption.
    pub fn degraded(&self) -> bool {
        self.status == LoadStatus::TruncatedTail
    }
}

fn header_bytes(identity: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + identity.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(identity.len() as u32).to_le_bytes());
    out.extend_from_slice(identity.as_bytes());
    out.extend_from_slice(&crc32(identity.as_bytes()).to_le_bytes());
    out
}

fn record_bytes(rec: &Record) -> Vec<u8> {
    let len = 1 + rec.payload.len();
    let mut body = Vec::with_capacity(len);
    body.push(rec.kind);
    body.extend_from_slice(&rec.payload);
    let mut out = Vec::with_capacity(8 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn read_u32(bytes: &[u8], pos: usize) -> Option<u32> {
    bytes.get(pos..pos + 4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Serializes a whole store (header + records) to bytes — the snapshot
/// shape shipped over the wire by the server's `cache_export` verb.
pub fn encode_store(identity: &str, records: &[Record]) -> Vec<u8> {
    let mut out = header_bytes(identity);
    for rec in records {
        out.extend_from_slice(&record_bytes(rec));
    }
    out
}

/// Decodes the identity string out of a store's header, verifying magic,
/// version, and the identity checksum. `None` = not a usable store.
pub fn decode_identity(bytes: &[u8]) -> Option<(String, usize)> {
    if bytes.len() < 12 || bytes[..4] != MAGIC {
        return None;
    }
    if read_u32(bytes, 4)? != FORMAT_VERSION {
        return None;
    }
    let id_len = read_u32(bytes, 8)? as usize;
    if id_len > MAX_RECORD_BYTES {
        return None;
    }
    let id_end = 12usize.checked_add(id_len)?;
    let id = bytes.get(12..id_end)?;
    if read_u32(bytes, id_end)? != crc32(id) {
        return None;
    }
    let id = std::str::from_utf8(id).ok()?;
    Some((id.to_owned(), id_end + 4))
}

/// Decodes store bytes. When `expect_identity` is given, a header whose
/// identity differs yields [`LoadStatus::HeaderMismatch`] and no records —
/// fingerprint-named files can collide; identities cannot.
pub fn decode_store(bytes: &[u8], expect_identity: Option<&str>) -> Loaded {
    let Some((identity, mut pos)) = decode_identity(bytes) else {
        return Loaded { bytes: bytes.len(), ..Loaded::empty(LoadStatus::HeaderMismatch) };
    };
    if expect_identity.is_some_and(|want| want != identity) {
        return Loaded { bytes: bytes.len(), ..Loaded::empty(LoadStatus::HeaderMismatch) };
    }
    let mut records = Vec::new();
    let mut status = LoadStatus::Clean;
    while pos < bytes.len() {
        let frame = (|| {
            let len = read_u32(bytes, pos)? as usize;
            if len == 0 || len > MAX_RECORD_BYTES {
                return None;
            }
            let crc = read_u32(bytes, pos + 4)?;
            let body = bytes.get(pos + 8..pos + 8 + len)?;
            if crc32(body) != crc {
                return None;
            }
            Some((Record { kind: body[0], payload: body[1..].to_vec() }, 8 + len))
        })();
        match frame {
            Some((rec, advance)) => {
                records.push(rec);
                pos += advance;
            }
            None => {
                status = LoadStatus::TruncatedTail;
                break;
            }
        }
    }
    Loaded { records, status, bytes: bytes.len() }
}

/// Loads a store file, tolerating every corruption mode (see the module
/// docs). A missing file is [`LoadStatus::Missing`] with no records.
pub fn load_file(path: &Path, expect_identity: Option<&str>) -> Loaded {
    match std::fs::read(path) {
        Ok(bytes) => decode_store(&bytes, expect_identity),
        Err(_) => Loaded::empty(LoadStatus::Missing),
    }
}

/// Appends `records` to the store at `path`, creating it (and its parent
/// directories) with a fresh header when absent. A present file whose
/// header does not match `identity` (collision, format bump, corrupt
/// header) is **replaced** — its records belong to another identity or an
/// unreadable format, so keeping them has no value.
pub fn append_records(path: &Path, identity: &str, records: &[Record]) -> std::io::Result<usize> {
    if records.is_empty() {
        return Ok(0);
    }
    let reusable = matches!(
        std::fs::read(path).ok().as_deref().map(decode_identity),
        Some(Some((ref id, _))) if id == identity
    );
    let mut body = Vec::new();
    for rec in records {
        body.extend_from_slice(&record_bytes(rec));
    }
    if reusable {
        let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
        f.write_all(&body)?;
        f.flush()?;
    } else {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut fresh = header_bytes(identity);
        fresh.extend_from_slice(&body);
        write_atomic(path, &fresh)?;
    }
    Ok(body.len())
}

/// Validates `bytes` as a store snapshot and installs it at `path`
/// atomically (temp file + rename). Returns the snapshot's identity. A
/// snapshot that fails header validation is rejected — never written.
pub fn install_snapshot(path: &Path, bytes: &[u8]) -> Result<String, String> {
    let Some((identity, _)) = decode_identity(bytes) else {
        return Err("snapshot is not a valid store (bad magic, version, or header)".into());
    };
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("cannot create cache dir: {e}"))?;
    }
    write_atomic(path, bytes).map_err(|e| format!("cannot install snapshot: {e}"))?;
    Ok(identity)
}

fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The filename (under a cache dir) of the store for a 64-bit session
/// fingerprint: 16 hex digits + `.gtsc`.
pub fn store_path(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("{fingerprint:016x}.gtsc"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: u8, payload: &[u8]) -> Record {
        Record { kind, payload: payload.to_vec() }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414fa339);
    }

    #[test]
    fn roundtrip_encode_decode() {
        let records = vec![rec(1, b"hello"), rec(2, &[0u8; 100]), rec(255, b"")];
        let bytes = encode_store("identity-A", &records);
        assert_eq!(decode_identity(&bytes).unwrap().0, "identity-A");
        let loaded = decode_store(&bytes, Some("identity-A"));
        assert_eq!(loaded.status, LoadStatus::Clean);
        assert_eq!(loaded.records, records);
    }

    #[test]
    fn identity_mismatch_yields_no_records() {
        let bytes = encode_store("identity-A", &[rec(1, b"x")]);
        let loaded = decode_store(&bytes, Some("identity-B"));
        assert_eq!(loaded.status, LoadStatus::HeaderMismatch);
        assert!(loaded.records.is_empty());
        // Without an expectation, the stored identity is trusted.
        assert_eq!(decode_store(&bytes, None).records.len(), 1);
    }

    #[test]
    fn version_and_magic_mismatches_are_cold() {
        let mut bytes = encode_store("id", &[rec(1, b"x")]);
        bytes[0] = b'X';
        assert_eq!(decode_store(&bytes, None).status, LoadStatus::HeaderMismatch);
        let mut bytes = encode_store("id", &[rec(1, b"x")]);
        bytes[4] = 0xff; // version
        assert_eq!(decode_store(&bytes, None).status, LoadStatus::HeaderMismatch);
    }

    #[test]
    fn truncated_tail_returns_clean_prefix() {
        let records = vec![rec(1, b"first"), rec(2, b"second"), rec(3, b"third")];
        let bytes = encode_store("id", &records);
        // Cut mid-way through the last record.
        for cut in 1..=6 {
            let truncated = &bytes[..bytes.len() - cut];
            let loaded = decode_store(truncated, Some("id"));
            assert_eq!(loaded.status, LoadStatus::TruncatedTail);
            assert_eq!(loaded.records, records[..2], "cut {cut}");
        }
    }

    #[test]
    fn bit_flips_stop_at_the_flipped_record() {
        let records = vec![rec(1, b"aaaa"), rec(2, b"bbbb"), rec(3, b"cccc")];
        let clean = encode_store("id", &records);
        let header_len = decode_identity(&clean).unwrap().1;
        // Flip one bit in every byte position past the header; the loader
        // must never panic, never return a record that fails its CRC, and
        // always return a prefix of the true record list.
        for pos in header_len..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x40;
            let loaded = decode_store(&bytes, Some("id"));
            assert!(
                loaded.records.len() < records.len(),
                "flip at {pos} must lose at least the flipped record"
            );
            assert_eq!(loaded.records, records[..loaded.records.len()], "flip at {pos}");
        }
        // A flipped header bit invalidates the whole file.
        let mut bytes = clean;
        bytes[6] ^= 1;
        assert!(decode_store(&bytes, Some("id")).records.is_empty());
    }

    #[test]
    fn absurd_length_fields_are_corruption_not_allocation() {
        let mut bytes = encode_store("id", &[rec(1, b"x")]);
        let header_len = decode_identity(&bytes).unwrap().1;
        bytes[header_len..header_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let loaded = decode_store(&bytes, Some("id"));
        assert_eq!(loaded.status, LoadStatus::TruncatedTail);
        assert!(loaded.records.is_empty());
    }

    #[test]
    fn file_append_and_reload() {
        let dir = std::env::temp_dir().join(format!("gts-store-test-{}", std::process::id()));
        let path = store_path(&dir, 0xdead_beef);
        let _ = std::fs::remove_file(&path);
        assert_eq!(load_file(&path, Some("id")).status, LoadStatus::Missing);
        append_records(&path, "id", &[rec(1, b"one")]).unwrap();
        append_records(&path, "id", &[rec(2, b"two"), rec(3, b"three")]).unwrap();
        let loaded = load_file(&path, Some("id"));
        assert_eq!(loaded.status, LoadStatus::Clean);
        assert_eq!(loaded.records.len(), 3);
        // A different identity REPLACES the file (fingerprint collision:
        // newest wins, never mixed).
        append_records(&path, "other-id", &[rec(9, b"nine")]).unwrap();
        let loaded = load_file(&path, Some("other-id"));
        assert_eq!(loaded.records, vec![rec(9, b"nine")]);
        assert_eq!(load_file(&path, Some("id")).status, LoadStatus::HeaderMismatch);
        // Snapshot install replaces wholesale after validation.
        let snap = encode_store("id", &[rec(7, b"seven")]);
        assert_eq!(install_snapshot(&path, &snap).unwrap(), "id");
        assert_eq!(load_file(&path, Some("id")).records, vec![rec(7, b"seven")]);
        assert!(install_snapshot(&path, b"garbage").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_degrades_then_recovers() {
        let dir = std::env::temp_dir().join(format!("gts-store-torn-{}", std::process::id()));
        let path = store_path(&dir, 1);
        let _ = std::fs::remove_file(&path);
        append_records(&path, "id", &[rec(1, b"one"), rec(2, b"two")]).unwrap();
        // Simulate a torn append: chop the last 3 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let loaded = load_file(&path, Some("id"));
        assert_eq!(loaded.status, LoadStatus::TruncatedTail);
        assert_eq!(loaded.records.len(), 1);
        // The next append still lands; the torn bytes stay dead (the
        // loader stops there) but the file keeps working as a cache for
        // everything already clean. A later snapshot install compacts.
        let snap = encode_store("id", &loaded.records);
        install_snapshot(&path, &snap).unwrap();
        append_records(&path, "id", &[rec(3, b"three")]).unwrap();
        let reloaded = load_file(&path, Some("id"));
        assert_eq!(reloaded.status, LoadStatus::Clean);
        assert_eq!(reloaded.records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
