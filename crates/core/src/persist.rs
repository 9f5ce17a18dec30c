//! On-disk instance snapshots: a versioned, length-prefixed, checksummed binary
//! image of a [`FactStore`]'s dictionary + column strips plus the owning
//! [`Instance`]'s live-id set.
//!
//! [`Instance::save`] / [`Instance::load`] persist the **full interning
//! history** — tombstoned facts included — so a loaded instance is
//! *id-identical* to the saved one: `sorted_fact_ids`, per-predicate insertion
//! order, `Display` and the null-allocator state all round-trip exactly. (This
//! is what makes the format safe to combine with [`Instance::compact`]: a
//! snapshot carries its own id space, so compacting the in-memory instance
//! after a save never invalidates a later load of that file.)
//!
//! ## Format (version 1)
//!
//! All integers are little-endian. Strings are UTF-8, length-prefixed with a
//! `u32`. Symbols ([`Constant`] and predicate names) are
//! serialized **as strings**: the process-global symbol interner's raw ids are
//! not stable across processes.
//!
//! ```text
//! magic      8 bytes  b"CHASEFS\0"
//! version    u32      currently 1
//! dictionary u32 n_terms, then per term (TermId order):
//!              tag u8 = 0: constant  (u32 len + UTF-8 bytes)
//!                       1: labeled null (u64 label)
//! predicates u32 n_preds, then per predicate (PredicateId order):
//!              u32 name_len + UTF-8 bytes, u32 arity
//! facts      u32 n_facts (total interned, live or not)
//! strips     per predicate (PredicateId order):
//!              u32 rows
//!              per position 0..arity: rows × u32 cells   ← one contiguous write
//!              rows × u32 fact ids (row order)
//! liveness   ceil(n_facts / 8) bytes; bit i = FactId(i) is live
//! id lists   per predicate: u32 live_len + live_len × u32 fact ids
//!              (the per-predicate insertion order)
//! next_null  u64      the instance's null-allocator state
//! checksum   u64      FNV-1a 64 over every preceding byte
//! ```
//!
//! Each column strip is one contiguous block of 4-byte cells, so saving and
//! loading a strip is a single buffered `write`/`read` of `rows × 4` bytes, and
//! a future read-only **mmap share** of the strip region (zero-copy
//! [`Snapshot`](crate::snapshot::Snapshot) cloning across processes) is a
//! documented follow-up that needs no format change — only an
//! alignment-padding bump of the section header.
//!
//! Loading validates everything it cannot afford to trust: the magic and
//! version, term tags and UTF-8, strip dimensions against predicate arities,
//! cell ids against the dictionary, the exactly-once assignment of fact ids to
//! rows, duplicate interned facts, live-list consistency against the liveness
//! bitmap, and finally the trailing checksum. Failures are typed
//! [`PersistError`]s; a truncated file surfaces as [`PersistError::Truncated`]
//! rather than a panic or a garbage instance.

use crate::fact_store::{FactId, FactStore, TermId};
use crate::id_set::FactIdSet;
use crate::instance::Instance;
use crate::term::{Constant, GroundTerm, NullValue};
use crate::Predicate;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CHASEFS\0";
const VERSION: u32 = 1;

/// Errors produced while saving or loading an instance snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// An I/O error from the underlying file.
    Io(io::Error),
    /// The file ended before the image was complete.
    Truncated,
    /// The bytes do not describe a well-formed snapshot (bad magic, bad tag,
    /// inconsistent dimensions, out-of-range ids, …).
    Format {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The file is a snapshot, but of an unsupported format version.
    VersionMismatch {
        /// The version recorded in the file.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The trailing checksum does not match the file contents: the image was
    /// corrupted after it was written.
    ChecksumMismatch,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            PersistError::Truncated => write!(f, "snapshot file is truncated"),
            PersistError::Format { detail } => write!(f, "malformed snapshot: {detail}"),
            PersistError::VersionMismatch { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads version {supported})"
            ),
            PersistError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch: the file is corrupted")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            PersistError::Truncated
        } else {
            PersistError::Io(e)
        }
    }
}

fn format_err<T>(detail: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError::Format {
        detail: detail.into(),
    })
}

// -- FNV-1a 64 streaming wrappers -------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

struct HashingWriter<W: Write> {
    inner: W,
    hash: u64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            hash: FNV_OFFSET,
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.hash = fnv_update(self.hash, bytes);
        self.inner.write_all(bytes)?;
        Ok(())
    }

    fn write_u32(&mut self, v: u32) -> Result<(), PersistError> {
        self.write_bytes(&v.to_le_bytes())
    }

    fn write_u64(&mut self, v: u64) -> Result<(), PersistError> {
        self.write_bytes(&v.to_le_bytes())
    }

    fn write_str(&mut self, s: &str) -> Result<(), PersistError> {
        let len = u32::try_from(s.len()).map_err(|_| PersistError::Format {
            detail: format!("string of {} bytes exceeds the u32 length prefix", s.len()),
        })?;
        self.write_u32(len)?;
        self.write_bytes(s.as_bytes())
    }

    /// Writes a count/length field, rejecting values the `u32` prefix cannot
    /// carry instead of silently truncating them. An unchecked `as u32` here
    /// would write a wrapped count and produce a snapshot whose sections
    /// disagree with their own headers — corruption that the checksum cannot
    /// catch because it is computed over the already-wrong bytes.
    fn write_len(&mut self, len: usize, what: &str) -> Result<(), PersistError> {
        let v = u32::try_from(len).map_err(|_| PersistError::Format {
            detail: format!("{what} count {len} exceeds the u32 length prefix"),
        })?;
        self.write_u32(v)
    }

    /// Writes a `u32` slice as one contiguous little-endian block (the
    /// single-`write` strip path).
    fn write_u32_block(
        &mut self,
        values: impl Iterator<Item = u32>,
        buf: &mut Vec<u8>,
    ) -> Result<(), PersistError> {
        buf.clear();
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        self.write_bytes(buf)
    }
}

struct HashingReader<R: Read> {
    inner: R,
    hash: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader {
            inner,
            hash: FNV_OFFSET,
        }
    }

    fn read_bytes(&mut self, buf: &mut [u8]) -> Result<(), PersistError> {
        self.inner.read_exact(buf)?;
        self.hash = fnv_update(self.hash, buf);
        Ok(())
    }

    fn read_u32(&mut self) -> Result<u32, PersistError> {
        let mut b = [0u8; 4];
        self.read_bytes(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn read_u64(&mut self) -> Result<u64, PersistError> {
        let mut b = [0u8; 8];
        self.read_bytes(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn read_string(&mut self) -> Result<String, PersistError> {
        let len = self.read_u32()? as usize;
        let mut bytes = read_vec(self, len)?;
        match String::from_utf8(std::mem::take(&mut bytes)) {
            Ok(s) => Ok(s),
            Err(_) => format_err("string is not valid UTF-8"),
        }
    }

    /// Reads a contiguous block of `n` little-endian `u32`s (the single-`read`
    /// strip path).
    fn read_u32_block(&mut self, n: usize) -> Result<Vec<u32>, PersistError> {
        let bytes = read_vec(self, n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

/// Reads `len` bytes without trusting `len` for the initial allocation: a
/// corrupt length prefix hits EOF instead of attempting a huge allocation.
fn read_vec<R: Read>(r: &mut HashingReader<R>, len: usize) -> Result<Vec<u8>, PersistError> {
    const CHUNK: usize = 1 << 20;
    let mut out = Vec::with_capacity(len.min(CHUNK));
    let mut remaining = len;
    let mut buf = [0u8; 8192];
    while remaining > 0 {
        let take = remaining.min(buf.len());
        r.read_bytes(&mut buf[..take])?;
        out.extend_from_slice(&buf[..take]);
        remaining -= take;
    }
    Ok(out)
}

// -- save -------------------------------------------------------------------------

/// Writes `instance` to `path` in the version-1 snapshot format.
pub(crate) fn save(instance: &Instance, path: &Path) -> Result<(), PersistError> {
    let store = instance.store();
    let file = File::create(path)?;
    let mut w = HashingWriter::new(BufWriter::new(file));
    let mut block = Vec::new();

    w.write_bytes(MAGIC)?;
    w.write_u32(VERSION)?;

    // Dictionary.
    let dict = store.dict_terms();
    w.write_len(dict.len(), "dictionary term")?;
    for &term in dict {
        match term {
            GroundTerm::Const(c) => {
                w.write_bytes(&[0u8])?;
                w.write_str(&c.name())?;
            }
            GroundTerm::Null(n) => {
                w.write_bytes(&[1u8])?;
                w.write_u64(n.0)?;
            }
        }
    }

    // Predicates.
    let predicates = store.predicate_list();
    w.write_len(predicates.len(), "predicate")?;
    for p in predicates {
        w.write_str(&p.name.as_str())?;
        w.write_len(p.arity, "predicate arity")?;
    }

    // Strips: per predicate, rows then one contiguous block per column, then
    // the row → fact-id map.
    w.write_len(store.len(), "interned fact")?;
    for (pi, p) in predicates.iter().enumerate() {
        let pid = crate::fact_store::PredicateId(pi as u32);
        let rows = store.rows(pid);
        w.write_len(rows, "strip row")?;
        for pos in 0..p.arity {
            w.write_u32_block(store.column(pid, pos).iter().map(|c| c.0), &mut block)?;
        }
        w.write_u32_block(store.row_facts(pid).iter().map(|f| f.0), &mut block)?;
    }

    // Liveness bitmap.
    let live = instance.live_ids();
    let mut bitmap = vec![0u8; store.len().div_ceil(8)];
    for id in live.iter() {
        bitmap[id.0 as usize / 8] |= 1 << (id.0 % 8);
    }
    w.write_bytes(&bitmap)?;

    // Per-predicate live id lists (insertion order). `by_predicate` may be
    // shorter than the predicate count (lists grow on first insert).
    let lists = instance.predicate_lists();
    for pi in 0..predicates.len() {
        let list: &[FactId] = lists.get(pi).map(|v| v.as_slice()).unwrap_or(&[]);
        w.write_len(list.len(), "live id list")?;
        w.write_u32_block(list.iter().map(|f| f.0), &mut block)?;
    }

    w.write_u64(instance.next_null_state())?;

    let digest = w.hash;
    w.inner.write_all(&digest.to_le_bytes())?;
    w.inner.flush()?;
    Ok(())
}

// -- load -------------------------------------------------------------------------

/// Reads an instance from `path`, validating structure and checksum.
pub(crate) fn load(path: &Path) -> Result<Instance, PersistError> {
    let file = File::open(path)?;
    let mut r = HashingReader::new(BufReader::new(file));

    let mut magic = [0u8; 8];
    r.read_bytes(&mut magic)?;
    if &magic != MAGIC {
        return format_err("bad magic: not a chase snapshot file");
    }
    let version = r.read_u32()?;
    if version != VERSION {
        return Err(PersistError::VersionMismatch {
            found: version,
            supported: VERSION,
        });
    }

    // Dictionary.
    let n_terms = r.read_u32()? as usize;
    let mut dict: Vec<GroundTerm> = Vec::with_capacity(n_terms.min(1 << 20));
    for _ in 0..n_terms {
        let mut tag = [0u8; 1];
        r.read_bytes(&mut tag)?;
        dict.push(match tag[0] {
            0 => GroundTerm::Const(Constant::new(&r.read_string()?)),
            1 => GroundTerm::Null(NullValue(r.read_u64()?)),
            t => return format_err(format!("unknown term tag {t}")),
        });
    }

    // Predicates.
    let n_preds = r.read_u32()? as usize;
    let mut predicates: Vec<Predicate> = Vec::with_capacity(n_preds.min(1 << 20));
    for _ in 0..n_preds {
        let name = r.read_string()?;
        let arity = r.read_u32()? as usize;
        predicates.push(Predicate::new(&name, arity));
    }

    // Strips.
    let n_facts = r.read_u32()? as usize;
    let mut raw_strips: Vec<(Vec<Vec<TermId>>, Vec<FactId>)> = Vec::with_capacity(n_preds);
    let mut total_rows = 0usize;
    for p in &predicates {
        let rows = r.read_u32()? as usize;
        total_rows += rows;
        let mut columns = Vec::with_capacity(p.arity);
        for _ in 0..p.arity {
            columns.push(r.read_u32_block(rows)?.into_iter().map(TermId).collect());
        }
        let fact_of_row = r.read_u32_block(rows)?.into_iter().map(FactId).collect();
        raw_strips.push((columns, fact_of_row));
    }
    if total_rows != n_facts {
        return format_err(format!(
            "strip rows sum to {total_rows} but the header declares {n_facts} facts"
        ));
    }

    let store = FactStore::from_raw_parts(predicates, dict, raw_strips)
        .map_err(|detail| PersistError::Format { detail })?;

    // Liveness bitmap.
    let mut bitmap = read_vec(&mut r, n_facts.div_ceil(8))?;
    let live_count = bitmap
        .iter()
        .map(|b| b.count_ones() as usize)
        .sum::<usize>();
    let is_live = |id: u32| bitmap[id as usize / 8] & (1 << (id % 8)) != 0;

    // Per-predicate live id lists.
    let mut by_predicate: Vec<Vec<FactId>> = Vec::with_capacity(store.predicate_count());
    let mut live: FactIdSet = FactIdSet::with_capacity(n_facts);
    for pi in 0..store.predicate_count() {
        let len = r.read_u32()? as usize;
        let list: Vec<FactId> = r.read_u32_block(len)?.into_iter().map(FactId).collect();
        for &id in &list {
            if id.0 as usize >= n_facts {
                return format_err(format!(
                    "live list references FactId({}) outside the fact space",
                    id.0
                ));
            }
            if store.predicate_id_of(id).0 as usize != pi {
                return format_err(format!(
                    "live list of predicate {pi} contains FactId({}) of another predicate",
                    id.0
                ));
            }
            if !is_live(id.0) {
                return format_err(format!(
                    "live list contains FactId({}) that the bitmap marks dead",
                    id.0
                ));
            }
            if !live.insert(id) {
                return format_err(format!("FactId({}) occurs twice in the live lists", id.0));
            }
        }
        by_predicate.push(list);
    }
    if live.len() != live_count {
        return format_err(format!(
            "bitmap marks {live_count} facts live but the id lists carry {}",
            live.len()
        ));
    }
    bitmap.clear();

    let next_null = r.read_u64()?;

    let digest = r.hash;
    let mut trailer = [0u8; 8];
    r.inner.read_exact(&mut trailer)?;
    if u64::from_le_bytes(trailer) != digest {
        return Err(PersistError::ChecksumMismatch);
    }
    // Trailing garbage after the checksum is corruption too.
    let mut extra = [0u8; 1];
    match r.inner.read(&mut extra) {
        Ok(0) => {}
        Ok(_) => return format_err("trailing bytes after the checksum"),
        Err(e) => return Err(e.into()),
    }

    Ok(Instance::from_loaded_parts(
        store,
        live,
        by_predicate,
        next_null,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Fact;
    use crate::substitution::NullSubstitution;

    fn cst(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }
    fn null(i: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(i))
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("chase_persist_{}_{name}.snap", std::process::id()));
        p
    }

    fn sample_instance() -> Instance {
        let mut k = Instance::new();
        k.insert(Fact::from_parts("E", vec![cst("a"), null(1)]));
        k.insert(Fact::from_parts("E", vec![cst("a"), cst("b")]));
        k.insert(Fact::from_parts("Init", vec![]));
        k.insert(Fact::from_parts("N", vec![cst("z")]));
        k.remove(&Fact::from_parts("N", vec![cst("z")])); // tombstone
        k.substitute_in_place(&NullSubstitution::single(NullValue(1), cst("c")));
        k.fresh_null();
        k
    }

    #[test]
    fn roundtrip_preserves_ids_order_and_display() {
        let k = sample_instance();
        let path = temp_path("roundtrip");
        k.save(&path).unwrap();
        let loaded = Instance::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.sorted_fact_ids(), k.sorted_fact_ids());
        assert_eq!(loaded.to_string(), k.to_string());
        assert_eq!(loaded.store().len(), k.store().len());
        assert_eq!(loaded.store().term_count(), k.store().term_count());
        // The null allocator state round-trips: fresh nulls stay fresh.
        let mut a = k.clone();
        let mut b = loaded;
        assert_eq!(a.fresh_null(), b.fresh_null());
        // Tombstoned ids are still interned but dead on both sides.
        let z = Fact::from_parts("N", vec![cst("z")]);
        assert_eq!(
            b.store().lookup_fact(&z),
            a.store().lookup_fact(&z),
            "tombstones survive the roundtrip"
        );
        assert!(!b.contains(&z));
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let k = sample_instance();
        let path = temp_path("truncated");
        k.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [3, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(
                    Instance::load(&path),
                    Err(PersistError::Truncated) | Err(PersistError::Format { .. })
                ),
                "cut at {cut} must fail cleanly"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let k = sample_instance();
        let path = temp_path("corrupt");
        k.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the liveness/strips region (past header + version).
        let idx = bytes.len() - 12;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(
                Instance::load(&path),
                Err(PersistError::ChecksumMismatch) | Err(PersistError::Format { .. })
            ),
            "bit flip must be detected"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_reported() {
        let k = sample_instance();
        let path = temp_path("version");
        k.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match Instance::load(&path) {
            Err(PersistError::VersionMismatch { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_a_format_error() {
        let path = temp_path("magic");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        assert!(matches!(
            Instance::load(&path),
            Err(PersistError::Format { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// Satellite regression: every length field the writer emits goes through a
    /// checked conversion. A count above `u32::MAX` must surface as a typed
    /// [`PersistError::Format`], not wrap silently — a wrapped prefix would
    /// produce a snapshot whose section headers lie about their own contents
    /// (and the trailing checksum, computed over the wrapped bytes, would
    /// happily validate the corruption).
    #[test]
    fn oversized_length_fields_are_rejected_not_truncated() {
        // Exercise the checked path directly: materialising 2^32 facts to push
        // an overflow through `save` is not practical, and `write_len` is the
        // single choke point all six count fields (dictionary, predicates,
        // arity, fact total, strip rows, live lists) now flow through.
        let mut w = HashingWriter::new(Vec::new());
        let too_big = u32::MAX as usize + 1;
        match w.write_len(too_big, "interned fact") {
            Err(PersistError::Format { detail }) => {
                assert!(
                    detail.contains("interned fact") && detail.contains("u32"),
                    "error should name the field and the prefix width: {detail}"
                );
            }
            other => panic!("expected Format error for oversized count, got {other:?}"),
        }
        // Nothing was written: a failed length prefix must not leave a partial
        // field behind for a later section to misparse.
        assert!(w.inner.is_empty(), "failed write_len must emit no bytes");
        // The boundary value itself still round-trips.
        w.write_len(u32::MAX as usize, "interned fact").unwrap();
        assert_eq!(w.inner, u32::MAX.to_le_bytes());
    }

    #[test]
    fn empty_instance_roundtrips() {
        let k = Instance::new();
        let path = temp_path("empty");
        k.save(&path).unwrap();
        let loaded = Instance::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.is_empty());
        assert_eq!(loaded, k);
    }
}
