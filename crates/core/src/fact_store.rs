//! Columnar, dictionary-compressed fact storage: dense ids over per-predicate
//! column strips.
//!
//! A [`FactStore`] interns every fact exactly once. Ground terms are interned
//! into a per-store **term dictionary** (dense [`TermId`]s: each constant or
//! null is stored once, as one 16-byte [`GroundTerm`]), and the argument terms
//! of all facts are stored **column-major**: for each interned predicate there
//! is one *strip* per argument position, a plain `Vec<TermId>` of 4-byte cells.
//! A fact is a dense [`FactId`] pointing at a `(predicate, row)` record; its
//! arguments are the cells at that row across the predicate's strips.
//!
//! ```text
//!             dictionary                     strips of  E/2 (PredicateId 0)
//!   TermId 0 ──► Const "a"              pos 0        pos 1       fact_of_row
//!   TermId 1 ──► Const "b"          row 0 │ 0 │    row 0 │ 1 │   row 0 │ F0 │
//!   TermId 2 ──► Null  η3          row 1 │ 1 │    row 1 │ 2 │   row 1 │ F2 │
//!                                   row 2 │ 1 │    row 2 │ 0 │   row 2 │ F5 │
//!                                        ▲ one contiguous Vec<TermId> each ▲
//! ```
//!
//! Equal facts always receive the same id, so fact identity is id equality and
//! set membership is an integer-set operation — no per-fact heap allocation, no
//! `Vec<GroundTerm>` clones on the hot paths. Per-position scans
//! ([`FactStore::column`]) are cache-linear: probing "which `E`-facts carry
//! term *t* at position 1?" walks one contiguous `u32` array instead of
//! striding row-major spans.
//!
//! The store is **append-only**: interning never invalidates an id, and ids are
//! never reused. "Removing" a fact is the owning [`Instance`](crate::Instance)'s
//! business (it keeps a live-id set); an EGD substitution interns the rewritten
//! image as a fresh id ([`FactStore::intern_rewritten`]) and reports the
//! `(old, new)` id pair — the delta the incremental trigger engine re-seeds from.
//!
//! ## Who holds what
//!
//! * [`crate::Instance`] owns a store plus a live-id set and per-predicate id
//!   lists; the legacy [`Fact`]-value API is a thin view that materialises facts
//!   from the strips on demand.
//! * [`crate::IndexedInstance`] keeps its per-(predicate, position, term) and
//!   per-null indexes as `Vec<FactId>` buckets over the same store.
//! * The join engine ([`crate::homomorphism`]) enumerates candidate `FactId`
//!   slices and unifies atoms directly against strip cells through the
//!   [`FactTerms`] view.
//!
//! Dedup is a small open-addressing hash table (linear probing, power-of-two
//! capacity) whose buckets carry `(fact id, predicate, row, hash tag)`. A probe
//! resolves almost entirely inside the bucket array: slots whose 32-bit tag or
//! predicate differ are skipped without touching any other structure, and a
//! candidate match is confirmed by comparing the cells at `(predicate, row)`
//! straight against the strips — one dependent memory hop, not a chain through
//! the per-fact meta records, so the table walk costs O(1) cache lines
//! regardless of store size.
//!
//! There is one way in: facts are interned one at a time.
//! [`FactStore::try_intern`], [`FactStore::intern_copied`], compaction and
//! bulk loads through [`Instance::extend_parts`](crate::Instance::extend_parts)
//! translate and hash their terms through one core, an EGD rewrite
//! ([`FactStore::intern_rewritten`]) hashes its swapped cells, and all of them
//! probe both tables with the same walks. A loaded snapshot refills the
//! tables through those walks too, in id order. A bulk load asks for the
//! first lines each fact will probe a few facts ahead
//! (`FactStore::prefetch_intern`), so on a store that has outgrown the caches
//! those misses overlap instead of stalling one after another.
//!
//! ## Capacity and overflow
//!
//! All dense id spaces are `u32`. Interning past `u32::MAX` terms or facts —
//! or past an injected test capacity — fails with
//! [`CoreError::CapacityExhausted`] through [`FactStore::try_intern`] /
//! [`FactStore::try_intern_term`]; the panicking [`FactStore::intern`] wrapper
//! surfaces the same message. Bulk loaders should pre-size the store with
//! [`FactStore::with_capacity`] so a million-fact load does not pay repeated
//! dedup-table rehash doubling.
//!
//! ## Concurrent reads
//!
//! The whole read surface — [`FactStore::terms`], [`FactStore::column`],
//! [`FactStore::predicate_of`], [`FactStore::lookup`], [`FactStore::compare`],
//! `fmt_fact` — takes `&self` and touches no interior mutability: the strips,
//! the dictionary, the meta records and the dedup table are plain
//! `Vec`s/`HashMap`s, and the `scratch` buffer is only used by `&mut self`
//! methods. `FactStore` is therefore `Send + Sync` by construction, and a
//! shared borrow can be handed to any number of worker threads — this is what
//! round-parallel trigger discovery relies on (see
//! [`IndexedInstance`](crate::IndexedInstance)). Appends (interning) still require `&mut self`, so the borrow
//! checker serialises them against all readers.

use crate::atom::{Fact, Predicate};
use crate::error::CoreError;
use crate::hash::{hash_one, FastMap, WordHasher};
use crate::substitution::NullSubstitution;
use crate::term::GroundTerm;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Dense id of an interned fact. Ids are handed out consecutively from 0 and are
/// stable for the lifetime of the store that issued them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FactId(pub u32);

/// Dense id of an interned predicate (name + arity) within one store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PredicateId(pub u32);

/// Dense id of a ground term (constant or labeled null) in one store's term
/// dictionary. Column cells are `TermId`s: two cells of the same store are equal
/// iff their terms are equal, so unification and dedup compare 4-byte ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(pub u32);

/// Per-fact record: the interned predicate and the fact's row within that
/// predicate's column strips.
#[derive(Clone, Copy, Debug)]
struct FactMeta {
    pred: PredicateId,
    row: u32,
}

/// The column strips of one predicate: one contiguous `Vec<TermId>` per argument
/// position (all of equal length = rows), plus the row → fact-id mapping.
#[derive(Clone, Debug, Default)]
struct Strip {
    columns: Vec<Vec<TermId>>,
    fact_of_row: Vec<FactId>,
}

/// One dedup-table slot: the fact id plus enough of the fact's identity — its
/// predicate, its strip row, and a 32-bit hash tag — for a probe to reject
/// non-matching slots without dereferencing the meta records. Only a slot whose
/// tag *and* predicate match pays the strip comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Bucket {
    fact: u32,
    pred: u32,
    row: u32,
    tag: u32,
}

/// The empty slot marker: `fact == u32::MAX` (fact ids are capacity-checked to
/// stay strictly below it).
const EMPTY_BUCKET: Bucket = Bucket {
    fact: u32::MAX,
    pred: u32::MAX,
    row: u32::MAX,
    tag: 0,
};

/// One dictionary-map slot: the ground term *inline* next to its id and hash
/// tag, so a `term → TermId` probe costs a single cache line — hash, key
/// compare and payload all live in the slot (a boxed-key map pays a second
/// dependent line for the key). `id == u32::MAX` marks an empty slot (term ids
/// are capacity-checked to stay strictly below it).
#[derive(Clone, Copy, Debug)]
struct TermBucket {
    term: GroundTerm,
    id: u32,
    tag: u32,
}

const EMPTY_TERM_BUCKET: TermBucket = TermBucket {
    term: GroundTerm::Null(crate::term::NullValue(0)),
    id: u32::MAX,
    tag: 0,
};

/// Asks the CPU to start loading `slot`'s cache line now, so a later probe
/// of it overlaps the work in between instead of stalling on memory. A no-op
/// off x86-64.
#[inline]
#[allow(unsafe_code)]
fn prefetch<T>(slot: &T) {
    // SAFETY: a prefetch is a hint: it cannot fault, writes nothing and
    // returns nothing, and `slot` is a live reference in any case.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((slot as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = slot;
}

/// An all-`empty` open-addressing table holding `entries` at load ≤ 1/2 with
/// no growth (none at all for zero entries).
fn sized_table<B: Copy>(entries: usize, empty: B) -> Vec<B> {
    match entries {
        0 => Vec::new(),
        n => vec![empty; (n * 2).max(8).next_power_of_two()],
    }
}

/// Columnar interned fact storage. See the [module docs](self) for the layout.
#[derive(Clone, Debug)]
pub struct FactStore {
    /// Interned predicates, indexed by `PredicateId`.
    predicates: Vec<Predicate>,
    predicate_ids: FastMap<Predicate, PredicateId>,
    /// The term dictionary, indexed by `TermId`.
    dict: Vec<GroundTerm>,
    /// Inline-key open-addressing dictionary map (power-of-two capacity,
    /// linear probing, load ≤ 1/2): `GroundTerm → TermId` in one cache line.
    term_table: Vec<TermBucket>,
    /// Per-predicate column strips, indexed by `PredicateId`.
    strips: Vec<Strip>,
    /// One record per interned fact, indexed by `FactId`.
    meta: Vec<FactMeta>,
    /// Open-addressing dedup table (power-of-two capacity, linear probing).
    /// Buckets carry `(fact, pred, row, tag)` so probes resolve without a hop
    /// through `meta`; confirming comparisons go straight to the strips.
    table: Vec<Bucket>,
    /// Scratch cell buffer reused by the `&mut self` interning paths.
    scratch: Vec<TermId>,
    /// Per-column reserve hint recorded by [`FactStore::with_capacity`].
    row_hint: usize,
    /// Dictionary capacity; `u32::MAX` in production, tiny in the overflow tests.
    max_terms: u32,
    /// Fact-id capacity; `u32::MAX` in production, tiny in the overflow tests.
    max_facts: u32,
}

impl Default for FactStore {
    fn default() -> Self {
        FactStore::with_capacity(0, 0, 0)
    }
}

/// Heap usage summary of a [`FactStore`], in bytes of element storage (container
/// headers and hash-map overhead excluded on both sides of the comparison).
///
/// `row_equivalent_bytes` is what the same interning history would occupy in the
/// pre-columnar row-major layout (one 16-byte [`GroundTerm`] per cell in a flat
/// arena, plus the same 8-byte per-fact meta record) — the baseline the
/// `fact_store` scale bench reports bytes/fact against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreFootprint {
    /// Column cells plus row→fact maps: `(Σ arity + 1) × 4` bytes per fact.
    pub strip_bytes: usize,
    /// Dictionary term values: 16 bytes per *distinct* term.
    pub dict_bytes: usize,
    /// Per-fact `(predicate, row)` records: 8 bytes per fact.
    pub meta_bytes: usize,
    /// Dedup-table buckets: 16 bytes per slot (a layout both row-major and
    /// columnar stores would need identically).
    pub table_bytes: usize,
    /// The row-major baseline: flat `GroundTerm` arena + meta records.
    pub row_equivalent_bytes: usize,
}

impl StoreFootprint {
    /// Total columnar bytes comparable against `row_equivalent_bytes`
    /// (strips + dictionary + meta; the dedup table is identical in both
    /// layouts and excluded from both sides).
    pub fn columnar_bytes(&self) -> usize {
        self.strip_bytes + self.dict_bytes + self.meta_bytes
    }
}

impl FactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        FactStore::default()
    }

    /// Creates a store pre-sized for a bulk load of `facts` facts over
    /// `predicates` predicates and `terms` distinct ground terms: the dedup
    /// table starts at its final power-of-two capacity, the meta records and
    /// dictionary are reserved up front, and each predicate's strips reserve
    /// `facts / predicates` rows — so a 10M-fact load performs no rehash
    /// doubling. The hints are capacities, not limits; a store grows past them
    /// exactly like one built with [`FactStore::new`].
    pub fn with_capacity(predicates: usize, facts: usize, terms: usize) -> Self {
        FactStore {
            predicates: Vec::with_capacity(predicates),
            predicate_ids: FastMap::with_capacity_and_hasher(predicates, Default::default()),
            dict: Vec::with_capacity(terms),
            term_table: sized_table(terms, EMPTY_TERM_BUCKET),
            strips: Vec::with_capacity(predicates),
            meta: Vec::with_capacity(facts),
            table: sized_table(facts, EMPTY_BUCKET),
            scratch: Vec::new(),
            row_hint: facts.checked_div(predicates).unwrap_or(0),
            max_terms: u32::MAX,
            max_facts: u32::MAX,
        }
    }

    /// A store with tiny injected id capacities, for exercising the overflow
    /// guards without interning four billion entries.
    #[cfg(test)]
    pub(crate) fn with_limits(max_terms: u32, max_facts: u32) -> Self {
        FactStore {
            max_terms,
            max_facts,
            ..FactStore::default()
        }
    }

    /// Number of interned facts (live or not — the store is append-only).
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Returns `true` iff no fact has been interned.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Number of interned predicates.
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Number of distinct ground terms in the dictionary.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// Total number of column cells across all strips (Σ arity over interned
    /// facts) — the size the flat row-major arena would have.
    pub fn arena_len(&self) -> usize {
        self.strips
            .iter()
            .map(|s| s.columns.len() * s.fact_of_row.len())
            .sum()
    }

    /// Element-storage byte counts of the columnar layout next to its row-major
    /// equivalent. See [`StoreFootprint`].
    pub fn footprint(&self) -> StoreFootprint {
        let cell = std::mem::size_of::<TermId>();
        let term = std::mem::size_of::<GroundTerm>();
        let meta = std::mem::size_of::<FactMeta>();
        let cells = self.arena_len();
        StoreFootprint {
            strip_bytes: cells * cell + self.meta.len() * std::mem::size_of::<FactId>(),
            dict_bytes: self.dict.len() * term,
            meta_bytes: self.meta.len() * meta,
            table_bytes: self.table.len() * std::mem::size_of::<Bucket>(),
            row_equivalent_bytes: cells * term + self.meta.len() * meta,
        }
    }

    /// Interns a predicate, returning its dense id. Allocates the predicate's
    /// (empty) column strips on first sight.
    pub fn predicate_id(&mut self, predicate: Predicate) -> PredicateId {
        if let Some(&id) = self.predicate_ids.get(&predicate) {
            return id;
        }
        let id = PredicateId(self.predicates.len() as u32);
        self.predicates.push(predicate);
        self.predicate_ids.insert(predicate, id);
        let mut strip = Strip {
            columns: vec![Vec::new(); predicate.arity],
            fact_of_row: Vec::new(),
        };
        if self.row_hint > 0 {
            for col in &mut strip.columns {
                col.reserve(self.row_hint);
            }
            strip.fact_of_row.reserve(self.row_hint);
        }
        self.strips.push(strip);
        id
    }

    /// The dense id of a predicate, if it has been interned.
    pub fn lookup_predicate(&self, predicate: Predicate) -> Option<PredicateId> {
        self.predicate_ids.get(&predicate).copied()
    }

    /// The predicate behind a dense predicate id.
    pub fn predicate(&self, id: PredicateId) -> Predicate {
        self.predicates[id.0 as usize]
    }

    /// The predicate of an interned fact.
    pub fn predicate_of(&self, id: FactId) -> Predicate {
        self.predicates[self.meta[id.0 as usize].pred.0 as usize]
    }

    /// The dense predicate id of an interned fact.
    pub fn predicate_id_of(&self, id: FactId) -> PredicateId {
        self.meta[id.0 as usize].pred
    }

    /// The ground term behind a dictionary id.
    pub fn term(&self, id: TermId) -> GroundTerm {
        self.dict[id.0 as usize]
    }

    /// The dictionary id of a ground term, if it has been interned. A term that
    /// was never interned occurs in no fact, so lookups can miss fast on `None`.
    pub fn term_id(&self, term: GroundTerm) -> Option<TermId> {
        if self.term_table.is_empty() {
            return None;
        }
        self.find_term(term).ok()
    }

    /// Walks the term table from `term`'s home slot. Returns the term's id, or
    /// the empty slot where it would be inserted together with the 32-bit hash
    /// tag to store there. The table must not be empty.
    fn find_term(&self, term: GroundTerm) -> Result<TermId, (usize, u32)> {
        let hash = hash_one(&term);
        let tag = (hash >> 32) as u32;
        let mask = self.term_table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let b = self.term_table[slot];
            if b.id == EMPTY_TERM_BUCKET.id {
                return Err((slot, tag));
            }
            if b.tag == tag && b.term == term {
                return Ok(TermId(b.id));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Fills the empty term table with the dictionary, in `TermId` order.
    /// Returns the first term that is already in the table.
    fn fill_term_table(&mut self) -> Result<(), TermId> {
        for (i, &term) in self.dict.iter().enumerate() {
            match self.find_term(term) {
                Ok(_) => return Err(TermId(i as u32)),
                Err((slot, tag)) => {
                    self.term_table[slot] = TermBucket {
                        term,
                        id: i as u32,
                        tag,
                    }
                }
            }
        }
        Ok(())
    }

    fn grow_term_table(&mut self) {
        self.term_table = vec![EMPTY_TERM_BUCKET; self.term_table.len().max(8) * 2];
        self.fill_term_table()
            .expect("the dictionary holds each term once");
    }

    /// Interns a ground term into the dictionary, returning its dense id; fails
    /// if the dictionary is at capacity.
    pub fn try_intern_term(&mut self, term: GroundTerm) -> Result<TermId, CoreError> {
        // Keep the load factor ≤ 1/2 so probe chains stay short.
        if self.term_table.len() < (self.dict.len() + 1) * 2 {
            self.grow_term_table();
        }
        let (slot, tag) = match self.find_term(term) {
            Ok(id) => return Ok(id),
            Err(empty) => empty,
        };
        if self.dict.len() >= self.max_terms as usize {
            return Err(CoreError::CapacityExhausted {
                resource: "term dictionary",
                capacity: self.max_terms as u64,
            });
        }
        let id = TermId(self.dict.len() as u32);
        self.dict.push(term);
        self.term_table[slot] = TermBucket {
            term,
            id: id.0,
            tag,
        };
        Ok(id)
    }

    /// The column strip of `pred` at argument position `position`: one
    /// contiguous cell per row, in row order. The cache-linear scan surface for
    /// per-position probes.
    pub fn column(&self, pred: PredicateId, position: usize) -> &[TermId] {
        &self.strips[pred.0 as usize].columns[position]
    }

    /// Number of rows (interned facts, live or not) in `pred`'s strips.
    pub fn rows(&self, pred: PredicateId) -> usize {
        self.strips[pred.0 as usize].fact_of_row.len()
    }

    /// The fact ids of `pred`'s rows, in row order (parallel to every
    /// [`FactStore::column`] of the predicate).
    pub fn row_facts(&self, pred: PredicateId) -> &[FactId] {
        &self.strips[pred.0 as usize].fact_of_row
    }

    /// The row of an interned fact within its predicate's strips.
    pub fn row_of(&self, id: FactId) -> usize {
        self.meta[id.0 as usize].row as usize
    }

    /// The argument terms of an interned fact, as a cheap [`FactTerms`] view
    /// over the predicate's strips (the columnar replacement for the old
    /// row-span slice).
    pub fn terms(&self, id: FactId) -> FactTerms<'_> {
        let m = self.meta[id.0 as usize];
        FactTerms {
            dict: &self.dict,
            columns: &self.strips[m.pred.0 as usize].columns,
            row: m.row as usize,
        }
    }

    /// The argument term of an interned fact at one position (two array reads).
    pub fn term_at(&self, id: FactId, position: usize) -> GroundTerm {
        let m = self.meta[id.0 as usize];
        let cell = self.strips[m.pred.0 as usize].columns[position][m.row as usize];
        self.dict[cell.0 as usize]
    }

    /// Returns `true` iff the fact's cells mention the dictionary term `cell`.
    pub fn mentions(&self, id: FactId, cell: TermId) -> bool {
        let m = self.meta[id.0 as usize];
        self.strips[m.pred.0 as usize]
            .columns
            .iter()
            .any(|col| col[m.row as usize] == cell)
    }

    /// Materialises the [`Fact`] value behind an id (the thin view layer; hot
    /// paths stay on ids and [`FactStore::terms`]).
    pub fn fact(&self, id: FactId) -> Fact {
        Fact {
            predicate: self.predicate_of(id),
            terms: self.terms(id).to_vec(),
        }
    }

    /// Compares two interned facts with the same ordering as [`Fact`]'s `Ord`
    /// (predicate, then argument terms, lexicographically).
    pub fn compare(&self, a: FactId, b: FactId) -> std::cmp::Ordering {
        let (ma, mb) = (self.meta[a.0 as usize], self.meta[b.0 as usize]);
        let pred_cmp =
            self.predicates[ma.pred.0 as usize].cmp(&self.predicates[mb.pred.0 as usize]);
        if pred_cmp != std::cmp::Ordering::Equal {
            return pred_cmp;
        }
        let (sa, sb) = (
            &self.strips[ma.pred.0 as usize],
            &self.strips[mb.pred.0 as usize],
        );
        for (ca, cb) in sa.columns.iter().zip(&sb.columns) {
            let (ta, tb) = (ca[ma.row as usize], cb[mb.row as usize]);
            if ta != tb {
                return self.dict[ta.0 as usize].cmp(&self.dict[tb.0 as usize]);
            }
        }
        std::cmp::Ordering::Equal
    }

    /// The fact hash is computed over the predicate and the *term values* —
    /// not the cell ids — so a [`FactStore::lookup`] can hash its query terms
    /// directly and never touch the dictionary map at all.
    fn hash_fact(pred: PredicateId, terms: impl IntoIterator<Item = GroundTerm>) -> u64 {
        let mut h = WordHasher::default();
        pred.0.hash(&mut h);
        for t in terms {
            t.hash(&mut h);
        }
        h.finish()
    }

    /// Walks the dedup table from `hash`'s home slot. Returns the first bucket
    /// whose tag and predicate match and whose row satisfies `matches`, or the
    /// empty slot where the fact would be inserted together with the 32-bit
    /// hash tag to store there.
    fn probe_with(
        &self,
        hash: u64,
        pred: PredicateId,
        matches: impl Fn(&Strip, u32) -> bool,
    ) -> Result<FactId, (usize, u32)> {
        debug_assert!(!self.table.is_empty());
        let tag = (hash >> 32) as u32;
        let mask = self.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let b = self.table[slot];
            if b.fact == EMPTY_BUCKET.fact {
                return Err((slot, tag));
            }
            if b.tag == tag && b.pred == pred.0 && matches(&self.strips[pred.0 as usize], b.row) {
                return Ok(FactId(b.fact));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Probes the dedup table for `(pred, cells)` with the value hash in hand.
    fn probe_cells_hashed(
        &self,
        hash: u64,
        pred: PredicateId,
        cells: &[TermId],
    ) -> Result<FactId, (usize, u32)> {
        self.probe_with(hash, pred, |strip, row| {
            cells
                .iter()
                .zip(&strip.columns)
                .all(|(&c, col)| col[row as usize] == c)
        })
    }

    /// Fills the empty dedup table with every interned fact, in `FactId`
    /// order. Returns the first fact whose cells repeat an earlier fact's,
    /// together with that earlier fact.
    fn fill_table(&mut self) -> Result<(), (FactId, FactId)> {
        for i in 0..self.meta.len() {
            let FactMeta { pred, row } = self.meta[i];
            let columns = &self.strips[pred.0 as usize].columns;
            let hash = Self::hash_fact(
                pred,
                columns
                    .iter()
                    .map(|col| self.dict[col[row as usize].0 as usize]),
            );
            let same_cells = |strip: &Strip, other: u32| {
                strip
                    .columns
                    .iter()
                    .all(|col| col[other as usize] == col[row as usize])
            };
            match self.probe_with(hash, pred, same_cells) {
                Ok(earlier) => return Err((FactId(i as u32), earlier)),
                Err((slot, tag)) => {
                    self.table[slot] = Bucket {
                        fact: i as u32,
                        pred: pred.0,
                        row,
                        tag,
                    }
                }
            }
        }
        Ok(())
    }

    fn grow_table(&mut self) {
        self.table = vec![EMPTY_BUCKET; self.table.len().max(8) * 2];
        self.fill_table().expect("the store holds each fact once");
    }

    /// The translate-and-hash core behind every path that interns terms:
    /// `items` yields each argument term of a `pred` fact in order, with
    /// whatever `cell` needs to find the term's cell in this store's
    /// dictionary. The fact's value hash is folded in while translating, so
    /// the dictionary is not re-read to hash. Returns the existing id of an
    /// interned fact, or appends the fact to `pred`'s strips under the next id.
    fn try_intern_with<T>(
        &mut self,
        pred: PredicateId,
        items: impl IntoIterator<Item = (GroundTerm, T)>,
        mut cell: impl FnMut(&mut FactStore, GroundTerm, T) -> Result<TermId, CoreError>,
    ) -> Result<FactId, CoreError> {
        let mut cells = std::mem::take(&mut self.scratch);
        cells.clear();
        let mut h = WordHasher::default();
        pred.0.hash(&mut h);
        let mut failed = None;
        for (term, item) in items {
            match cell(self, term, item) {
                Ok(c) => {
                    cells.push(c);
                    term.hash(&mut h);
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let result = match failed {
            Some(e) => Err(e),
            None => self.try_intern_cells_hashed(h.finish(), pred, &cells),
        };
        self.scratch = cells;
        result
    }

    /// Interns a fact given as dictionary cells, with its value hash in hand.
    fn try_intern_cells_hashed(
        &mut self,
        hash: u64,
        pred: PredicateId,
        cells: &[TermId],
    ) -> Result<FactId, CoreError> {
        // Keep the load factor ≤ 1/2 so probe chains stay short.
        if self.table.len() < (self.meta.len() + 1) * 2 {
            self.grow_table();
        }
        let (slot, tag) = match self.probe_cells_hashed(hash, pred, cells) {
            Ok(id) => return Ok(id),
            Err(empty) => empty,
        };
        if self.meta.len() >= self.max_facts as usize {
            return Err(CoreError::CapacityExhausted {
                resource: "fact-id space",
                capacity: self.max_facts as u64,
            });
        }
        let id = FactId(self.meta.len() as u32);
        let strip = &mut self.strips[pred.0 as usize];
        let row = strip.fact_of_row.len() as u32;
        for (col, &c) in strip.columns.iter_mut().zip(cells) {
            col.push(c);
        }
        strip.fact_of_row.push(id);
        self.meta.push(FactMeta { pred, row });
        self.table[slot] = Bucket {
            fact: id.0,
            pred: pred.0,
            row,
            tag,
        };
        Ok(id)
    }

    /// Starts loading the cache lines that interning `(predicate, terms)` will
    /// probe first: each term's home slot in the term table and the fact's home
    /// slot in the dedup table. Changes nothing. A bulk loader calls it a few
    /// facts ahead of [`FactStore::try_intern`], so on a store larger than the
    /// caches those misses overlap instead of stalling one after another.
    pub(crate) fn prefetch_intern(&self, predicate: Predicate, terms: &[GroundTerm]) {
        if let Some(mask) = self.term_table.len().checked_sub(1) {
            for t in terms {
                prefetch(&self.term_table[(hash_one(t) as usize) & mask]);
            }
        }
        if let (Some(pred), Some(mask)) = (
            self.lookup_predicate(predicate),
            self.table.len().checked_sub(1),
        ) {
            let hash = Self::hash_fact(pred, terms.iter().copied());
            prefetch(&self.table[(hash as usize) & mask]);
        }
    }

    /// Interns a fact given as predicate + argument terms; returns its dense id,
    /// or [`CoreError::CapacityExhausted`] when the dictionary or the fact-id
    /// space is full. Interning an already-present fact returns the existing id.
    pub fn try_intern(
        &mut self,
        predicate: Predicate,
        terms: &[GroundTerm],
    ) -> Result<FactId, CoreError> {
        debug_assert_eq!(predicate.arity, terms.len());
        let pred = self.predicate_id(predicate);
        let items = terms.iter().map(|&t| (t, ()));
        self.try_intern_with(pred, items, |store, t, ()| store.try_intern_term(t))
    }

    /// Interns a fact given as predicate + argument terms; returns its dense id.
    /// Interning an already-present fact returns the existing id.
    ///
    /// # Panics
    ///
    /// Panics with a capacity-exhausted message past 2^32 distinct terms or
    /// facts (where the dense `u32` ids would otherwise silently wrap); fallible
    /// callers use [`FactStore::try_intern`].
    pub fn intern(&mut self, predicate: Predicate, terms: &[GroundTerm]) -> FactId {
        self.try_intern(predicate, terms)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Interns a [`Fact`] value.
    pub fn intern_fact(&mut self, fact: &Fact) -> FactId {
        self.intern(fact.predicate, &fact.terms)
    }

    /// Re-interns the fact `id` of `src` into this store (predicate, dictionary
    /// terms and cells are translated), returning the local id. The cross-store
    /// copy primitive behind [`Instance`](crate::Instance) union / restriction
    /// and database loading — no `Vec<GroundTerm>` is materialised.
    pub fn intern_copied(&mut self, src: &FactStore, id: FactId) -> FactId {
        let m = src.meta[id.0 as usize];
        let pred = self.predicate_id(src.predicates[m.pred.0 as usize]);
        let items = src.strips[m.pred.0 as usize]
            .columns
            .iter()
            .map(|col| (src.dict[col[m.row as usize].0 as usize], ()));
        self.try_intern_with(pred, items, |store, t, ()| store.try_intern_term(t))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`FactStore::intern_copied`], but memoising the `src`-dictionary →
    /// local-dictionary translation in `memo` (indexed by `src` [`TermId`],
    /// `u32::MAX` = not yet translated). This is the strip-aware rebuild
    /// primitive of [`Instance::compact`](crate::Instance::compact): each
    /// distinct term is looked up in the dictionary maps once, and every further
    /// occurrence is a 4-byte memo read.
    pub(crate) fn intern_translated(
        &mut self,
        src: &FactStore,
        id: FactId,
        memo: &mut [u32],
    ) -> FactId {
        let m = src.meta[id.0 as usize];
        let pred = self.predicate_id(src.predicates[m.pred.0 as usize]);
        let items = src.strips[m.pred.0 as usize].columns.iter().map(|col| {
            let old = col[m.row as usize];
            (src.dict[old.0 as usize], old)
        });
        self.try_intern_with(pred, items, |store, term, old| {
            if memo[old.0 as usize] == u32::MAX {
                memo[old.0 as usize] = store.try_intern_term(term)?.0;
            }
            Ok(TermId(memo[old.0 as usize]))
        })
        .unwrap_or_else(|e| panic!("{e}"))
    }

    const INLINE_ARITY: usize = 16;

    /// Looks up a fact without interning it; `None` if it was never interned.
    /// Any term absent from the dictionary occurs in no fact, so the lookup
    /// misses immediately. The query terms are translated through the
    /// inline-key term table (independent single-line probes the CPU can
    /// overlap) and the fact hash is computed from the term values directly,
    /// so the dedup-table walk and the cell comparisons form a two-hop
    /// dependency chain regardless of store size.
    pub fn lookup(&self, predicate: Predicate, terms: &[GroundTerm]) -> Option<FactId> {
        let pred = self.lookup_predicate(predicate)?;
        if self.table.is_empty() {
            return None;
        }
        let hash = Self::hash_fact(pred, terms.iter().copied());
        if terms.len() <= Self::INLINE_ARITY {
            let mut buf = [TermId(0); Self::INLINE_ARITY];
            for (slot, &t) in buf.iter_mut().zip(terms) {
                *slot = self.term_id(t)?;
            }
            self.probe_cells_hashed(hash, pred, &buf[..terms.len()])
                .ok()
        } else {
            let cells: Option<Vec<TermId>> = terms.iter().map(|&t| self.term_id(t)).collect();
            self.probe_cells_hashed(hash, pred, &cells?).ok()
        }
    }

    /// Looks up a [`Fact`] value without interning it.
    pub fn lookup_fact(&self, fact: &Fact) -> Option<FactId> {
        self.lookup(fact.predicate, &fact.terms)
    }

    /// Bulk membership: resolves each `(predicate, terms)` query to its
    /// interned fact id (`None` where the fact was never interned).
    ///
    /// Batches of 32 queries or more are processed in phases: all query hashes
    /// are computed up front, then term translation, the dedup-bucket walk
    /// and the strip verification each run over their requests sorted by
    /// target address. Smaller batches take one [`FactStore::lookup`] per
    /// query. The `fact_store` bench gates its probe latency on this path; it
    /// has measured slower than one `lookup` per query at 100k and at 1M facts.
    pub fn lookup_batch(&self, queries: &[(Predicate, &[GroundTerm])]) -> Vec<Option<FactId>> {
        let n = queries.len();
        let mut out = vec![None; n];
        if self.table.is_empty() {
            return out;
        }
        if n < 32 {
            for (o, &(p, terms)) in out.iter_mut().zip(queries) {
                *o = self.lookup(p, terms);
            }
            return out;
        }

        // Phase 1: predicate resolution and value hashing (CPU-bound,
        // streaming). A query dies here if its predicate was never interned —
        // or any ground term, when the dictionary is empty.
        let mut alive = vec![false; n];
        let mut pred = vec![u32::MAX; n];
        let mut fhash = vec![0u64; n];
        let mut start = Vec::with_capacity(n + 1);
        start.push(0u32);
        let mut total = 0usize;
        for (i, &(p, terms)) in queries.iter().enumerate() {
            if let Some(pid) = self.lookup_predicate(p) {
                if terms.is_empty() || !self.term_table.is_empty() {
                    alive[i] = true;
                    pred[i] = pid.0;
                    fhash[i] = Self::hash_fact(pid, terms.iter().copied());
                    total += terms.len();
                }
            }
            start.push(total as u32);
        }

        // Phase 2: term translation, swept in term-table address order. Each
        // request is `home slot (high 32) | flat cell index (low 32)`, so the
        // u64 sort yields address order and the walk loads stream.
        let mut cells = vec![TermId(0); total];
        if total > 0 {
            let tmask = self.term_table.len() - 1;
            let mut thash = vec![0u64; total];
            let mut owner = vec![0u32; total];
            let mut reqs = Vec::with_capacity(total);
            for (i, &(_, terms)) in queries.iter().enumerate() {
                if !alive[i] {
                    continue;
                }
                let base = start[i] as usize;
                for (j, &t) in terms.iter().enumerate() {
                    let h = hash_one(&t);
                    thash[base + j] = h;
                    owner[base + j] = i as u32;
                    reqs.push(((((h as usize) & tmask) as u64) << 32) | (base + j) as u64);
                }
            }
            reqs.sort_unstable();
            for &key in &reqs {
                let flat = key as u32 as usize;
                let q = owner[flat] as usize;
                if !alive[q] {
                    continue;
                }
                let term = queries[q].1[flat - start[q] as usize];
                let tag = (thash[flat] >> 32) as u32;
                let mut slot = (key >> 32) as usize;
                loop {
                    let b = self.term_table[slot];
                    if b.id == EMPTY_TERM_BUCKET.id {
                        // Term never interned: the fact cannot exist.
                        alive[q] = false;
                        break;
                    }
                    if b.tag == tag && b.term == term {
                        cells[flat] = TermId(b.id);
                        break;
                    }
                    slot = (slot + 1) & tmask;
                }
            }
        }

        // Phase 3: dedup-bucket walks, swept in table address order. The walk
        // stops at the first slot whose tag and predicate match, deferring the
        // cell comparison — on a miss it runs to the chain's empty slot.
        let mask = self.table.len() - 1;
        let mut reqs: Vec<u64> = (0..n)
            .filter(|&i| alive[i])
            .map(|i| ((((fhash[i] as usize) & mask) as u64) << 32) | i as u64)
            .collect();
        reqs.sort_unstable();
        let mut cand: Vec<(u32, u32, u32, u32)> = Vec::new();
        for &key in &reqs {
            let q = key as u32 as usize;
            let tag = (fhash[q] >> 32) as u32;
            let mut slot = (key >> 32) as usize;
            loop {
                let b = self.table[slot];
                if b.fact == EMPTY_BUCKET.fact {
                    break;
                }
                if b.tag == tag && b.pred == pred[q] {
                    cand.push((b.pred, b.row, q as u32, b.fact));
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }

        // Phase 4: verification, swept in (predicate, row) order so the strip
        // reads stream too. A candidate whose cells mismatch after all — a
        // 32-bit tag collision within one predicate — re-probes through the
        // exact single-query walk.
        cand.sort_unstable();
        for &(p, row, q, fact) in &cand {
            let q = q as usize;
            let strip = &self.strips[p as usize];
            let span = start[q] as usize..start[q + 1] as usize;
            if cells[span.clone()]
                .iter()
                .zip(&strip.columns)
                .all(|(&c, col)| col[row as usize] == c)
            {
                out[q] = Some(FactId(fact));
            } else {
                out[q] = self
                    .probe_cells_hashed(fhash[q], PredicateId(pred[q]), &cells[span])
                    .ok();
            }
        }
        out
    }

    /// Looks up the fact `id` of `src` in this store without interning anything
    /// (cross-store containment): translates each cell through the dictionaries
    /// and probes. Any term or predicate unknown here is an immediate miss.
    pub fn lookup_copied(&self, src: &FactStore, id: FactId) -> Option<FactId> {
        let m = src.meta[id.0 as usize];
        let pred = self.lookup_predicate(src.predicates[m.pred.0 as usize])?;
        if self.table.is_empty() {
            return None;
        }
        let src_columns = &src.strips[m.pred.0 as usize].columns;
        let src_row = m.row as usize;
        let hash = Self::hash_fact(
            pred,
            src_columns
                .iter()
                .map(|col| src.dict[col[src_row].0 as usize]),
        );
        if src_columns.len() <= Self::INLINE_ARITY {
            let mut buf = [TermId(0); Self::INLINE_ARITY];
            for (slot, col) in buf.iter_mut().zip(src_columns) {
                *slot = self.term_id(src.dict[col[src_row].0 as usize])?;
            }
            self.probe_cells_hashed(hash, pred, &buf[..src_columns.len()])
                .ok()
        } else {
            let cells: Option<Vec<TermId>> = src_columns
                .iter()
                .map(|col| self.term_id(src.dict[col[src_row].0 as usize]))
                .collect();
            self.probe_cells_hashed(hash, pred, &cells?).ok()
        }
    }

    /// Interns the image of fact `id` under the substitution `γ` and returns the
    /// image's id (which is `id` itself when the fact does not mention the
    /// substituted null). The rewrite is a cell-level `TermId` swap through the
    /// store's scratch buffer: no term values are materialised and no per-call
    /// allocation happens after warm-up.
    pub fn intern_rewritten(&mut self, id: FactId, gamma: &NullSubstitution) -> FactId {
        let Some((null, target)) = gamma.mapping() else {
            return id;
        };
        let Some(needle) = self.term_id(GroundTerm::Null(null)) else {
            return id;
        };
        if !self.mentions(id, needle) {
            return id;
        }
        let to_cell = self
            .try_intern_term(target)
            .unwrap_or_else(|e| panic!("{e}"));
        let m = self.meta[id.0 as usize];
        let mut cells = std::mem::take(&mut self.scratch);
        cells.clear();
        cells.extend(self.strips[m.pred.0 as usize].columns.iter().map(|col| {
            let c = col[m.row as usize];
            if c == needle {
                to_cell
            } else {
                c
            }
        }));
        let hash = Self::hash_fact(m.pred, cells.iter().map(|c| self.dict[c.0 as usize]));
        let new = self
            .try_intern_cells_hashed(hash, m.pred, &cells)
            .unwrap_or_else(|e| panic!("{e}"));
        self.scratch = cells;
        new
    }

    /// Writes the fact behind `id` in the `P(t1, …, tn)` syntax without
    /// materialising a [`Fact`] value.
    pub fn fmt_fact(&self, id: FactId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate_of(id).name)?;
        for (i, t) in self.terms(id).iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }

    // -- raw-parts construction (snapshot loading) --------------------------------

    /// Rebuilds a store from deserialized snapshot parts, re-deriving the meta
    /// records, dictionary map and dedup table, and validating structural
    /// invariants (dense ids, consistent strip dimensions, no duplicates).
    /// Both tables are refilled through the probes interning uses, in id
    /// order, so a duplicate term or fact runs into its earlier copy.
    /// Errors are returned as human-readable detail strings for
    /// [`PersistError::Format`](crate::persist::PersistError).
    pub(crate) fn from_raw_parts(
        predicates: Vec<Predicate>,
        dict: Vec<GroundTerm>,
        raw_strips: Vec<(Vec<Vec<TermId>>, Vec<FactId>)>,
    ) -> Result<FactStore, String> {
        if raw_strips.len() != predicates.len() {
            return Err(format!(
                "strip count {} does not match predicate count {}",
                raw_strips.len(),
                predicates.len()
            ));
        }
        let mut predicate_ids: FastMap<Predicate, PredicateId> =
            FastMap::with_capacity_and_hasher(predicates.len(), Default::default());
        for (i, &p) in predicates.iter().enumerate() {
            if predicate_ids.insert(p, PredicateId(i as u32)).is_some() {
                return Err(format!("duplicate predicate at PredicateId({i})"));
            }
        }
        let n_facts: usize = raw_strips.iter().map(|(_, rows)| rows.len()).sum();
        let mut meta = vec![
            FactMeta {
                pred: PredicateId(0),
                row: 0
            };
            n_facts
        ];
        let mut assigned = vec![false; n_facts];
        let mut strips = Vec::with_capacity(raw_strips.len());
        for (pi, (columns, fact_of_row)) in raw_strips.into_iter().enumerate() {
            let arity = predicates[pi].arity;
            if columns.len() != arity {
                return Err(format!(
                    "predicate {} has arity {arity} but {} columns",
                    predicates[pi].name,
                    columns.len()
                ));
            }
            for col in &columns {
                if col.len() != fact_of_row.len() {
                    return Err(format!(
                        "ragged strip for predicate {}: column of {} cells over {} rows",
                        predicates[pi].name,
                        col.len(),
                        fact_of_row.len()
                    ));
                }
                if let Some(bad) = col.iter().find(|c| c.0 as usize >= dict.len()) {
                    return Err(format!(
                        "cell TermId({}) is outside the dictionary (len {})",
                        bad.0,
                        dict.len()
                    ));
                }
            }
            for (row, &fid) in fact_of_row.iter().enumerate() {
                let idx = fid.0 as usize;
                if idx >= n_facts {
                    return Err(format!(
                        "row fact id FactId({}) is outside the fact space (len {n_facts})",
                        fid.0
                    ));
                }
                if assigned[idx] {
                    return Err(format!("FactId({}) is assigned to two rows", fid.0));
                }
                assigned[idx] = true;
                meta[idx] = FactMeta {
                    pred: PredicateId(pi as u32),
                    row: row as u32,
                };
            }
            strips.push(Strip {
                columns,
                fact_of_row,
            });
        }
        let mut store = FactStore {
            predicates,
            predicate_ids,
            term_table: sized_table(dict.len(), EMPTY_TERM_BUCKET),
            dict,
            strips,
            meta,
            table: sized_table(n_facts, EMPTY_BUCKET),
            scratch: Vec::new(),
            row_hint: 0,
            max_terms: u32::MAX,
            max_facts: u32::MAX,
        };
        store
            .fill_term_table()
            .map_err(|t| format!("duplicate dictionary term at TermId({})", t.0))?;
        store.fill_table().map_err(|(fact, earlier)| {
            format!(
                "FactId({}) duplicates the fact behind FactId({})",
                fact.0, earlier.0
            )
        })?;
        Ok(store)
    }

    /// The dictionary in `TermId` order (snapshot serialization).
    pub(crate) fn dict_terms(&self) -> &[GroundTerm] {
        &self.dict
    }

    /// The interned predicates in `PredicateId` order (snapshot serialization).
    pub(crate) fn predicate_list(&self) -> &[Predicate] {
        &self.predicates
    }
}

// ---------------------------------------------------------------------------------
// The per-fact view
// ---------------------------------------------------------------------------------

/// A cheap, copyable view of one fact's argument terms over its predicate's
/// column strips — the columnar replacement for the row-major `&[GroundTerm]`
/// span. Resolving position `i` reads the cell `columns[i][row]` and the
/// dictionary entry behind it.
#[derive(Clone, Copy)]
pub struct FactTerms<'a> {
    dict: &'a [GroundTerm],
    columns: &'a [Vec<TermId>],
    row: usize,
}

impl<'a> FactTerms<'a> {
    /// Number of argument terms (the predicate's arity).
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Returns `true` iff the fact is 0-ary.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The term at argument position `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()`.
    pub fn get(&self, position: usize) -> GroundTerm {
        self.dict[self.columns[position][self.row].0 as usize]
    }

    /// Iterates over the argument terms in position order.
    pub fn iter(&self) -> FactTermsIter<'a> {
        FactTermsIter {
            view: *self,
            position: 0,
        }
    }

    /// Materialises the argument terms as a vector (boundary layer only).
    pub fn to_vec(&self) -> Vec<GroundTerm> {
        self.iter().collect()
    }

    /// Returns `true` iff some argument position carries `term`.
    pub fn contains(&self, term: GroundTerm) -> bool {
        self.iter().any(|t| t == term)
    }
}

impl fmt::Debug for FactTerms<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for FactTerms<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for FactTerms<'_> {}

impl PartialEq<[GroundTerm]> for FactTerms<'_> {
    fn eq(&self, other: &[GroundTerm]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<&[GroundTerm]> for FactTerms<'_> {
    fn eq(&self, other: &&[GroundTerm]) -> bool {
        *self == **other
    }
}

impl<const N: usize> PartialEq<[GroundTerm; N]> for FactTerms<'_> {
    fn eq(&self, other: &[GroundTerm; N]) -> bool {
        *self == other[..]
    }
}

impl<const N: usize> PartialEq<&[GroundTerm; N]> for FactTerms<'_> {
    fn eq(&self, other: &&[GroundTerm; N]) -> bool {
        *self == other[..]
    }
}

impl PartialEq<Vec<GroundTerm>> for FactTerms<'_> {
    fn eq(&self, other: &Vec<GroundTerm>) -> bool {
        *self == other[..]
    }
}

impl<'a> IntoIterator for FactTerms<'a> {
    type Item = GroundTerm;
    type IntoIter = FactTermsIter<'a>;
    fn into_iter(self) -> FactTermsIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &FactTerms<'a> {
    type Item = GroundTerm;
    type IntoIter = FactTermsIter<'a>;
    fn into_iter(self) -> FactTermsIter<'a> {
        self.iter()
    }
}

/// Position-order iterator over a [`FactTerms`] view.
#[derive(Clone)]
pub struct FactTermsIter<'a> {
    view: FactTerms<'a>,
    position: usize,
}

impl Iterator for FactTermsIter<'_> {
    type Item = GroundTerm;

    fn next(&mut self) -> Option<GroundTerm> {
        if self.position < self.view.len() {
            let t = self.view.get(self.position);
            self.position += 1;
            Some(t)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.view.len() - self.position;
        (n, Some(n))
    }
}

impl ExactSizeIterator for FactTermsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Constant, NullValue};

    fn cst(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }
    fn null(i: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(i))
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut s = FactStore::new();
        let a = s.intern_fact(&Fact::from_parts("E", vec![cst("a"), cst("b")]));
        let b = s.intern_fact(&Fact::from_parts("E", vec![cst("a"), cst("b")]));
        let c = s.intern_fact(&Fact::from_parts("E", vec![cst("b"), cst("a")]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.0, 0);
        assert_eq!(c.0, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.arena_len(), 4);
        // The dictionary holds each distinct term once.
        assert_eq!(s.term_count(), 2);
    }

    #[test]
    fn same_name_different_arity_are_distinct_predicates() {
        let mut s = FactStore::new();
        let a = s.intern_fact(&Fact::from_parts("P", vec![cst("a")]));
        let b = s.intern_fact(&Fact::from_parts("P", vec![cst("a"), cst("a")]));
        assert_ne!(a, b);
        assert_eq!(s.predicate_count(), 2);
        assert_ne!(s.predicate_id_of(a), s.predicate_id_of(b));
    }

    #[test]
    fn round_trip_through_the_view_layer() {
        let mut s = FactStore::new();
        let f = Fact::from_parts("E", vec![cst("a"), null(3)]);
        let id = s.intern_fact(&f);
        assert_eq!(s.fact(id), f);
        assert_eq!(s.terms(id), &[cst("a"), null(3)]);
        assert_eq!(s.terms(id).to_vec(), vec![cst("a"), null(3)]);
        assert_eq!(s.term_at(id, 0), cst("a"));
        assert_eq!(s.term_at(id, 1), null(3));
        assert_eq!(s.predicate_of(id), f.predicate);
        assert_eq!(s.lookup_fact(&f), Some(id));
        assert_eq!(
            s.lookup_fact(&Fact::from_parts("E", vec![cst("a"), null(4)])),
            None
        );
    }

    #[test]
    fn column_strips_are_position_major() {
        let mut s = FactStore::new();
        let a = s.intern_fact(&Fact::from_parts("E", vec![cst("a"), cst("b")]));
        let b = s.intern_fact(&Fact::from_parts("E", vec![cst("b"), cst("c")]));
        let pid = s.predicate_id_of(a);
        assert_eq!(s.rows(pid), 2);
        assert_eq!(s.row_facts(pid), &[a, b]);
        let col0: Vec<GroundTerm> = s.column(pid, 0).iter().map(|&c| s.term(c)).collect();
        let col1: Vec<GroundTerm> = s.column(pid, 1).iter().map(|&c| s.term(c)).collect();
        assert_eq!(col0, vec![cst("a"), cst("b")]);
        assert_eq!(col1, vec![cst("b"), cst("c")]);
        assert_eq!(s.row_of(b), 1);
        // Cells are dictionary ids: equal terms share a cell across columns.
        assert_eq!(s.column(pid, 0)[1], s.column(pid, 1)[0]);
    }

    #[test]
    fn lookup_on_empty_store_is_none() {
        let s = FactStore::new();
        assert_eq!(s.lookup_fact(&Fact::from_parts("P", vec![cst("a")])), None);
    }

    #[test]
    fn lookup_batch_agrees_with_single_lookups() {
        let mut s = FactStore::new();
        // 0-ary, nulls, and enough facts to span several pipeline groups.
        s.intern_fact(&Fact::from_parts("unit", vec![]));
        s.intern_fact(&Fact::from_parts("E", vec![null(0), null(1)]));
        for i in 0..40 {
            s.intern_fact(&Fact::from_parts(
                "P",
                vec![cst(&format!("v{i}")), cst(&format!("v{}", i % 7))],
            ));
        }
        let mut queries: Vec<Fact> = vec![
            Fact::from_parts("unit", vec![]),
            Fact::from_parts("E", vec![null(0), null(1)]),
            Fact::from_parts("E", vec![null(1), null(0)]), // miss
            Fact::from_parts("Q", vec![cst("v0")]),        // unknown predicate
            Fact::from_parts("P", vec![cst("v1"), cst("zzz")]), // unknown term
        ];
        for i in (0..40).rev() {
            queries.push(Fact::from_parts(
                "P",
                vec![cst(&format!("v{i}")), cst(&format!("v{}", i % 6))],
            ));
        }
        let borrowed: Vec<(Predicate, &[GroundTerm])> = queries
            .iter()
            .map(|f| (f.predicate, f.terms.as_slice()))
            .collect();
        let batched = s.lookup_batch(&borrowed);
        assert_eq!(batched.len(), queries.len());
        for (f, got) in queries.iter().zip(&batched) {
            assert_eq!(*got, s.lookup_fact(f), "batch diverges on {f}");
        }
        assert!(batched.iter().filter(|r| r.is_some()).count() >= 2);
        assert!(FactStore::new()
            .lookup_batch(&borrowed)
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn lookup_misses_fast_on_unknown_terms() {
        let mut s = FactStore::new();
        s.intern_fact(&Fact::from_parts("P", vec![cst("a")]));
        // "z" is not in the dictionary: the lookup misses before probing.
        assert_eq!(s.lookup_fact(&Fact::from_parts("P", vec![cst("z")])), None);
        assert_eq!(s.term_id(cst("z")), None);
    }

    #[test]
    fn compare_matches_fact_ord() {
        let mut s = FactStore::new();
        let facts = vec![
            Fact::from_parts("E", vec![cst("a"), null(1)]),
            Fact::from_parts("E", vec![cst("a"), cst("b")]),
            Fact::from_parts("N", vec![cst("a")]),
            Fact::from_parts("E", vec![null(0), cst("b")]),
        ];
        let ids: Vec<FactId> = facts.iter().map(|f| s.intern_fact(f)).collect();
        let mut by_id = ids.clone();
        by_id.sort_by(|&a, &b| s.compare(a, b));
        let mut by_value = facts.clone();
        by_value.sort();
        let materialised: Vec<Fact> = by_id.iter().map(|&id| s.fact(id)).collect();
        assert_eq!(materialised, by_value);
    }

    #[test]
    fn intern_rewritten_dedups_against_existing_facts() {
        let mut s = FactStore::new();
        let with_null = s.intern_fact(&Fact::from_parts("E", vec![cst("a"), null(1)]));
        let ground = s.intern_fact(&Fact::from_parts("E", vec![cst("a"), cst("a")]));
        let gamma = NullSubstitution::single(NullValue(1), cst("a"));
        assert_eq!(s.intern_rewritten(with_null, &gamma), ground);
        // A fact untouched by γ maps to itself.
        assert_eq!(s.intern_rewritten(ground, &gamma), ground);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn zero_ary_facts_intern() {
        let mut s = FactStore::new();
        let a = s.intern_fact(&Fact::from_parts("Init", vec![]));
        let b = s.intern_fact(&Fact::from_parts("Init", vec![]));
        assert_eq!(a, b);
        assert!(s.terms(a).is_empty());
        assert_eq!(s.terms(a).iter().count(), 0);
    }

    #[test]
    fn table_growth_keeps_ids_stable() {
        let mut s = FactStore::new();
        let ids: Vec<FactId> = (0..1000)
            .map(|i| s.intern_fact(&Fact::from_parts("N", vec![cst(&format!("c{i}"))])))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                s.lookup_fact(&Fact::from_parts("N", vec![cst(&format!("c{i}"))])),
                Some(*id)
            );
        }
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn cross_store_copy_and_lookup() {
        let mut a = FactStore::new();
        let fa = a.intern_fact(&Fact::from_parts("E", vec![cst("x"), null(1)]));
        let mut b = FactStore::new();
        // Different interning history so the dictionaries disagree on ids.
        b.intern_fact(&Fact::from_parts("N", vec![cst("pad")]));
        let fb = b.intern_copied(&a, fa);
        assert_eq!(b.fact(fb), a.fact(fa));
        assert_eq!(b.lookup_copied(&a, fa), Some(fb));
        let other = a.intern_fact(&Fact::from_parts("E", vec![cst("y"), cst("x")]));
        assert_eq!(b.lookup_copied(&a, other), None);
    }

    #[test]
    fn term_dictionary_overflow_is_a_typed_error() {
        // Injected capacity of 2 terms: the third distinct term must fail with
        // the typed capacity error, and the panicking path must carry it.
        let mut s = FactStore::with_limits(2, u32::MAX);
        assert!(s
            .try_intern(Predicate::new("E", 2), &[cst("a"), cst("b")])
            .is_ok());
        let err = s
            .try_intern(Predicate::new("E", 2), &[cst("a"), cst("c")])
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::CapacityExhausted {
                resource: "term dictionary",
                capacity: 2
            }
        );
        assert!(err.to_string().contains("term dictionary"));
        // The failed intern left no partial fact behind.
        assert_eq!(s.len(), 1);
        assert_eq!(s.term_count(), 2);
        // Re-interning existing terms still works.
        assert!(s
            .try_intern(Predicate::new("E", 2), &[cst("b"), cst("a")])
            .is_ok());
    }

    #[test]
    fn fact_id_overflow_is_a_typed_error() {
        let mut s = FactStore::with_limits(u32::MAX, 1);
        assert!(s.try_intern(Predicate::new("N", 1), &[cst("a")]).is_ok());
        // Re-interning the same fact dedups and stays within capacity.
        assert!(s.try_intern(Predicate::new("N", 1), &[cst("a")]).is_ok());
        let err = s
            .try_intern(Predicate::new("N", 1), &[cst("b")])
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::CapacityExhausted {
                resource: "fact-id space",
                capacity: 1
            }
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn panicking_intern_carries_a_clear_message() {
        let mut s = FactStore::with_limits(1, u32::MAX);
        s.intern(Predicate::new("E", 2), &[cst("a"), cst("b")]);
    }

    #[test]
    fn with_capacity_presizes_the_dedup_table() {
        let mut s = FactStore::with_capacity(1, 1000, 1000);
        let table_before = s.footprint().table_bytes;
        for i in 0..1000 {
            s.intern(Predicate::new("N", 1), &[cst(&format!("c{i}"))]);
        }
        // No rehash doubling happened: the table was at its final size up front.
        assert_eq!(s.footprint().table_bytes, table_before);
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn footprint_reports_columnar_below_row_equivalent() {
        let mut s = FactStore::new();
        // Repeating terms: dictionary compression pays off.
        for i in 0..100 {
            s.intern(
                Predicate::new("E", 2),
                &[cst(&format!("c{}", i % 10)), cst(&format!("c{}", i % 7))],
            );
        }
        let fp = s.footprint();
        assert_eq!(fp.strip_bytes, s.arena_len() * 4 + s.len() * 4);
        assert_eq!(fp.dict_bytes, s.term_count() * 16);
        assert!(
            fp.columnar_bytes() < fp.row_equivalent_bytes,
            "columnar {} >= row {}",
            fp.columnar_bytes(),
            fp.row_equivalent_bytes
        );
    }

    #[test]
    fn mentions_checks_cells() {
        let mut s = FactStore::new();
        let id = s.intern_fact(&Fact::from_parts("E", vec![cst("a"), null(1)]));
        let a = s.term_id(cst("a")).unwrap();
        let n1 = s.term_id(null(1)).unwrap();
        assert!(s.mentions(id, a));
        assert!(s.mentions(id, n1));
        s.intern_fact(&Fact::from_parts("N", vec![cst("b")]));
        let b = s.term_id(cst("b")).unwrap();
        assert!(!s.mentions(id, b));
    }

    type RawParts = (
        Vec<Predicate>,
        Vec<GroundTerm>,
        Vec<(Vec<Vec<TermId>>, Vec<FactId>)>,
    );

    /// The parts of `s` as a snapshot carries them.
    fn raw_parts(s: &FactStore) -> RawParts {
        let strips = (0..s.predicate_count())
            .map(|p| {
                let pid = PredicateId(p as u32);
                let columns = (0..s.predicate(pid).arity)
                    .map(|i| s.column(pid, i).to_vec())
                    .collect();
                (columns, s.row_facts(pid).to_vec())
            })
            .collect();
        (s.predicate_list().to_vec(), s.dict_terms().to_vec(), strips)
    }

    /// `E/2` holds F0 = E(a, b) and F2 = E(b, η3), `N/1` holds F1 = N(η3) and
    /// `unit/0` holds F3; the dictionary is a, b, η3.
    fn snapshot_source() -> FactStore {
        let mut s = FactStore::new();
        s.intern_fact(&Fact::from_parts("E", vec![cst("a"), cst("b")]));
        s.intern_fact(&Fact::from_parts("N", vec![null(3)]));
        s.intern_fact(&Fact::from_parts("E", vec![cst("b"), null(3)]));
        s.intern_fact(&Fact::from_parts("unit", vec![]));
        s
    }

    /// Rebuilds the source image after `corrupt` and returns the error.
    fn rejected(corrupt: impl FnOnce(&mut RawParts)) -> String {
        let mut parts = raw_parts(&snapshot_source());
        corrupt(&mut parts);
        let (predicates, dict, strips) = parts;
        FactStore::from_raw_parts(predicates, dict, strips)
            .expect_err("the corrupt image is rejected")
    }

    #[test]
    fn a_valid_snapshot_image_rebuilds_the_same_lookups() {
        let mut src = snapshot_source();
        for i in 0..300 {
            src.intern(
                Predicate::new("E", 2),
                &[cst(&format!("v{}", i % 40)), null(i % 13)],
            );
        }
        let (predicates, dict, strips) = raw_parts(&src);
        let mut loaded = FactStore::from_raw_parts(predicates, dict, strips).unwrap();
        assert_eq!(loaded.len(), src.len());
        for id in (0..src.len() as u32).map(FactId) {
            let f = src.fact(id);
            assert_eq!(loaded.lookup_fact(&f), Some(id), "lookup of {f}");
            assert_eq!(loaded.fact(id), f);
            assert_eq!(loaded.lookup_copied(&src, id), Some(id));
        }
        for &t in src.dict_terms() {
            assert_eq!(loaded.term_id(t), src.term_id(t));
        }
        let absent = Fact::from_parts("E", vec![cst("a"), cst("a")]);
        assert_eq!(loaded.lookup_fact(&absent), None);
        // The rebuilt store keeps interning where the source left off.
        assert_eq!(loaded.intern_fact(&src.fact(FactId(2))), FactId(2));
        assert_eq!(loaded.intern_fact(&absent).0 as usize, src.len());
    }

    #[test]
    fn a_snapshot_with_a_strip_per_missing_predicate_is_rejected() {
        let err = rejected(|(_, _, strips)| strips.push((Vec::new(), Vec::new())));
        assert!(err.contains("strip count"), "{err}");
    }

    #[test]
    fn a_snapshot_with_a_repeated_predicate_is_rejected() {
        let err = rejected(|(predicates, _, strips)| {
            predicates.push(predicates[0]);
            strips.push((vec![Vec::new(); 2], Vec::new()));
        });
        assert!(err.contains("duplicate predicate"), "{err}");
    }

    #[test]
    fn a_snapshot_strip_of_the_wrong_arity_is_rejected() {
        let err = rejected(|(_, _, strips)| {
            strips[0].0.pop();
        });
        assert!(err.contains("arity 2 but 1 columns"), "{err}");
    }

    #[test]
    fn a_ragged_snapshot_strip_is_rejected() {
        let err = rejected(|(_, _, strips)| {
            strips[0].0[1].pop();
        });
        assert!(err.contains("ragged strip"), "{err}");
    }

    #[test]
    fn a_snapshot_cell_outside_the_dictionary_is_rejected() {
        let err = rejected(|(_, dict, strips)| strips[0].0[0][0] = TermId(dict.len() as u32));
        assert!(err.contains("outside the dictionary"), "{err}");
    }

    #[test]
    fn a_snapshot_fact_id_outside_the_fact_space_is_rejected() {
        let err = rejected(|(_, _, strips)| strips[1].1[0] = FactId(99));
        assert!(err.contains("outside the fact space"), "{err}");
    }

    #[test]
    fn a_snapshot_fact_id_on_two_rows_is_rejected() {
        let err = rejected(|(_, _, strips)| strips[1].1[0] = strips[0].1[0]);
        assert!(err.contains("assigned to two rows"), "{err}");
    }

    #[test]
    fn a_snapshot_dictionary_with_a_repeated_term_is_rejected() {
        let err = rejected(|(_, dict, _)| dict[1] = dict[0]);
        assert!(err.contains("duplicate dictionary term"), "{err}");
    }

    #[test]
    fn a_snapshot_with_a_repeated_fact_is_rejected() {
        // Rewrite F2 = E(b, η3) into a second copy of F0 = E(a, b).
        let err = rejected(|(_, _, strips)| {
            let columns = &mut strips[0].0;
            columns[0][1] = columns[0][0];
            columns[1][1] = columns[1][0];
        });
        assert!(err.contains("duplicates the fact"), "{err}");
    }
}
