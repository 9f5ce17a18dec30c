//! Instances: finite sets of facts backed by an interned, columnar [`FactStore`].
//!
//! An [`Instance`] owns a [`FactStore`] (dictionary-compressed column strips
//! interning every fact it has ever seen) and represents its fact set as a live
//! [`FactId`] set plus
//! per-predicate id lists. Membership, insertion and removal are integer-set
//! operations against interned ids — no `Fact` values are stored, cloned or hashed
//! on the hot paths. The legacy [`Fact`]-value API ([`Instance::insert`],
//! [`Instance::contains`], [`Instance::facts`], [`Instance::sorted_facts`], …)
//! remains as a thin view layer that interns/materialises at the boundary.
//!
//! Deliberately, an `Instance` maintains *no* per-(predicate, position) or per-null
//! indexes: those cost ~(arity + 2)× extra work and memory on every insert, which
//! most consumers never recoup. Join-heavy code opts into
//! [`IndexedInstance`](crate::index::IndexedInstance), and one-shot queries get a
//! [`PositionIndex`](crate::index::PositionIndex) built for the query by
//! [`HomomorphismSearch::new`](crate::homomorphism::HomomorphismSearch::new).

use crate::atom::{Fact, Predicate};
use crate::error::CoreError;
use crate::fact_store::{FactId, FactStore, PredicateId};
use crate::id_set::FactIdSet;
use crate::substitution::NullSubstitution;
use crate::term::{Constant, GroundTerm, NullValue};
use std::collections::BTreeSet;
use std::fmt;

/// A finite set of facts over constants and labeled nulls, stored as interned
/// [`FactId`]s over an owned [`FactStore`].
///
/// A *database* is an instance whose facts contain no labeled nulls
/// (see [`Instance::is_database`]).
#[derive(Clone, Default)]
pub struct Instance {
    store: FactStore,
    /// The facts currently present, as interned ids.
    live: FactIdSet,
    /// Per-predicate id lists (insertion order), indexed by `PredicateId`.
    by_predicate: Vec<Vec<FactId>>,
    next_null: u64,
}

impl Instance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Instance::default()
    }

    /// Creates an instance from an iterator of facts.
    pub fn from_facts<I: IntoIterator<Item = Fact>>(facts: I) -> Self {
        let mut inst = Instance::new();
        for f in facts {
            inst.insert(f);
        }
        inst
    }

    /// Creates an instance pre-sized for a bulk load — see
    /// [`FactStore::with_capacity`]. The live set and the per-predicate id lists
    /// are reserved alongside the store, so loading `facts` facts performs no
    /// rehash or reallocation doubling.
    pub fn with_capacity(predicates: usize, facts: usize, terms: usize) -> Self {
        Instance {
            store: FactStore::with_capacity(predicates, facts, terms),
            live: FactIdSet::with_capacity(facts),
            by_predicate: Vec::with_capacity(predicates),
            next_null: 0,
        }
    }

    /// The instance's arena-interned fact store (ids, term slices, rendering).
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// Mutable access to the store, for same-crate index maintenance
    /// ([`IndexedInstance`](crate::index::IndexedInstance)). Interning through it
    /// is safe (the store is append-only); liveness stays with the instance.
    pub(crate) fn store_mut(&mut self) -> &mut FactStore {
        &mut self.store
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Returns `true` iff the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Returns `true` iff the fact is present.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.store
            .lookup_fact(fact)
            .is_some_and(|id| self.live.contains(id))
    }

    /// Returns `true` iff the interned fact `id` is present.
    pub fn contains_id(&self, id: FactId) -> bool {
        self.live.contains(id)
    }

    /// The interned id of a *present* fact, or `None` if the fact is absent
    /// (never interned, or interned but removed).
    ///
    /// This is the id surface external fact-level bookkeeping (e.g. the support
    /// ledger of `chase_ivm`) resolves through: unlike
    /// [`FactStore::lookup_fact`], a tombstoned fact — interned once, since
    /// removed — does not resolve.
    pub fn id_of(&self, fact: &Fact) -> Option<FactId> {
        self.store
            .lookup_fact(fact)
            .filter(|&id| self.live.contains(id))
    }

    /// The interned id of a *present* fact given as predicate + terms
    /// (cross-store lookup; nothing is interned). See [`Instance::id_of`].
    pub fn id_of_parts(&self, predicate: Predicate, terms: &[GroundTerm]) -> Option<FactId> {
        self.store
            .lookup(predicate, terms)
            .filter(|&id| self.live.contains(id))
    }

    /// Returns `true` iff a fact with this predicate and these argument terms is
    /// present (cross-store containment check; nothing is interned).
    pub fn contains_parts(&self, predicate: Predicate, terms: &[GroundTerm]) -> bool {
        self.store
            .lookup(predicate, terms)
            .is_some_and(|id| self.live.contains(id))
    }

    /// Inserts a fact; returns `true` iff it was not already present.
    ///
    /// Inserting a fact that mentions a null with a label `≥` the internal null counter
    /// bumps the counter, so that [`Instance::fresh_null`] never collides.
    pub fn insert(&mut self, fact: Fact) -> bool {
        self.insert_full(fact).1
    }

    /// Inserts a fact, returning its interned id and whether it was new.
    pub fn insert_full(&mut self, fact: Fact) -> (FactId, bool) {
        let id = self.store.intern_fact(&fact);
        (id, self.insert_interned(id, &fact.terms))
    }

    /// Inserts a fact given as predicate + terms (no [`Fact`] value needed),
    /// returning its interned id and whether it was new.
    pub fn insert_parts(&mut self, predicate: Predicate, terms: &[GroundTerm]) -> (FactId, bool) {
        let id = self.store.intern(predicate, terms);
        (id, self.insert_interned(id, terms))
    }

    /// Bulk insertion: inserts every fact of `batch` in order, exactly as
    /// [`Instance::insert_parts`] per element would (same fact ids, same final
    /// state), and returns the number of facts that were not already present.
    /// On a capacity error the facts before the failing one stay inserted.
    /// Faster than that loop on a store larger than the caches: it prefetches
    /// the table slots of the facts ahead of the one it interns.
    pub fn try_extend_parts(
        &mut self,
        batch: &[(Predicate, &[GroundTerm])],
    ) -> Result<usize, CoreError> {
        // How many facts ahead of the one being interned to prefetch.
        const AHEAD: usize = 8;
        let mut added = 0;
        for (i, &(predicate, terms)) in batch.iter().enumerate() {
            if let Some(&(p, ts)) = batch.get(i + AHEAD) {
                self.store.prefetch_intern(p, ts);
            }
            let id = self.store.try_intern(predicate, terms)?;
            added += usize::from(self.insert_interned(id, terms));
        }
        Ok(added)
    }

    /// Bulk insertion ([`Instance::try_extend_parts`]) that panics on capacity
    /// exhaustion, mirroring [`Instance::insert_parts`].
    pub fn extend_parts(&mut self, batch: &[(Predicate, &[GroundTerm])]) -> usize {
        match self.try_extend_parts(batch) {
            Ok(added) => added,
            Err(e) => panic!("{e}"),
        }
    }

    /// Inserts a copy of the fact `id` of `src` (a *different* store), returning
    /// the local interned id and whether it was new. The copy translates
    /// dictionary cells directly — no `Fact` value or term vector is
    /// materialised.
    pub fn insert_copied(&mut self, src: &FactStore, id: FactId) -> (FactId, bool) {
        let local = self.store.intern_copied(src, id);
        (local, self.insert_id(local))
    }

    /// Inserts an already-interned fact by id; returns `true` iff it was new.
    pub fn insert_id(&mut self, id: FactId) -> bool {
        bump_past_nulls(&mut self.next_null, self.store.terms(id));
        self.make_live(id)
    }

    /// [`Instance::insert_id`] for a fact just interned from `terms`: the null
    /// allocator is bumped off the caller's terms, so the fact's cells are not
    /// read back through the dictionary, a random access on a large store.
    fn insert_interned(&mut self, id: FactId, terms: &[GroundTerm]) -> bool {
        bump_past_nulls(&mut self.next_null, terms.iter().copied());
        self.make_live(id)
    }

    /// Adds an interned fact to the live set and its predicate's id list;
    /// returns `true` iff it was not live yet.
    fn make_live(&mut self, id: FactId) -> bool {
        if self.live.insert(id) {
            let pid = self.store.predicate_id_of(id);
            if self.by_predicate.len() <= pid.0 as usize {
                self.by_predicate.resize_with(pid.0 as usize + 1, Vec::new);
            }
            self.by_predicate[pid.0 as usize].push(id);
            true
        } else {
            false
        }
    }

    /// Removes a fact; returns `true` iff it was present.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        match self.store.lookup_fact(fact) {
            Some(id) => self.remove_id(id),
            None => false,
        }
    }

    /// Removes an interned fact by id; returns `true` iff it was present.
    ///
    /// Removal is **tombstoning at the store level**: the id is evicted from the
    /// live set *and* from the dense per-predicate id list (so
    /// [`Instance::fact_ids`], [`Instance::ids_of`] and
    /// [`Instance::sorted_fact_ids`] agree immediately), but the fact stays
    /// interned in the append-only arena. Consequences external id-holders (the
    /// `chase_ivm` support ledger) rely on:
    ///
    /// * re-inserting the same fact later yields the **same id** (the arena's
    ///   dedup table survives removal), so retract-then-rederive round-trips
    ///   preserve identity;
    /// * a removed id still resolves through the *store*
    ///   ([`FactStore::fact`], [`FactStore::terms`]), so the removed fact's value
    ///   can be reconstructed — [`Instance::id_of`] is the live-checked lookup;
    /// * [`Instance::compact`] **re-issues ids** and must therefore never be
    ///   called while any external ledger still holds ids into this instance.
    pub fn remove_id(&mut self, id: FactId) -> bool {
        if self.live.remove(id) {
            let pid = self.store.predicate_id_of(id);
            if let Some(v) = self.by_predicate.get_mut(pid.0 as usize) {
                v.retain(|&f| f != id);
            }
            true
        } else {
            false
        }
    }

    /// Removes a batch of interned facts by id; returns how many were present
    /// (duplicates count once). Same semantics as [`Instance::remove_id`] per
    /// id, but each affected dense per-predicate list is swept **once per
    /// batch** instead of once per id — a large retraction is
    /// O(batch + affected lists), not O(batch × predicate list). The sweep
    /// tests each entry against the live bitset, which no longer holds the
    /// batch, and keeps the survivors in their insertion order.
    pub fn remove_ids(&mut self, ids: &[FactId]) -> usize {
        let mut removed = 0;
        let mut affected: Vec<PredicateId> = Vec::new();
        for &id in ids {
            if self.live.remove(id) {
                removed += 1;
                affected.push(self.store.predicate_id_of(id));
            }
        }
        affected.sort_unstable();
        affected.dedup();
        let live = &self.live;
        for pid in affected {
            if let Some(v) = self.by_predicate.get_mut(pid.0 as usize) {
                v.retain(|&f| live.contains(f));
            }
        }
        removed
    }

    /// Iterates over all facts (arbitrary order), materialising each from the arena.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.live.iter().map(|id| self.store.fact(id))
    }

    /// Iterates over the ids of all present facts, ascending: the order in which the
    /// store first interned them.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> + '_ {
        self.live.iter()
    }

    /// Ids of the facts of the given predicate, in insertion order (empty slice if
    /// none).
    pub fn ids_of(&self, predicate: Predicate) -> &[FactId] {
        match self.store.lookup_predicate(predicate) {
            Some(pid) => self.ids_of_pid(pid),
            None => &[],
        }
    }

    fn ids_of_pid(&self, pid: PredicateId) -> &[FactId] {
        self.by_predicate
            .get(pid.0 as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Facts of the given predicate, materialised from the arena in insertion order.
    pub fn facts_of(&self, predicate: Predicate) -> impl Iterator<Item = Fact> + '_ {
        self.ids_of(predicate).iter().map(|&id| self.store.fact(id))
    }

    /// All predicates with at least one fact.
    pub fn predicates(&self) -> impl Iterator<Item = Predicate> + '_ {
        self.by_predicate
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(i, _)| self.store.predicate(PredicateId(i as u32)))
    }

    /// All labeled nulls occurring in the instance.
    pub fn nulls(&self) -> BTreeSet<NullValue> {
        self.live
            .iter()
            .flat_map(|id| self.store.terms(id))
            .filter_map(|t| t.as_null())
            .collect()
    }

    /// All constants occurring in the instance.
    pub fn constants(&self) -> BTreeSet<Constant> {
        self.live
            .iter()
            .flat_map(|id| self.store.terms(id))
            .filter_map(|t| t.as_const())
            .collect()
    }

    /// Returns `true` iff no labeled null occurs (i.e. the instance is a database).
    pub fn is_database(&self) -> bool {
        self.live
            .iter()
            .all(|id| self.store.terms(id).iter().all(|t| t.is_const()))
    }

    /// Allocates a fresh labeled null, distinct from every null in the instance.
    pub fn fresh_null(&mut self) -> NullValue {
        let n = NullValue(self.next_null);
        self.next_null += 1;
        n
    }

    /// The restriction `J↓`: the facts that contain no labeled nulls.
    pub fn null_free_part(&self) -> Instance {
        let mut out = Instance::new();
        for id in self.live.iter() {
            if self.store.terms(id).iter().all(|t| t.is_const()) {
                out.insert_copied(&self.store, id);
            }
        }
        out
    }

    /// Applies a null substitution `γ` to every fact, i.e. computes `K γ`.
    ///
    /// The resulting instance may have fewer facts than `self` because distinct facts
    /// can collapse onto each other.
    pub fn apply_substitution(&self, gamma: &NullSubstitution) -> Instance {
        let mut out = self.clone();
        if !gamma.is_empty() {
            out.substitute_in_place_ids(gamma);
            // No ids escape this call, so compact away the dead history (the
            // rewritten-away facts plus whatever the clone inherited): loops that
            // substitute repeatedly through this value API — the naive chase's
            // EGD path — stay O(live facts) per step instead of accreting arena.
            out.compact();
        }
        out
    }

    /// Applies a null substitution `γ` in place, i.e. turns `self` into `K γ`, and
    /// returns the rewritten facts (the facts of `K γ` that arose from a fact of `K`
    /// mentioning the substituted null), in the order induced by the sorted
    /// pre-substitution facts.
    ///
    /// This is the [`Fact`]-value view over [`Instance::substitute_in_place_ids`];
    /// callers on the hot path (the trigger engine, the core chase) consume the id
    /// delta directly.
    pub fn substitute_in_place(&mut self, gamma: &NullSubstitution) -> Vec<Fact> {
        self.substitute_in_place_ids(gamma)
            .iter()
            .map(|&(_, new)| self.store.fact(new))
            .collect()
    }

    /// Applies a null substitution `γ` in place and returns the id delta: one
    /// `(old, new)` pair per rewritten fact, ordered by the sorted pre-substitution
    /// facts. The rewrite locates affected facts by scanning the live set; callers
    /// that substitute repeatedly against a large evolving instance should use
    /// [`IndexedInstance::substitute_in_place`](crate::index::IndexedInstance::substitute_in_place),
    /// whose per-null occurrence index finds them without a scan.
    pub fn substitute_in_place_ids(&mut self, gamma: &NullSubstitution) -> Vec<(FactId, FactId)> {
        let Some((null, _)) = gamma.mapping() else {
            return Vec::new();
        };
        // A null that was never interned occurs in no fact: nothing to rewrite.
        let Some(needle) = self.store.term_id(GroundTerm::Null(null)) else {
            return Vec::new();
        };
        let mut changed: Vec<FactId> = self
            .live
            .iter()
            .filter(|&id| self.store.mentions(id, needle))
            .collect();
        changed.sort_by(|&a, &b| self.store.compare(a, b));
        let mut delta = Vec::with_capacity(changed.len());
        for id in changed {
            self.remove_id(id);
            let new = self.store.intern_rewritten(id, gamma);
            self.insert_id(new);
            delta.push((id, new));
        }
        delta
    }

    /// Rebuilds the arena to contain exactly the live facts, dropping dead
    /// interning history (facts that were removed or rewritten away). Ids are
    /// re-issued; the labeled-null allocator state and the per-predicate
    /// insertion order are preserved.
    ///
    /// The store is append-only, so long-running remove/substitute-heavy loops
    /// (the core chase clones its instance every round) accumulate dead arena
    /// entries that every `clone` would otherwise keep copying; compacting resets
    /// the clone cost to O(live facts).
    ///
    /// The rebuild is strip-aware: the fresh store is pre-sized for exactly the
    /// live facts, and each live fact's cells are translated dictionary-id →
    /// dictionary-id through a memo table (one dictionary hash lookup per
    /// *distinct* surviving term; every further occurrence is a 4-byte array
    /// read) — no `GroundTerm` vectors or re-hashing of term values per fact.
    ///
    /// Compaction does not interact with snapshots on disk: a file written by
    /// [`Instance::save`] is a self-contained image carrying its own id space,
    /// so compacting (or otherwise mutating) this instance afterwards never
    /// invalidates a later [`Instance::load`] of that file. Only *in-memory* id
    /// holders are invalidated by the re-issue.
    pub fn compact(&mut self) {
        if self.store.len() == self.live.len() {
            return;
        }
        let mut fresh = Instance::with_capacity(
            self.store.predicate_count(),
            self.live.len(),
            self.store.term_count(),
        );
        let mut memo = vec![u32::MAX; self.store.term_count()];
        for list in &self.by_predicate {
            for &id in list {
                let new = fresh.store.intern_translated(&self.store, id, &mut memo);
                fresh.insert_id(new);
            }
        }
        fresh.next_null = self.next_null;
        *self = fresh;
    }

    /// Returns `true` iff `other` contains every fact of `self`.
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        self.live.iter().all(|id| {
            other
                .store
                .lookup_copied(&self.store, id)
                .is_some_and(|oid| other.live.contains(oid))
        })
    }

    /// Set-union of two instances.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        for id in other.live.iter() {
            out.insert_copied(&other.store, id);
        }
        out
    }

    /// Writes the instance to `path` as a versioned, checksummed binary
    /// snapshot — dictionary, column strips, live-id set and null-allocator
    /// state, each strip as one contiguous write. The full interning history is
    /// persisted (including tombstoned facts), so a loaded instance reproduces
    /// this one's [`FactId`] space exactly. See [`crate::persist`] for the
    /// format specification.
    pub fn save<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> Result<(), crate::persist::PersistError> {
        crate::persist::save(self, path.as_ref())
    }

    /// Reads an instance previously written by [`Instance::save`], validating
    /// the format version, structural invariants and the trailing checksum. The
    /// loaded instance is id-identical to the saved one: `sorted_fact_ids`,
    /// `Display` and all join results coincide.
    pub fn load<P: AsRef<std::path::Path>>(
        path: P,
    ) -> Result<Instance, crate::persist::PersistError> {
        crate::persist::load(path.as_ref())
    }

    /// The live id set (snapshot serialization).
    pub(crate) fn live_ids(&self) -> &FactIdSet {
        &self.live
    }

    /// The per-predicate id lists in `PredicateId` order (snapshot
    /// serialization; preserves insertion order across a save/load cycle).
    pub(crate) fn predicate_lists(&self) -> &[Vec<FactId>] {
        &self.by_predicate
    }

    /// The null-allocator state (snapshot serialization).
    pub(crate) fn next_null_state(&self) -> u64 {
        self.next_null
    }

    /// Reassembles an instance from deserialized snapshot parts. The caller
    /// ([`crate::persist`]) has validated that `live` and `by_predicate` agree
    /// and refer to interned ids of `store`.
    pub(crate) fn from_loaded_parts(
        store: FactStore,
        live: FactIdSet,
        by_predicate: Vec<Vec<FactId>>,
        next_null: u64,
    ) -> Instance {
        Instance {
            store,
            live,
            by_predicate,
            next_null,
        }
    }

    /// The present fact ids in the deterministic sorted-fact order.
    pub fn sorted_fact_ids(&self) -> Vec<FactId> {
        let mut v: Vec<FactId> = self.live.iter().collect();
        v.sort_by(|&a, &b| self.store.compare(a, b));
        v
    }

    /// A deterministic, sorted vector of the facts (useful for tests). Materialises
    /// every fact; displays and iteration should prefer
    /// [`Instance::sorted_fact_ids`] + the store.
    pub fn sorted_facts(&self) -> Vec<Fact> {
        self.sorted_fact_ids()
            .into_iter()
            .map(|id| self.store.fact(id))
            .collect()
    }
}

/// Raises the null allocator `next_null` past every labeled null in `terms`.
fn bump_past_nulls(next_null: &mut u64, terms: impl IntoIterator<Item = GroundTerm>) {
    for t in terms {
        if let GroundTerm::Null(n) = t {
            if n.0 >= *next_null {
                *next_null = n.0 + 1;
            }
        }
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.live.len() == other.live.len() && self.is_subinstance_of(other)
    }
}

impl Eq for Instance {}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.sorted_fact_ids().into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            self.store.fmt_fact(id, f)?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromIterator<Fact> for Instance {
    fn from_iter<T: IntoIterator<Item = Fact>>(iter: T) -> Self {
        Instance::from_facts(iter)
    }
}

impl Extend<Fact> for Instance {
    fn extend<T: IntoIterator<Item = Fact>>(&mut self, iter: T) {
        for f in iter {
            self.insert(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Constant, GroundTerm};

    fn cst(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }
    fn null(i: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(i))
    }

    #[test]
    fn extend_parts_matches_per_fact_inserts() {
        // 0-ary facts, nulls, three predicates, and duplicates both within the
        // batch and against a fact already in the instance.
        let (p, q, unit) = (
            Predicate::new("P", 2),
            Predicate::new("Q", 1),
            Predicate::new("unit", 0),
        );
        let mut batch: Vec<(Predicate, Vec<GroundTerm>)> = vec![
            (unit, vec![]),
            (p, vec![cst("a"), null(4)]),
            (q, vec![cst("a")]),
            (p, vec![cst("a"), null(4)]), // in-batch duplicate
            (q, vec![null(9)]),
            (q, vec![cst("seed")]), // duplicate of the seeded fact
        ];
        for i in 0..300 {
            batch.push((
                p,
                vec![cst(&format!("v{}", i % 200)), cst(&format!("v{}", i % 7))],
            ));
        }
        batch.push((unit, vec![]));
        let borrowed: Vec<(Predicate, &[GroundTerm])> =
            batch.iter().map(|(pr, ts)| (*pr, ts.as_slice())).collect();

        let seeded = |mut k: Instance| {
            k.insert_parts(q, &[cst("seed")]);
            k
        };
        let mut seq = seeded(Instance::new());
        let seq_ids: Vec<FactId> = batch
            .iter()
            .map(|(pr, ts)| seq.insert_parts(*pr, ts).0)
            .collect();

        let grown = seeded(Instance::new());
        let sized = seeded(Instance::with_capacity(3, batch.len(), 512));
        for mut bulk in [grown, sized] {
            assert_eq!(
                bulk.extend_parts(&borrowed),
                seq.len() - 1,
                "duplicates count once"
            );
            assert_eq!(bulk.extend_parts(&borrowed), 0, "idempotent");
            for ((pr, ts), &id) in batch.iter().zip(&seq_ids) {
                assert_eq!(
                    bulk.id_of_parts(*pr, ts),
                    Some(id),
                    "the id insert_parts gives"
                );
            }
            assert_eq!(bulk, seq);
            assert_eq!(bulk.sorted_fact_ids(), seq.sorted_fact_ids());
            for pr in [p, q, unit] {
                assert_eq!(bulk.ids_of(pr), seq.ids_of(pr));
            }
            // Terms enter the dictionary in first-occurrence order.
            assert_eq!(bulk.store().dict_terms(), seq.store().dict_terms());
            assert_eq!(
                bulk.fresh_null(),
                seq.clone().fresh_null(),
                "the bulk path bumps the null allocator past every batch null"
            );
        }

        // Capacity errors surface instead of wrapping.
        let mut tiny = Instance {
            store: FactStore::with_limits(8, 4),
            ..Instance::default()
        };
        assert!(matches!(
            tiny.try_extend_parts(&borrowed),
            Err(CoreError::CapacityExhausted { .. })
        ));
    }

    #[test]
    fn extend_parts_keeps_the_facts_before_a_capacity_error() {
        // Room for three facts: the fourth new fact of the batch fails.
        let mut k = Instance {
            store: FactStore::with_limits(u32::MAX, 3),
            ..Instance::default()
        };
        let p = Predicate::new("P", 1);
        let batch = [[null(5)], [cst("a")], [null(5)], [null(2)], [null(8)]];
        let borrowed: Vec<(Predicate, &[GroundTerm])> =
            batch.iter().map(|ts| (p, ts.as_slice())).collect();
        assert!(matches!(
            k.try_extend_parts(&borrowed),
            Err(CoreError::CapacityExhausted {
                resource: "fact-id space",
                ..
            })
        ));
        assert_eq!(k.len(), 3, "the facts before the failing one are live");
        for ts in &batch[..4] {
            assert!(k.contains_parts(p, ts));
        }
        assert!(!k.contains_parts(p, &batch[4]));
        assert_eq!(k.ids_of(p).len(), 3);
        assert_eq!(
            k.fresh_null(),
            NullValue(6),
            "the allocator skips their nulls"
        );
    }

    #[test]
    fn insert_is_idempotent() {
        let mut k = Instance::new();
        assert!(k.insert(Fact::from_parts("N", vec![cst("a")])));
        assert!(!k.insert(Fact::from_parts("N", vec![cst("a")])));
        assert_eq!(k.len(), 1);
        // The store interned the fact exactly once.
        assert_eq!(k.store().len(), 1);
    }

    #[test]
    fn facts_of_predicate_index() {
        let k = Instance::from_facts(vec![
            Fact::from_parts("N", vec![cst("a")]),
            Fact::from_parts("E", vec![cst("a"), cst("b")]),
            Fact::from_parts("E", vec![cst("b"), cst("c")]),
        ]);
        assert_eq!(k.ids_of(Predicate::new("E", 2)).len(), 2);
        assert_eq!(k.ids_of(Predicate::new("N", 1)).len(), 1);
        assert_eq!(k.ids_of(Predicate::new("M", 1)).len(), 0);
        assert_eq!(k.facts_of(Predicate::new("E", 2)).count(), 2);
    }

    #[test]
    fn remove_ids_matches_per_id_removal() {
        let facts: Vec<Fact> = (0..10)
            .map(|i| Fact::from_parts("E", vec![cst(&format!("a{i}")), cst(&format!("b{i}"))]))
            .chain((0..5).map(|i| Fact::from_parts("N", vec![cst(&format!("a{i}"))])))
            .collect();
        let mut batched = Instance::from_facts(facts.iter().cloned());
        let mut one_by_one = batched.clone();
        let mut targets: Vec<FactId> = facts
            .iter()
            .step_by(3)
            .map(|f| batched.id_of(f).expect("live"))
            .collect();
        targets.push(targets[0]); // duplicates count once
        targets.push(FactId(9999)); // unknown ids are skipped
        assert_eq!(batched.remove_ids(&targets), 5);
        let mut removed = 0;
        for &id in &targets {
            removed += usize::from(one_by_one.remove_id(id));
        }
        assert_eq!(removed, 5);
        assert_eq!(batched.len(), one_by_one.len());
        assert_eq!(batched.sorted_fact_ids(), one_by_one.sorted_fact_ids());
        for p in [Predicate::new("E", 2), Predicate::new("N", 1)] {
            assert_eq!(batched.ids_of(p), one_by_one.ids_of(p));
        }
        // Removing an already-removed batch is a no-op.
        assert_eq!(batched.remove_ids(&targets), 0);
    }

    #[test]
    fn remove_ids_keeps_insertion_order_through_scattered_churn() {
        // A `Vec` per predicate models the dense lists: removal keeps the
        // survivors' order, and a re-insert appends at the end.
        let preds = [Predicate::new("E", 2), Predicate::new("N", 1)];
        let fact = |i: usize| {
            let a = cst(&format!("a{i}"));
            if i.is_multiple_of(3) {
                Fact::from_parts("N", vec![a])
            } else {
                Fact::from_parts("E", vec![a, cst(&format!("b{i}"))])
            }
        };
        let mut k = Instance::new();
        let mut model: Vec<Vec<FactId>> = vec![Vec::new(); preds.len()];
        let slot = |f: &Fact| usize::from(f.predicate.arity == 1);
        for i in 0..200 {
            let f = fact(i);
            let (id, _) = k.insert_full(f.clone());
            model[slot(&f)].push(id);
        }
        for round in 0..6usize {
            // Scattered removals: a stride that changes every round, plus a
            // duplicate and an id that is already gone.
            let mut batch: Vec<FactId> = (0..200)
                .filter(|i| (i * 7 + round) % (3 + round) == 0)
                .filter_map(|i| k.id_of(&fact(i)))
                .collect();
            if let Some(&first) = batch.first() {
                batch.push(first);
            }
            let expected = batch.len() - usize::from(!batch.is_empty());
            assert_eq!(k.remove_ids(&batch), expected);
            for list in &mut model {
                list.retain(|id| !batch.contains(id));
            }
            // Re-insert every other removed fact: same id, appended last.
            for &id in batch.iter().step_by(2) {
                let f = k.store().fact(id);
                if k.insert_id(id) {
                    model[slot(&f)].push(id);
                }
            }
            for (p, list) in preds.iter().zip(&model) {
                assert_eq!(k.ids_of(*p), list.as_slice(), "round {round}");
            }
            assert_eq!(k.len(), model.iter().map(Vec::len).sum::<usize>());
        }
    }

    #[test]
    fn fresh_nulls_never_collide_with_inserted_nulls() {
        let mut k = Instance::new();
        k.insert(Fact::from_parts("E", vec![cst("a"), null(7)]));
        let n = k.fresh_null();
        assert!(n.0 > 7);
        let m = k.fresh_null();
        assert_ne!(n, m);
    }

    #[test]
    fn database_detection_and_null_free_part() {
        let mut k = Instance::new();
        k.insert(Fact::from_parts("N", vec![cst("a")]));
        assert!(k.is_database());
        k.insert(Fact::from_parts("E", vec![cst("a"), null(0)]));
        assert!(!k.is_database());
        let down = k.null_free_part();
        assert_eq!(down.len(), 1);
        assert!(down.is_database());
    }

    #[test]
    fn substitution_can_collapse_facts() {
        // {E(a, η1), E(a, a)} γ with γ = {η1/a} collapses to {E(a, a)}.
        let k = Instance::from_facts(vec![
            Fact::from_parts("E", vec![cst("a"), null(1)]),
            Fact::from_parts("E", vec![cst("a"), cst("a")]),
        ]);
        let gamma = NullSubstitution::single(NullValue(1), cst("a"));
        let j = k.apply_substitution(&gamma);
        assert_eq!(j.len(), 1);
        assert!(j.contains(&Fact::from_parts("E", vec![cst("a"), cst("a")])));
    }

    #[test]
    fn union_and_subinstance() {
        let a = Instance::from_facts(vec![Fact::from_parts("N", vec![cst("a")])]);
        let b = Instance::from_facts(vec![Fact::from_parts("N", vec![cst("b")])]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert!(a.is_subinstance_of(&u));
        assert!(b.is_subinstance_of(&u));
        assert!(!u.is_subinstance_of(&a));
    }

    #[test]
    fn remove_keeps_index_consistent() {
        let mut k = Instance::from_facts(vec![
            Fact::from_parts("E", vec![cst("a"), cst("b")]),
            Fact::from_parts("E", vec![cst("b"), cst("c")]),
        ]);
        let f = Fact::from_parts("E", vec![cst("a"), cst("b")]);
        assert!(k.remove(&f));
        assert!(!k.remove(&f));
        assert_eq!(k.ids_of(Predicate::new("E", 2)).len(), 1);
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn substitute_in_place_matches_apply_substitution() {
        let k = Instance::from_facts(vec![
            Fact::from_parts("E", vec![cst("a"), null(1)]),
            Fact::from_parts("E", vec![null(1), null(2)]),
            Fact::from_parts("E", vec![cst("a"), cst("a")]),
            Fact::from_parts("N", vec![cst("b")]),
        ]);
        let gamma = NullSubstitution::single(NullValue(1), cst("a"));
        let rebuilt = k.apply_substitution(&gamma);
        let mut in_place = k.clone();
        let rewritten = in_place.substitute_in_place(&gamma);
        assert_eq!(in_place, rebuilt);
        // Exactly the two facts mentioning η1 were rewritten.
        assert_eq!(rewritten.len(), 2);
        assert!(rewritten.contains(&Fact::from_parts("E", vec![cst("a"), cst("a")])));
        assert!(rewritten.contains(&Fact::from_parts("E", vec![cst("a"), null(2)])));
    }

    #[test]
    fn substitute_in_place_ids_report_the_delta() {
        let mut k = Instance::from_facts(vec![
            Fact::from_parts("E", vec![cst("a"), null(1)]),
            Fact::from_parts("N", vec![cst("b")]),
        ]);
        let old_id = k
            .store()
            .lookup_fact(&Fact::from_parts("E", vec![cst("a"), null(1)]));
        let delta = k.substitute_in_place_ids(&NullSubstitution::single(NullValue(1), cst("b")));
        assert_eq!(delta.len(), 1);
        assert_eq!(Some(delta[0].0), old_id);
        assert_eq!(
            k.store().fact(delta[0].1),
            Fact::from_parts("E", vec![cst("a"), cst("b")])
        );
        assert!(!k.contains_id(delta[0].0));
        assert!(k.contains_id(delta[0].1));
    }

    #[test]
    fn predicate_index_stays_consistent_after_in_place_substitution() {
        let mut k = Instance::from_facts(vec![
            Fact::from_parts("E", vec![cst("a"), null(1)]),
            Fact::from_parts("E", vec![cst("a"), cst("a")]),
        ]);
        let e = Predicate::new("E", 2);
        k.substitute_in_place(&NullSubstitution::single(NullValue(1), cst("a")));
        // The two facts collapsed: the index must agree on the single survivor.
        assert_eq!(k.len(), 1);
        assert_eq!(k.ids_of(e).len(), 1);
        assert!(k.nulls().is_empty());
    }

    #[test]
    fn repeated_null_occurrences_rewrite_once() {
        // E(η1, η1) mentions η1 twice; substitution must rewrite it exactly once.
        let mut k = Instance::from_facts(vec![Fact::from_parts("E", vec![null(1), null(1)])]);
        let rewritten = k.substitute_in_place(&NullSubstitution::single(NullValue(1), cst("a")));
        assert_eq!(
            rewritten,
            vec![Fact::from_parts("E", vec![cst("a"), cst("a")])]
        );
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn chained_in_place_substitutions() {
        // γ1 = {η1/η2} then γ2 = {η2/a}: the rewrite must track rewritten facts.
        let mut k = Instance::from_facts(vec![Fact::from_parts("E", vec![null(1), cst("b")])]);
        let r1 = k.substitute_in_place(&NullSubstitution::single(NullValue(1), null(2)));
        assert_eq!(r1, vec![Fact::from_parts("E", vec![null(2), cst("b")])]);
        let r2 = k.substitute_in_place(&NullSubstitution::single(NullValue(2), cst("a")));
        assert_eq!(r2, vec![Fact::from_parts("E", vec![cst("a"), cst("b")])]);
        assert!(k.nulls().is_empty());
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn empty_substitution_in_place_is_a_no_op() {
        let mut k = Instance::from_facts(vec![Fact::from_parts("E", vec![cst("a"), null(1)])]);
        let rewritten = k.substitute_in_place(&NullSubstitution::empty());
        assert!(rewritten.is_empty());
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn equality_ignores_null_counter_and_store_history() {
        let mut a = Instance::new();
        a.insert(Fact::from_parts("N", vec![cst("a")]));
        let mut b = Instance::new();
        b.fresh_null();
        // Interning history differs (b saw an extra fact that was removed again),
        // but equality is over the live fact sets.
        b.insert(Fact::from_parts("N", vec![cst("zzz")]));
        b.remove(&Fact::from_parts("N", vec![cst("zzz")]));
        b.insert(Fact::from_parts("N", vec![cst("a")]));
        assert_eq!(a, b);
    }

    #[test]
    fn constants_and_nulls_collection() {
        let k = Instance::from_facts(vec![Fact::from_parts("E", vec![cst("a"), null(3)])]);
        assert!(k.constants().contains(&Constant::new("a")));
        assert!(k.nulls().contains(&NullValue(3)));
    }

    #[test]
    fn compact_drops_dead_arena_history() {
        let mut k = Instance::new();
        k.insert(Fact::from_parts("E", vec![cst("a"), null(1)]));
        k.insert(Fact::from_parts("E", vec![cst("a"), cst("b")]));
        k.insert(Fact::from_parts("N", vec![cst("z")]));
        k.remove(&Fact::from_parts("N", vec![cst("z")]));
        k.substitute_in_place(&NullSubstitution::single(NullValue(1), cst("b")));
        // Arena holds 3 interned facts (the substitution image E(a, b) dedups
        // onto the already-interned fact), only 1 is live.
        assert_eq!(k.store().len(), 3);
        assert_eq!(k.len(), 1);
        let before = k.clone();
        k.compact();
        assert_eq!(k.store().len(), 1);
        assert_eq!(k, before);
        assert_eq!(k.ids_of(Predicate::new("E", 2)).len(), 1);
        // The null allocator still avoids every historical null.
        assert!(k.fresh_null().0 > 1);
        // Compacting a fully-live instance is a no-op.
        let mut d = Instance::from_facts(vec![Fact::from_parts("N", vec![cst("a")])]);
        d.compact();
        assert_eq!(d.store().len(), 1);
    }

    #[test]
    fn removal_evicts_the_id_from_every_iteration_surface() {
        // The tombstone contract of `remove_id`: the id disappears from the
        // live set, the per-predicate list and the sorted id list *together*,
        // so ledgers iterating any surface agree with membership.
        let mut k = Instance::from_facts(vec![
            Fact::from_parts("E", vec![cst("a"), cst("b")]),
            Fact::from_parts("E", vec![cst("b"), cst("c")]),
            Fact::from_parts("N", vec![cst("a")]),
        ]);
        let id = k
            .id_of(&Fact::from_parts("E", vec![cst("a"), cst("b")]))
            .unwrap();
        assert!(k.remove_id(id));
        assert!(!k.contains_id(id));
        assert!(k.fact_ids().all(|f| f != id));
        assert!(!k.ids_of(Predicate::new("E", 2)).contains(&id));
        assert!(!k.sorted_fact_ids().contains(&id));
        assert_eq!(k.ids_of(Predicate::new("E", 2)).len(), 1);
        assert_eq!(k.fact_ids().count(), 2);
        assert_eq!(k.sorted_fact_ids().len(), 2);
        // The live-checked lookup no longer resolves; the raw store still does.
        assert_eq!(
            k.id_of(&Fact::from_parts("E", vec![cst("a"), cst("b")])),
            None
        );
        assert_eq!(
            k.store()
                .lookup_fact(&Fact::from_parts("E", vec![cst("a"), cst("b")])),
            Some(id)
        );
    }

    #[test]
    fn compact_reissues_ids_removal_does_not() {
        // `remove_id` keeps surviving ids stable; `compact` re-issues them.
        // External ledgers may hold ids across removals but never across
        // compaction.
        let mut k = Instance::from_facts(vec![
            Fact::from_parts("N", vec![cst("a")]),
            Fact::from_parts("N", vec![cst("b")]),
        ]);
        let b = k.id_of(&Fact::from_parts("N", vec![cst("b")])).unwrap();
        k.remove(&Fact::from_parts("N", vec![cst("a")]));
        assert_eq!(k.id_of(&Fact::from_parts("N", vec![cst("b")])), Some(b));
        k.compact();
        // After compaction the fact is still present but its id was re-issued
        // from a fresh arena; the old id must not be trusted.
        let b_after = k.id_of(&Fact::from_parts("N", vec![cst("b")])).unwrap();
        assert_eq!(k.len(), 1);
        assert_ne!(b, b_after, "compaction re-issues ids from a fresh arena");
    }

    #[test]
    fn removed_facts_stay_interned_but_not_live() {
        let mut k = Instance::new();
        let (id, _) = k.insert_full(Fact::from_parts("N", vec![cst("a")]));
        k.remove_id(id);
        assert!(!k.contains_id(id));
        assert_eq!(k.store().len(), 1);
        // Re-inserting yields the same id.
        let (id2, new) = k.insert_full(Fact::from_parts("N", vec![cst("a")]));
        assert_eq!(id, id2);
        assert!(new);
    }
}
