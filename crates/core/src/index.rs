//! Position and null indexes over an instance's fact ids.
//!
//! A [`PositionIndex`] answers "which facts of `P` carry this ground term at
//! position `i`?" by lookup instead of scan: one bucket of [`FactId`]s per
//! (predicate, position, term), over the instance's arena (no fact is cloned
//! into it). It is the one candidate index of the join engine, filled in one of
//! two ways:
//!
//! * **per query** — [`PositionIndex::for_query`] builds the buckets of the
//!   predicates a query mentions over a plain [`Instance`], one column strip at a
//!   time; [`HomomorphismSearch::new`](crate::homomorphism::HomomorphismSearch::new)
//!   owns one;
//! * **maintained** — an [`IndexedInstance`] adds and removes each fact's entries
//!   as the instance changes, and
//!   [`HomomorphismSearch::over_index`](crate::homomorphism::HomomorphismSearch::over_index)
//!   borrows it; the trigger engine of `chase_trigger` joins through it.
//!
//! Either way a bucket lists its facts in the order of [`Instance::ids_of`]:
//! insertion order, with a removed fact that is inserted again at the end. The
//! one exception is [`IndexedInstance::from_instance`], which indexes a finished
//! instance in ascending ids.
//!
//! An [`IndexedInstance`] also keeps a per-null occurrence index, so an EGD
//! substitution rewrites only the facts that mention the substituted null and
//! reports the `(old, new)` id delta.
//!
//! Keeping the maintained indexes *off* [`Instance`] is deliberate: maintaining
//! them costs roughly `(arity + 2)×` extra work and memory per insert, which
//! consumers that never join through them (parsers, satisfaction checks on small
//! witness instances, the naive re-scan chase baseline) should not pay.

use crate::atom::{Atom, Fact, Predicate};
use crate::fact_store::{FactId, FactStore};
use crate::hash::{FastMap, FastSet};
use crate::homomorphism::Assignment;
use crate::instance::Instance;
use crate::substitution::NullSubstitution;
use crate::term::{GroundTerm, NullValue, Term};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-(predicate, position, term) buckets of fact ids, with the join's choice
/// of the smallest bucket for an atom. See the [module docs](self) for its two
/// fillings.
#[derive(Default)]
pub struct PositionIndex {
    buckets: FastMap<(Predicate, usize, GroundTerm), Vec<FactId>>,
    /// Number of bucket lookups served (diagnostics; lets tests assert that a
    /// caller routed through the index rather than a scan). Atomic so the
    /// counter does not cost the type its `Sync`-ness.
    probes: AtomicU64,
}

impl Clone for PositionIndex {
    fn clone(&self) -> Self {
        PositionIndex {
            buckets: self.buckets.clone(),
            probes: AtomicU64::new(self.probe_count()),
        }
    }
}

impl PositionIndex {
    /// Builds the buckets of the predicates `atoms` mention over `instance`.
    pub fn for_query(atoms: &[Atom], instance: &Instance) -> PositionIndex {
        let mut index = PositionIndex::default();
        let predicates: BTreeSet<Predicate> = atoms.iter().map(|a| a.predicate).collect();
        let store = instance.store();
        // Column-major build: one pass per (predicate, position) over that
        // position's contiguous strip — cache-linear, instead of striding
        // across every fact's full row.
        for p in predicates {
            let Some(pid) = store.lookup_predicate(p) else {
                continue;
            };
            for pos in 0..p.arity {
                let col = store.column(pid, pos);
                for &id in instance.ids_of(p) {
                    index.add(p, pos, store.term(col[store.row_of(id)]), id);
                }
            }
        }
        index
    }

    /// Appends the fact `id` to the bucket of `term` at `position` of
    /// `predicate`.
    fn add(&mut self, predicate: Predicate, position: usize, term: GroundTerm, id: FactId) {
        self.buckets
            .entry((predicate, position, term))
            .or_default()
            .push(id);
    }

    /// Removes the fact `id` from the bucket of `term` at `position` of
    /// `predicate`, dropping the bucket once it is empty.
    fn remove(&mut self, predicate: Predicate, position: usize, term: GroundTerm, id: FactId) {
        let key = (predicate, position, term);
        if let Some(v) = self.buckets.get_mut(&key) {
            v.retain(|&f| f != id);
            if v.is_empty() {
                self.buckets.remove(&key);
            }
        }
    }

    /// Ids of the facts of `predicate` carrying `term` at position `position`
    /// (empty slice if none).
    pub fn bucket(&self, predicate: Predicate, position: usize, term: GroundTerm) -> &[FactId] {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.buckets
            .get(&(predicate, position, term))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The candidate fact ids for `atom` under `assignment`: the smallest bucket
    /// among the atom's ground positions (a constant, a null, or a variable
    /// `assignment` binds), or every fact of the predicate in `instance` when no
    /// position is ground. The scan of positions stops at an empty bucket.
    ///
    /// Every fact the atom can map to is in the returned slice; unification
    /// still has to check the other positions.
    pub fn candidates<'a>(
        &'a self,
        instance: &'a Instance,
        atom: &Atom,
        assignment: &Assignment,
    ) -> &'a [FactId] {
        let mut best: Option<&[FactId]> = None;
        for (i, term) in atom.terms.iter().enumerate() {
            let ground = match term {
                Term::Const(c) => Some(GroundTerm::Const(*c)),
                Term::Null(n) => Some(GroundTerm::Null(*n)),
                Term::Var(v) => assignment.get(*v),
            };
            if let Some(g) = ground {
                let bucket = self.bucket(atom.predicate, i, g);
                if best.is_none_or(|b| bucket.len() < b.len()) {
                    best = Some(bucket);
                }
                if bucket.is_empty() {
                    break;
                }
            }
        }
        best.unwrap_or_else(|| instance.ids_of(atom.predicate))
    }

    /// Total number of bucket lookups served so far. Monotone counter; lets
    /// tests prove that an evaluation routed through the index.
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
}

/// An [`Instance`] plus a maintained [`PositionIndex`] and null index, both
/// holding [`FactId`]s into the instance's arena.
///
/// All mutation goes through [`IndexedInstance::insert`], [`IndexedInstance::remove`]
/// and [`IndexedInstance::substitute_in_place`], which keep the indexes consistent
/// with the underlying fact set.
///
/// ## Concurrent readers
///
/// `IndexedInstance` is `Send + Sync`, so a shared borrow can be handed to any
/// number of worker threads running joins at once; the round-parallel trigger
/// discovery of `chase_trigger` and `chase_engine` does exactly that. This is sound
/// because:
///
/// * the [`FactStore`] arena is append-only, and its read path (`&self`) touches no
///   interior mutability;
/// * the position and null indexes are only mutated through `&mut self`, and the
///   one counter read paths update, [`probe_count`](Self::probe_count), is atomic;
/// * the borrow rules out any mutation while it lives, including
///   [`Instance::compact`], which re-issues every [`FactId`]: every id below the
///   store's length stays valid for the borrow's lifetime.
#[derive(Clone, Default)]
pub struct IndexedInstance {
    instance: Instance,
    positions: PositionIndex,
    /// Ids of the facts mentioning each labeled null (each fact listed once per
    /// distinct null), so EGD substitution touches only the facts it rewrites.
    by_null: FastMap<NullValue, Vec<FactId>>,
}

impl IndexedInstance {
    /// Creates an empty indexed instance.
    pub fn new() -> Self {
        IndexedInstance::default()
    }

    /// Builds the indexes over `instance` (taking ownership, preserving its
    /// labeled-null allocator state and arena).
    ///
    /// Facts are indexed in [`Instance::fact_ids`] order, the order in which the
    /// instance first interned them. So join candidate enumeration, and any chase
    /// sequence built on it, follows the instance's insertion order, and not the
    /// process-global interning order of predicate and constant names, which other
    /// threads of the same process can change.
    pub fn from_instance(instance: Instance) -> Self {
        let mut out = IndexedInstance {
            instance,
            ..IndexedInstance::default()
        };
        let ids: Vec<FactId> = out.instance.fact_ids().collect();
        for id in ids {
            out.index_fact(id);
        }
        out
    }

    /// Records `id` in the position and null indexes (the single place the indexing
    /// scheme is defined; `from_instance`, `insert` and `substitute_in_place` all go
    /// through it). One pass over the fact's terms fills both: each term is read
    /// through the store's dictionary once.
    fn index_fact(&mut self, id: FactId) {
        let store = self.instance.store();
        let predicate = store.predicate_of(id);
        let terms = store.terms(id);
        for (i, t) in terms.iter().enumerate() {
            self.positions.add(predicate, i, t, id);
            // A null is listed once per fact: at its first position.
            if let GroundTerm::Null(n) = t {
                if !terms.iter().take(i).any(|u| u == t) {
                    self.by_null.entry(n).or_default().push(id);
                }
            }
        }
    }

    /// Removes `id` from the position and null indexes.
    fn unindex_fact(&mut self, id: FactId) {
        let store = self.instance.store();
        let predicate = store.predicate_of(id);
        for (i, t) in store.terms(id).iter().enumerate() {
            self.positions.remove(predicate, i, t, id);
            if let GroundTerm::Null(n) = t {
                if let Some(v) = self.by_null.get_mut(&n) {
                    v.retain(|&f| f != id);
                    if v.is_empty() {
                        self.by_null.remove(&n);
                    }
                }
            }
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The maintained position index.
    pub fn positions(&self) -> &PositionIndex {
        &self.positions
    }
    /// The arena-interned fact store behind the indexes.
    pub fn store(&self) -> &FactStore {
        self.instance.store()
    }

    /// Consumes the index, returning the instance.
    pub fn into_instance(self) -> Instance {
        self.instance
    }

    /// Number of stored facts.
    pub fn len(&self) -> usize {
        self.instance.len()
    }

    /// Returns `true` iff no fact is stored.
    pub fn is_empty(&self) -> bool {
        self.instance.is_empty()
    }

    /// Returns `true` iff the fact is stored.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.instance.contains(fact)
    }

    /// Allocates a labeled null distinct from every null in the stored facts.
    pub fn fresh_null(&mut self) -> NullValue {
        self.instance.fresh_null()
    }

    /// Ids of the facts of the given predicate (empty slice if none).
    pub fn ids_of(&self, predicate: Predicate) -> &[FactId] {
        self.instance.ids_of(predicate)
    }

    /// Inserts a fact, updating all indexes; returns `true` iff it was new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        self.insert_full(fact).1
    }

    /// Inserts a fact, updating all indexes; returns its interned id and whether it
    /// was new.
    pub fn insert_full(&mut self, fact: Fact) -> (FactId, bool) {
        let (id, new) = self.instance.insert_full(fact);
        if new {
            self.index_fact(id);
        }
        (id, new)
    }

    /// Inserts a fact given as predicate + terms, updating all indexes; returns its
    /// interned id and whether it was new.
    pub fn insert_parts(&mut self, predicate: Predicate, terms: &[GroundTerm]) -> (FactId, bool) {
        let (id, new) = self.instance.insert_parts(predicate, terms);
        if new {
            self.index_fact(id);
        }
        (id, new)
    }

    /// Inserts a copy of the fact `id` of `src` (a different store), updating all
    /// indexes; returns the local interned id and whether it was new. Cells are
    /// translated store-to-store — see [`Instance::insert_copied`].
    pub fn insert_copied(&mut self, src: &FactStore, id: FactId) -> (FactId, bool) {
        let (local, new) = self.instance.insert_copied(src, id);
        if new {
            self.index_fact(local);
        }
        (local, new)
    }

    /// Loads a database: every fact is re-interned into this instance's arena
    /// straight from the database's term slices (no [`Fact`] values), in
    /// [`Instance::fact_ids`] order, as in
    /// [`from_instance`](IndexedInstance::from_instance). Returns the ids of the
    /// newly inserted facts in insertion order: the initial delta. The one loading
    /// routine shared by the trigger engine and the round runner, so their round-0
    /// state cannot drift.
    pub fn insert_database(&mut self, database: &Instance) -> Vec<FactId> {
        let store = database.store();
        let mut fresh = Vec::new();
        for id in database.fact_ids() {
            let (new_id, new) = self.insert_copied(store, id);
            if new {
                fresh.push(new_id);
            }
        }
        fresh
    }

    /// Removes a fact, updating all indexes; returns `true` iff it was present.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        match self.instance.store().lookup_fact(fact) {
            Some(id) => self.remove_id(id),
            None => false,
        }
    }

    /// Removes an interned fact by id, updating all indexes; returns `true` iff it
    /// was present.
    pub fn remove_id(&mut self, id: FactId) -> bool {
        if !self.instance.remove_id(id) {
            return false;
        }
        self.unindex_fact(id);
        true
    }

    /// Removes a batch of facts by id; returns how many were present
    /// (duplicates count once). Delegates the dense-list maintenance to
    /// [`Instance::remove_ids`], which sweeps each affected per-predicate
    /// list once per batch instead of once per id.
    pub fn remove_ids(&mut self, ids: &[FactId]) -> usize {
        let mut seen: FastSet<FactId> = FastSet::default();
        let present: Vec<FactId> = ids
            .iter()
            .copied()
            .filter(|&id| self.instance.contains_id(id) && seen.insert(id))
            .collect();
        self.instance.remove_ids(&present);
        for &id in &present {
            self.unindex_fact(id);
        }
        present.len()
    }

    /// Applies a null substitution `γ` in place and returns the id delta: one
    /// `(old, new)` pair per rewritten fact (the facts of `K γ` that arose from a
    /// fact of `K` mentioning the substituted null).
    ///
    /// The null-occurrence index gives exactly the facts that mention the null, so
    /// the rewrite touches only those — the delta the incremental trigger engine
    /// re-seeds its search from.
    pub fn substitute_in_place(&mut self, gamma: &NullSubstitution) -> Vec<(FactId, FactId)> {
        let Some((null, _)) = gamma.mapping() else {
            return Vec::new();
        };
        let changed = self.by_null.remove(&null).unwrap_or_default();
        // One sweep of the per-predicate lists for the whole rewrite. No image
        // equals a removed fact (the images lack γ's null), so removing first
        // and appending the images afterwards leaves the lists in the order
        // per-fact removal would.
        self.instance.remove_ids(&changed);
        let mut delta = Vec::with_capacity(changed.len());
        for id in changed {
            // The fact's entry in `by_null[null]` is already gone; this clears
            // the position buckets and any other null lists it is on.
            self.unindex_fact(id);
            let new = self.instance.store_mut().intern_rewritten(id, gamma);
            if self.instance.insert_id(new) {
                self.index_fact(new);
            }
            delta.push((id, new));
        }
        delta
    }

    /// An upper bound on the number of candidates for `atom` under `assignment`
    /// (the length of [`PositionIndex::candidates`]' result), used to order join
    /// atoms most-selective-first.
    pub fn candidate_count(&self, atom: &Atom, assignment: &Assignment) -> usize {
        self.positions
            .candidates(&self.instance, atom, assignment)
            .len()
    }

    /// Total number of position-index lookups served so far (see
    /// [`PositionIndex::probe_count`]).
    pub fn probe_count(&self) -> u64 {
        self.positions.probe_count()
    }
}

impl fmt::Debug for IndexedInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IndexedInstance({:?})", self.instance)
    }
}

impl PartialEq for IndexedInstance {
    fn eq(&self, other: &Self) -> bool {
        self.instance == other.instance
    }
}

impl Eq for IndexedInstance {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{atom, cst as constant, var};
    use crate::homomorphism::Assignment;
    use crate::term::Constant;
    use crate::Variable;

    fn cst(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }
    fn null(i: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(i))
    }

    #[test]
    fn position_index_lookup() {
        let k = IndexedInstance::from_instance(Instance::from_facts(vec![
            Fact::from_parts("E", vec![cst("a"), cst("b")]),
            Fact::from_parts("E", vec![cst("a"), cst("c")]),
            Fact::from_parts("E", vec![cst("b"), cst("c")]),
        ]));
        let e = Predicate::new("E", 2);
        let ix = k.positions();
        assert_eq!(ix.bucket(e, 0, cst("a")).len(), 2);
        assert_eq!(ix.bucket(e, 1, cst("c")).len(), 2);
        assert_eq!(ix.bucket(e, 0, cst("c")).len(), 0);
        assert_eq!(ix.bucket(e, 1, cst("z")).len(), 0);
        assert!(k.probe_count() >= 4);
        // Join candidates: the smallest bucket among bound positions and
        // constants, or the whole predicate when nothing is bound.
        let (x, y) = (Variable::new("x"), Variable::new("y"));
        let e_xy = atom("E", vec![var("x"), var("y")]);
        assert_eq!(
            ix.candidates(k.instance(), &e_xy, &Assignment::new()).len(),
            3
        );
        let h = Assignment::from_pairs([(x, cst("b"))]);
        assert_eq!(ix.candidates(k.instance(), &e_xy, &h).len(), 1);
        let h = Assignment::from_pairs([(y, cst("b"))]);
        assert_eq!(ix.candidates(k.instance(), &e_xy, &h).len(), 1);
        let a_y = atom("E", vec![constant("a"), var("y")]);
        assert_eq!(
            ix.candidates(k.instance(), &a_y, &Assignment::new()).len(),
            2
        );
        let z_y = atom("E", vec![constant("z"), var("y")]);
        assert!(ix
            .candidates(k.instance(), &z_y, &Assignment::new())
            .is_empty());
    }

    #[test]
    fn position_index_stays_consistent_after_remove() {
        let mut k = IndexedInstance::new();
        k.insert(Fact::from_parts("E", vec![cst("a"), cst("b")]));
        k.insert(Fact::from_parts("E", vec![cst("a"), cst("c")]));
        let e = Predicate::new("E", 2);
        let a_b = Fact::from_parts("E", vec![cst("a"), cst("b")]);
        let id = k.instance().id_of(&a_b).expect("stored");
        k.remove(&a_b);
        assert_eq!(k.positions().bucket(e, 0, cst("a")).len(), 1);
        assert_eq!(k.positions().bucket(e, 1, cst("b")).len(), 0);
        assert!(!k.remove_id(id), "a removed fact stays removed");
        assert_eq!(k.instance().id_of(&a_b), None);
        // The arena keeps the interning: a re-insert gets the same id back.
        assert_eq!(k.insert_full(a_b), (id, true));
        assert_eq!(k.positions().bucket(e, 1, cst("b")), &[id]);
    }

    #[test]
    fn substitute_in_place_matches_apply_substitution() {
        let base = Instance::from_facts(vec![
            Fact::from_parts("E", vec![cst("a"), null(1)]),
            Fact::from_parts("E", vec![null(1), null(2)]),
            Fact::from_parts("E", vec![cst("a"), cst("a")]),
            Fact::from_parts("N", vec![cst("b")]),
        ]);
        let gamma = NullSubstitution::single(NullValue(1), cst("a"));
        let rebuilt = base.apply_substitution(&gamma);
        let mut indexed = IndexedInstance::from_instance(base);
        let delta = indexed.substitute_in_place(&gamma);
        assert_eq!(indexed.instance(), &rebuilt);
        // Exactly the two facts mentioning η1 were rewritten.
        assert_eq!(delta.len(), 2);
        let rewritten: Vec<Fact> = delta
            .iter()
            .map(|&(_, new)| indexed.store().fact(new))
            .collect();
        assert!(rewritten.contains(&Fact::from_parts("E", vec![cst("a"), cst("a")])));
        assert!(rewritten.contains(&Fact::from_parts("E", vec![cst("a"), null(2)])));
    }

    #[test]
    fn indexes_stay_consistent_after_in_place_substitution() {
        let mut k = IndexedInstance::new();
        let (old, _) = k.insert_full(Fact::from_parts("E", vec![cst("a"), null(1)]));
        let (survivor, _) = k.insert_full(Fact::from_parts("E", vec![cst("a"), cst("a")]));
        let e = Predicate::new("E", 2);
        let delta = k.substitute_in_place(&NullSubstitution::single(NullValue(1), cst("a")));
        // The rewrite lands on the stored fact and reports its id.
        assert_eq!(delta, vec![(old, survivor)]);
        // The two facts collapsed: every index must agree on the single survivor.
        assert_eq!(k.len(), 1);
        assert_eq!(k.ids_of(e).len(), 1);
        assert_eq!(k.positions().bucket(e, 0, cst("a")).len(), 1);
        assert_eq!(k.positions().bucket(e, 1, cst("a")).len(), 1);
        assert_eq!(k.positions().bucket(e, 1, null(1)).len(), 0);
        assert!(k.instance().nulls().is_empty());
    }

    #[test]
    fn repeated_null_occurrences_are_indexed_once() {
        // E(η1, η1) mentions η1 twice; substitution must rewrite it exactly once.
        let mut k = IndexedInstance::new();
        k.insert(Fact::from_parts("E", vec![null(1), null(1)]));
        let delta = k.substitute_in_place(&NullSubstitution::single(NullValue(1), cst("a")));
        assert_eq!(delta.len(), 1);
        assert_eq!(
            k.store().fact(delta[0].1),
            Fact::from_parts("E", vec![cst("a"), cst("a")])
        );
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn chained_in_place_substitutions() {
        // γ1 = {η1/η2} then γ2 = {η2/a}: the null index must track rewritten facts.
        let mut k = IndexedInstance::new();
        k.insert(Fact::from_parts("E", vec![null(1), cst("b")]));
        let r1 = k.substitute_in_place(&NullSubstitution::single(NullValue(1), null(2)));
        assert_eq!(r1.len(), 1);
        assert_eq!(
            k.store().fact(r1[0].1),
            Fact::from_parts("E", vec![null(2), cst("b")])
        );
        let r2 = k.substitute_in_place(&NullSubstitution::single(NullValue(2), cst("a")));
        assert_eq!(r2.len(), 1);
        assert_eq!(
            k.store().fact(r2[0].1),
            Fact::from_parts("E", vec![cst("a"), cst("b")])
        );
        assert!(k.instance().nulls().is_empty());
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn empty_substitution_in_place_is_a_no_op() {
        let mut k = IndexedInstance::new();
        k.insert(Fact::from_parts("E", vec![cst("a"), null(1)]));
        let delta = k.substitute_in_place(&NullSubstitution::empty());
        assert!(delta.is_empty());
        assert_eq!(k.len(), 1);
    }

    /// Workers share the store and the index through a plain shared borrow.
    #[test]
    fn store_and_index_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FactStore>();
        assert_send_sync::<IndexedInstance>();
        assert_send_sync::<Instance>();
    }

    #[test]
    fn concurrent_readers_share_one_borrow() {
        let mut indexed = IndexedInstance::new();
        for i in 0..64 {
            indexed.insert(Fact::from_parts(
                "E",
                vec![cst(&format!("v{i}")), cst(&format!("v{}", i + 1))],
            ));
        }
        let indexed = &indexed;
        let atoms = vec![atom("E", vec![var("x"), var("y")])];
        let atoms = &atoms;
        let counts: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        let mut n = 0usize;
                        crate::HomomorphismSearch::over_index(atoms, indexed)
                            .for_each_extending::<()>(&Assignment::new(), &mut |_| {
                                n += 1;
                                std::ops::ControlFlow::Continue(())
                            });
                        n
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts, vec![64; 4]);
    }
}
