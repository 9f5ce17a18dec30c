//! The support ledger: why each fact in a maintained model is there.
//!
//! A [`SupportRecord`] is written for every trigger key the chase fires — one
//! per applied TGD step, EGD substitution step, or EGD trigger whose images
//! were already equal (no step, but the key is consumed and must be tracked).
//! Because the (semi-)oblivious chase fires every key at most once and
//! *drops* duplicate-key triggers without deriving anything, the ledger is
//! **complete**: every derived fact in the model is the head of at least one
//! record, and a fact whose records all die and which is not in the base has
//! no derivation left.
//!
//! The ledger is the data structure behind DRed-style maintenance
//! (overdelete / rederive): `by_body` answers "which firings leaned on this
//! fact?", `by_head` answers "what still supports this fact?". All
//! [`FactId`]s refer to the maintaining engine's arena and are remapped in
//! place when an EGD substitution rewrites the instance
//! ([`SupportLedger::rewrite`]).

use chase_core::substitution::NullSubstitution;
use chase_core::{DepId, FactId, GroundTerm};
use std::collections::{HashMap, HashSet};

/// What kind of chase step a record witnesses. Retractions treat the kinds
/// differently: dead `Tgd` / `EgdNoop` records are locally rederivable, but a
/// dead `EgdSubst` record means a null-collapsing rewrite may no longer be
/// justified, and the whole materialization is replayed from the base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A TGD step: `heads` were added (fresh nulls included).
    Tgd,
    /// An EGD trigger whose equated images were already equal — no step, but
    /// the key fired and its support matters (it must re-fire if the body
    /// reappears after dying).
    EgdNoop,
    /// An EGD substitution step: a null was collapsed across the instance.
    EgdSubst,
}

/// One fired trigger key: the dependency, the key (images of the variant's
/// key variables), the body image that fired it, and every head fact id the
/// step produced (pre-existing head facts included — a support edge exists
/// whether or not the fact was new).
#[derive(Clone, Debug)]
pub struct SupportRecord {
    /// The dependency that fired.
    pub dep: DepId,
    /// The fired key, kept in sync with EGD substitutions while the body
    /// facts are live (every term of the key occurs in a body fact).
    pub key: Vec<GroundTerm>,
    /// The body image: one live fact id per body atom (at recording time).
    pub body: Vec<FactId>,
    /// All head fact ids (empty for EGD records).
    pub heads: Vec<FactId>,
    /// What kind of step this record witnesses.
    pub kind: RecordKind,
    /// Dead records lost a body fact; they either rederive (a fresh record
    /// replaces them) or their key is un-fired.
    pub alive: bool,
}

/// The record store plus its two id-keyed indexes. Records are append-only
/// and identified by index; death is a flag, not a removal, so indexes never
/// need compaction mid-batch.
#[derive(Clone, Debug, Default)]
pub struct SupportLedger {
    pub(crate) records: Vec<SupportRecord>,
    by_body: HashMap<FactId, Vec<usize>>,
    by_head: HashMap<FactId, Vec<usize>>,
}

impl SupportLedger {
    /// Total records ever written (dead ones included).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` iff no record was ever written.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records currently alive.
    pub fn alive_len(&self) -> usize {
        self.records.iter().filter(|r| r.alive).count()
    }

    /// The record at `idx` (indexes are stable; see [`SupportLedger::push`]).
    pub fn record(&self, idx: usize) -> &SupportRecord {
        &self.records[idx]
    }

    /// Appends a record, indexing its body and head ids, and returns its index.
    pub fn push(&mut self, record: SupportRecord) -> usize {
        let idx = self.records.len();
        for &id in &record.body {
            self.by_body.entry(id).or_default().push(idx);
        }
        for &id in &record.heads {
            self.by_head.entry(id).or_default().push(idx);
        }
        self.records.push(record);
        idx
    }

    /// Indexes of all records (alive or dead) whose body contains `id`.
    /// Returned by value because callers mutate the ledger while walking it.
    /// May contain duplicates after an EGD substitution merged two body facts.
    pub fn consumers_of(&self, id: FactId) -> Vec<usize> {
        self.by_body.get(&id).cloned().unwrap_or_default()
    }

    /// `true` iff some alive record lists `id` among its heads — i.e. the fact
    /// still has a derivation that survived the current overdeletion.
    pub fn has_alive_support(&self, id: FactId) -> bool {
        self.by_head
            .get(&id)
            .is_some_and(|v| v.iter().any(|&idx| self.records[idx].alive))
    }

    /// Remaps every indexed id through an EGD substitution's `(old, new)` id
    /// delta and applies `gamma` to the keys of the records it touches,
    /// keeping the ledger in the engine's current id space. A key's terms
    /// come from its record's body facts, so a key that mentions `gamma`'s
    /// null belongs to a record with a rewritten body fact: the work is the
    /// records the delta touches, not the whole ledger. Mirrors
    /// [`chase_engine::FiredKeys::apply_gamma`] for the fired-key sets.
    pub fn rewrite(&mut self, gamma: &NullSubstitution, delta: &[(FactId, FactId)]) {
        let map: HashMap<FactId, FactId> = delta.iter().copied().collect();
        let mut affected: HashSet<usize> = HashSet::new();
        for &(old, new) in delta {
            if let Some(v) = self.by_body.remove(&old) {
                affected.extend(v.iter().copied());
                self.by_body.entry(new).or_default().extend(v);
            }
            if let Some(v) = self.by_head.remove(&old) {
                affected.extend(v.iter().copied());
                self.by_head.entry(new).or_default().extend(v);
            }
        }
        for idx in affected {
            let rec = &mut self.records[idx];
            for t in rec.body.iter_mut() {
                if let Some(&n) = map.get(t) {
                    *t = n;
                }
            }
            for t in rec.heads.iter_mut() {
                if let Some(&n) = map.get(t) {
                    *t = n;
                }
            }
            for t in rec.key.iter_mut() {
                *t = gamma.apply_ground(*t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::{GroundTerm, NullValue};

    fn gt(n: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(n))
    }

    #[test]
    fn push_indexes_bodies_and_heads() {
        let mut ledger = SupportLedger::default();
        let idx = ledger.push(SupportRecord {
            dep: DepId(0),
            key: vec![gt(1)],
            body: vec![FactId(0), FactId(1)],
            heads: vec![FactId(2)],
            kind: RecordKind::Tgd,
            alive: true,
        });
        assert_eq!(ledger.consumers_of(FactId(0)), vec![idx]);
        assert_eq!(ledger.consumers_of(FactId(1)), vec![idx]);
        assert!(ledger.consumers_of(FactId(2)).is_empty());
        assert!(ledger.has_alive_support(FactId(2)));
        assert!(!ledger.has_alive_support(FactId(0)));
        ledger.records[idx].alive = false;
        assert!(!ledger.has_alive_support(FactId(2)));
        assert_eq!(ledger.alive_len(), 0);
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn rewrite_remaps_ids_and_keys() {
        let mut ledger = SupportLedger::default();
        ledger.push(SupportRecord {
            dep: DepId(0),
            key: vec![gt(7)],
            body: vec![FactId(3)],
            heads: vec![FactId(4)],
            kind: RecordKind::Tgd,
            alive: true,
        });
        let gamma = NullSubstitution::single(NullValue(7), gt(9));
        ledger.rewrite(&gamma, &[(FactId(3), FactId(5)), (FactId(4), FactId(6))]);
        let rec = ledger.record(0);
        assert_eq!(rec.body, vec![FactId(5)]);
        assert_eq!(rec.heads, vec![FactId(6)]);
        assert_eq!(rec.key, vec![gt(9)]);
        assert_eq!(ledger.consumers_of(FactId(5)), vec![0]);
        assert!(ledger.consumers_of(FactId(3)).is_empty());
        assert!(ledger.has_alive_support(FactId(6)));
        assert!(!ledger.has_alive_support(FactId(4)));
    }
}
