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
//! fact?", `by_head` answers "what still supports this fact?". Both are
//! dense lists indexed by [`FactId`], which the engine's arena issues densely.
//! All ids refer to the maintaining engine's arena and are remapped in place
//! when an EGD substitution rewrites the instance ([`SupportLedger::rewrite`]).
//!
//! The ledger holds **one record per fired key**. A retraction kills records
//! mid-batch; before the batch ends, each dead record is either revived in
//! place with a fresh body or reclaimed when its key is un-fired, which frees
//! its slot for the next push. Between batches every held record is alive, so the ledger is as
//! large as the model's firings, not its history.

use chase_core::hash::{FastMap, FastSet};
use chase_core::substitution::NullSubstitution;
use chase_core::{DepId, FactId, GroundTerm};

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
    /// The body image: one live fact id per body atom (at recording time, or
    /// at the last revival).
    pub body: Vec<FactId>,
    /// All head fact ids (empty for EGD records).
    pub heads: Vec<FactId>,
    /// What kind of step this record witnesses.
    pub kind: RecordKind,
    /// Dead records lost a body fact; before their batch ends they are
    /// either revived with a fresh body or reclaimed with their key.
    pub alive: bool,
}

/// The record store plus its two id-indexed lists. A record's index is
/// stable while it is held; a reclaimed record's slot is reused by the next
/// [`SupportLedger::push`].
#[derive(Clone, Debug, Default)]
pub struct SupportLedger {
    records: Vec<SupportRecord>,
    /// Slots of reclaimed records, reused before the store grows.
    free: Vec<usize>,
    /// `by_body[id]`: the records whose body lists fact `id`.
    by_body: Vec<Vec<usize>>,
    /// `by_head[id]`: the records whose heads list fact `id`.
    by_head: Vec<Vec<usize>>,
}

/// The list of `id` in a dense id-indexed index, grown on demand.
fn entry(index: &mut Vec<Vec<usize>>, id: FactId) -> &mut Vec<usize> {
    let i = id.0 as usize;
    if index.len() <= i {
        index.resize_with(i + 1, Vec::new);
    }
    &mut index[i]
}

/// Drops every entry of record `idx` from the lists of `ids`.
fn unindex(index: &mut [Vec<usize>], ids: &[FactId], idx: usize) {
    for id in ids {
        if let Some(list) = index.get_mut(id.0 as usize) {
            list.retain(|&i| i != idx);
        }
    }
}

impl SupportLedger {
    /// Records held: every record written and not yet reclaimed. Between
    /// batches this equals [`SupportLedger::alive_len`].
    pub fn len(&self) -> usize {
        self.records.len() - self.free.len()
    }

    /// `true` iff no record is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records currently alive.
    pub fn alive_len(&self) -> usize {
        self.records.iter().filter(|r| r.alive).count()
    }

    /// The record at `idx` (indexes are stable while the record is held; see
    /// [`SupportLedger::push`]).
    pub fn record(&self, idx: usize) -> &SupportRecord {
        &self.records[idx]
    }

    /// Stores a record, indexing its body and head ids, and returns its
    /// index: the slot of a reclaimed record if there is one, else a new slot.
    pub fn push(&mut self, record: SupportRecord) -> usize {
        let idx = self.free.pop().unwrap_or(self.records.len());
        for &id in &record.body {
            entry(&mut self.by_body, id).push(idx);
        }
        for &id in &record.heads {
            entry(&mut self.by_head, id).push(idx);
        }
        if idx == self.records.len() {
            self.records.push(record);
        } else {
            self.records[idx] = record;
        }
        idx
    }

    /// Indexes of all held records (alive or dead) whose body contains `id`.
    /// May contain duplicates after an EGD substitution merged two body facts.
    pub fn consumers_of(&self, id: FactId) -> &[usize] {
        self.by_body
            .get(id.0 as usize)
            .map_or(&[], |list| list.as_slice())
    }

    /// `true` iff some alive record lists `id` among its heads — i.e. the fact
    /// still has a derivation that survived the current overdeletion.
    pub fn has_alive_support(&self, id: FactId) -> bool {
        self.by_head
            .get(id.0 as usize)
            .is_some_and(|v| v.iter().any(|&idx| self.records[idx].alive))
    }

    /// Kills every alive record whose body contains `id`: appends its index
    /// to `killed` and hands each of its heads to `head`.
    pub(crate) fn kill_consumers(
        &mut self,
        id: FactId,
        killed: &mut Vec<usize>,
        mut head: impl FnMut(FactId),
    ) {
        let Some(list) = self.by_body.get(id.0 as usize) else {
            return;
        };
        for &idx in list {
            let rec = &mut self.records[idx];
            if rec.alive {
                rec.alive = false;
                killed.push(idx);
                rec.heads.iter().copied().for_each(&mut head);
            }
        }
    }

    /// Brings the dead record at `idx` back to life with a fresh body image:
    /// same key, kind and heads, re-indexed under the new body.
    pub(crate) fn revive(&mut self, idx: usize, body: Vec<FactId>) {
        let old = std::mem::replace(&mut self.records[idx].body, body);
        unindex(&mut self.by_body, &old, idx);
        for &id in &self.records[idx].body {
            entry(&mut self.by_body, id).push(idx);
        }
        self.records[idx].alive = true;
    }

    /// Drops the dead record at `idx` (its key was un-fired): its index
    /// entries go, and its slot is reused by the next push.
    pub(crate) fn reclaim(&mut self, idx: usize) {
        let rec = &mut self.records[idx];
        debug_assert!(!rec.alive, "only dead records are reclaimed");
        let body = std::mem::take(&mut rec.body);
        let heads = std::mem::take(&mut rec.heads);
        rec.key = Vec::new();
        unindex(&mut self.by_body, &body, idx);
        unindex(&mut self.by_head, &heads, idx);
        self.free.push(idx);
    }

    /// Remaps every indexed id through an EGD substitution's `(old, new)` id
    /// delta and applies `gamma` to the keys of the records it touches,
    /// keeping the ledger in the engine's current id space. A key's terms
    /// come from its record's body facts, so a key that mentions `gamma`'s
    /// null belongs to a record with a rewritten body fact: the work is the
    /// records the delta touches, not the whole ledger. Mirrors
    /// [`chase_engine::FiredKeys::apply_gamma`] for the fired-key sets.
    pub fn rewrite(&mut self, gamma: &NullSubstitution, delta: &[(FactId, FactId)]) {
        let map: FastMap<FactId, FactId> = delta.iter().copied().collect();
        let mut affected: FastSet<usize> = FastSet::default();
        for &(old, new) in delta {
            for index in [&mut self.by_body, &mut self.by_head] {
                let moved = index
                    .get_mut(old.0 as usize)
                    .map(std::mem::take)
                    .unwrap_or_default();
                affected.extend(moved.iter().copied());
                entry(index, new).extend(moved);
            }
        }
        for idx in affected {
            let rec = &mut self.records[idx];
            for t in rec.body.iter_mut().chain(rec.heads.iter_mut()) {
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

    fn tgd_record(body: &[u32], heads: &[u32]) -> SupportRecord {
        SupportRecord {
            dep: DepId(0),
            key: vec![gt(1)],
            body: body.iter().map(|&i| FactId(i)).collect(),
            heads: heads.iter().map(|&i| FactId(i)).collect(),
            kind: RecordKind::Tgd,
            alive: true,
        }
    }

    #[test]
    fn revive_moves_the_record_to_its_new_body() {
        let mut ledger = SupportLedger::default();
        let other = ledger.push(tgd_record(&[1], &[3]));
        let idx = ledger.push(tgd_record(&[0, 1], &[2]));
        let mut killed = Vec::new();
        let mut heads = Vec::new();
        ledger.kill_consumers(FactId(0), &mut killed, |h| heads.push(h));
        assert_eq!((killed, heads), (vec![idx], vec![FactId(2)]));
        assert!(!ledger.has_alive_support(FactId(2)));

        ledger.revive(idx, vec![FactId(4), FactId(1)]);
        let rec = ledger.record(idx);
        assert!(rec.alive);
        assert_eq!(rec.body, vec![FactId(4), FactId(1)]);
        assert_eq!(
            (rec.key.clone(), rec.heads.clone()),
            (vec![gt(1)], vec![FactId(2)])
        );
        assert!(
            ledger.consumers_of(FactId(0)).is_empty(),
            "old body unlisted"
        );
        assert_eq!(ledger.consumers_of(FactId(4)), vec![idx]);
        assert_eq!(ledger.consumers_of(FactId(1)), vec![other, idx]);
        assert!(ledger.has_alive_support(FactId(2)));
        assert_eq!((ledger.len(), ledger.alive_len()), (2, 2));
    }

    #[test]
    fn reclaim_clears_every_entry_and_the_next_push_reuses_the_slot() {
        let mut ledger = SupportLedger::default();
        let keep = ledger.push(tgd_record(&[0], &[1]));
        let idx = ledger.push(tgd_record(&[0, 2], &[1, 3]));
        ledger.kill_consumers(FactId(2), &mut Vec::new(), |_| {});
        ledger.reclaim(idx);
        assert_eq!((ledger.len(), ledger.alive_len()), (1, 1));
        assert_eq!(ledger.consumers_of(FactId(0)), vec![keep]);
        assert!(ledger.consumers_of(FactId(2)).is_empty());
        assert!(ledger.by_head[3].is_empty(), "no head entry is left");
        assert_eq!(ledger.by_head[1], vec![keep]);
        assert!(ledger.has_alive_support(FactId(1)));
        assert!(!ledger.has_alive_support(FactId(3)));

        let reused = ledger.push(tgd_record(&[5], &[6]));
        assert_eq!(reused, idx, "the freed slot is reused");
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.consumers_of(FactId(5)), vec![idx]);
        assert!(ledger.has_alive_support(FactId(6)));
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
