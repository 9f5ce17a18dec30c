//! Per-dependency key sets on flat rows that follow EGD substitutions.
//!
//! The trigger engine's discovery dedup and the (semi-)oblivious chase's
//! fired-key sets both hold, per dependency, a set of keys — images of some
//! body variables — that must be rewritten by every EGD substitution
//! `γ = {η/t}`.
//!
//! ## Row layout
//!
//! A dependency's keys all have the same length, its *stride*: its body
//! variables for the engine's dedup, its key variables for the fired keys. So
//! [`KeySets`] keeps each dependency's keys end to end in one
//! `Vec<GroundTerm>` (row `r` is `terms[r·stride..(r+1)·stride]`) and finds
//! them through an open-addressing table of `u32` row ids, each slot tagged
//! with its key's 32-bit hash so that a probe reads a row only on a tag
//! match, and a table that grows moves its slots without reading rows. No
//! key is a heap object of its own.
//!
//! ## One probe per test-and-insert
//!
//! [`KeySets::insert_iter`] writes the candidate key straight into the row it
//! would take and probes the table once: a hit leaves the set as it was, a
//! miss links the row. So "has this key been seen? if not, record it" costs
//! one hash and one probe sequence, and the caller reads the recorded key
//! back through [`KeySets::key`] instead of cloning it.
//!
//! ## Row reuse
//!
//! [`KeySets::remove`] unlinks a row (backward-shift deletion, so the table
//! keeps no tombstones) and puts it on a free list, which the next insertion
//! takes before it appends a row. The rows a dependency holds are therefore
//! never more than the most keys it held at once, however often keys are
//! un-fired and fired again.
//!
//! ## Substitutions
//!
//! A posting list from each labelled null to the `(dependency, row)` pairs
//! that mention it lets `γ` touch only the keys that mention `η` instead of
//! every key ever recorded. A rewrite happens in place: the row keeps its id,
//! so its postings under the key's other nulls stay good, and it is posted
//! under `γ`'s target only when that target is a null the key did not
//! already mention. A rewritten key equal to another merges into it and
//! frees its row.

use chase_core::hash::{FastMap, WordHasher};
use chase_core::substitution::NullSubstitution;
use chase_core::{DepId, GroundTerm, NullValue};
use std::hash::{Hash, Hasher};

/// From each labelled null to the `(dependency, row)` entries that mention it.
type Postings = FastMap<NullValue, Vec<(u32, u32)>>;

/// Per-dependency sets of ground-term keys on flat fixed-stride rows,
/// rewritten under EGD substitutions through a per-null index
/// ([`KeySets::apply_gamma`]). See the [module docs](self) for the layout.
#[derive(Clone, Debug)]
pub struct KeySets {
    sets: Vec<KeyRows>,
    /// The per-null index. Built at the first substitution, so a run without
    /// one (every run of an EGD-free Σ) never pays for it.
    ///
    /// Entries can go stale: [`KeySets::remove`], merges and rewrites leave
    /// them in place, and a freed row can be taken by another key.
    /// [`KeySets::apply_gamma`] skips an entry whose row is dead or no longer
    /// mentions the null it is posted under; a row posted twice under one
    /// null is rewritten at its first entry and skipped at the second, which
    /// no longer mentions the null. Stale entries are dropped once they
    /// outnumber the live ones.
    postings: Option<Postings>,
    /// Entries in `postings`, live or stale.
    entries: usize,
    /// Entries the live keys need: per key, the distinct nulls it mentions.
    live_entries: usize,
}

/// Stale entries tolerated before the index is compacted, beyond as many as
/// there are live ones; keeps tiny indexes from being compacted over and over.
const STALE_SLACK: usize = 64;

impl KeySets {
    /// Empty sets, one per dependency, whose keys have the given lengths.
    pub fn new(strides: impl IntoIterator<Item = usize>) -> Self {
        KeySets {
            sets: strides.into_iter().map(KeyRows::new).collect(),
            postings: None,
            entries: 0,
            live_entries: 0,
        }
    }

    /// `true` iff `key` is in `dep`'s set.
    pub fn contains(&self, dep: DepId, key: &[GroundTerm]) -> bool {
        let set = &self.sets[dep.0];
        set.check_stride(key.len());
        set.find(key).1.is_ok()
    }

    /// The number of keys in `dep`'s set.
    pub fn len(&self, dep: DepId) -> usize {
        self.sets[dep.0].len
    }

    /// `true` iff `dep`'s set is empty.
    pub fn is_empty(&self, dep: DepId) -> bool {
        self.len(dep) == 0
    }

    /// The rows `dep`'s set holds, live or free for reuse: never more than
    /// the most keys it held at once.
    pub fn rows_held(&self, dep: DepId) -> usize {
        self.sets[dep.0].live.len()
    }

    /// The key stored in `dep`'s row `row`, as [`KeySets::insert_iter`]
    /// returned it. Valid until the set is next changed.
    pub fn key(&self, dep: DepId, row: u32) -> &[GroundTerm] {
        self.sets[dep.0].row(row)
    }

    /// Adds the key whose terms `key` yields to `dep`'s set, with one probe:
    /// the row the key now has if it is new, `None` if it was already there.
    pub fn insert_iter(
        &mut self,
        dep: DepId,
        key: impl IntoIterator<Item = GroundTerm>,
    ) -> Option<u32> {
        let row = self.sets[dep.0].insert(key)?;
        if let Some(postings) = &mut self.postings {
            let posted = post(postings, dep, row, self.sets[dep.0].row(row));
            self.entries += posted;
            self.live_entries += posted;
        }
        Some(row)
    }

    /// Removes `key` from `dep`'s set, freeing its row for reuse; `false` if
    /// it was not there.
    pub fn remove(&mut self, dep: DepId, key: &[GroundTerm]) -> bool {
        let set = &mut self.sets[dep.0];
        set.check_stride(key.len());
        let Ok(slot) = set.find(key).1 else {
            return false;
        };
        let row = slot_row(set.slots[slot]);
        set.unlink_slot(slot);
        set.free(row);
        if self.postings.is_some() {
            self.live_entries -= distinct_nulls(key).count();
            self.compact_if_stale();
        }
        true
    }

    /// Rewrites every key that mentions `gamma`'s null, in every set, in
    /// place; keys that become equal merge into one. Returns the number of
    /// keys rewritten. Costs the keys that mention the null, not all keys
    /// (apart from building the index at the first substitution, and
    /// compactions amortised over the stale entries that prompt them).
    pub fn apply_gamma(&mut self, gamma: &NullSubstitution) -> usize {
        let Some((null, target)) = gamma.mapping() else {
            return 0;
        };
        if self.postings.is_none() {
            self.rebuild();
        }
        let replaced = GroundTerm::Null(null);
        let postings = self.postings.as_mut().expect("built above");
        let list = postings.remove(&null).unwrap_or_default();
        self.entries -= list.len();
        let mut rewritten = 0;
        for (dep, row) in list {
            let set = &mut self.sets[dep as usize];
            if !set.live[row as usize] || !set.row(row).contains(&replaced) {
                continue;
            }
            rewritten += 1;
            let key = set.row(row);
            let before = distinct_nulls(key).count();
            // The row's entries under its other nulls still name it; only
            // γ's target, if it is a null the key did not mention, needs one.
            let new_null = target
                .as_null()
                .filter(|_| !key.iter().any(|&t| t == target && t != replaced));
            let slot = set.find(key).1.expect("a live row is linked");
            set.unlink_slot(slot);
            for t in set.row_mut(row) {
                *t = gamma.apply_ground(*t);
            }
            match set.find(set.row(row)) {
                (_, Ok(_)) => {
                    // Equal to a key already there: the two merge.
                    set.free(row);
                    self.live_entries -= before;
                }
                (hash, Err(empty)) => {
                    set.slots[empty] = slot_entry(hash, row);
                    self.live_entries =
                        self.live_entries - before + distinct_nulls(set.row(row)).count();
                    if let Some(n) = new_null {
                        postings.entry(n).or_default().push((dep, row));
                        self.entries += 1;
                    }
                }
            }
        }
        self.compact_if_stale();
        rewritten
    }

    /// Compacts the index once stale entries outnumber live ones (plus
    /// [`STALE_SLACK`]), so retracting and re-inserting keys under a live
    /// null cannot grow it without bound. Compaction costs the entries it
    /// walks, at most about twice the stale ones it drops.
    fn compact_if_stale(&mut self) {
        if self.entries <= 2 * self.live_entries + STALE_SLACK {
            return;
        }
        let sets = &self.sets;
        let postings = self.postings.as_mut().expect("only counted once built");
        let mut entries = 0;
        postings.retain(|&null, list| {
            // Every live key is posted once under each null it mentions, so
            // dropping dead rows, rows that no longer mention the null and
            // duplicates leaves exactly the live entries.
            list.retain(|&(dep, row)| sets[dep as usize].mentions(row, null));
            list.sort_unstable();
            list.dedup();
            entries += list.len();
            !list.is_empty()
        });
        self.entries = entries;
    }

    /// Builds the index from the live keys.
    fn rebuild(&mut self) {
        let mut postings = Postings::default();
        let mut entries = 0;
        for (dep, set) in self.sets.iter().enumerate() {
            for row in 0..set.live.len() as u32 {
                if set.live[row as usize] {
                    entries += post(&mut postings, DepId(dep), row, set.row(row));
                }
            }
        }
        self.postings = Some(postings);
        self.entries = entries;
        self.live_entries = entries;
    }
}

/// One dependency's keys: fixed-stride rows end to end, an open-addressing
/// table over the live ones, and the free rows.
#[derive(Clone, Debug)]
struct KeyRows {
    stride: usize,
    /// Row `r` is `terms[r·stride..(r+1)·stride]`; a free row holds whatever
    /// it last held.
    terms: Vec<GroundTerm>,
    /// Per row, whether it holds a key of the set.
    live: Vec<bool>,
    /// Per slot, 0 if empty, else a live row's id + 1 in the low half and the
    /// low half of its key's hash in the high half (see [`slot_entry`]); a
    /// power of two long, or empty before the first insertion. At most half
    /// full.
    slots: Vec<u64>,
    /// Rows freed by removals and merges, taken before new rows are added.
    free: Vec<u32>,
    /// Live rows.
    len: usize,
}

impl KeyRows {
    fn new(stride: usize) -> Self {
        KeyRows {
            stride,
            terms: Vec::new(),
            live: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    fn check_stride(&self, len: usize) {
        assert_eq!(len, self.stride, "a key of the wrong length");
    }

    fn row(&self, row: u32) -> &[GroundTerm] {
        let start = row as usize * self.stride;
        &self.terms[start..start + self.stride]
    }

    fn row_mut(&mut self, row: u32) -> &mut [GroundTerm] {
        let start = row as usize * self.stride;
        &mut self.terms[start..start + self.stride]
    }

    /// `true` iff `row` is live and mentions `null`.
    fn mentions(&self, row: u32, null: NullValue) -> bool {
        self.live[row as usize] && self.row(row).contains(&GroundTerm::Null(null))
    }

    /// `key`'s hash, and the slot linking a row equal to `key` (`Ok`) or the
    /// empty slot where it would go (`Err`; the table must not be empty). A
    /// row is compared only when its slot's hash matches.
    fn find(&self, key: &[GroundTerm]) -> (u32, Result<usize, usize>) {
        let hash = row_hash(key);
        if self.slots.is_empty() {
            return (hash, Err(0));
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                0 => return (hash, Err(i)),
                entry if slot_hash(entry) == hash && self.row(slot_row(entry)) == key => {
                    return (hash, Ok(i));
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Writes the key into the row it would take, then probes once: its new
    /// row, or `None` if an equal key is there.
    fn insert(&mut self, key: impl IntoIterator<Item = GroundTerm>) -> Option<u32> {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let (row, appended) = match self.free.last() {
            Some(&row) => {
                let mut key = key.into_iter();
                for slot in self.row_mut(row) {
                    *slot = key.next().expect("a key of the wrong length");
                }
                assert!(key.next().is_none(), "a key of the wrong length");
                (row, false)
            }
            None => {
                let row = u32::try_from(self.live.len()).expect("fewer than 2^32 rows");
                let start = self.terms.len();
                self.terms.extend(key);
                self.check_stride(self.terms.len() - start);
                (row, true)
            }
        };
        match self.find(self.row(row)) {
            (_, Ok(_)) => {
                if appended {
                    self.terms.truncate(row as usize * self.stride);
                }
                None
            }
            (hash, Err(empty)) => {
                self.slots[empty] = slot_entry(hash, row);
                if appended {
                    self.live.push(true);
                } else {
                    self.free.pop();
                    self.live[row as usize] = true;
                }
                self.len += 1;
                Some(row)
            }
        }
    }

    /// Marks a row no longer linked as free.
    fn free(&mut self, row: u32) {
        self.live[row as usize] = false;
        self.free.push(row);
        self.len -= 1;
    }

    /// Empties `slot` and shifts the entries after it in its probe run back,
    /// so that every entry stays reachable from its home slot.
    fn unlink_slot(&mut self, slot: usize) {
        let mask = self.slots.len() - 1;
        let mut hole = slot;
        let mut j = slot;
        loop {
            j = (j + 1) & mask;
            let entry = self.slots[j];
            if entry == 0 {
                break;
            }
            let home = slot_hash(entry) as usize & mask;
            // The entry may move into the hole iff the hole lies on its probe
            // path, between its home and where it sits.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = entry;
                hole = j;
            }
        }
        self.slots[hole] = 0;
    }

    /// Doubles the table, placing every entry by the hash it carries.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![0; size]);
        let mask = self.slots.len() - 1;
        for entry in old.into_iter().filter(|&e| e != 0) {
            let mut i = slot_hash(entry) as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = entry;
        }
    }
}

/// The slot entry linking `row`, whose key hashes to `hash`.
fn slot_entry(hash: u32, row: u32) -> u64 {
    (u64::from(hash) << 32) | u64::from(row + 1)
}

fn slot_row(entry: u64) -> u32 {
    entry as u32 - 1
}

fn slot_hash(entry: u64) -> u32 {
    (entry >> 32) as u32
}

/// The low half of `key`'s hash: the table's home slots and slot tags.
fn row_hash(key: &[GroundTerm]) -> u32 {
    let mut h = WordHasher::default();
    for t in key {
        t.hash(&mut h);
    }
    h.finish() as u32
}

/// The distinct nulls `key` mentions, in order of first occurrence.
fn distinct_nulls(key: &[GroundTerm]) -> impl Iterator<Item = NullValue> + '_ {
    key.iter()
        .enumerate()
        .filter(|&(i, t)| !key[..i].contains(t))
        .filter_map(|(_, t)| t.as_null())
}

/// Posts `dep`'s row `row`, holding `key`, under each distinct null the key
/// mentions; returns the number of entries added.
fn post(postings: &mut Postings, dep: DepId, row: u32, key: &[GroundTerm]) -> usize {
    let dep = u32::try_from(dep.0).expect("fewer than 2^32 dependencies");
    let mut posted = 0;
    for n in distinct_nulls(key) {
        postings.entry(n).or_default().push((dep, row));
        posted += 1;
    }
    posted
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::Constant;

    fn gn(n: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(n))
    }

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }

    fn subst(n: u64, t: GroundTerm) -> NullSubstitution {
        NullSubstitution::single(NullValue(n), t)
    }

    #[test]
    fn a_key_over_two_nulls_follows_both_substitutions() {
        let d = DepId(0);
        let mut keys = KeySets::new([2]);
        keys.insert_iter(d, [gn(1), gn(2)]);
        assert_eq!(keys.apply_gamma(&subst(1, gc("c"))), 1);
        // The row kept its entry under η2, which the first γ left alone.
        assert_eq!(keys.apply_gamma(&subst(2, gc("e"))), 1);
        assert!(keys.contains(d, &[gc("c"), gc("e")]));
        assert!(!keys.contains(d, &[gc("c"), gn(2)]));
    }

    #[test]
    fn a_key_rewritten_onto_a_new_null_is_posted_under_it() {
        let d = DepId(0);
        let mut keys = KeySets::new([2]);
        keys.insert_iter(d, [gn(1), gc("a")]);
        assert_eq!(keys.apply_gamma(&subst(1, gn(2))), 1);
        assert_eq!(keys.apply_gamma(&subst(2, gc("c"))), 1);
        assert!(keys.contains(d, &[gc("c"), gc("a")]));
        assert_eq!(keys.len(d), 1);
    }

    #[test]
    fn one_probe_reports_the_new_row_and_a_hit_changes_nothing() {
        let d = DepId(0);
        let mut keys = KeySets::new([2]);
        let row = keys.insert_iter(d, [gc("a"), gn(1)]).expect("new");
        assert_eq!(keys.key(d, row), &[gc("a"), gn(1)]);
        assert_eq!(keys.insert_iter(d, [gc("a"), gn(1)]), None);
        assert_eq!((keys.len(d), keys.rows_held(d)), (1, 1));
    }

    #[test]
    fn a_removed_row_is_reused() {
        let d = DepId(0);
        let mut keys = KeySets::new([1]);
        for i in 0..100 {
            keys.insert_iter(d, [gn(i)]);
        }
        for round in 0..50u64 {
            for i in 0..100 {
                assert!(keys.remove(d, &[gn(i + 100 * round)]));
            }
            for i in 0..100 {
                assert!(keys.insert_iter(d, [gn(i + 100 * (round + 1))]).is_some());
            }
        }
        assert_eq!((keys.len(d), keys.rows_held(d)), (100, 100));
        assert!((0..100).all(|i| keys.contains(d, &[gn(i + 5000)])));
    }

    #[test]
    fn empty_keys_make_a_set_of_at_most_one() {
        let d = DepId(0);
        let mut keys = KeySets::new([0]);
        assert!(keys.insert_iter(d, []).is_some());
        assert!(keys.insert_iter(d, []).is_none());
        assert!(keys.contains(d, &[]));
        assert!(keys.remove(d, &[]));
        assert!(keys.is_empty(d));
        assert!(keys.insert_iter(d, []).is_some());
    }

    #[test]
    fn retracting_and_reinserting_under_a_live_null_keeps_the_index_bounded() {
        let d = DepId(0);
        let mut keys = KeySets::new([2]);
        keys.insert_iter(d, [gn(1), gc("a")]);
        keys.apply_gamma(&subst(9, gc("z")));
        for _ in 0..1000 {
            assert!(keys.remove(d, &[gn(1), gc("a")]));
            assert!(keys.insert_iter(d, [gn(1), gc("a")]).is_some());
        }
        assert!(keys.entries <= 2 * keys.live_entries + STALE_SLACK + 1);
        assert_eq!(keys.live_entries, 1);
        assert_eq!(
            keys.postings.as_ref().unwrap()[&NullValue(1)].len(),
            keys.entries
        );
        // The compacted index still finds the key.
        assert_eq!(keys.apply_gamma(&subst(1, gc("b"))), 1);
        assert!(keys.contains(d, &[gc("b"), gc("a")]));
        assert_eq!(keys.len(d), 1);
    }

    #[test]
    fn collapsing_keys_merge_and_removed_keys_stay_removed() {
        let d = DepId(0);
        let mut keys = KeySets::new([1, 1]);
        keys.insert_iter(d, [gn(1)]);
        keys.insert_iter(d, [gn(2)]);
        keys.insert_iter(DepId(1), [gn(1)]);
        // Build the index now, then retract a key: its entry goes stale.
        keys.apply_gamma(&subst(9, gc("z")));
        assert!(keys.remove(DepId(1), &[gn(1)]));
        assert_eq!(keys.apply_gamma(&subst(1, gn(2))), 1);
        assert!(keys.contains(d, &[gn(2)]));
        assert!(!keys.contains(d, &[gn(1)]));
        assert!(!keys.contains(DepId(1), &[gn(2)]));
        assert_eq!(keys.len(d), 1);
    }

    #[test]
    fn a_freed_row_taken_by_another_key_is_not_rewritten_through_its_old_entry() {
        let d = DepId(0);
        let mut keys = KeySets::new([1]);
        keys.insert_iter(d, [gn(1)]);
        keys.apply_gamma(&subst(9, gc("z")));
        // Row 0 is posted under η1; free it and give it a constant key.
        assert!(keys.remove(d, &[gn(1)]));
        assert!(keys.insert_iter(d, [gc("a")]).is_some());
        assert_eq!(keys.rows_held(d), 1);
        assert_eq!(keys.apply_gamma(&subst(1, gc("b"))), 0);
        assert!(keys.contains(d, &[gc("a")]));
    }
}
