//! Per-dependency key sets that follow EGD substitutions.
//!
//! The trigger engine's discovery dedup and the (semi-)oblivious chase's
//! fired-key sets both hold, per dependency, a set of keys — images of some
//! body variables — that must be rewritten by every EGD substitution
//! `γ = {η/t}`. [`KeySets`] keeps a posting list from each labelled null to
//! the keys that mention it, so `γ` touches only the keys that mention `η`
//! instead of every key ever recorded.

use chase_core::hash::{FastMap, FastSet};
use chase_core::substitution::NullSubstitution;
use chase_core::{DepId, GroundTerm, NullValue};

/// From each labelled null to the `(dependency, key)` entries that mention it.
type Postings = FastMap<NullValue, Vec<(DepId, Vec<GroundTerm>)>>;

/// Per-dependency sets of ground-term keys, rewritten under EGD substitutions
/// through a per-null index ([`KeySets::apply_gamma`]).
#[derive(Clone, Debug)]
pub struct KeySets {
    sets: Vec<FastSet<Vec<GroundTerm>>>,
    /// The per-null index. Built at the first substitution, so a run without
    /// one (every run of an EGD-free Σ) never pays for it.
    ///
    /// Entries can go stale: [`KeySets::remove`] and rewrites leave them in
    /// place, and [`KeySets::apply_gamma`] skips an entry whose key is no
    /// longer in its set. A stale entry whose key was inserted again names
    /// that live key, which does mention the null it is posted under, so
    /// rewriting it is right; the duplicate entry then fails the set lookup.
    /// Stale entries are dropped once they outnumber the live ones.
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
    /// Empty sets for `deps` dependencies.
    pub fn new(deps: usize) -> Self {
        KeySets {
            sets: vec![FastSet::default(); deps],
            postings: None,
            entries: 0,
            live_entries: 0,
        }
    }

    /// `true` iff `key` is in `dep`'s set.
    pub fn contains(&self, dep: DepId, key: &[GroundTerm]) -> bool {
        self.sets[dep.0].contains(key)
    }

    /// The number of keys in `dep`'s set.
    pub fn len(&self, dep: DepId) -> usize {
        self.sets[dep.0].len()
    }

    /// `true` iff `dep`'s set is empty.
    pub fn is_empty(&self, dep: DepId) -> bool {
        self.sets[dep.0].is_empty()
    }

    /// Adds `key` to `dep`'s set; `false` if it was already there.
    pub fn insert(&mut self, dep: DepId, key: Vec<GroundTerm>) -> bool {
        let set = &mut self.sets[dep.0];
        match &mut self.postings {
            None => set.insert(key),
            Some(_) if set.contains(&key) => false,
            Some(postings) => {
                let posted = post(postings, dep, &key);
                self.entries += posted;
                self.live_entries += posted;
                set.insert(key)
            }
        }
    }

    /// Removes `key` from `dep`'s set; `false` if it was not there.
    pub fn remove(&mut self, dep: DepId, key: &[GroundTerm]) -> bool {
        if !self.sets[dep.0].remove(key) {
            return false;
        }
        if self.postings.is_some() {
            self.live_entries -= distinct_nulls(key).count();
            self.compact_if_stale();
        }
        true
    }

    /// Rewrites every key that mentions `gamma`'s null, in every set; keys
    /// that become equal merge into one. Returns the number of keys
    /// rewritten. Costs the keys that mention the null, not all keys (apart
    /// from building the index at the first substitution, and compactions
    /// amortised over the stale entries that prompt them).
    pub fn apply_gamma(&mut self, gamma: &NullSubstitution) -> usize {
        let Some((null, _)) = gamma.mapping() else {
            return 0;
        };
        if self.postings.is_none() {
            self.rebuild();
        }
        let sets = &mut self.sets;
        let postings = self.postings.as_mut().expect("built above");
        let list = postings.remove(&null).unwrap_or_default();
        self.entries -= list.len();
        let mut rewritten = 0;
        for (dep, key) in list {
            if !sets[dep.0].remove(&key) {
                continue;
            }
            rewritten += 1;
            self.live_entries -= distinct_nulls(&key).count();
            let key: Vec<GroundTerm> = key.into_iter().map(|t| gamma.apply_ground(t)).collect();
            if !sets[dep.0].contains(&key) {
                // Re-post under every null the key still mentions, not only
                // under γ's target: its other nulls' entries went stale.
                let posted = post(postings, dep, &key);
                self.entries += posted;
                self.live_entries += posted;
                sets[dep.0].insert(key);
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
        postings.retain(|_, list| {
            // Every live key is posted once under each null it mentions, so
            // dropping dead keys and duplicates leaves exactly the live ones.
            list.retain(|(dep, key)| sets[dep.0].contains(key));
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
            for key in set {
                entries += post(&mut postings, DepId(dep), key);
            }
        }
        self.postings = Some(postings);
        self.entries = entries;
        self.live_entries = entries;
    }
}

/// The distinct nulls `key` mentions, in order of first occurrence.
fn distinct_nulls(key: &[GroundTerm]) -> impl Iterator<Item = NullValue> + '_ {
    key.iter()
        .enumerate()
        .filter(|&(i, t)| !key[..i].contains(t))
        .filter_map(|(_, t)| t.as_null())
}

/// Posts `key` under each distinct null it mentions; returns the number of
/// entries added.
fn post(postings: &mut Postings, dep: DepId, key: &[GroundTerm]) -> usize {
    let mut posted = 0;
    for n in distinct_nulls(key) {
        postings.entry(n).or_default().push((dep, key.to_vec()));
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
        let mut keys = KeySets::new(1);
        keys.insert(d, vec![gn(1), gn(2)]);
        assert_eq!(keys.apply_gamma(&subst(1, gc("c"))), 1);
        // The rewrite was re-posted under η2, which the first γ left alone.
        assert_eq!(keys.apply_gamma(&subst(2, gc("e"))), 1);
        assert!(keys.contains(d, &[gc("c"), gc("e")]));
        assert!(!keys.contains(d, &[gc("c"), gn(2)]));
    }

    #[test]
    fn retracting_and_reinserting_under_a_live_null_keeps_the_index_bounded() {
        let d = DepId(0);
        let mut keys = KeySets::new(1);
        keys.insert(d, vec![gn(1), gc("a")]);
        keys.apply_gamma(&subst(9, gc("z")));
        for _ in 0..1000 {
            assert!(keys.remove(d, &[gn(1), gc("a")]));
            assert!(keys.insert(d, vec![gn(1), gc("a")]));
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
        let mut keys = KeySets::new(2);
        keys.insert(d, vec![gn(1)]);
        keys.insert(d, vec![gn(2)]);
        keys.insert(DepId(1), vec![gn(1)]);
        // Build the index now, then retract a key: its entry goes stale.
        keys.apply_gamma(&subst(9, gc("z")));
        assert!(keys.remove(DepId(1), &[gn(1)]));
        assert_eq!(keys.apply_gamma(&subst(1, gn(2))), 1);
        assert!(keys.contains(d, &[gn(2)]));
        assert!(!keys.contains(d, &[gn(1)]));
        assert!(!keys.contains(DepId(1), &[gn(2)]));
    }
}
