//! `KeySets` against a model: one `HashSet<Vec<GroundTerm>>` per dependency.
//!
//! Seeded random sequences of `insert`, `contains`, `remove` and `apply_gamma`
//! run on both, over dependencies of several strides, with keys that mix nulls
//! and constants. Substitutions often map a null onto another live null, so
//! chains `η1 ↦ η2 ↦ c` form and rewritten keys merge. After every operation
//! the answers and the set sizes must agree, and every few operations every
//! model key must be found.
//!
//! A second test removes keys and inserts new ones over and over, and checks
//! that the rows a set holds stay within its live keys.

use chase_core::substitution::NullSubstitution;
use chase_core::{Constant, DepId, GroundTerm, NullValue};
use chase_trigger::KeySets;
use std::collections::HashSet;

/// SplitMix64: a small seeded generator, enough to drive the sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const STRIDES: [usize; 5] = [0, 1, 2, 3, 5];
const CONSTANTS: [&str; 4] = ["a", "b", "c", "d"];

/// The model: per dependency, the set of keys.
struct Model {
    sets: Vec<HashSet<Vec<GroundTerm>>>,
}

impl Model {
    /// Rewrites every key through `γ`, merging equal ones; the number of keys
    /// that mentioned its null.
    fn apply_gamma(&mut self, gamma: &NullSubstitution) -> usize {
        let (null, _) = gamma.mapping().expect("a single substitution");
        let mut rewritten = 0;
        for set in &mut self.sets {
            *set = set
                .drain()
                .map(|key| {
                    if key.contains(&GroundTerm::Null(null)) {
                        rewritten += 1;
                    }
                    key.into_iter().map(|t| gamma.apply_ground(t)).collect()
                })
                .collect();
        }
        rewritten
    }
}

/// The nulls the run may still mention: a substituted null is never mentioned
/// again, as in a chase.
struct Nulls {
    live: Vec<u64>,
    next: u64,
}

impl Nulls {
    fn pick(&mut self, rng: &mut Rng) -> u64 {
        if self.live.is_empty() || rng.below(8) == 0 {
            self.live.push(self.next);
            self.next += 1;
        }
        self.live[rng.below(self.live.len())]
    }
}

fn random_key(rng: &mut Rng, nulls: &mut Nulls, stride: usize) -> Vec<GroundTerm> {
    (0..stride)
        .map(|_| {
            if rng.below(2) == 0 {
                GroundTerm::Null(NullValue(nulls.pick(rng)))
            } else {
                GroundTerm::Const(Constant::new(CONSTANTS[rng.below(CONSTANTS.len())]))
            }
        })
        .collect()
}

fn run_sequence(seed: u64, ops: usize) {
    let mut rng = Rng(seed);
    let mut keys = KeySets::new(STRIDES);
    let mut model = Model {
        sets: vec![HashSet::new(); STRIDES.len()],
    };
    let mut nulls = Nulls {
        live: Vec::new(),
        next: 1,
    };
    for op in 0..ops {
        let d = rng.below(STRIDES.len());
        let dep = DepId(d);
        let stride = STRIDES[d];
        match rng.below(10) {
            0..=3 => {
                let key = random_key(&mut rng, &mut nulls, stride);
                let new = model.sets[d].insert(key.clone());
                match keys.insert_iter(dep, key.iter().copied()) {
                    Some(row) => {
                        assert!(new, "seed {seed} op {op}: insert of a known key");
                        assert_eq!(keys.key(dep, row), &key[..], "seed {seed} op {op}");
                    }
                    None => assert!(!new, "seed {seed} op {op}: insert missed a new key"),
                }
            }
            4 | 5 => {
                let key = random_key(&mut rng, &mut nulls, stride);
                assert_eq!(
                    keys.contains(dep, &key),
                    model.sets[d].contains(&key),
                    "seed {seed} op {op}: contains {key:?}"
                );
            }
            6 | 7 => {
                // Mostly a key that is there, sometimes any key.
                let key = if model.sets[d].is_empty() || rng.below(4) == 0 {
                    random_key(&mut rng, &mut nulls, stride)
                } else {
                    let mut all: Vec<_> = model.sets[d].iter().cloned().collect();
                    all.sort();
                    all.swap_remove(rng.below(all.len()))
                };
                assert_eq!(
                    keys.remove(dep, &key),
                    model.sets[d].remove(&key),
                    "seed {seed} op {op}: remove {key:?}"
                );
            }
            _ => {
                if nulls.live.is_empty() {
                    continue;
                }
                let i = rng.below(nulls.live.len());
                let null = nulls.live.swap_remove(i);
                // Onto another live null half the time: chains form.
                let target = if !nulls.live.is_empty() && rng.below(2) == 0 {
                    GroundTerm::Null(NullValue(nulls.live[rng.below(nulls.live.len())]))
                } else {
                    GroundTerm::Const(Constant::new(CONSTANTS[rng.below(CONSTANTS.len())]))
                };
                let gamma = NullSubstitution::single(NullValue(null), target);
                assert_eq!(
                    keys.apply_gamma(&gamma),
                    model.apply_gamma(&gamma),
                    "seed {seed} op {op}: keys rewritten by {gamma}"
                );
            }
        }
        for (d, set) in model.sets.iter().enumerate() {
            assert_eq!(
                keys.len(DepId(d)),
                set.len(),
                "seed {seed} op {op}: dep {d}"
            );
        }
        if op % 16 == 0 {
            for (d, set) in model.sets.iter().enumerate() {
                for key in set {
                    assert!(
                        keys.contains(DepId(d), key),
                        "seed {seed} op {op}: dep {d} lost {key:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn key_sets_agree_with_the_model_under_random_sequences() {
    for seed in 0..300 {
        run_sequence(seed, 400);
    }
}

#[test]
fn rows_held_stay_within_the_live_keys_under_remove_and_reinsert() {
    let mut rng = Rng(7);
    let mut keys = KeySets::new(STRIDES);
    let mut nulls = Nulls {
        live: Vec::new(),
        next: 1,
    };
    let mut live: Vec<HashSet<Vec<GroundTerm>>> = vec![HashSet::new(); STRIDES.len()];
    // Build the per-null index early, so removals also leave stale entries.
    keys.apply_gamma(&NullSubstitution::single(
        NullValue(u64::MAX),
        GroundTerm::Const(Constant::new("z")),
    ));
    for round in 0..200 {
        for (d, &stride) in STRIDES.iter().enumerate() {
            let dep = DepId(d);
            // Remove the round's keys, then insert as many new ones.
            for key in live[d].drain() {
                assert!(keys.remove(dep, &key));
            }
            for _ in 0..40 {
                let key = random_key(&mut rng, &mut nulls, stride);
                if keys.insert_iter(dep, key.iter().copied()).is_some() {
                    live[d].insert(key);
                }
            }
            assert_eq!(keys.len(dep), live[d].len());
            assert!(
                keys.rows_held(dep) <= 40,
                "round {round}: dep {d} holds {} rows for {} keys",
                keys.rows_held(dep),
                live[d].len()
            );
        }
        // Retire a null now and then, as substitutions do.
        if round % 10 == 0 && !nulls.live.is_empty() {
            let null = nulls.live.swap_remove(0);
            let gamma =
                NullSubstitution::single(NullValue(null), GroundTerm::Const(Constant::new("a")));
            let mut rewritten = 0;
            for set in &mut live {
                *set = set
                    .drain()
                    .map(|key| {
                        if key.contains(&GroundTerm::Null(NullValue(null))) {
                            rewritten += 1;
                        }
                        key.into_iter().map(|t| gamma.apply_ground(t)).collect()
                    })
                    .collect();
            }
            assert_eq!(keys.apply_gamma(&gamma), rewritten);
        }
    }
    for (d, set) in live.iter().enumerate() {
        assert!(set.iter().all(|key| keys.contains(DepId(d), key)));
    }
}
