//! Core computation: the smallest retract of an instance, by id-based null folding.
//!
//! A subset `C ⊆ J` is a core of `J` if there is a homomorphism from `J` to `C` but
//! none from `J` to a proper subset of `C`. Cores are unique up to isomorphism. The
//! algorithm used here folds labeled nulls one at a time: it repeatedly searches for an
//! endomorphism that maps some null to a different term while keeping the instance's
//! constants fixed, and replaces the instance by its image. This is the classical
//! retract computation used by core-chase prototypes; it is exact on the instances
//! produced in this workspace.
//!
//! ## Incremental folding over the fact store
//!
//! The folding loop works on [`FactId`]s over the instance's arena and memoises
//! everything that is a function of the instance *version* (the state between two
//! successful folds) instead of recomputing it per fold attempt:
//!
//! * the null-variable atom list and the endomorphism search (with its transient
//!   per-(predicate, position) candidate index) are built **once per version** and
//!   reused across every `(null, candidate-image)` attempt — previously each attempt
//!   re-derived the atoms and re-indexed the whole instance;
//! * the fold candidates (constants first, then nulls) and the per-null occurrence
//!   lists are computed **once per version**;
//! * when an endomorphism is found, the image is constructed **incrementally**: only
//!   the facts that mention a *moved* null (located through the occurrence lists) are
//!   rewritten and re-interned; all other facts keep their ids. The shrink test
//!   compares id-set sizes and the null counts follow from the endomorphism itself —
//!   no full instance is ever re-materialised per attempt.

use chase_core::homomorphism::Assignment;
use chase_core::{
    Atom, FactId, GroundTerm, HomomorphismSearch, Instance, NullValue, Predicate, Term, Variable,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;

fn null_var(n: NullValue) -> Variable {
    Variable::new(&format!("__fold_{}", n.0))
}

/// Everything about the current instance version the fold attempts share: the
/// null-variable atoms, the sorted null list, the per-null occurrence lists and the
/// candidate images. Rebuilt only after a successful fold.
struct FoldVersion {
    /// The instance's facts as atoms in which every labeled null is replaced by its
    /// designated `__fold_k` variable (deterministic sorted-fact order).
    atoms: Vec<Atom>,
    /// The nulls of the instance, ascending.
    nulls: Vec<NullValue>,
    /// For each null, the ids of the live facts mentioning it.
    occurrences: HashMap<NullValue, Vec<FactId>>,
    /// Candidate images for a folded null: constants first (more likely to reach
    /// the core quickly), then nulls. The target itself is skipped per attempt.
    candidates: Vec<GroundTerm>,
}

impl FoldVersion {
    fn build(instance: &Instance) -> FoldVersion {
        let store = instance.store();
        let mut atoms = Vec::with_capacity(instance.len());
        let mut occurrences: HashMap<NullValue, Vec<FactId>> = HashMap::new();
        for id in instance.sorted_fact_ids() {
            let mut seen_in_fact: Vec<NullValue> = Vec::new();
            atoms.push(Atom {
                predicate: store.predicate_of(id),
                terms: store
                    .terms(id)
                    .iter()
                    .map(|t| match t {
                        GroundTerm::Null(n) => {
                            if !seen_in_fact.contains(&n) {
                                seen_in_fact.push(n);
                                occurrences.entry(n).or_default().push(id);
                            }
                            Term::Var(null_var(n))
                        }
                        GroundTerm::Const(c) => Term::Const(c),
                    })
                    .collect(),
            });
        }
        let nulls: Vec<NullValue> = occurrences
            .keys()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut candidates: Vec<GroundTerm> = instance
            .constants()
            .into_iter()
            .map(GroundTerm::Const)
            .collect();
        candidates.extend(nulls.iter().copied().map(GroundTerm::Null));
        FoldVersion {
            atoms,
            nulls,
            occurrences,
            candidates,
        }
    }
}

/// The committed outcome of a successful, shrinking fold: the affected fact ids to
/// drop and the rewritten images to insert. Only facts mentioning a moved null are
/// materialised — everything else keeps its id.
struct FoldPlan {
    affected: Vec<FactId>,
    images: Vec<(Predicate, Vec<GroundTerm>)>,
}

/// Tries to fold away `target` within the given version: find an endomorphism
/// `h : J → J` with `h(target) ≠ target` (other nulls are free to move as well)
/// whose image is strictly smaller than `J`, measured lexicographically by
/// `(#facts, #nulls)`. Returns the incremental plan for the first candidate image
/// that shrinks.
fn try_fold(
    instance: &Instance,
    version: &FoldVersion,
    search: &HomomorphismSearch<'_>,
    target: NullValue,
) -> Option<FoldPlan> {
    for &image in &version.candidates {
        if image == GroundTerm::Null(target) {
            continue;
        }
        let mut attempt = Assignment::new();
        attempt.bind(null_var(target), image);
        let Some(h) = search.for_each_extending(&attempt, &mut |h| ControlFlow::Break(h.clone()))
        else {
            continue;
        };
        // The endomorphism maps every null; collect where each one goes and which
        // ones actually move.
        let mapping: HashMap<NullValue, GroundTerm> = version
            .nulls
            .iter()
            .map(|&n| {
                let img = h
                    .get(null_var(n))
                    .expect("every null variable is bound by the endomorphism");
                (n, img)
            })
            .collect();
        let moved: Vec<NullValue> = version
            .nulls
            .iter()
            .copied()
            .filter(|&n| mapping[&n] != GroundTerm::Null(n))
            .collect();
        // Shrink test on nulls: the image's nulls are exactly the null-valued
        // h-images of the current nulls.
        let new_null_count = version
            .nulls
            .iter()
            .filter_map(|&n| mapping[&n].as_null())
            .collect::<HashSet<_>>()
            .len();
        // Incremental image: only facts mentioning a moved null change.
        let mut affected_set: HashSet<FactId> = HashSet::new();
        for n in &moved {
            if let Some(ids) = version.occurrences.get(n) {
                affected_set.extend(ids.iter().copied());
            }
        }
        let mut affected: Vec<FactId> = affected_set.iter().copied().collect();
        affected.sort_unstable();
        let store = instance.store();
        let mut images: Vec<(Predicate, Vec<GroundTerm>)> = Vec::with_capacity(affected.len());
        // Count how many image facts are genuinely new w.r.t. the surviving
        // (unaffected) facts, deduplicating images among themselves.
        let mut fresh = 0usize;
        let mut seen_images: HashSet<(Predicate, Vec<GroundTerm>)> = HashSet::new();
        for &id in &affected {
            let predicate = store.predicate_of(id);
            let terms: Vec<GroundTerm> = store
                .terms(id)
                .iter()
                .map(|t| match t {
                    GroundTerm::Null(n) => mapping[&n],
                    c => c,
                })
                .collect();
            let survives_elsewhere = match store.lookup(predicate, &terms) {
                Some(img_id) => instance.contains_id(img_id) && !affected_set.contains(&img_id),
                None => false,
            };
            if !survives_elsewhere && seen_images.insert((predicate, terms.clone())) {
                fresh += 1;
            }
            images.push((predicate, terms));
        }
        let new_len = instance.len() - affected.len() + fresh;
        let shrinks = new_len < instance.len()
            || (new_len == instance.len() && new_null_count < version.nulls.len());
        if shrinks {
            return Some(FoldPlan { affected, images });
        }
    }
    None
}

/// Runs one fold pass over the instance: tries every null in ascending order and
/// applies the first shrinking fold in place. Returns `true` iff a fold was applied.
fn fold_once(current: &mut Instance) -> bool {
    let version = FoldVersion::build(current);
    if version.nulls.is_empty() {
        return false;
    }
    let plan = {
        // One search (and one transient candidate index) serves every
        // (null, candidate) attempt of this version.
        let search = HomomorphismSearch::new(&version.atoms, current);
        version
            .nulls
            .iter()
            .find_map(|&target| try_fold(current, &version, &search, target))
    };
    match plan {
        Some(FoldPlan { affected, images }) => {
            for id in affected {
                current.remove_id(id);
            }
            for (predicate, terms) in images {
                current.insert_parts(predicate, &terms);
            }
            true
        }
        None => false,
    }
}

/// Computes the core of an instance by iterated, memoised null folding.
pub fn core_of(instance: &Instance) -> Instance {
    let mut current = instance.clone();
    while fold_once(&mut current) {}
    current
}

/// Returns `true` iff the instance is its own core (no null can be folded away).
pub fn is_core(instance: &Instance) -> bool {
    let version = FoldVersion::build(instance);
    if version.nulls.is_empty() {
        return true;
    }
    let search = HomomorphismSearch::new(&version.atoms, instance);
    version
        .nulls
        .iter()
        .all(|&n| try_fold(instance, &version, &search, n).is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::{Constant, Fact};

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }
    fn gn(i: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(i))
    }

    #[test]
    fn database_is_its_own_core() {
        let d = Instance::from_facts(vec![
            Fact::from_parts("E", vec![gc("a"), gc("b")]),
            Fact::from_parts("E", vec![gc("b"), gc("c")]),
        ]);
        assert!(is_core(&d));
        assert_eq!(core_of(&d), d);
    }

    #[test]
    fn redundant_null_fact_is_folded_away() {
        // {E(a, b), E(a, η1)}: η1 folds onto b, core is {E(a, b)}.
        let j = Instance::from_facts(vec![
            Fact::from_parts("E", vec![gc("a"), gc("b")]),
            Fact::from_parts("E", vec![gc("a"), gn(1)]),
        ]);
        let core = core_of(&j);
        assert_eq!(core.len(), 1);
        assert!(core.contains(&Fact::from_parts("E", vec![gc("a"), gc("b")])));
        assert!(!is_core(&j));
    }

    #[test]
    fn example3_universal_model_is_a_core() {
        // J1 = {P(a,b), Q(c,d), E(a, η1), E(η2, d)} is a core: η1 cannot fold onto d
        // (that would require E(a, d) to be present), η2 cannot fold onto a.
        let j1 = Instance::from_facts(vec![
            Fact::from_parts("P", vec![gc("a"), gc("b")]),
            Fact::from_parts("Q", vec![gc("c"), gc("d")]),
            Fact::from_parts("E", vec![gc("a"), gn(1)]),
            Fact::from_parts("E", vec![gn(2), gc("d")]),
        ]);
        assert!(is_core(&j1));
        assert_eq!(core_of(&j1), j1);
    }

    #[test]
    fn chain_of_nulls_collapses_onto_constants() {
        // {E(a, η1), E(η1, η2), E(a, b), E(b, c)}: η1 → b, then η2 → c.
        let j = Instance::from_facts(vec![
            Fact::from_parts("E", vec![gc("a"), gn(1)]),
            Fact::from_parts("E", vec![gn(1), gn(2)]),
            Fact::from_parts("E", vec![gc("a"), gc("b")]),
            Fact::from_parts("E", vec![gc("b"), gc("c")]),
        ]);
        let core = core_of(&j);
        assert_eq!(core.len(), 2);
        assert!(core.nulls().is_empty());
    }

    #[test]
    fn nulls_that_carry_information_are_kept() {
        // {E(a, η1)} alone: η1 has nothing to fold onto, the instance is a core.
        let j = Instance::from_facts(vec![Fact::from_parts("E", vec![gc("a"), gn(1)])]);
        assert!(is_core(&j));
    }

    #[test]
    fn symmetric_pair_of_nulls_folds_to_one_fact() {
        // {R(η1, η2), R(η2, η1)}: the core is a single fact R(η, η)?  No — folding
        // η1 ↦ η2 requires R(η2, η2) to be present, which it is not, so both facts stay.
        let j = Instance::from_facts(vec![
            Fact::from_parts("R", vec![gn(1), gn(2)]),
            Fact::from_parts("R", vec![gn(2), gn(1)]),
        ]);
        assert!(is_core(&j));
        // Adding the loop R(η3, η3) makes everything fold onto it.
        let mut j2 = j.clone();
        j2.insert(Fact::from_parts("R", vec![gn(3), gn(3)]));
        let core = core_of(&j2);
        assert_eq!(core.len(), 1);
    }

    #[test]
    fn empty_instance_core() {
        let e = Instance::new();
        assert!(is_core(&e));
        assert!(core_of(&e).is_empty());
    }

    #[test]
    fn repeated_nulls_within_a_fact_fold_correctly() {
        // {R(η1, η1), R(a, a)}: η1 folds onto a.
        let j = Instance::from_facts(vec![
            Fact::from_parts("R", vec![gn(1), gn(1)]),
            Fact::from_parts("R", vec![gc("a"), gc("a")]),
        ]);
        let core = core_of(&j);
        assert_eq!(core.len(), 1);
        assert!(core.nulls().is_empty());
    }

    #[test]
    fn simultaneous_multi_null_moves_are_handled() {
        // {E(η1, η2), E(a, b)}: the single endomorphism η1 → a, η2 → b moves two
        // nulls at once; both facts mentioning them fold onto the constant fact.
        let j = Instance::from_facts(vec![
            Fact::from_parts("E", vec![gn(1), gn(2)]),
            Fact::from_parts("E", vec![gc("a"), gc("b")]),
        ]);
        let core = core_of(&j);
        assert_eq!(core.len(), 1);
        assert!(core.nulls().is_empty());
        assert!(core.contains(&Fact::from_parts("E", vec![gc("a"), gc("b")])));
    }

    #[test]
    fn core_is_reached_regardless_of_store_history() {
        // Insert/remove churn before folding must not affect the result: the live
        // set, not the arena history, defines the instance.
        let mut j = Instance::new();
        j.insert(Fact::from_parts("E", vec![gc("a"), gc("b")]));
        j.insert(Fact::from_parts("E", vec![gc("x"), gc("y")]));
        j.remove(&Fact::from_parts("E", vec![gc("x"), gc("y")]));
        j.insert(Fact::from_parts("E", vec![gc("a"), gn(1)]));
        let core = core_of(&j);
        assert_eq!(core.len(), 1);
        assert!(core.contains(&Fact::from_parts("E", vec![gc("a"), gc("b")])));
    }
}
