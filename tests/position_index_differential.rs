//! The two fillings of `chase_core::index::PositionIndex` against each other.
//!
//! An `IndexedInstance` maintains its position index fact by fact through
//! `insert`, `remove_ids` and `substitute_in_place`; `PositionIndex::for_query`
//! builds one from scratch, a column strip at a time. After every step of a
//! random update sequence the two must hold the same ids in every bucket, in
//! the same order: the order of `Instance::ids_of`, which keeps survivors in
//! place and appends a re-inserted fact at the end. They must also give the
//! same candidates for random atoms under random partial assignments, and the
//! searches over them must visit the same homomorphisms in the same order.
//!
//! `IndexedInstance::from_instance` indexes a finished instance in
//! `Instance::fact_ids` order, ascending ids, so after churn its buckets hold
//! the same ids as the per-query ones in another order: there the test
//! compares ids, candidates and homomorphisms as sorted lists.

use chase_core::substitution::NullSubstitution;
use chase_core::{
    Assignment, Atom, Constant, Fact, FactId, GroundTerm, HomomorphismSearch, IndexedInstance,
    Instance, NullValue, PositionIndex, Predicate, Term, Variable,
};
use proptest::prelude::*;
use std::ops::ControlFlow;

/// The schema: one unary, two binary and one ternary predicate.
const PREDICATES: [(&str, usize); 4] = [("PU", 1), ("PB0", 2), ("PB1", 2), ("PT", 3)];

/// The terms: five constants and four nulls.
fn ground(i: u8) -> GroundTerm {
    match i % 9 {
        n @ 0..=4 => GroundTerm::Const(Constant::new(&format!("pc{n}"))),
        n => GroundTerm::Null(NullValue(u64::from(n - 5))),
    }
}

fn predicate(i: u8) -> Predicate {
    let (name, arity) = PREDICATES[i as usize % PREDICATES.len()];
    Predicate::new(name, arity)
}

fn fact(p: u8, terms: [u8; 3]) -> Fact {
    let (name, arity) = PREDICATES[p as usize % PREDICATES.len()];
    Fact::from_parts(name, terms[..arity].iter().map(|&t| ground(t)).collect())
}

/// One atom per predicate: a query whose per-query index covers the schema.
fn schema_query() -> Vec<Atom> {
    PREDICATES
        .iter()
        .map(|&(name, arity)| {
            Atom::from_parts(name, (0..arity).map(|i| Term::Var(var(i as u8))).collect())
        })
        .collect()
}

fn var(i: u8) -> Variable {
    Variable::new(&format!("pv{}", i % 4))
}

/// A term of a query atom: mostly one of four variables, else a ground term.
fn query_term(i: u8) -> Term {
    match i % 13 {
        n @ 0..=3 => Term::Var(var(n)),
        n => Term::from(ground(n - 4)),
    }
}

fn query_atom(p: u8, terms: [u8; 3]) -> Atom {
    let (name, arity) = PREDICATES[p as usize % PREDICATES.len()];
    Atom::from_parts(
        name,
        terms[..arity].iter().map(|&t| query_term(t)).collect(),
    )
}

/// One update of the instance.
#[derive(Clone, Debug)]
enum Step {
    Insert(u8, [u8; 3]),
    /// Removes the live facts whose rank in `fact_ids` is `≡ k (mod 3)`, plus a
    /// repeat of the first one.
    RemoveIds(u8),
    /// Substitutes the null `ηn` by a ground term (skipped when it is `ηn`).
    Substitute(u8, u8),
}

fn step() -> impl Strategy<Value = Step> {
    (0..10u8, 0..4u8, 0..9u8, 0..9u8, 0..9u8).prop_map(|(kind, p, a, b, c)| match kind {
        0..=5 => Step::Insert(p, [a, b, c]),
        6 | 7 => Step::RemoveIds(a),
        _ => Step::Substitute(a % 4, b),
    })
}

/// A lookup: an atom and a partial assignment of some of the four variables.
type Probe = (u8, [u8; 3], Vec<(u8, u8)>);

fn probe() -> impl Strategy<Value = Probe> {
    (
        0..4u8,
        (0..13u8, 0..13u8, 0..13u8),
        prop::collection::vec((0..4u8, 0..9u8), 0..3),
    )
        .prop_map(|(p, (a, b, c), binds)| (p, [a, b, c], binds))
}

fn apply(indexed: &mut IndexedInstance, step: &Step) {
    match *step {
        Step::Insert(p, terms) => {
            indexed.insert(fact(p, terms));
        }
        Step::RemoveIds(k) => {
            let mut ids: Vec<FactId> = indexed
                .instance()
                .fact_ids()
                .enumerate()
                .filter(|&(rank, _)| rank % 3 == usize::from(k % 3))
                .map(|(_, id)| id)
                .collect();
            if let Some(&first) = ids.first() {
                ids.push(first);
            }
            indexed.remove_ids(&ids);
        }
        Step::Substitute(n, t) => {
            let null = NullValue(u64::from(n));
            let target = ground(t);
            if target != GroundTerm::Null(null) {
                indexed.substitute_in_place(&NullSubstitution::single(null, target));
            }
        }
    }
}

/// How the maintained index of an `IndexedInstance` was filled, which decides
/// the order of its buckets.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Filled {
    /// Fact by fact as the instance changed: buckets in `ids_of` order.
    Incrementally,
    /// By `from_instance` over a finished instance: buckets in ascending ids.
    FromInstance,
}

/// `items` as compared under `filled`: as they are, or sorted.
fn in_order<T: Ord + Clone>(items: &[T], filled: Filled) -> Vec<T> {
    let mut items = items.to_vec();
    if filled == Filled::FromInstance {
        items.sort();
    }
    items
}

/// Every homomorphism a search visits, in order, as its sorted bindings and
/// its body image (empty unless the search is seeded).
#[allow(clippy::type_complexity)]
fn visits(
    search: &HomomorphismSearch<'_>,
    seed: Option<FactId>,
) -> Vec<(Vec<(Variable, GroundTerm)>, Vec<FactId>)> {
    let mut out = Vec::new();
    let mut record = |h: &Assignment, image: &[FactId]| {
        out.push((h.canonical(), image.to_vec()));
        ControlFlow::<()>::Continue(())
    };
    match seed {
        Some(id) => search.for_each_seeded_id(0, id, &mut Assignment::new(), &mut record),
        None => search.for_each_extending(&Assignment::new(), &mut |h| record(h, &[])),
    };
    out
}

/// Checks the maintained index of `indexed` against one built for the schema
/// over the same instance, and both against a filter of `ids_of`.
fn check(indexed: &IndexedInstance, filled: Filled, probes: &[Probe]) -> Result<(), TestCaseError> {
    let instance: &Instance = indexed.instance();
    let store = instance.store();
    let maintained = indexed.positions();
    let built = PositionIndex::for_query(&schema_query(), instance);
    for p in 0..PREDICATES.len() as u8 {
        let p = predicate(p);
        for pos in 0..p.arity {
            for t in 0..9 {
                let t = ground(t);
                let expected: Vec<FactId> = instance
                    .ids_of(p)
                    .iter()
                    .copied()
                    .filter(|&id| store.terms(id).get(pos) == t)
                    .collect();
                prop_assert_eq!(maintained.bucket(p, pos, t), in_order(&expected, filled));
                prop_assert_eq!(built.bucket(p, pos, t), expected.as_slice());
            }
        }
    }
    for (p, terms, binds) in probes {
        let atom = query_atom(*p, *terms);
        let h = Assignment::from_pairs(binds.iter().map(|&(v, t)| (var(v), ground(t))));
        let candidates = maintained.candidates(instance, &atom, &h);
        prop_assert_eq!(
            in_order(candidates, filled),
            in_order(built.candidates(instance, &atom, &h), filled)
        );
        prop_assert_eq!(candidates.len(), indexed.candidate_count(&atom, &h));
    }
    // A two-atom body joined on a shared variable, unseeded and seeded from
    // every fact of its first predicate.
    let (p, terms, _) = &probes[0];
    let body = vec![query_atom(*p, *terms), query_atom(p + 1, [1, 2, 0])];
    let over_instance = HomomorphismSearch::new(&body, instance);
    let over_index = HomomorphismSearch::over_index(&body, indexed);
    for seed in [None].into_iter().chain(
        instance
            .ids_of(body[0].predicate)
            .iter()
            .map(|&id| Some(id)),
    ) {
        prop_assert_eq!(
            in_order(&visits(&over_instance, seed), filled),
            in_order(&visits(&over_index, seed), filled)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn maintained_and_per_query_indexes_agree_after_every_step(
        steps in prop::collection::vec(step(), 1..40),
        probes in prop::collection::vec(probe(), 1..6),
    ) {
        let mut indexed = IndexedInstance::new();
        for step in &steps {
            apply(&mut indexed, step);
            check(&indexed, Filled::Incrementally, &probes)?;
        }
        // A rebuild from the final instance agrees too.
        let rebuilt = IndexedInstance::from_instance(indexed.instance().clone());
        check(&rebuilt, Filled::FromInstance, &probes)?;
    }
}
