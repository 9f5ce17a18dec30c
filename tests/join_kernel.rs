//! The join kernel of `chase_core::homomorphism` against models of its parts:
//!
//! * the allocation-free [`JoinPlan`] against the set-based planner it replaced
//!   (kept below, as it was, as the oracle): the same order on random bodies,
//!   partial assignments, subsets and estimates, and no estimate — so no index
//!   probe — for a plan over one atom;
//! * the sorted-vector [`Assignment`] against a `HashMap` model under random
//!   bind / unbind / get / `rewrite_terms` / `==` sequences;
//! * unification of atoms wider than a machine word of positions.

use chase_core::homomorphism::{homomorphisms_extending, naive_homomorphisms_extending};
use chase_core::{
    Assignment, Atom, Constant, Fact, GroundTerm, HomomorphismSearch, IndexedInstance, Instance,
    JoinPlan, NullValue, Term, Variable,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;

// ---------------------------------------------------------------------------------
// The oracle: the planner before the sorted-vector kernel
// ---------------------------------------------------------------------------------

/// `JoinPlan::for_subset` as it was built from a `HashSet` of bound variables, a
/// `HashMap` of estimates and a `BTreeSet` per atom and step.
fn oracle_plan(
    atoms: &[Atom],
    include: &[usize],
    partial: &Assignment,
    mut cardinality: impl FnMut(usize) -> usize,
) -> Vec<usize> {
    let mut bound: HashSet<Variable> = partial.iter().map(|(v, _)| v).collect();
    let estimates: HashMap<usize, usize> = include.iter().map(|&i| (i, cardinality(i))).collect();
    let mut remaining: Vec<usize> = include.to_vec();
    remaining.sort_unstable();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &ai)| {
                let unbound = atoms[ai]
                    .terms
                    .iter()
                    .filter_map(|t| match t {
                        Term::Var(v) if !bound.contains(v) => Some(*v),
                        _ => None,
                    })
                    .collect::<BTreeSet<_>>()
                    .len();
                (pos, (unbound, estimates[&ai]))
            })
            .min_by_key(|&(_, key)| key)
            .expect("remaining is non-empty");
        let ai = remaining.remove(pos);
        for v in atoms[ai].variables() {
            bound.insert(v);
        }
        order.push(ai);
    }
    order
}

// ---------------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------------

fn var(i: usize) -> Variable {
    Variable::new(&format!("jk{i}"))
}

fn ground(i: u8) -> GroundTerm {
    match i % 5 {
        0..=2 => GroundTerm::Const(Constant::new(&format!("jc{}", i % 5))),
        n => GroundTerm::Null(NullValue(u64::from(n))),
    }
}

/// A term: mostly one of six shared variables, sometimes one of twenty rarer
/// ones (so that long bodies bind more variables than the planner keeps
/// inline), else one of three constants and two nulls.
fn term() -> impl Strategy<Value = Term> {
    (0..10u8, 0..20u8).prop_map(|(i, j)| match i {
        0..=5 => Term::Var(var(i as usize)),
        6 | 7 => Term::Var(var(6 + j as usize)),
        _ => Term::from(ground(j)),
    })
}

/// An atom of arity 0–4 (the predicate name carries the arity).
fn body_atom() -> impl Strategy<Value = Atom> {
    prop::collection::vec(term(), 0..5)
        .prop_map(|terms| Atom::from_parts(&format!("JK{}", terms.len()), terms))
}

/// A partial assignment of up to four of the six variables.
fn partial() -> impl Strategy<Value = Assignment> {
    prop::collection::vec((0..6usize, 0..5u8), 0..5).prop_map(|pairs| {
        Assignment::from_pairs(pairs.into_iter().map(|(v, g)| (var(v), ground(g))))
    })
}

/// A planning problem: a body of 1–12 atoms (past the planner's inline
/// capacity of 8), a subset mask, a shuffle key per atom and an estimate per
/// atom drawn from a small range so that ties are common.
#[allow(clippy::type_complexity)]
fn planning() -> impl Strategy<Value = (Vec<Atom>, u16, Vec<u8>, Vec<usize>, Assignment)> {
    (
        prop::collection::vec(body_atom(), 1..13),
        0..4096u16,
        prop::collection::vec(0..255u8, 12..13),
        prop::collection::vec(0..4usize, 12..13),
        partial(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Same order as the oracle on every subset, given in any order; and a plan
    /// over at most one atom asks for no estimate.
    #[test]
    fn join_plan_matches_the_set_based_planner(problem in planning()) {
        let (atoms, mask, shuffle, estimates, partial) = problem;
        let mut include: Vec<usize> = (0..atoms.len()).filter(|&i| mask & (1 << i) != 0).collect();
        include.sort_by_key(|&i| shuffle[i]);
        let mut asked = 0;
        let plan = JoinPlan::for_subset(&atoms, &include, &partial, |i| {
            asked += 1;
            estimates[i]
        });
        let expected = oracle_plan(&atoms, &include, &partial, |i| estimates[i]);
        prop_assert_eq!(plan.order(), expected.as_slice(), "subset {:?} of {:?}", &include, &atoms);
        if include.len() <= 1 {
            prop_assert_eq!(asked, 0);
        } else {
            prop_assert_eq!(asked, include.len());
        }
        let full: Vec<usize> = (0..atoms.len()).collect();
        let plan = JoinPlan::new(&atoms, &partial, |i| estimates[i]);
        let expected = oracle_plan(&atoms, &full, &partial, |i| estimates[i]);
        prop_assert_eq!(plan.order(), expected.as_slice());
    }
}

#[test]
fn a_one_atom_plan_probes_no_index() {
    let facts = (0..4).map(|i| {
        Fact::from_parts(
            "E",
            vec![ground(i), GroundTerm::Const(Constant::new("jc0"))],
        )
    });
    let ix = IndexedInstance::from_instance(Instance::from_facts(facts));
    let atoms = vec![
        Atom::from_parts("E", vec![Term::Var(var(0)), Term::Var(var(1))]),
        Atom::from_parts("E", vec![Term::Var(var(1)), Term::Var(var(2))]),
    ];
    let partial = Assignment::from_pairs([(var(1), ground(0))]);
    let estimate = |i: usize| ix.candidate_count(&atoms[i], &partial);
    let before = ix.probe_count();
    assert_eq!(
        JoinPlan::for_subset(&atoms, &[1], &partial, estimate).order(),
        &[1]
    );
    assert_eq!(JoinPlan::new(&atoms[..1], &partial, estimate).order(), &[0]);
    assert_eq!(
        ix.probe_count(),
        before,
        "a one-atom plan estimated a candidate count"
    );
    // Two atoms do need their estimates.
    JoinPlan::new(&atoms, &partial, estimate);
    assert!(ix.probe_count() > before);
}

// ---------------------------------------------------------------------------------
// Assignment against a HashMap model
// ---------------------------------------------------------------------------------

/// One step of an assignment's life.
#[derive(Clone, Debug)]
enum Op {
    Bind(usize, u8),
    Unbind(usize),
    Get(usize),
    /// Rewrites every null `ηk` to `ηk+1 mod 3` and constants to themselves.
    Rewrite,
    /// Compares with an assignment rebuilt from the model.
    Equal,
}

fn op() -> impl Strategy<Value = Op> {
    (0..10u8, 0..9usize, 0..5u8).prop_map(|(kind, v, g)| match kind {
        0..=3 => Op::Bind(v, g),
        4 | 5 => Op::Unbind(v),
        6 | 7 => Op::Get(v),
        8 => Op::Rewrite,
        _ => Op::Equal,
    })
}

fn shift_nulls(t: GroundTerm) -> GroundTerm {
    match t {
        GroundTerm::Null(NullValue(n)) => GroundTerm::Null(NullValue((n + 1) % 3)),
        c => c,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn assignment_behaves_like_a_hash_map(ops in prop::collection::vec(op(), 0..40)) {
        let mut a = Assignment::new();
        let mut model: HashMap<Variable, GroundTerm> = HashMap::new();
        for op in ops {
            match op {
                Op::Bind(v, g) => {
                    a.bind(var(v), ground(g));
                    model.insert(var(v), ground(g));
                }
                Op::Unbind(v) => {
                    a.unbind(var(v));
                    model.remove(&var(v));
                }
                Op::Get(v) => prop_assert_eq!(a.get(var(v)), model.get(&var(v)).copied()),
                Op::Rewrite => {
                    a.rewrite_terms(shift_nulls);
                    for t in model.values_mut() {
                        *t = shift_nulls(*t);
                    }
                }
                Op::Equal => {
                    let rebuilt = Assignment::from_pairs(model.iter().map(|(&v, &t)| (v, t)));
                    prop_assert_eq!(&rebuilt, &a);
                    if let Some((&v, _)) = model.iter().next() {
                        let mut other = rebuilt.clone();
                        other.unbind(v);
                        prop_assert_ne!(&other, &a);
                    }
                }
            }
            prop_assert_eq!(a.len(), model.len());
            prop_assert_eq!(a.is_empty(), model.is_empty());
            let mut sorted: Vec<(Variable, GroundTerm)> = model.iter().map(|(&v, &t)| (v, t)).collect();
            sorted.sort();
            // `iter` runs in variable order, and `canonical` is that order.
            prop_assert_eq!(a.iter().collect::<Vec<_>>(), sorted.clone());
            prop_assert_eq!(a.canonical(), sorted);
        }
    }
}

#[test]
fn from_pairs_keeps_the_last_binding_of_a_repeated_variable() {
    let (x, y) = (var(0), var(1));
    let pairs = [(x, ground(0)), (y, ground(1)), (x, ground(3))];
    let a = Assignment::from_pairs(pairs);
    let collected: HashMap<Variable, GroundTerm> = pairs.into_iter().collect();
    assert_eq!(a.len(), 2);
    assert_eq!(a.get(x), Some(ground(3)));
    assert_eq!(a.get(x), collected.get(&x).copied());
    assert_eq!(a.get(y), Some(ground(1)));
}

// ---------------------------------------------------------------------------------
// Atoms wider than 64 positions
// ---------------------------------------------------------------------------------

const WIDE: usize = 70;

/// `W(v0, …, v34, v0, …, v34)`: every variable twice, the second time past
/// position 34, so the last repeats sit past position 64.
fn wide_atom() -> Atom {
    let terms = (0..WIDE).map(|i| Term::Var(var(100 + i % 35))).collect();
    Atom::from_parts("W", terms)
}

/// A fact of `W` whose halves repeat, with value `base + i` at positions `i`
/// and `i + 35`; `break_at` gives one position a different value.
fn wide_fact(base: usize, break_at: Option<usize>) -> Fact {
    let terms = (0..WIDE)
        .map(|i| {
            let k = if break_at == Some(i) {
                9_999
            } else {
                base + i % 35
            };
            GroundTerm::Const(Constant::new(&format!("w{k}")))
        })
        .collect();
    Fact::from_parts("W", terms)
}

#[test]
fn a_70_ary_atom_unifies_and_rolls_back_past_position_64() {
    // Facts that fail only at position 69 (after binding all 35 variables) are
    // tried around the one that matches; a failed match must leave nothing bound.
    let instance = Instance::from_facts(vec![
        wide_fact(0, Some(69)),
        wide_fact(100, None),
        wide_fact(200, Some(66)),
        wide_fact(300, Some(40)),
    ]);
    let atoms = vec![wide_atom()];
    let homs = homomorphisms_extending(&atoms, &instance, &Assignment::new());
    assert_eq!(homs.len(), 1);
    assert_eq!(homs[0].len(), 35);
    assert_eq!(
        homs[0].get(var(134)),
        Some(GroundTerm::Const(Constant::new("w134")))
    );
    assert_eq!(
        naive_homomorphisms_extending(&atoms, &instance, &Assignment::new()),
        homs
    );

    // The same through the maintained index: a seeded search from each fact,
    // and a join of two wide atoms sharing their variables.
    let ix = IndexedInstance::from_instance(instance.clone());
    let search = HomomorphismSearch::over_index(&atoms, &ix);
    let mut seeded = 0;
    for fact in instance.facts() {
        let id = ix.instance().id_of(&fact).expect("stored");
        search.for_each_seeded_id::<()>(0, id, &mut Assignment::new(), &mut |h, _| {
            assert_eq!(h, &homs[0]);
            seeded += 1;
            ControlFlow::Continue(())
        });
    }
    assert_eq!(seeded, 1);
    let twice = vec![wide_atom(), wide_atom()];
    let mut joined = Vec::new();
    HomomorphismSearch::over_index(&twice, &ix).for_each_extending::<()>(
        &Assignment::new(),
        &mut |h| {
            joined.push(h.clone());
            ControlFlow::Continue(())
        },
    );
    assert_eq!(joined, homs);

    // A partial binding that contradicts the match's position 69 rules it out.
    let contradicted = Assignment::from_pairs([(var(134), ground(0))]);
    assert!(homomorphisms_extending(&atoms, &instance, &contradicted).is_empty());
}
