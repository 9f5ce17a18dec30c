//! The chase step of Definition 1 and *naive* trigger enumeration.
//!
//! This module keeps the original re-scan strategy: every call searches for
//! homomorphisms from scratch over the whole instance. It remains the reference
//! implementation (and benchmark baseline) for the delta-driven
//! [`TriggerEngine`](chase_trigger::TriggerEngine), which the chase runners drive
//! by default. Both strategies share the single join engine of
//! [`chase_core::homomorphism`] — the naive path joins through a transient
//! per-query index built per search, the engine through the incrementally
//! maintained indexes of its `IndexedInstance` — so "naive" here means *no delta
//! tracking and no index maintenance*, not a slower join. The [`Trigger`] and
//! [`StepEffect`] types are shared with the engine and re-exported here.

use chase_core::homomorphism::{Assignment, HomomorphismSearch};
use chase_core::substitution::NullSubstitution;
use chase_core::{DepId, Dependency, DependencySet, GroundTerm, Instance};
use std::ops::ControlFlow;

pub use chase_trigger::{StepEffect, Trigger};

/// Applies the chase step for `dep` under `h` to `instance`, returning the successor
/// instance (if any) and the effect.
///
/// For TGDs this follows Definition 1(1): the homomorphism is extended by mapping every
/// existential variable to a fresh labeled null not occurring in `instance`. For EGDs it
/// follows Definition 1(2).
pub fn apply_step(
    instance: &Instance,
    dep: &Dependency,
    h: &Assignment,
) -> (Option<Instance>, StepEffect) {
    match dep {
        Dependency::Tgd(tgd) => {
            let mut next = instance.clone();
            let mut extended = h.clone();
            let ex = tgd.existential_variables();
            let fresh_nulls = ex.len();
            for &v in ex {
                let n = next.fresh_null();
                extended.bind(v, GroundTerm::Null(n));
            }
            let mut added = Vec::new();
            for atom in tgd.head() {
                let fact = extended
                    .apply_atom(atom)
                    .expect("all head variables are bound after extension");
                if next.insert(fact.clone()) {
                    added.push(fact);
                }
            }
            (
                Some(next),
                StepEffect::AddedFacts {
                    facts: added,
                    fresh_nulls,
                },
            )
        }
        Dependency::Egd(egd) => {
            let left = h.get(egd.left).expect("EGD body variables must be bound");
            let right = h.get(egd.right).expect("EGD body variables must be bound");
            if left == right {
                return (None, StepEffect::NotApplicable);
            }
            match (left, right) {
                (GroundTerm::Const(_), GroundTerm::Const(_)) => (None, StepEffect::Failure),
                (GroundTerm::Null(n), other) | (other, GroundTerm::Null(n)) => {
                    let gamma = NullSubstitution::single(n, other);
                    let next = instance.apply_substitution(&gamma);
                    (Some(next), StepEffect::Substituted { gamma })
                }
            }
        }
    }
}

/// Enumerates the triggers of one dependency that are *active* in the sense of
/// the standard chase (for a TGD, `h` does not extend to a homomorphism of
/// body ∪ head into the instance; for an EGD, `h` maps the equated variables
/// to distinct terms), visiting each. The TGD head search is hoisted out of
/// the per-homomorphism loop so its per-query index is built once per
/// enumeration, not once per body match.
fn for_each_active_trigger<B>(
    instance: &Instance,
    dep: &Dependency,
    visit: &mut impl FnMut(&Assignment) -> ControlFlow<B>,
) -> Option<B> {
    let body_search = HomomorphismSearch::new(dep.body(), instance);
    match dep {
        Dependency::Tgd(tgd) => {
            let head_search = HomomorphismSearch::new(tgd.head(), instance);
            body_search.for_each_extending(&Assignment::new(), &mut |h| {
                let satisfied = head_search
                    .for_each_extending::<()>(h, &mut |_| ControlFlow::Break(()))
                    .is_some();
                if satisfied {
                    ControlFlow::Continue(())
                } else {
                    visit(h)
                }
            })
        }
        Dependency::Egd(egd) => body_search.for_each_extending(&Assignment::new(), &mut |h| {
            if h.get(egd.left) != h.get(egd.right) {
                visit(h)
            } else {
                ControlFlow::Continue(())
            }
        }),
    }
}

/// Enumerates all standard-chase-applicable triggers of `sigma` on `instance`, i.e.
/// pairs `(r, h)` such that `h` maps `Body(r)` into the instance and the trigger is
/// active.
pub fn applicable_standard_triggers(instance: &Instance, sigma: &DependencySet) -> Vec<Trigger> {
    let mut out = Vec::new();
    for (id, dep) in sigma.iter() {
        for_each_active_trigger::<()>(instance, dep, &mut |h| {
            out.push(Trigger {
                dep: id,
                assignment: h.clone(),
            });
            ControlFlow::Continue(())
        });
    }
    out
}

/// Finds the first standard-chase-applicable trigger among the dependencies listed in
/// `order` (a sequence of dependency ids), if any.
pub fn first_applicable_trigger(
    instance: &Instance,
    sigma: &DependencySet,
    order: &[DepId],
) -> Option<Trigger> {
    for &id in order {
        let dep = sigma.get(id);
        let found = for_each_active_trigger(instance, dep, &mut |h| {
            ControlFlow::Break(Trigger {
                dep: id,
                assignment: h.clone(),
            })
        });
        if found.is_some() {
            return found;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;
    use chase_core::term::{Constant, NullValue};
    use chase_core::{Fact, IndexedInstance, Variable};

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }
    fn gn(i: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(i))
    }

    fn sigma1() -> (DependencySet, Instance) {
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            N(a).
            "#,
        )
        .unwrap();
        (p.dependencies, p.database)
    }

    #[test]
    fn the_engine_tgd_step_numbers_nulls_as_the_naive_step() {
        let p = parse_program(
            r#"
            r: A(?x) -> exists ?z, ?w: R(?x, ?x), S(?x, ?z, ?w), T(?w, ?z, c).
            A(a). R(a, a).
            "#,
        )
        .unwrap();
        let dep = p.dependencies.get(DepId(0));
        let mut db = p.database;
        db.insert(Fact {
            predicate: chase_core::Predicate::new("A", 1),
            terms: vec![gn(7)],
        });
        let h = Assignment::from_pairs([(Variable::new("x"), gc("a"))]);

        let (naive_next, naive) = apply_step(&db, dep, &h);
        let mut index = IndexedInstance::from_instance(db);
        let engine =
            chase_trigger::engine::apply_tgd(&mut index, dep.as_tgd().unwrap(), &h, |_, _| {});
        assert_eq!(engine, naive);
        let StepEffect::AddedFacts { facts, fresh_nulls } = &naive else {
            panic!("a TGD step adds facts");
        };
        assert_eq!(*fresh_nulls, 2);
        assert_eq!(facts.len(), 2, "R(a, a) was already in K");
        assert_eq!(
            index.instance().sorted_facts(),
            naive_next.unwrap().sorted_facts()
        );
    }

    #[test]
    fn example4_tgd_step() {
        let (sigma, d) = sigma1();
        let h1 = Assignment::from_pairs([(Variable::new("x"), gc("a"))]);
        let (next, effect) = apply_step(&d, sigma.get(DepId(0)), &h1);
        let k2 = next.unwrap();
        assert_eq!(k2.len(), 2);
        match effect {
            StepEffect::AddedFacts { facts, fresh_nulls } => {
                assert_eq!(facts.len(), 1);
                assert_eq!(fresh_nulls, 1);
                assert_eq!(facts[0].predicate.name.as_str(), "E");
                assert!(facts[0].terms[1].is_null());
            }
            other => panic!("expected AddedFacts, got {other:?}"),
        }
    }

    #[test]
    fn example4_egd_step_substitutes_null() {
        let (sigma, _) = sigma1();
        let k2 = Instance::from_facts(vec![
            Fact::from_parts("N", vec![gc("a")]),
            Fact::from_parts("E", vec![gc("a"), gn(1)]),
        ]);
        let h2 =
            Assignment::from_pairs([(Variable::new("x"), gc("a")), (Variable::new("y"), gn(1))]);
        let (next, effect) = apply_step(&k2, sigma.get(DepId(2)), &h2);
        let k3 = next.unwrap();
        assert_eq!(k3.len(), 2);
        assert!(k3.contains(&Fact::from_parts("E", vec![gc("a"), gc("a")])));
        match effect {
            StepEffect::Substituted { gamma } => {
                assert_eq!(gamma.mapping().unwrap().0, NullValue(1));
                assert_eq!(gamma.mapping().unwrap().1, gc("a"));
            }
            other => panic!("expected Substituted, got {other:?}"),
        }
    }

    #[test]
    fn egd_on_two_constants_fails() {
        let sigma = parse_program("e: E(?x, ?y) -> ?x = ?y.")
            .unwrap()
            .dependencies;
        let k = Instance::from_facts(vec![Fact::from_parts("E", vec![gc("a"), gc("b")])]);
        let h =
            Assignment::from_pairs([(Variable::new("x"), gc("a")), (Variable::new("y"), gc("b"))]);
        let (next, effect) = apply_step(&k, sigma.get(DepId(0)), &h);
        assert!(next.is_none());
        assert_eq!(effect, StepEffect::Failure);
    }

    #[test]
    fn egd_already_satisfied_is_not_applicable() {
        let sigma = parse_program("e: E(?x, ?y) -> ?x = ?y.")
            .unwrap()
            .dependencies;
        let k = Instance::from_facts(vec![Fact::from_parts("E", vec![gc("a"), gc("a")])]);
        let h =
            Assignment::from_pairs([(Variable::new("x"), gc("a")), (Variable::new("y"), gc("a"))]);
        let (next, effect) = apply_step(&k, sigma.get(DepId(0)), &h);
        assert!(next.is_none());
        assert_eq!(effect, StepEffect::NotApplicable);
    }

    #[test]
    fn standard_applicability_example1() {
        let (sigma, d) = sigma1();
        let triggers = applicable_standard_triggers(&d, &sigma);
        // Only r1 is applicable on D = {N(a)}.
        assert_eq!(triggers.len(), 1);
        assert_eq!(triggers[0].dep, DepId(0));
    }

    #[test]
    fn standard_applicability_after_first_step() {
        let (sigma, _) = sigma1();
        let k2 = Instance::from_facts(vec![
            Fact::from_parts("N", vec![gc("a")]),
            Fact::from_parts("E", vec![gc("a"), gn(1)]),
        ]);
        let triggers = applicable_standard_triggers(&k2, &sigma);
        // r2 and r3 are both violated; r1 is satisfied (E(a, η1) provides the witness).
        let deps: Vec<DepId> = triggers.iter().map(|t| t.dep).collect();
        assert!(deps.contains(&DepId(1)));
        assert!(deps.contains(&DepId(2)));
        assert!(!deps.contains(&DepId(0)));
    }

    #[test]
    fn example6_standard_not_applicable_on_satisfied_tgd() {
        let p = parse_program("r: E(?x, ?y) -> exists ?z: E(?x, ?z). E(a, b).").unwrap();
        let triggers = applicable_standard_triggers(&p.database, &p.dependencies);
        assert!(triggers.is_empty());
    }

    #[test]
    fn first_applicable_respects_order() {
        let (sigma, _) = sigma1();
        let k2 = Instance::from_facts(vec![
            Fact::from_parts("N", vec![gc("a")]),
            Fact::from_parts("E", vec![gc("a"), gn(1)]),
        ]);
        let t = first_applicable_trigger(&k2, &sigma, &[DepId(2), DepId(1), DepId(0)]).unwrap();
        assert_eq!(t.dep, DepId(2));
        let t = first_applicable_trigger(&k2, &sigma, &[DepId(1), DepId(2), DepId(0)]).unwrap();
        assert_eq!(t.dep, DepId(1));
    }
}
