//! First-order satisfaction of dependencies by instances (`J ⊨ Σ`).

use crate::dependency::{Dependency, DependencySet, Egd, Tgd};
use crate::homomorphism::{homomorphisms, Assignment, HomomorphismSearch};
use crate::instance::Instance;
use std::ops::ControlFlow;

/// Returns `true` iff `instance ⊨ tgd`: every homomorphism from the body extends to a
/// homomorphism from body ∪ head.
pub fn satisfies_tgd(instance: &Instance, tgd: &Tgd) -> bool {
    let search = HomomorphismSearch::new(tgd.body(), instance);
    // One head search serves every body match (its per-query index is built once,
    // not once per homomorphism).
    let head_search = HomomorphismSearch::new(tgd.head(), instance);
    search
        .for_each_extending(&Assignment::new(), &mut |h| {
            if head_search
                .for_each_extending::<()>(h, &mut |_| ControlFlow::Break(()))
                .is_some()
            {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        })
        .is_none()
}

/// Returns `true` iff `instance ⊨ egd`: every homomorphism from the body maps the two
/// equated variables to the same ground term.
pub fn satisfies_egd(instance: &Instance, egd: &Egd) -> bool {
    let search = HomomorphismSearch::new(&egd.body, instance);
    search
        .for_each_extending(&Assignment::new(), &mut |h| {
            if h.get(egd.left) == h.get(egd.right) {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        })
        .is_none()
}

/// Returns `true` iff `instance ⊨ dep`.
pub fn satisfies(instance: &Instance, dep: &Dependency) -> bool {
    match dep {
        Dependency::Tgd(t) => satisfies_tgd(instance, t),
        Dependency::Egd(e) => satisfies_egd(instance, e),
    }
}

/// Returns `true` iff `instance ⊨ Σ` for every dependency of the set.
pub fn satisfies_all(instance: &Instance, sigma: &DependencySet) -> bool {
    sigma.iter().all(|(_, d)| satisfies(instance, d))
}

/// Returns the dependencies of `sigma` violated by `instance`, together with a
/// violating homomorphism for each (the first one found).
pub fn violations(instance: &Instance, sigma: &DependencySet) -> Vec<(usize, Assignment)> {
    let mut out = Vec::new();
    for (id, dep) in sigma.iter() {
        match dep {
            Dependency::Tgd(t) => {
                let head_search = HomomorphismSearch::new(t.head(), instance);
                let found = HomomorphismSearch::new(t.body(), instance).for_each_extending(
                    &Assignment::new(),
                    &mut |h| {
                        if head_search
                            .for_each_extending::<()>(h, &mut |_| ControlFlow::Break(()))
                            .is_some()
                        {
                            ControlFlow::Continue(())
                        } else {
                            ControlFlow::Break(h.clone())
                        }
                    },
                );
                if let Some(h) = found {
                    out.push((id.0, h));
                }
            }
            Dependency::Egd(e) => {
                for h in homomorphisms(&e.body, instance) {
                    if h.get(e.left) != h.get(e.right) {
                        out.push((id.0, h));
                        break;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Fact;
    use crate::builder::{atom, var};
    use crate::parser::parse_program;
    use crate::term::{Constant, GroundTerm, NullValue};

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }
    fn gn(i: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(i))
    }

    fn sigma1() -> DependencySet {
        parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            "#,
        )
        .unwrap()
        .dependencies
    }

    #[test]
    fn example1_initial_database_satisfies_all_but_r1() {
        let sigma = sigma1();
        let d = Instance::from_facts(vec![Fact::from_parts("N", vec![gc("a")])]);
        assert!(!satisfies(&d, sigma.get(crate::DepId(0))));
        assert!(satisfies(&d, sigma.get(crate::DepId(1))));
        assert!(satisfies(&d, sigma.get(crate::DepId(2))));
        assert!(!satisfies_all(&d, &sigma));
        let v = violations(&d, &sigma);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, 0);
    }

    #[test]
    fn example1_final_instance_satisfies_all() {
        let sigma = sigma1();
        // {N(a), E(a, a)} is the result of the terminating sequence of Example 1.
        let j = Instance::from_facts(vec![
            Fact::from_parts("N", vec![gc("a")]),
            Fact::from_parts("E", vec![gc("a"), gc("a")]),
        ]);
        assert!(satisfies_all(&j, &sigma));
    }

    #[test]
    fn egd_violation_detected() {
        let sigma = sigma1();
        let k2 = Instance::from_facts(vec![
            Fact::from_parts("N", vec![gc("a")]),
            Fact::from_parts("E", vec![gc("a"), gn(1)]),
        ]);
        // r3 is violated: a ≠ η1.
        assert!(!satisfies(&k2, sigma.get(crate::DepId(2))));
        // r2 is violated too (no N(η1)).
        assert!(!satisfies(&k2, sigma.get(crate::DepId(1))));
    }

    #[test]
    fn full_tgd_satisfaction() {
        let t = Tgd::new(
            None,
            vec![atom("E", vec![var("x"), var("y")])],
            vec![atom("E", vec![var("y"), var("x")])],
        )
        .unwrap();
        let sym = Instance::from_facts(vec![
            Fact::from_parts("E", vec![gc("a"), gc("b")]),
            Fact::from_parts("E", vec![gc("b"), gc("a")]),
        ]);
        assert!(satisfies_tgd(&sym, &t));
        let asym = Instance::from_facts(vec![Fact::from_parts("E", vec![gc("a"), gc("b")])]);
        assert!(!satisfies_tgd(&asym, &t));
    }

    #[test]
    fn empty_instance_satisfies_everything() {
        let sigma = sigma1();
        let empty = Instance::new();
        assert!(satisfies_all(&empty, &sigma));
        assert!(violations(&empty, &sigma).is_empty());
    }

    #[test]
    fn satisfies_egd_agrees_with_the_indexed_engine_enumeration() {
        // `satisfies_egd` quantifies over exactly the body homomorphisms the shared
        // join engine enumerates (it runs `HomomorphismSearch` directly), so it
        // holds iff the equality check holds on each of them. The enumeration here
        // is done over a
        // maintained `IndexedInstance` — the probe-counter assertion shows this
        // cross-check exercised the indexed path (the engine-side routing proof for
        // activity checks is `tgd_activity_checks_route_through_the_maintained_index`
        // in `chase_trigger`) — and the instance is chosen so that index correctness
        // matters: a null collides with a constant-carrying fact and the body
        // repeats a variable across atoms.
        use crate::index::IndexedInstance;
        use std::ops::ControlFlow;
        let sigma = parse_program("k: E(?x, ?y), E(?y, ?z) -> ?x = ?z.")
            .unwrap()
            .dependencies;
        let egd = match sigma.get(crate::DepId(0)) {
            Dependency::Egd(e) => e.clone(),
            _ => unreachable!("k is an EGD"),
        };
        let k = Instance::from_facts(vec![
            Fact::from_parts("E", vec![gc("a"), gn(1)]),
            Fact::from_parts("E", vec![gn(1), gc("a")]),
            Fact::from_parts("E", vec![gn(1), gc("b")]),
        ]);
        let indexed = IndexedInstance::from_instance(k.clone());
        let before = indexed.probe_count();
        let mut homs = Vec::new();
        crate::homomorphism::HomomorphismSearch::over_index(&egd.body, &indexed)
            .for_each_extending::<()>(&Assignment::new(), &mut |h| {
                homs.push(h.clone());
                ControlFlow::Continue(())
            });
        assert!(
            indexed.probe_count() > before,
            "the EGD body join did not touch the position index"
        );
        // Three body matches: (a,η1,a) and (η1,a,η1) satisfy the equality,
        // (a,η1,b) violates it.
        assert_eq!(homs.len(), 3);
        let equal = |h: &Assignment| h.get(egd.left) == h.get(egd.right);
        assert_eq!(homs.iter().filter(|h| !equal(h)).count(), 1);
        assert!(!satisfies_egd(&k, &egd));
        assert_eq!(satisfies_egd(&k, &egd), homs.iter().all(equal));
    }

    #[test]
    fn example6_database_satisfies_its_tgd() {
        // D = {E(a,b)}, r : E(x,y) -> ∃z E(x,z). D ⊨ r.
        let sigma = parse_program("r: E(?x, ?y) -> exists ?z: E(?x, ?z).")
            .unwrap()
            .dependencies;
        let d = Instance::from_facts(vec![Fact::from_parts("E", vec![gc("a"), gc("b")])]);
        assert!(satisfies_all(&d, &sigma));
    }
}
