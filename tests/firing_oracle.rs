//! The firing test's witness checks against the earlier `Instance`-based code, kept
//! here verbatim as an oracle: `simulate_step`, `standard_step` and
//! `witness_is_blocked`.
//!
//! The library reports a witness as a view of its candidate's facts and runs
//! `is_standard_step` and Definition 2's `is_blocked_by` on those facts. The oracle
//! builds `K` as a columnar `Instance`, simulates `r1`'s step on it for `J`, and runs
//! the join engine. For every witness of every ordered pair of the golden corpus,
//! under both applicabilities, the old step must exist, `K ⊨ h2(r2)`, `J ⊭ h2(r2)`
//! and `h2(Body(r2)) ⊄ K` must hold, and both checks must agree with the oracle's.

use chase_core::homomorphism::exists_homomorphism_extending;
use chase_core::parser::parse_dependencies;
use chase_core::satisfaction::satisfies_under;
use chase_core::{Dependency, DependencySet, Fact, Instance};
use chase_criteria::{for_each_firing_witness, Applicability, FiringConfig, FiringWitness};
use chase_ontology::corpus::{paper_classes, scaled_paper_corpus};
use chase_ontology::families::atlas_corpus;
use std::ops::ControlFlow;

const SEED: u64 = 20160396;

/// The programs of `tests/firing_golden.rs`: the paper examples, the atlas at size 8
/// and the first third of every Table 2(a) class at scale 0.003.
fn programs() -> Vec<(String, DependencySet)> {
    let paper = [
        (
            "Σ1",
            "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> ?x = ?y.",
        ),
        (
            "Σ10",
            "r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z). r2: E(?x, ?y, ?y) -> N(?y). r3: E(?x, ?y, ?z) -> ?y = ?z.",
        ),
        (
            "Σ11",
            "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> E(?y, ?x).",
        ),
        (
            "adornment reproducer",
            "a1: C0(?x) -> exists ?y: R0(?y, ?x). c1: R0(?x, ?y) -> C2(?x). c2: C2(?x) -> C3(?x).
             g1: C0(?x) -> exists ?y: Rcyc(?x, ?y). g2: Rcyc(?x, ?y) -> C0(?y).
             e1: R0(?x, ?y), R0(?x, ?z) -> ?y = ?z.",
        ),
    ];
    let mut out: Vec<(String, DependencySet)> = paper
        .iter()
        .map(|(name, src)| (name.to_string(), parse_dependencies(src).unwrap()))
        .collect();
    for p in atlas_corpus(&[8], SEED) {
        out.push((format!("atlas/{}/{}", p.family, p.size), p.sigma));
    }
    let classes = paper_classes();
    let mut taken = vec![0; classes.len()];
    for (i, g) in scaled_paper_corpus(SEED, 0.55, 0.003)
        .into_iter()
        .enumerate()
    {
        let class = g.class_index;
        if taken[class] == classes[class].tests.div_ceil(3) {
            continue;
        }
        taken[class] += 1;
        out.push((format!("{}#{i}", g.class_id), g.sigma));
    }
    out
}

#[test]
fn standard_witnesses_agree_with_the_instance_checks() {
    check_against_the_oracle(Applicability::Standard, 68_272, 65_330);
}

#[test]
fn oblivious_witnesses_agree_with_the_instance_checks() {
    check_against_the_oracle(Applicability::Oblivious, 69_400, 66_205);
}

/// Runs every witness of the corpus through [`check_witness`] and pins how many
/// there are and how many of them Definition 2 blocks.
fn check_against_the_oracle(
    applicability: Applicability,
    expected_witnesses: usize,
    expected_blocked: usize,
) {
    let config = FiringConfig {
        applicability,
        ..FiringConfig::default()
    };
    let (mut pairs, mut witnesses, mut blocked) = (0, 0, 0);
    for (name, sigma) in programs() {
        let full_deps: Vec<&Dependency> = sigma
            .iter()
            .filter(|(_, d)| d.is_full())
            .map(|(_, d)| d)
            .collect();
        for (i, r1) in sigma.iter() {
            for (j, r2) in sigma.iter() {
                let at = format!("{name}: {applicability:?} ({}, {})", i.0, j.0);
                pairs += 1;
                for_each_firing_witness(r1, r2, &config, &mut |w| {
                    witnesses += 1;
                    blocked += usize::from(check_witness(&at, r1, r2, w, &config, &full_deps));
                    ControlFlow::Continue(())
                });
            }
        }
    }
    assert_eq!(pairs, 17_683, "ordered pairs of the corpus");
    assert_eq!(witnesses, expected_witnesses, "{applicability:?} witnesses");
    assert_eq!(
        blocked, expected_blocked,
        "{applicability:?} blocked witnesses"
    );
}

/// Checks one witness against the oracle; returns whether it is blocked.
fn check_witness(
    at: &str,
    r1: &Dependency,
    r2: &Dependency,
    w: &FiringWitness<'_>,
    config: &FiringConfig,
    full_deps: &[&Dependency],
) -> bool {
    let k = Instance::from_facts(w.k.iter().map(|&f| f.clone()));
    assert_eq!(k.len(), w.k.len(), "{at}: K lists a fact twice");
    let (j, gamma) = oracle::simulate_step(&k, r1, w.h1, config.applicability)
        .unwrap_or_else(|| panic!("{at}: no step of r1 on K"));
    assert_eq!(gamma.mapping().is_some(), r1.is_egd(), "{at}: substitution");
    if r1.is_tgd() {
        assert!(k.len() <= j.len(), "{at}: a TGD step shrinks K");
    }
    assert!(satisfies_under(&k, r2, w.h2), "{at}: K ⊭ h2(r2)");
    assert!(!satisfies_under(&j, r2, w.h2), "{at}: J ⊨ h2(r2)");
    let image: Vec<Fact> = r2
        .body()
        .iter()
        .map(|a| w.h2.apply_atom(a).expect("h2 binds Body(r2)"))
        .collect();
    assert!(
        !image.iter().all(|f| k.contains(f)),
        "{at}: h2 maps Body(r2) into K"
    );
    let standard = match r1 {
        Dependency::Egd(_) => true,
        Dependency::Tgd(tgd) => !exists_homomorphism_extending(&tgd.head, &k, w.h1),
    };
    assert_eq!(w.is_standard_step(), standard, "{at}: standard step");
    let old = oracle::FiringWitness {
        k,
        h2: w.h2.clone(),
    };
    let blocked = oracle::witness_is_blocked(full_deps, &old, r2);
    assert_eq!(w.is_blocked_by(full_deps, r2), blocked, "{at}: blocked");
    blocked
}

/// The `Instance`-based step simulators and blocking check the library used before
/// it ran them on the witness's facts.
mod oracle {
    use chase_core::homomorphism::{Assignment, HomomorphismSearch};
    use chase_core::satisfaction::satisfies_under;
    use chase_core::substitution::NullSubstitution;
    use chase_core::{Dependency, Egd, GroundTerm, Instance};
    use chase_criteria::Applicability;
    use std::borrow::Borrow;
    use std::ops::ControlFlow;

    /// The fields of the earlier witness that `witness_is_blocked` reads.
    pub struct FiringWitness {
        pub k: Instance,
        pub h2: Assignment,
    }

    /// Simulates a single chase step of `dep` on `k` under `h`, returning the successor and
    /// the substitution, or `None` if no step exists (inapplicable or failing).
    pub fn simulate_step(
        k: &Instance,
        dep: &Dependency,
        h: &Assignment,
        applicability: Applicability,
    ) -> Option<(Instance, NullSubstitution)> {
        match dep {
            Dependency::Tgd(tgd) => {
                if applicability == Applicability::Standard
                    && chase_core::homomorphism::exists_homomorphism_extending(&tgd.head, k, h)
                {
                    return None;
                }
                let mut j = k.clone();
                let mut extended = h.clone();
                for v in tgd.existential_variables() {
                    let n = j.fresh_null();
                    extended.bind(v, GroundTerm::Null(n));
                }
                for atom in &tgd.head {
                    let fact = extended.apply_atom(atom).expect("head variables bound");
                    j.insert(fact);
                }
                Some((j, NullSubstitution::empty()))
            }
            Dependency::Egd(egd) => {
                let gamma = egd_substitution(egd, h)?;
                Some((k.apply_substitution(&gamma), gamma))
            }
        }
    }

    /// The substitution of an EGD step under `h`, or `None` if there is no step: the two
    /// sides are equal, or both are constants (a failing step).
    fn egd_substitution(egd: &Egd, h: &Assignment) -> Option<NullSubstitution> {
        let a = h.get(egd.left)?;
        let b = h.get(egd.right)?;
        match (a, b) {
            _ if a == b => None,
            (GroundTerm::Const(_), GroundTerm::Const(_)) => None,
            (GroundTerm::Null(n), other) | (other, GroundTerm::Null(n)) => {
                Some(NullSubstitution::single(n, other))
            }
        }
    }

    /// Checks the blocking condition of Definition 2 for a single witness: is there a full
    /// dependency `r3` and a standard chase step on `K` whose result satisfies `h2(r2)`?
    pub fn witness_is_blocked<D: Borrow<Dependency>>(
        full_deps: &[D],
        witness: &FiringWitness,
        r2: &Dependency,
    ) -> bool {
        for r3 in full_deps {
            let r3 = r3.borrow();
            let blocked = HomomorphismSearch::new(r3.body(), &witness.k).for_each_extending(
                &Assignment::new(),
                &mut |h3| {
                    if let Some(j_prime) = standard_step(&witness.k, r3, h3) {
                        if satisfies_under(&j_prime, r2, &witness.h2) {
                            return ControlFlow::Break(());
                        }
                    }
                    ControlFlow::Continue(())
                },
            );
            if blocked.is_some() {
                return true;
            }
        }
        false
    }

    /// Simulates one standard chase step of the full dependency `r3` under `h3`, returning
    /// the successor instance if the step is applicable and non-failing.
    fn standard_step(k: &Instance, r3: &Dependency, h3: &Assignment) -> Option<Instance> {
        match r3 {
            Dependency::Tgd(tgd) => {
                if chase_core::homomorphism::exists_homomorphism_extending(&tgd.head, k, h3) {
                    return None;
                }
                // Full TGD: no fresh nulls are needed.
                let mut j = k.clone();
                for atom in &tgd.head {
                    j.insert(h3.apply_atom(atom).expect("full TGD head variables bound"));
                }
                Some(j)
            }
            Dependency::Egd(egd) => {
                let a = h3.get(egd.left)?;
                let b = h3.get(egd.right)?;
                if a == b {
                    return None;
                }
                let gamma = match (a, b) {
                    (GroundTerm::Const(_), GroundTerm::Const(_)) => return None,
                    (GroundTerm::Null(n), other) => chase_core::NullSubstitution::single(n, other),
                    (other, GroundTerm::Null(n)) => chase_core::NullSubstitution::single(n, other),
                };
                Some(k.apply_substitution(&gamma))
            }
        }
    }
}
