//! The firing test against a reference enumeration: the earlier `Instance`-based
//! `for_each_firing_witness`, kept here verbatim as an oracle.
//!
//! The oracle builds a columnar `Instance` for every candidate `(K, h1)`, simulates
//! `r1`'s step on it and runs the join engine for `h2`. The library evaluates each
//! distinct candidate once over its facts and builds instances only for the witnesses
//! it reports. On every ordered pair of the golden corpus, under both applicabilities,
//! the two must give the same answer and the same witnesses, duplicates aside, and no
//! oracle witness may map `Body(r2)` into `K` (the lemma the library relies on).

use chase_core::homomorphism::{exists_homomorphism_extending, homomorphisms, Assignment};
use chase_core::parser::parse_dependencies;
use chase_core::satisfaction::satisfies_under;
use chase_core::substitution::NullSubstitution;
use chase_core::{
    Atom, Constant, Dependency, DependencySet, Fact, GroundTerm, Instance, NullValue, Term,
    Variable,
};
use chase_criteria::firing::shares_predicate;
use chase_criteria::{for_each_firing_witness, Applicability, FiringAnswer, FiringConfig};
use chase_ontology::corpus::{paper_classes, scaled_paper_corpus};
use chase_ontology::families::atlas_corpus;
use std::collections::BTreeSet;
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

/// A witness as a comparable value: sorted `K` facts, sorted `J` facts, `h1`, `h2`
/// and the step's substitution.
type Key = (
    Vec<Fact>,
    Vec<Fact>,
    Vec<(Variable, GroundTerm)>,
    Vec<(Variable, GroundTerm)>,
    Option<(NullValue, GroundTerm)>,
);

fn sorted(instance: &Instance) -> Vec<Fact> {
    let mut facts: Vec<Fact> = instance.facts().collect();
    facts.sort();
    facts
}

fn key(
    k: &Instance,
    j: &Instance,
    h1: &Assignment,
    h2: &Assignment,
    gamma: &NullSubstitution,
) -> Key {
    (
        sorted(k),
        sorted(j),
        h1.canonical(),
        h2.canonical(),
        gamma.mapping(),
    )
}

#[test]
fn the_standard_firing_test_reports_the_oracle_witnesses() {
    check_against_the_oracle(Applicability::Standard);
}

#[test]
fn the_oblivious_firing_test_reports_the_oracle_witnesses() {
    check_against_the_oracle(Applicability::Oblivious);
}

fn check_against_the_oracle(applicability: Applicability) {
    let config = FiringConfig {
        applicability,
        ..FiringConfig::default()
    };
    let mut pairs = 0;
    let mut witnesses = 0;
    for (name, sigma) in programs() {
        for (i, r1) in sigma.iter() {
            for (j, r2) in sigma.iter() {
                let at = format!("{name}: {applicability:?} ({}, {})", i.0, j.0);
                let mut expected = BTreeSet::new();
                let oracle_answer = oracle::for_each_firing_witness(r1, r2, &config, &mut |w| {
                    let image: Vec<Fact> = r2
                        .body()
                        .iter()
                        .map(|a| w.h2.apply_atom(a).expect("h2 binds Body(r2)"))
                        .collect();
                    assert!(
                        !image.iter().all(|f| w.k.contains(f)),
                        "{at}: an oracle witness maps Body(r2) into K"
                    );
                    expected.insert(key(&w.k, &w.j, &w.h1, &w.h2, &w.gamma));
                    ControlFlow::Continue(())
                });
                let mut actual = Vec::new();
                let answer = for_each_firing_witness(r1, r2, &config, &mut |w| {
                    actual.push(key(&w.k, &w.j, &w.h1, &w.h2, &w.gamma));
                    ControlFlow::Continue(())
                });
                assert_eq!(answer, oracle_answer, "{at}: answer");
                let distinct: BTreeSet<Key> = actual.iter().cloned().collect();
                assert_eq!(
                    distinct.len(),
                    actual.len(),
                    "{at}: a witness reported twice"
                );
                assert_eq!(distinct, expected, "{at}: witnesses");
                pairs += 1;
                witnesses += actual.len();
                if answer == FiringAnswer::Unknown {
                    continue;
                }
                // An accepting callback stops at a witness of the same set.
                let mut first = None;
                let stopped = for_each_firing_witness(r1, r2, &config, &mut |w| {
                    first = Some(key(&w.k, &w.j, &w.h1, &w.h2, &w.gamma));
                    ControlFlow::Break(())
                });
                assert_eq!(stopped == FiringAnswer::Fires, !expected.is_empty(), "{at}");
                assert!(first.is_none_or(|k| expected.contains(&k)), "{at}");
            }
        }
    }
    assert!(pairs > 1000, "the corpus covers many pairs ({pairs})");
    assert!(witnesses > 0);
}

/// The earlier enumeration, kept as the reference.
mod oracle {
    use super::*;

    /// A witness that enforcing `r1` can make `r2` violated.
    pub struct FiringWitness {
        pub k: Instance,
        pub j: Instance,
        pub h1: Assignment,
        pub h2: Assignment,
        pub gamma: NullSubstitution,
    }

    pub fn for_each_firing_witness(
        r1: &Dependency,
        r2: &Dependency,
        config: &FiringConfig,
        on_witness: &mut dyn FnMut(&FiringWitness) -> ControlFlow<()>,
    ) -> FiringAnswer {
        if r1.is_tgd() && !shares_predicate(r1.head_atoms(), r2.body()) {
            return FiringAnswer::DoesNotFire;
        }

        let rename = |v: &Variable| Variable::new(&format!("@r2_{}", v.name()));
        let body2_renamed: Vec<Atom> = r2
            .body()
            .iter()
            .map(|a| {
                a.map_terms(|t| match t {
                    Term::Var(v) => Term::Var(rename(v)),
                    other => *other,
                })
            })
            .collect();

        let vars1: Vec<Variable> = r1.body_variables().into_iter().collect();
        let vars2: Vec<Variable> = body2_renamed
            .iter()
            .flat_map(|a| a.variables())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let all_vars: Vec<Variable> = vars1.iter().chain(vars2.iter()).copied().collect();
        if all_vars.len() > config.max_variables {
            return FiringAnswer::Unknown;
        }

        let n = all_vars.len();
        let block_values: Vec<(GroundTerm, GroundTerm)> = (0..n)
            .map(|block| {
                (
                    GroundTerm::Null(NullValue(block as u64)),
                    GroundTerm::Const(Constant::new(&format!("@c{block}"))),
                )
            })
            .collect();
        let egd_sides = r1.as_egd().and_then(|egd| {
            let side = |v: Variable| all_vars.iter().position(|w| *w == v);
            Some((side(egd.left)?, side(egd.right)?))
        });

        let mut rgs = vec![0usize; n];
        loop {
            let block_count = rgs.iter().copied().max().map(|m| m + 1).unwrap_or(0);
            for labelling in block_labellings(r1, block_count) {
                if let Some((left, right)) = egd_sides {
                    let (a, b) = (rgs[left], rgs[right]);
                    if a == b || !(labelling[a] || labelling[b]) {
                        continue;
                    }
                }
                if let ControlFlow::Break(()) = try_partition(
                    r1,
                    r2,
                    &body2_renamed,
                    &all_vars,
                    &rgs,
                    &labelling,
                    &block_values,
                    config,
                    on_witness,
                ) {
                    return FiringAnswer::Fires;
                }
            }
            if !next_restricted_growth_string(&mut rgs) {
                break;
            }
        }
        FiringAnswer::DoesNotFire
    }

    fn block_labellings(r1: &Dependency, block_count: usize) -> Vec<Vec<bool>> {
        let all_nulls = vec![true; block_count];
        let all_consts = vec![false; block_count];
        let mut out = vec![all_nulls, all_consts];
        if r1.is_egd() && block_count >= 2 {
            let mut first_const = vec![true; block_count];
            first_const[0] = false;
            let mut second_const = vec![true; block_count];
            second_const[1] = false;
            out.push(first_const);
            out.push(second_const);
        }
        out.dedup();
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn try_partition(
        r1: &Dependency,
        r2: &Dependency,
        body2_renamed: &[Atom],
        all_vars: &[Variable],
        rgs: &[usize],
        labelling: &[bool],
        block_values: &[(GroundTerm, GroundTerm)],
        config: &FiringConfig,
        on_witness: &mut dyn FnMut(&FiringWitness) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut sigma_map = Assignment::new();
        for (v, &block) in all_vars.iter().zip(rgs.iter()) {
            let (null, constant) = block_values[block];
            sigma_map.bind(*v, if labelling[block] { null } else { constant });
        }

        let facts1: Vec<Fact> = r1
            .body()
            .iter()
            .map(|a| {
                sigma_map
                    .apply_atom(a)
                    .expect("all body variables are assigned")
            })
            .collect();
        let facts2: Vec<Fact> = body2_renamed
            .iter()
            .map(|a| {
                sigma_map
                    .apply_atom(a)
                    .expect("all body variables are assigned")
            })
            .collect();

        let h1 = restrict_to(&sigma_map, &r1.body_variables());

        for mask in 0..(1u32 << facts2.len().min(20)) {
            let mut k = Instance::from_facts(facts1.iter().cloned());
            for (idx, f) in facts2.iter().enumerate() {
                if mask & (1 << idx) != 0 {
                    k.insert(f.clone());
                }
            }
            let step = simulate_step(&k, r1, &h1, config.applicability);
            let (j, gamma) = match step {
                Some(x) => x,
                None => continue,
            };
            for h2 in homomorphisms(r2.body(), &j) {
                if satisfies_under(&k, r2, &h2) && !satisfies_under(&j, r2, &h2) {
                    let witness = FiringWitness {
                        k: k.clone(),
                        j: j.clone(),
                        h1: h1.clone(),
                        h2,
                        gamma: gamma.clone(),
                    };
                    if let ControlFlow::Break(()) = on_witness(&witness) {
                        return ControlFlow::Break(());
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    fn simulate_step(
        k: &Instance,
        dep: &Dependency,
        h: &Assignment,
        applicability: Applicability,
    ) -> Option<(Instance, NullSubstitution)> {
        match dep {
            Dependency::Tgd(tgd) => {
                if applicability == Applicability::Standard
                    && exists_homomorphism_extending(&tgd.head, k, h)
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
                let a = h.get(egd.left)?;
                let b = h.get(egd.right)?;
                if a == b {
                    return None;
                }
                let gamma = match (a, b) {
                    (GroundTerm::Const(_), GroundTerm::Const(_)) => return None,
                    (GroundTerm::Null(n), other) => NullSubstitution::single(n, other),
                    (other, GroundTerm::Null(n)) => NullSubstitution::single(n, other),
                };
                Some((k.apply_substitution(&gamma), gamma))
            }
        }
    }

    fn restrict_to(assignment: &Assignment, vars: &BTreeSet<Variable>) -> Assignment {
        Assignment::from_pairs(
            assignment
                .iter()
                .filter(|(v, _)| vars.contains(v))
                .collect::<Vec<_>>(),
        )
    }

    fn next_restricted_growth_string(rgs: &mut [usize]) -> bool {
        let n = rgs.len();
        if n == 0 {
            return false;
        }
        for i in (1..n).rev() {
            let prefix_max = rgs[..i].iter().copied().max().unwrap_or(0);
            if rgs[i] <= prefix_max {
                rgs[i] += 1;
                for slot in rgs.iter_mut().skip(i + 1) {
                    *slot = 0;
                }
                return true;
            }
        }
        false
    }
}
