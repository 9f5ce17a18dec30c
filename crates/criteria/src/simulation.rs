//! EGD→TGD simulations: the *natural simulation* (Gottlob & Nash 2008) and the
//! *substitution-free simulation* (Marnette 2009), as discussed in Section 4 and
//! Example 8 of the paper.
//!
//! Both rewritings produce a TGD-only set `Σ'` such that termination of `Σ'` implies
//! termination of `Σ` (soundness), but not vice versa (Theorem 2) — which is precisely
//! why criteria that rely on them lose precision on EGD-heavy inputs.
//!
//! SwA and MFA analyse the substitution-free simulation of an EGD-bearing set; an
//! analysis builds it once ([`simulation_in`]), by whichever of the two runs first.
//! The order in which a simulation interns the names it mints (`Eq`, the
//! reflexivity rules' `x0…xk`, the split variables) is part of its behaviour:
//! frontier variables are sorted by interned id, and the position criteria number
//! their graphs' nodes in frontier order. `tests/criteria_golden.rs` pins it.

use crate::criterion::AnalysisContext;
use chase_core::{Atom, Dependency, DependencySet, Predicate, Term, Tgd, Variable};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// The name of the auxiliary equality predicate introduced by the simulations, when
/// no predicate of `Σ` has it; otherwise the first of `Eq1`, `Eq2`, … that none has.
pub const EQ_PREDICATE: &str = "Eq";

fn eq_atom(eq: Predicate, a: Term, b: Term) -> Atom {
    Atom {
        predicate: eq,
        terms: vec![a, b],
    }
}

/// Generates the equality predicate, binary and named apart from every predicate of
/// `sigma`, and the equality axioms shared by both simulations: symmetry,
/// transitivity and reflexivity-on-active-domain rules (one per predicate position).
fn equality_axioms(sigma: &DependencySet) -> (Predicate, Vec<Dependency>) {
    let x = Term::Var(Variable::new("x"));
    let y = Term::Var(Variable::new("y"));
    let z = Term::Var(Variable::new("z"));
    let predicates = sigma.predicates();
    let eq = (0..)
        .map(|k| match k {
            0 => Predicate::new(EQ_PREDICATE, 2),
            k => Predicate::new(&format!("{EQ_PREDICATE}{k}"), 2),
        })
        .find(|eq| predicates.iter().all(|p| p.name != eq.name))
        .expect("some name is free");
    let mut out = vec![
        Dependency::Tgd(
            Tgd::new(
                Some("eq_sym".into()),
                vec![eq_atom(eq, x, y)],
                vec![eq_atom(eq, y, x)],
            )
            .expect("well-formed"),
        ),
        Dependency::Tgd(
            Tgd::new(
                Some("eq_trans".into()),
                vec![eq_atom(eq, x, y), eq_atom(eq, y, z)],
                vec![eq_atom(eq, x, z)],
            )
            .expect("well-formed"),
        ),
    ];
    let widest = predicates.iter().map(|p| p.arity).max().unwrap_or(0);
    let xs: Vec<Term> = (0..widest)
        .map(|i| Term::Var(Variable::new(&format!("x{i}"))))
        .collect();
    for pred in predicates {
        if pred.arity == 0 {
            continue;
        }
        let vars = &xs[..pred.arity];
        let body = vec![Atom {
            predicate: pred,
            terms: vars.to_vec(),
        }];
        let head: Vec<Atom> = vars.iter().map(|v| eq_atom(eq, *v, *v)).collect();
        let mut label = String::from("eq_refl_");
        pred.name.push_to(&mut label);
        out.push(Dependency::Tgd(
            Tgd::new(Some(label), body, head).expect("well-formed"),
        ));
    }
    (eq, out)
}

/// Replaces every EGD `ϕ → x1 = x2` by the TGD `ϕ → Eq(x1, x2)`.
fn egd_to_eq_tgd(eq: Predicate, dep: &Dependency) -> Dependency {
    match dep {
        Dependency::Egd(e) => Dependency::Tgd(
            Tgd::new(
                e.label.clone(),
                e.body.clone(),
                vec![eq_atom(eq, Term::Var(e.left), Term::Var(e.right))],
            )
            .expect("EGD bodies are valid TGD bodies"),
        ),
        other => other.clone(),
    }
}

/// The **substitution-free simulation** of `Σ` (Marnette 2009):
///
/// 1. add the equality axioms;
/// 2. replace every EGD head `x1 = x2` with `Eq(x1, x2)`;
/// 3. in every TGD body in which a variable `x` occurs more than once, keep the first
///    occurrence, rename each further occurrence `k` to a fresh variable `x__k`, and
///    add `Eq(x, x__k)` to the body. The separator grows past `__` where that name
///    is a variable of the dependency already.
///
/// The rewriting in the paper's Example 8 chooses one occurrence to rename
/// non-deterministically; renaming all further occurrences (as done here) is the
/// deterministic variant described by Marnette and is equivalent for the purposes of
/// the termination analysis.
pub fn substitution_free_simulation(sigma: &DependencySet) -> DependencySet {
    let (eq, mut out) = equality_axioms(sigma);
    for (_, dep) in sigma.iter() {
        let dep = egd_to_eq_tgd(eq, dep);
        let tgd = dep
            .as_tgd()
            .expect("all dependencies are TGDs at this point");
        let repeated = repeated_body_occurrences(tgd);
        if repeated == 0 {
            out.push(dep);
            continue;
        }
        // Split repeated body variables, into names no variable of `tgd` has.
        let mut taken: BTreeSet<Variable> = tgd
            .body()
            .iter()
            .chain(tgd.head())
            .flat_map(|atom| &atom.terms)
            .filter_map(|t| match t {
                Term::Var(v) => Some(*v),
                _ => None,
            })
            .collect();
        let mut seen: BTreeMap<Variable, usize> = BTreeMap::new();
        let mut extra_eq: Vec<Atom> = Vec::with_capacity(repeated);
        let mut new_body: Vec<Atom> = Vec::with_capacity(tgd.body().len() + repeated);
        for atom in tgd.body() {
            let mut terms = Vec::with_capacity(atom.terms.len());
            for t in &atom.terms {
                match t {
                    Term::Var(v) => {
                        let count = seen.entry(*v).or_insert(0);
                        if *count == 0 {
                            *count = 1;
                            terms.push(Term::Var(*v));
                        } else {
                            *count += 1;
                            let mut separator = String::from("__");
                            let fresh = loop {
                                let name = format!("{}{separator}{}", v.name(), *count);
                                let fresh = Variable::new(&name);
                                if taken.insert(fresh) {
                                    break fresh;
                                }
                                separator.push('_');
                            };
                            extra_eq.push(eq_atom(eq, Term::Var(*v), Term::Var(fresh)));
                            terms.push(Term::Var(fresh));
                        }
                    }
                    other => terms.push(*other),
                }
            }
            new_body.push(Atom {
                predicate: atom.predicate,
                terms,
            });
        }
        new_body.extend(extra_eq);
        out.push(Dependency::Tgd(
            Tgd::new(
                tgd.label().map(str::to_owned),
                new_body,
                tgd.head().to_vec(),
            )
            .expect("rewritten TGD is well-formed"),
        ));
    }
    DependencySet::from_vec(out)
}

/// The substitution-free simulation of the context's set, built once per analysis
/// by whichever of SwA and MFA asks first.
pub fn simulation_in(cx: &AnalysisContext) -> Rc<DependencySet> {
    cx.shared("substitution-free simulation", || {
        substitution_free_simulation(cx.sigma())
    })
}

/// The occurrences of body variables after each one's first: the `Eq` atoms
/// that splitting the repeated variables adds to the body.
fn repeated_body_occurrences(tgd: &Tgd) -> usize {
    let terms = || tgd.body().iter().flat_map(|atom| &atom.terms);
    terms()
        .enumerate()
        .filter(|&(i, t)| matches!(t, Term::Var(_)) && terms().take(i).any(|u| u == t))
        .count()
}

/// The **natural simulation** of `Σ` (Gottlob & Nash 2008): equality axioms, EGD heads
/// replaced by `Eq`, plus congruence rules that copy facts along `Eq`, one per
/// predicate position:
/// `R(x1, …, xi, …, xn) ∧ Eq(xi, y) → R(x1, …, y, …, xn)`.
pub fn natural_simulation(sigma: &DependencySet) -> DependencySet {
    let (eq, mut out) = equality_axioms(sigma);
    for pred in sigma.predicates() {
        if pred.arity == 0 {
            continue;
        }
        for i in 0..pred.arity {
            let vars: Vec<Term> = (0..pred.arity)
                .map(|k| Term::Var(Variable::new(&format!("x{k}"))))
                .collect();
            let y = Term::Var(Variable::new("y_subst"));
            let mut head_terms = vars.clone();
            head_terms[i] = y;
            let body = vec![
                Atom::from_parts(&pred.name.as_str(), vars.clone()),
                eq_atom(eq, vars[i], y),
            ];
            let head = vec![Atom::from_parts(&pred.name.as_str(), head_terms)];
            out.push(Dependency::Tgd(
                Tgd::new(Some(format!("cong_{}_{}", pred.name, i + 1)), body, head)
                    .expect("well-formed"),
            ));
        }
    }
    for (_, dep) in sigma.iter() {
        out.push(egd_to_eq_tgd(eq, dep));
    }
    DependencySet::from_vec(out)
}

/// Returns `true` iff the set contains at least one EGD (i.e. a simulation would change
/// it).
pub fn has_egds(sigma: &DependencySet) -> bool {
    !sigma.egd_ids().is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;

    fn example8() -> DependencySet {
        parse_dependencies(
            r#"
            r1: A(?x), B(?x) -> C(?x).
            r2: C(?x) -> exists ?y: A(?x), B(?y).
            r3: C(?x) -> exists ?y: A(?y), B(?x).
            r4: A(?x), A(?y) -> ?x = ?y.
            r5: B(?x), B(?y) -> ?x = ?y.
            "#,
        )
        .unwrap()
    }

    #[test]
    fn substitution_free_simulation_of_example8() {
        let sigma = example8();
        let sim = substitution_free_simulation(&sigma);
        // No EGDs remain.
        assert!(sim.egd_ids().is_empty());
        // Equality axioms: symmetry, transitivity, one reflexivity rule per predicate
        // (A, B, C), plus the five rewritten dependencies.
        assert_eq!(sim.len(), 2 + 3 + 5);
        // r1's repeated x is split: its body now has an Eq atom.
        let (_, r1) = sim.by_label("r1").expect("r1 is preserved");
        assert_eq!(r1.body().len(), 3);
        assert!(r1
            .body()
            .iter()
            .any(|a| a.predicate.name.as_str() == EQ_PREDICATE));
        // r4, r5 now produce Eq facts.
        let (_, r4) = sim.by_label("r4").unwrap();
        assert!(r4.is_tgd());
        assert_eq!(r4.head_atoms()[0].predicate.name.as_str(), EQ_PREDICATE);
    }

    #[test]
    fn simulation_of_an_egd_free_set_only_adds_axioms() {
        let sigma = parse_dependencies("r: A(?x) -> B(?x).").unwrap();
        let sim = substitution_free_simulation(&sigma);
        // Symmetry, transitivity, reflexivity for A and B, plus r itself.
        assert_eq!(sim.len(), 5);
        let (_, r) = sim.by_label("r").unwrap();
        assert_eq!(r.body().len(), 1);
    }

    #[test]
    fn natural_simulation_adds_congruence_rules() {
        let sigma = parse_dependencies(
            r#"
            r1: E(?x, ?y) -> ?x = ?y.
            "#,
        )
        .unwrap();
        let sim = natural_simulation(&sigma);
        assert!(sim.egd_ids().is_empty());
        // Congruence rules: one per position of E (2).
        let cong: Vec<_> = sim
            .iter()
            .filter(|(_, d)| d.label().map(|l| l.starts_with("cong_")).unwrap_or(false))
            .collect();
        assert_eq!(cong.len(), 2);
    }

    #[test]
    fn repeated_variables_across_atoms_are_split_once_per_extra_occurrence() {
        let sigma = parse_dependencies("r: T(?x, ?x, ?x) -> U(?x).").unwrap();
        let sim = substitution_free_simulation(&sigma);
        let (_, r) = sim.by_label("r").unwrap();
        // Two extra occurrences ⇒ two Eq atoms, plus the rewritten T atom.
        assert_eq!(r.body().len(), 3);
        let eq_atoms = r
            .body()
            .iter()
            .filter(|a| a.predicate.name.as_str() == EQ_PREDICATE)
            .count();
        assert_eq!(eq_atoms, 2);
        // The T atom now has three distinct variables.
        let t_atom = r
            .body()
            .iter()
            .find(|a| a.predicate.name.as_str() == "T")
            .unwrap();
        assert_eq!(t_atom.variables().len(), 3);
    }

    #[test]
    fn has_egds_detection() {
        assert!(has_egds(&example8()));
        assert!(!has_egds(
            &parse_dependencies("r: A(?x) -> B(?x).").unwrap()
        ));
    }

    #[test]
    fn simulation_preserves_head_structure() {
        let sigma = example8();
        let sim = substitution_free_simulation(&sigma);
        let (_, r2) = sim.by_label("r2").unwrap();
        assert!(r2.is_existential());
        assert_eq!(r2.head_atoms().len(), 2);
    }

    #[test]
    fn a_user_predicate_named_eq_stays_apart_from_the_minted_one() {
        let sigma =
            parse_dependencies("r1: Eq(?x, ?y) -> P(?x). r2: P(?x), P(?y) -> ?x = ?y.").unwrap();
        for sim in [
            substitution_free_simulation(&sigma),
            natural_simulation(&sigma),
        ] {
            let (_, r2) = sim.by_label("r2").unwrap();
            let minted = r2.head_atoms()[0].predicate;
            assert_eq!(minted.name.as_str(), "Eq1");
            let (_, r1) = sim.by_label("r1").unwrap();
            assert_eq!(r1.body()[0].predicate.name.as_str(), "Eq");
            let (_, symmetry) = sim.by_label("eq_sym").unwrap();
            assert_eq!(symmetry.body()[0].predicate, minted);
            // The user's `Eq` is an ordinary predicate of Σ.
            assert!(sim.by_label("eq_refl_Eq").is_some());
        }
    }

    #[test]
    fn a_split_variable_stays_apart_from_a_user_variable() {
        let sigma = parse_dependencies("r: R(?x, ?x__2), S(?x) -> T(?x).").unwrap();
        let sim = substitution_free_simulation(&sigma);
        let (_, r) = sim.by_label("r").unwrap();
        assert_eq!(
            r.to_string(),
            "r: R(?x, ?x__2), S(?x___2), Eq(?x, ?x___2) -> T(?x)"
        );
    }

    #[test]
    fn mfa_rejects_a_cycle_that_a_split_variable_collision_hid() {
        // {R(a, b), S(a)} starts an infinite chase through r; the EGD only makes
        // MFA run on the simulation. Had S's argument been renamed to the user's
        // `x__2`, r would need `Eq(z, ⋆)` after its first step, which nothing
        // derives, and MFA would accept.
        let sigma = parse_dependencies(
            "r: R(?x, ?x__2), S(?x) -> exists ?z: R(?z, ?x), S(?z).
             e: T(?x, ?y) -> ?x = ?y.",
        )
        .unwrap();
        use crate::TerminationCriterion;
        assert!(!crate::ModelFaithfulAcyclicity.accepts(&sigma));
    }
}
