//! Named dependency-set families for the termination-criteria atlas.
//!
//! Each family is a parametric generator: `(size, seed) → Σ` with roughly `size`
//! dependencies, scaling from a handful to thousands. Every family carries a
//! ground truth established *by construction* — either every generated set has a
//! terminating standard chase sequence for every database
//! ([`FamilySpec::expected_terminating`] is `true`), or the set embeds a genuine
//! null-propagation cycle on an otherwise unconstrained role and no terminating
//! sequence exists (`false`). The atlas runner (`table2` in `chase-bench`) uses
//! this as a soundness oracle: a criterion accepting a program from a
//! non-terminating family, or an accepted program exhausting a generous chase
//! budget, is a hard failure.
//!
//! The non-terminating families deliberately reproduce the shape of the
//! historical `adorn_with` soundness gap (a cyclic gadget plus unrelated
//! functional-role EGDs and enough copy-flow for a θ-merge), fencing that bug
//! class off empirically at scale.

use crate::generator::{generate, OntologyProfile};
use chase_core::builder::{atom, var};
use chase_core::{Dependency, DependencySet, Egd, Tgd, Variable};

/// Metadata of one atlas family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FamilySpec {
    /// Stable family name (kebab-case, used as the atlas matrix key).
    pub name: &'static str,
    /// One-line description of the generated shape.
    pub description: &'static str,
    /// Ground truth by construction: `true` iff every generated set has a
    /// terminating standard chase sequence for every database (`CT_std_∃`).
    pub expected_terminating: bool,
}

/// One generated atlas program: a family member at a concrete size.
#[derive(Clone, Debug)]
pub struct AtlasProgram {
    /// The family it was drawn from.
    pub family: &'static str,
    /// The requested size parameter (the actual dependency count is
    /// `sigma.len()`, within a constant factor of this).
    pub size: usize,
    /// Ground truth inherited from the family.
    pub expected_terminating: bool,
    /// The generated dependency set.
    pub sigma: DependencySet,
}

/// All atlas families, terminating first.
pub fn families() -> Vec<FamilySpec> {
    vec![
        FamilySpec {
            name: "transitive-closure",
            description: "layered transitive roles with copy edges (full TGDs only)",
            expected_terminating: true,
        },
        FamilySpec {
            name: "role-chains",
            description: "existential role chains C_i ⊑ ∃R_i, range(R_i) ⊑ C_{i+1}",
            expected_terminating: true,
        },
        FamilySpec {
            name: "functional-roles",
            description: "existential role intros with functional EGDs, forward-flowing ranges",
            expected_terminating: true,
        },
        FamilySpec {
            name: "egd-collapse-cycles",
            description: "Σ1-style loops N_i ⊑ ∃E_i, range(E_i) ⊑ N_i, E_i ⊑ id — only EGD-aware criteria accept",
            expected_terminating: true,
        },
        FamilySpec {
            name: "egd-heavy",
            description: "many functional/key EGDs per role plus acyclic existential intros",
            expected_terminating: true,
        },
        FamilySpec {
            name: "gav-lav-acyclic",
            description: "random forward-flowing GAV+LAV mix from the ontology generator",
            expected_terminating: true,
        },
        FamilySpec {
            name: "gav-lav-cyclic",
            description: "the same mix plus the generator's non-terminating Rcyc gadget",
            expected_terminating: false,
        },
        FamilySpec {
            name: "egd-laundering",
            description: "copies of the minimal adorn_with reproducer: cyclic gadget + unrelated functional EGD + copy chain",
            expected_terminating: false,
        },
    ]
}

fn tgd(body: Vec<chase_core::Atom>, head: Vec<chase_core::Atom>) -> Dependency {
    Dependency::Tgd(Tgd::new(None, body, head).expect("well-formed family TGD"))
}

fn functional_egd(role: &str) -> Dependency {
    Dependency::Egd(
        Egd::new(
            None,
            vec![
                atom(role, vec![var("x"), var("y")]),
                atom(role, vec![var("x"), var("z")]),
            ],
            Variable::new("y"),
            Variable::new("z"),
        )
        .expect("well-formed functional EGD"),
    )
}

fn key_egd(role: &str) -> Dependency {
    Dependency::Egd(
        Egd::new(
            None,
            vec![
                atom(role, vec![var("x"), var("y")]),
                atom(role, vec![var("z"), var("y")]),
            ],
            Variable::new("x"),
            Variable::new("z"),
        )
        .expect("well-formed key EGD"),
    )
}

/// `E_i` transitive plus a copy edge into the next layer: full TGDs only, so the
/// chase never invents nulls and terminates on every database.
fn transitive_closure(size: usize) -> Vec<Dependency> {
    let layers = (size / 2).max(1);
    let mut deps = Vec::with_capacity(2 * layers);
    for i in 0..layers {
        let e = format!("E{i}");
        let next = format!("E{}", i + 1);
        deps.push(tgd(
            vec![
                atom(&e, vec![var("x"), var("y")]),
                atom(&e, vec![var("y"), var("z")]),
            ],
            vec![atom(&e, vec![var("x"), var("z")])],
        ));
        deps.push(tgd(
            vec![atom(&e, vec![var("x"), var("y")])],
            vec![atom(&next, vec![var("x"), var("y")])],
        ));
    }
    deps
}

/// `C_i(x) → ∃y R_i(x,y)` and `R_i(x,y) → C_{i+1}(y)`: nulls flow strictly
/// forward along the chain, so the set is weakly acyclic and terminating.
fn role_chains(size: usize) -> Vec<Dependency> {
    let links = (size / 2).max(1);
    let mut deps = Vec::with_capacity(2 * links);
    for i in 0..links {
        let c = format!("C{i}");
        let r = format!("R{i}");
        let next = format!("C{}", i + 1);
        deps.push(tgd(
            vec![atom(&c, vec![var("x")])],
            vec![atom(&r, vec![var("x"), var("y")])],
        ));
        deps.push(tgd(
            vec![atom(&r, vec![var("x"), var("y")])],
            vec![atom(&next, vec![var("y")])],
        ));
    }
    deps
}

/// Existential role intros with functional EGDs; every range flows into a
/// dedicated sink concept, so there is no feedback and the set is weakly
/// acyclic.
fn functional_roles(size: usize) -> Vec<Dependency> {
    let groups = (size / 4).max(1);
    let mut deps = Vec::with_capacity(4 * groups);
    for i in 0..groups {
        let c = format!("C{i}");
        let r = format!("R{i}");
        let d = format!("D{i}");
        let sink = format!("S{i}");
        deps.push(tgd(
            vec![atom(&c, vec![var("x")])],
            vec![atom(&r, vec![var("x"), var("y")])],
        ));
        deps.push(tgd(
            vec![atom(&r, vec![var("x"), var("y")])],
            vec![atom(&d, vec![var("y")])],
        ));
        deps.push(tgd(
            vec![atom(&d, vec![var("x")])],
            vec![atom(&sink, vec![var("x")])],
        ));
        deps.push(functional_egd(&r));
    }
    deps
}

/// Disjoint copies of the paper's Σ1: `N_i(x) → ∃y E_i(x,y)`,
/// `E_i(x,y) → N_i(y)` and `E_i(x,y) → x = y`. The null-propagation cycle makes
/// every EGD-blind criterion reject, but enforcing the EGD first collapses each
/// invented null into its parent, so an EGD-first sequence terminates
/// (`CT_std_∃`): only the EGD-aware criteria (SAC, Adn∃-C) accept. This family
/// exercises the fixed τ substitution path of `adorn` at scale.
fn egd_collapse_cycles(size: usize) -> Vec<Dependency> {
    let copies = (size / 3).max(1);
    let mut deps = Vec::with_capacity(3 * copies);
    for i in 0..copies {
        let n = format!("N{i}");
        let e = format!("E{i}");
        deps.push(tgd(
            vec![atom(&n, vec![var("x")])],
            vec![atom(&e, vec![var("x"), var("y")])],
        ));
        deps.push(tgd(
            vec![atom(&e, vec![var("x"), var("y")])],
            vec![atom(&n, vec![var("y")])],
        ));
        deps.push(Dependency::Egd(
            Egd::new(
                None,
                vec![atom(&e, vec![var("x"), var("y")])],
                Variable::new("x"),
                Variable::new("y"),
            )
            .expect("well-formed Σ1 EGD"),
        ));
    }
    deps
}

/// Functional and key EGDs on every role, role domains into per-role concepts,
/// and a sparse set of existential intros rooted on dedicated source concepts:
/// EGDs dominate the count and the TGD flow is strictly forward.
fn egd_heavy(size: usize) -> Vec<Dependency> {
    let roles = (size / 4).max(1);
    let mut deps = Vec::with_capacity(4 * roles);
    for i in 0..roles {
        let r = format!("R{i}");
        let d = format!("D{i}");
        deps.push(functional_egd(&r));
        deps.push(key_egd(&r));
        deps.push(tgd(
            vec![atom(&r, vec![var("x"), var("y")])],
            vec![atom(&d, vec![var("x")])],
        ));
        // One existential intro per four roles keeps EGDs the dominant share.
        if i % 4 == 0 {
            let src = format!("Src{i}");
            deps.push(tgd(
                vec![atom(&src, vec![var("x")])],
                vec![atom(&r, vec![var("x"), var("y")])],
            ));
        }
    }
    deps
}

fn gav_lav_profile(size: usize, seed: u64, cyclic: bool) -> OntologyProfile {
    OntologyProfile {
        existential: (size / 4).max(1),
        full: (size / 2).max(2),
        egds: (size / 8).max(1),
        cyclic,
        seed,
    }
}

/// Disjoint copies of the minimal `adorn_with` reproducer (see
/// `tests/adornment_regression.rs`): a cyclic gadget, an unrelated functional
/// EGD and the copy chain that historically enabled the unsound θ-merge. No
/// terminating chase sequence exists for any database touching a gadget
/// concept.
fn egd_laundering(size: usize) -> Vec<Dependency> {
    let copies = (size / 6).max(1);
    let mut deps = Vec::with_capacity(6 * copies);
    for i in 0..copies {
        let c0 = format!("C0v{i}");
        let c2 = format!("C2v{i}");
        let c3 = format!("C3v{i}");
        let r0 = format!("R0v{i}");
        let rcyc = format!("Rcycv{i}");
        deps.push(tgd(
            vec![atom(&c0, vec![var("x")])],
            vec![atom(&r0, vec![var("y"), var("x")])],
        ));
        deps.push(tgd(
            vec![atom(&r0, vec![var("x"), var("y")])],
            vec![atom(&c2, vec![var("x")])],
        ));
        deps.push(tgd(
            vec![atom(&c2, vec![var("x")])],
            vec![atom(&c3, vec![var("x")])],
        ));
        deps.push(tgd(
            vec![atom(&c0, vec![var("x")])],
            vec![atom(&rcyc, vec![var("x"), var("y")])],
        ));
        deps.push(tgd(
            vec![atom(&rcyc, vec![var("x"), var("y")])],
            vec![atom(&c0, vec![var("y")])],
        ));
        deps.push(functional_egd(&r0));
    }
    deps
}

fn label_all(deps: Vec<Dependency>) -> DependencySet {
    DependencySet::from_vec(
        deps.into_iter()
            .enumerate()
            .map(|(i, d)| d.with_label(&format!("r{}", i + 1)))
            .collect(),
    )
}

/// Generates one family member, or `None` for an unknown family name.
///
/// All families are deterministic in `(size, seed)`; the hand-built ones ignore
/// the seed entirely (their structure is fixed by `size`), the generator-backed
/// GAV+LAV mixes thread it through [`OntologyProfile::seed`].
pub fn generate_family(name: &str, size: usize, seed: u64) -> Option<DependencySet> {
    match name {
        "transitive-closure" => Some(label_all(transitive_closure(size))),
        "role-chains" => Some(label_all(role_chains(size))),
        "functional-roles" => Some(label_all(functional_roles(size))),
        "egd-collapse-cycles" => Some(label_all(egd_collapse_cycles(size))),
        "egd-heavy" => Some(label_all(egd_heavy(size))),
        "gav-lav-acyclic" => Some(generate(&gav_lav_profile(size, seed, false))),
        "gav-lav-cyclic" => Some(generate(&gav_lav_profile(size, seed, true))),
        "egd-laundering" => Some(label_all(egd_laundering(size))),
        _ => None,
    }
}

/// The full atlas corpus: every family at every requested size.
pub fn atlas_corpus(sizes: &[usize], seed: u64) -> Vec<AtlasProgram> {
    let mut programs = Vec::with_capacity(families().len() * sizes.len());
    for family in families() {
        for &size in sizes {
            let sigma =
                generate_family(family.name, size, seed).expect("families() names are generatable");
            programs.push(AtlasProgram {
                family: family.name,
                size,
                expected_terminating: family.expected_terminating,
                sigma,
            });
        }
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_generates_near_the_requested_size() {
        for family in families() {
            for size in [6, 24, 120] {
                let sigma = generate_family(family.name, size, 7).unwrap();
                assert!(
                    sigma.len() >= size / 2 && sigma.len() <= 2 * size + 6,
                    "{} at size {size} generated {} dependencies",
                    family.name,
                    sigma.len()
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_size_and_seed() {
        for family in families() {
            let a = generate_family(family.name, 30, 11).unwrap();
            let b = generate_family(family.name, 30, 11).unwrap();
            assert_eq!(
                a.iter().map(|(_, d)| d.to_string()).collect::<Vec<_>>(),
                b.iter().map(|(_, d)| d.to_string()).collect::<Vec<_>>(),
                "{} must be deterministic",
                family.name
            );
        }
    }

    #[test]
    fn non_terminating_families_embed_a_cyclic_gadget() {
        for family in families().iter().filter(|f| !f.expected_terminating) {
            let sigma = generate_family(family.name, 12, 3).unwrap();
            assert!(
                sigma
                    .predicates()
                    .iter()
                    .any(|p| p.to_string().starts_with("Rcyc")),
                "{} must contain the Rcyc gadget role",
                family.name
            );
        }
    }

    #[test]
    fn unknown_family_names_are_rejected() {
        assert!(generate_family("no-such-family", 10, 0).is_none());
    }

    #[test]
    fn family_names_are_unique() {
        let mut names: Vec<&str> = families().iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), families().len());
    }
}
