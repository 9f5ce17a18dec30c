//! The dependency-set generator: ontology-like rule shapes over a synthetic schema.
//!
//! Concepts are arranged in a total order ("specific" concepts first, "general"
//! concepts later). Non-cyclic profiles only generate rules whose values flow forward
//! along this order — existential restrictions are rooted in the specific half and
//! their invented individuals only reach the general half, which contains no
//! existential restrictions — so the resulting set has a terminating chase for every
//! database. The cyclic gadget deliberately violates this discipline, reproducing the
//! non-terminating ontologies of the original corpus.

use chase_core::builder::{atom, var};
use chase_core::{Dependency, DependencySet, Egd, Fact, GroundTerm, Instance, Tgd, Variable};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of one generated ontology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OntologyProfile {
    /// Number of existentially quantified TGDs (`|Σ∃|`).
    pub existential: usize,
    /// Number of full TGDs.
    pub full: usize,
    /// Number of EGDs (`|Σegd|`).
    pub egds: usize,
    /// Whether to inject a genuine null-propagation cycle (a non-terminating gadget in
    /// the style of the Σ′ of Example 9: an existential restriction whose role feeds its
    /// own source concept back).
    pub cyclic: bool,
    /// RNG seed; equal profiles with equal seeds generate identical sets.
    pub seed: u64,
}

impl OntologyProfile {
    /// Total number of dependencies this profile generates.
    pub fn total(&self) -> usize {
        self.existential + self.full + self.egds + if self.cyclic { 2 } else { 0 }
    }
}

fn concept(i: usize) -> String {
    format!("C{i}")
}

fn role(i: usize) -> String {
    format!("R{i}")
}

/// Generates an ontology-style dependency set from a profile.
pub fn generate(profile: &OntologyProfile) -> DependencySet {
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let total = profile.total().max(1);
    let n_concepts = (total / 2).clamp(4, 4000);
    let n_roles = (total / 3).clamp(2, 4000);
    let specific = n_concepts / 2; // concepts [0, specific) are "specific", the rest "general"
    let mut deps: Vec<Dependency> = Vec::with_capacity(total);

    // Full TGDs: concept inclusions (forward), role domains/ranges (into the general
    // half), role inverses, guarded conjunctions.
    for _ in 0..profile.full {
        let kind = rng.random_range(0..5u32);
        let d = match kind {
            0 => {
                // Concept inclusion C_i(x) -> C_j(x) with i ≤ j (hierarchies flow towards
                // more general concepts).
                let i = rng.random_range(0..n_concepts);
                let j = rng.random_range(i..n_concepts);
                Dependency::Tgd(
                    Tgd::new(
                        None,
                        vec![atom(&concept(i), vec![var("x")])],
                        vec![atom(&concept(j), vec![var("x")])],
                    )
                    .expect("well-formed"),
                )
            }
            1 => {
                // Role domain R(x,y) -> C(x), C in the general half.
                let r = rng.random_range(0..n_roles);
                let c = rng.random_range(specific..n_concepts);
                Dependency::Tgd(
                    Tgd::new(
                        None,
                        vec![atom(&role(r), vec![var("x"), var("y")])],
                        vec![atom(&concept(c), vec![var("x")])],
                    )
                    .expect("well-formed"),
                )
            }
            2 => {
                // Role range R(x,y) -> C(y), C in the general half.
                let r = rng.random_range(0..n_roles);
                let c = rng.random_range(specific..n_concepts);
                Dependency::Tgd(
                    Tgd::new(
                        None,
                        vec![atom(&role(r), vec![var("x"), var("y")])],
                        vec![atom(&concept(c), vec![var("y")])],
                    )
                    .expect("well-formed"),
                )
            }
            3 => {
                // Inverse / symmetric role R(x,y) -> S(y,x).
                let r = rng.random_range(0..n_roles);
                let s = rng.random_range(0..n_roles);
                Dependency::Tgd(
                    Tgd::new(
                        None,
                        vec![atom(&role(r), vec![var("x"), var("y")])],
                        vec![atom(&role(s), vec![var("y"), var("x")])],
                    )
                    .expect("well-formed"),
                )
            }
            _ => {
                // Guarded conjunction: C(x), R(x,y) -> D(y), D in the general half.
                let c = rng.random_range(0..n_concepts);
                let d = rng.random_range(specific..n_concepts);
                let r = rng.random_range(0..n_roles);
                Dependency::Tgd(
                    Tgd::new(
                        None,
                        vec![
                            atom(&concept(c), vec![var("x")]),
                            atom(&role(r), vec![var("x"), var("y")]),
                        ],
                        vec![atom(&concept(d), vec![var("y")])],
                    )
                    .expect("well-formed"),
                )
            }
        };
        deps.push(d);
    }

    // Existential TGDs: existential restrictions C(x) -> ∃y R(x,y) [, D(y)] rooted in
    // the specific half, with the optional range concept in the general half.
    for _ in 0..profile.existential {
        let src = rng.random_range(0..specific.max(1));
        let dst = rng.random_range(specific..n_concepts);
        let r = rng.random_range(0..n_roles);
        let with_range = rng.random_range(0..2u32) == 0;
        let mut head = vec![atom(&role(r), vec![var("x"), var("y")])];
        if with_range {
            head.push(atom(&concept(dst), vec![var("y")]));
        }
        deps.push(Dependency::Tgd(
            Tgd::new(None, vec![atom(&concept(src), vec![var("x")])], head).expect("well-formed"),
        ));
    }

    // EGDs: functional roles and keys (inverse-functional roles).
    for _ in 0..profile.egds {
        let r = rng.random_range(0..n_roles);
        let d = if rng.random_range(0..2u32) == 0 {
            // Functional role: R(x,y), R(x,z) -> y = z.
            Dependency::Egd(
                Egd::new(
                    None,
                    vec![
                        atom(&role(r), vec![var("x"), var("y")]),
                        atom(&role(r), vec![var("x"), var("z")]),
                    ],
                    Variable::new("y"),
                    Variable::new("z"),
                )
                .expect("well-formed"),
            )
        } else {
            // Inverse-functional role (key): R(x,y), R(z,y) -> x = z.
            Dependency::Egd(
                Egd::new(
                    None,
                    vec![
                        atom(&role(r), vec![var("x"), var("y")]),
                        atom(&role(r), vec![var("z"), var("y")]),
                    ],
                    Variable::new("x"),
                    Variable::new("z"),
                )
                .expect("well-formed"),
            )
        };
        deps.push(d);
    }

    // Optional non-terminating gadget: an existential restriction on a *specific*
    // concept whose role feeds that same concept back. The gadget uses a dedicated
    // role (never constrained by the functional-role EGDs above) so that the cycle is
    // genuinely non-terminating for every database with a matching fact.
    if profile.cyclic {
        let c = rng.random_range(0..specific.max(1));
        let r = format!("Rcyc{}", rng.random_range(0..n_roles));
        deps.push(Dependency::Tgd(
            Tgd::new(
                None,
                vec![atom(&concept(c), vec![var("x")])],
                vec![atom(&r, vec![var("x"), var("y")])],
            )
            .expect("well-formed"),
        ));
        deps.push(Dependency::Tgd(
            Tgd::new(
                None,
                vec![atom(&r, vec![var("x"), var("y")])],
                vec![atom(&concept(c), vec![var("y")])],
            )
            .expect("well-formed"),
        ));
    }

    let deps = deps
        .into_iter()
        .enumerate()
        .map(|(i, d)| d.with_label(&format!("r{}", i + 1)))
        .collect();
    DependencySet::from_vec(deps)
}

/// Generates a small database over the schema of `sigma`: `facts` facts over randomly
/// chosen predicates with constants drawn from a domain of `facts / 2 + 2` individuals.
pub fn generate_database(sigma: &DependencySet, facts: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    // Order predicates by *name*, not by their `Ord` (interner id): symbol ids
    // depend on process-global interning history, so sampling from id order
    // made "seeded" databases differ between runs of the same seed.
    let mut predicates: Vec<_> = sigma.predicates().into_iter().collect();
    predicates.sort_by_key(|p| (p.name.as_str(), p.arity));
    let mut db = Instance::new();
    if predicates.is_empty() {
        return db;
    }
    let domain = facts / 2 + 2;
    for _ in 0..facts {
        let p = predicates[rng.random_range(0..predicates.len())];
        let terms: Vec<GroundTerm> = (0..p.arity)
            .map(|_| {
                GroundTerm::Const(chase_core::Constant::new(&format!(
                    "ind{}",
                    rng.random_range(0..domain)
                )))
            })
            .collect();
        db.insert(Fact {
            predicate: p,
            terms,
        });
    }
    db
}

/// A convenience constructor mirroring the critical-instance idea: one fact per
/// predicate, all positions filled with the same constant. Useful as a worst-case
/// database when probing chase termination behaviour.
pub fn critical_database(sigma: &DependencySet) -> Instance {
    let mut db = Instance::new();
    let mut predicates: Vec<_> = sigma.predicates().into_iter().collect();
    predicates.sort_by_key(|p| (p.name.as_str(), p.arity));
    for p in predicates {
        let terms = vec![GroundTerm::Const(chase_core::Constant::new("star")); p.arity];
        db.insert(Fact {
            predicate: p,
            terms,
        });
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(existential: usize, full: usize, egds: usize, cyclic: bool) -> OntologyProfile {
        OntologyProfile {
            existential,
            full,
            egds,
            cyclic,
            seed: 42,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = profile(5, 10, 3, false);
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn profile_counts_are_respected() {
        let p = profile(7, 12, 4, false);
        let sigma = generate(&p);
        assert_eq!(sigma.len(), 23);
        assert_eq!(sigma.existential_ids().len(), 7);
        assert_eq!(sigma.egd_ids().len(), 4);
        assert_eq!(sigma.tgd_ids().len(), 19);
    }

    #[test]
    fn cyclic_gadget_adds_two_rules() {
        let p = profile(2, 2, 1, true);
        let sigma = generate(&p);
        assert_eq!(sigma.len(), p.total());
        assert_eq!(sigma.len(), 7);
    }

    #[test]
    fn different_seeds_give_different_sets() {
        let a = generate(&OntologyProfile {
            seed: 1,
            ..profile(5, 10, 3, false)
        });
        let b = generate(&OntologyProfile {
            seed: 2,
            ..profile(5, 10, 3, false)
        });
        assert_eq!(a.len(), b.len());
        assert!(
            a.as_slice().iter().zip(b.as_slice()).any(|(x, y)| x != y),
            "different seeds should not generate identical ontologies"
        );
    }

    #[test]
    fn generated_databases_are_databases() {
        let sigma = generate(&profile(3, 6, 2, false));
        let db = generate_database(&sigma, 20, 7);
        assert!(db.is_database());
        assert!(db.len() <= 20);
        assert!(!db.is_empty());
    }

    #[test]
    fn critical_database_covers_every_predicate() {
        let sigma = generate(&profile(3, 6, 2, false));
        let db = critical_database(&sigma);
        assert_eq!(db.len(), sigma.predicates().len());
    }

    #[test]
    fn non_cyclic_ontologies_have_terminating_chases() {
        // The forward-flow discipline makes non-cyclic profiles terminate: verify by
        // actually running the standard chase on generated databases.
        use chase_engine::{Chase, ChaseBudget};
        for seed in 0..5 {
            let sigma = generate(&OntologyProfile {
                existential: 4,
                full: 8,
                egds: 2,
                cyclic: false,
                seed,
            });
            let db = generate_database(&sigma, 15, seed);
            let out = Chase::standard(&sigma)
                .with_budget(ChaseBudget::unlimited().with_max_steps(20_000))
                .run(&db);
            assert!(
                !out.is_budget_exhausted(),
                "non-cyclic ontology (seed {seed}) did not terminate"
            );
        }
    }

    #[test]
    fn acyclic_profiles_are_mostly_recognised_by_the_adornment_algorithm() {
        use chase_termination::adornment::adorn;
        let mut accepted = 0;
        let total = 10;
        for seed in 0..total {
            let sigma = generate(&OntologyProfile {
                existential: 4,
                full: 8,
                egds: 2,
                cyclic: false,
                seed,
            });
            if adorn(&sigma).acyclic {
                accepted += 1;
            }
        }
        assert!(accepted >= 7, "only {accepted}/{total} accepted");
    }

    #[test]
    fn cyclic_profiles_are_rejected_by_the_adornment_algorithm() {
        use chase_termination::adornment::adorn;
        // Every seed must be rejected — seed 3 included, which used to trip the
        // historical `adorn_with` per-symbol-null soundness gap (an unrelated
        // functional-role EGD joining two distinct Dµ facts through a shared null).
        for seed in 0..8 {
            let sigma = generate(&OntologyProfile {
                existential: 2,
                full: 4,
                egds: 1,
                cyclic: true,
                seed,
            });
            assert!(
                !adorn(&sigma).acyclic,
                "cyclic ontology (seed {seed}) must be rejected"
            );
        }
    }
}
