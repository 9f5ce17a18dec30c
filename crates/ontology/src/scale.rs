//! The `data-exchange` scale family: million-fact base instances for exercising
//! the columnar fact store.
//!
//! Every other generator in this crate targets the *dependency-set* statistics
//! of the paper's corpus; this module targets **instance size**. It emits a
//! deterministic, seeded data-exchange source schema —
//!
//! * `person(p, name, city)` — ~40% of facts,
//! * `company(c, city)`      — ~20% of facts,
//! * `works_for(p, c)`       — ~40% of facts,
//!
//! average arity ≈ 2.4 — over a constant universe sized so that terms repeat
//! heavily (cities ~ `facts/100`, names ~ `facts/10`): exactly the workload
//! dictionary compression is for. Every generated fact is unique by
//! construction (person/company facts carry a fresh entity id; `works_for`
//! facts carry a distinct person per row), so an instance built from a
//! [`ScaleProfile`] has **exactly** `profile.facts` facts — bench rates divide
//! by a known denominator.
//!
//! The generator is exposed two ways:
//!
//! * [`for_each_scale_fact`] — a streaming per-fact callback, so bench loaders
//!   can time generation and interning separately and a 10M-fact load never
//!   materialises 10M [`Fact`](chase_core::Fact) values (~1 GB of term
//!   vectors);
//! * [`data_exchange_instance`] — the convenience builder, pre-sized via
//!   [`Instance::with_capacity`] so the load performs no rehash doubling.
//!
//! [`data_exchange_dependencies`] supplies a small terminating st-tgd program
//! over the schema, so the scale instances also drive end-to-end chase and
//! save/load-then-chase scenarios.

use chase_core::builder::{atom, tgd, var};
use chase_core::term::Constant;
use chase_core::{DependencySet, GroundTerm, Instance, Predicate};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Size and seed of one data-exchange scale instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaleProfile {
    /// Exact number of facts the profile generates.
    pub facts: usize,
    /// RNG seed; equal profiles generate identical instances.
    pub seed: u64,
}

impl ScaleProfile {
    /// A profile of `facts` facts with the default seed.
    pub fn new(facts: usize) -> Self {
        ScaleProfile { facts, seed: 7 }
    }

    /// Number of `person` facts (~40%).
    pub fn persons(&self) -> usize {
        self.facts * 2 / 5
    }

    /// Number of `company` facts (~20%).
    pub fn companies(&self) -> usize {
        self.facts / 5
    }

    /// Number of `works_for` facts (the remainder, ~40%).
    pub fn works_for(&self) -> usize {
        self.facts - self.persons() - self.companies()
    }

    /// Size of the city universe (~`facts/100`): the heavy-repetition column.
    pub fn cities(&self) -> usize {
        (self.facts / 100).max(1)
    }

    /// Size of the name universe (~`facts/10`).
    pub fn names(&self) -> usize {
        (self.facts / 10).max(1)
    }

    /// Number of predicates in the schema (for [`Instance::with_capacity`]).
    pub fn predicate_estimate(&self) -> usize {
        3
    }

    /// Upper estimate of distinct ground terms (for
    /// [`Instance::with_capacity`]): entity ids plus the constant universes.
    pub fn term_estimate(&self) -> usize {
        self.persons() + self.companies() + self.cities() + self.names()
    }
}

/// The `person/3` predicate of the schema.
pub fn person_predicate() -> Predicate {
    Predicate::new("person", 3)
}

/// The `company/2` predicate of the schema.
pub fn company_predicate() -> Predicate {
    Predicate::new("company", 2)
}

/// The `works_for/2` predicate of the schema.
pub fn works_for_predicate() -> Predicate {
    Predicate::new("works_for", 2)
}

/// Streams the profile's facts in a deterministic order, invoking `visit` with
/// `(predicate, terms)` for each — the allocation-light surface bench loaders
/// intern from directly. Facts are emitted grouped by predicate (`person`,
/// then `company`, then `works_for`); every fact is unique.
pub fn for_each_scale_fact(
    profile: &ScaleProfile,
    mut visit: impl FnMut(Predicate, &[GroundTerm]),
) {
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let cities: Vec<GroundTerm> = (0..profile.cities())
        .map(|i| GroundTerm::Const(Constant::new(&format!("city{i}"))))
        .collect();
    let names: Vec<GroundTerm> = (0..profile.names())
        .map(|i| GroundTerm::Const(Constant::new(&format!("n{i}"))))
        .collect();
    let persons: Vec<GroundTerm> = (0..profile.persons())
        .map(|i| GroundTerm::Const(Constant::new(&format!("p{i}"))))
        .collect();
    let companies: Vec<GroundTerm> = (0..profile.companies())
        .map(|i| GroundTerm::Const(Constant::new(&format!("c{i}"))))
        .collect();

    let person = person_predicate();
    for p in &persons {
        let name = names[rng.random_range(0..names.len())];
        let city = cities[rng.random_range(0..cities.len())];
        visit(person, &[*p, name, city]);
    }
    let company = company_predicate();
    for c in &companies {
        let city = cities[rng.random_range(0..cities.len())];
        visit(company, &[*c, city]);
    }
    // `works_for` facts stay unique without dedup bookkeeping: each row pairs a
    // distinct person (cycling if works_for() > persons()) with a random company.
    let works_for = works_for_predicate();
    let n_works = profile.works_for();
    for i in 0..n_works {
        let p = if persons.is_empty() {
            GroundTerm::Const(Constant::new(&format!("p{i}")))
        } else if n_works <= persons.len() {
            persons[i]
        } else {
            // More rows than persons: suffix the overflow to keep rows unique.
            GroundTerm::Const(Constant::new(&format!("p{}x{}", i % persons.len(), i)))
        };
        let c = if companies.is_empty() {
            GroundTerm::Const(Constant::new(&format!("c{i}")))
        } else {
            companies[rng.random_range(0..companies.len())]
        };
        visit(works_for, &[p, c]);
    }
}

/// Builds the profile's base instance, pre-sized with
/// [`Instance::with_capacity`] so the load is rehash-free.
pub fn data_exchange_instance(profile: &ScaleProfile) -> Instance {
    let mut instance = Instance::with_capacity(
        profile.predicate_estimate(),
        profile.facts,
        profile.term_estimate(),
    );
    for_each_scale_fact(profile, |p, terms| {
        instance.insert_parts(p, terms);
    });
    instance
}

/// A small terminating st-tgd program over the data-exchange schema: every
/// person gets an existentially invented home office, every employment is
/// reflected into the target `employed` relation together with the employer's
/// city.
pub fn data_exchange_dependencies() -> DependencySet {
    DependencySet::from_vec(vec![
        // `h` occurs only in the head: existentially quantified (a fresh home
        // per person).
        tgd(
            "scale_home",
            vec![atom("person", vec![var("p"), var("n"), var("c")])],
            vec![atom("home", vec![var("p"), var("h")])],
        ),
        tgd(
            "scale_employed",
            vec![
                atom("works_for", vec![var("p"), var("co")]),
                atom("company", vec![var("co"), var("city")]),
            ],
            vec![atom("employed", vec![var("p"), var("city")])],
        ),
        tgd(
            "scale_hub",
            vec![atom("company", vec![var("c"), var("city")])],
            vec![atom("hub", vec![var("city")])],
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_has_exactly_the_requested_facts() {
        for n in [0usize, 1, 10, 1000, 5000] {
            let k = data_exchange_instance(&ScaleProfile::new(n));
            assert_eq!(k.len(), n, "profile of {n} facts");
            assert_eq!(k.store().len(), n, "no duplicate interning at {n}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = data_exchange_instance(&ScaleProfile::new(2000));
        let b = data_exchange_instance(&ScaleProfile::new(2000));
        assert_eq!(a.sorted_fact_ids(), b.sorted_fact_ids());
        assert_eq!(a, b);
        let c = data_exchange_instance(&ScaleProfile {
            facts: 2000,
            seed: 99,
        });
        assert_ne!(a, c, "a different seed draws different cities/names");
    }

    #[test]
    fn dictionary_compression_bites_on_the_scale_schema() {
        let k = data_exchange_instance(&ScaleProfile::new(10_000));
        let store = k.store();
        assert!(
            store.term_count() < store.arena_len() / 2,
            "terms repeat: {} distinct terms over {} cells",
            store.term_count(),
            store.arena_len()
        );
        let fp = store.footprint();
        assert!(fp.columnar_bytes() < fp.row_equivalent_bytes);
    }

    #[test]
    fn streaming_and_instance_builders_agree() {
        let profile = ScaleProfile::new(3000);
        let mut streamed = Instance::new();
        for_each_scale_fact(&profile, |p, terms| {
            streamed.insert_parts(p, terms);
        });
        assert_eq!(streamed, data_exchange_instance(&profile));
    }

    #[test]
    fn dependencies_chase_a_small_scale_instance() {
        use chase_core::builder::{atom, var};
        use chase_core::homomorphism::find_homomorphism_extending;
        use chase_core::Assignment;
        let k = data_exchange_instance(&ScaleProfile::new(500));
        // The program is satisfiable machinery-wise: its bodies match the base.
        assert!(find_homomorphism_extending(
            &[atom("person", vec![var("p"), var("n"), var("c")])],
            &k,
            &Assignment::new()
        )
        .is_some());
        assert_eq!(data_exchange_dependencies().len(), 3);
    }
}
