//! Trigger-discovery benchmarks: naive full re-scan vs. the delta-driven
//! incremental [`chase_trigger::TriggerEngine`], on terminating ontology-style
//! workloads (the substrate of the paper's evaluation) and on a pure-Datalog
//! transitive-closure stress case where re-scan cost grows with the instance,
//! plus an EGD key-merge case: the data-exchange mapping whose key EGD merges
//! one invented department null per employee, where substitutions dominate.
//!
//! The comparison is fair by construction: the naive baseline runs over a plain
//! index-free [`chase_core::Instance`] (no per-(predicate, position)/per-null
//! index maintenance on insert), and both strategies join through the single
//! engine of `chase_core::homomorphism`. Measured numbers are recorded in
//! `BENCH_trigger_discovery.json` at the repository root.

use chase_engine::{Chase, ChaseBudget, StepOrder, TriggerDiscovery};
use chase_ontology::generator::{generate, generate_database, OntologyProfile};
use chase_ontology::{data_exchange_instance, ScaleProfile};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn ontology_workload(
    size: usize,
    facts: usize,
) -> (chase_core::DependencySet, chase_core::Instance) {
    let sigma = generate(&OntologyProfile {
        existential: size / 5,
        full: size - size / 5 - size / 10,
        egds: size / 10,
        cyclic: false,
        seed: 7,
    });
    let db = generate_database(&sigma, facts, 11);
    (sigma, db)
}

fn chain_database(n: usize) -> (chase_core::DependencySet, chase_core::Instance) {
    let sigma =
        chase_core::parser::parse_dependencies("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).").unwrap();
    let db = chase_core::Instance::from_facts((0..n).map(|i| {
        chase_core::Fact::from_parts(
            "E",
            vec![
                chase_core::GroundTerm::Const(chase_core::Constant::new(&format!("v{i}"))),
                chase_core::GroundTerm::Const(chase_core::Constant::new(&format!("v{}", i + 1))),
            ],
        )
    }));
    (sigma, db)
}

fn bench_ontology_chase(c: &mut Criterion) {
    let mut group = c.benchmark_group("trigger_discovery/ontology");
    group.sample_size(10);
    for &(size, facts) in &[(20usize, 20usize), (40, 40), (80, 60)] {
        let (sigma, db) = ontology_workload(size, facts);
        let label = format!("{size}x{facts}");
        group.bench_with_input(BenchmarkId::new("naive_rescan", &label), &(), |b, _| {
            b.iter(|| {
                Chase::standard(&sigma)
                    .with_order(StepOrder::EgdsFirst)
                    .with_discovery(TriggerDiscovery::NaiveRescan)
                    .with_budget(ChaseBudget::unlimited().with_max_steps(50_000))
                    .run(&db)
                    .is_terminating()
            })
        });
        group.bench_with_input(BenchmarkId::new("incremental", &label), &(), |b, _| {
            b.iter(|| {
                Chase::standard(&sigma)
                    .with_order(StepOrder::EgdsFirst)
                    .with_discovery(TriggerDiscovery::Incremental)
                    .with_budget(ChaseBudget::unlimited().with_max_steps(50_000))
                    .run(&db)
                    .is_terminating()
            })
        });
    }
    group.finish();
}

fn bench_transitive_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("trigger_discovery/closure");
    group.sample_size(10);
    for &n in &[16usize, 32] {
        let (sigma, db) = chain_database(n);
        group.bench_with_input(BenchmarkId::new("naive_rescan", n), &(), |b, _| {
            b.iter(|| {
                Chase::standard(&sigma)
                    .with_discovery(TriggerDiscovery::NaiveRescan)
                    .with_budget(ChaseBudget::unlimited().with_max_steps(100_000))
                    .run(&db)
                    .is_terminating()
            })
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &(), |b, _| {
            b.iter(|| {
                Chase::standard(&sigma)
                    .with_discovery(TriggerDiscovery::Incremental)
                    .with_budget(ChaseBudget::unlimited().with_max_steps(100_000))
                    .run(&db)
                    .is_terminating()
            })
        });
    }
    group.finish();
}

fn bench_egd_key_merge(c: &mut Criterion) {
    let sigma = chase_core::parser::parse_dependencies(
        "emp: works_for(?p, ?c) -> exists ?d: Emp(?p, ?d), DeptOf(?d, ?c).
         dept: company(?c, ?city) -> exists ?d: DeptOf(?d, ?c), Loc(?d, ?city).
         key: DeptOf(?d1, ?c), DeptOf(?d2, ?c) -> ?d1 = ?d2.
         works_in: Emp(?p, ?d), Loc(?d, ?city) -> WorksIn(?p, ?city).",
    )
    .unwrap();
    let mut group = c.benchmark_group("trigger_discovery/egd_key_merge");
    group.sample_size(10);
    for &facts in &[200usize, 1000] {
        let db = data_exchange_instance(&ScaleProfile { facts, seed: 11 });
        for (name, discovery) in [
            ("naive_rescan", TriggerDiscovery::NaiveRescan),
            ("incremental", TriggerDiscovery::Incremental),
        ] {
            group.bench_with_input(BenchmarkId::new(name, facts), &(), |b, _| {
                b.iter(|| {
                    Chase::standard(&sigma)
                        .with_order(StepOrder::EgdsFirst)
                        .with_discovery(discovery)
                        .run(&db)
                        .is_terminating()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ontology_chase,
    bench_transitive_closure,
    bench_egd_key_merge
);
criterion_main!(benches);
