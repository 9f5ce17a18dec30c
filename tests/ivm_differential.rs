//! Differential tests for incremental view maintenance (`chase_ivm`): after
//! every update batch, the maintained instance must be isomorphic up to null
//! renaming to a from-scratch (semi-)oblivious chase of the maintained base —
//! at worker count 1 and at 4 (and `CHASE_TEST_WORKERS`, if set). The
//! maintained run is recorded per step, while an EGD-free re-chase takes the
//! round runner, so the two runners pin the same semantics.
//!
//! Streams come from `chase_ontology::update_stream` (seeded, consistent by
//! construction) over the ontology generator's profiles and the atlas
//! families, EGD-bearing programs included: retractions there exercise both
//! the local `EgdNoop` repair and the full-replay fallback.
//!
//! The work gate follows: on a transitive closure and on a generated
//! ontology, repairing a 1/5/20 % delta fires strictly fewer triggers than
//! re-chasing from scratch, in every update mode. The last two tests bound
//! the support ledger: over a periodic stream it holds only alive records
//! between batches, and as many as right after the initial materialization
//! once the stream returns to its starting base.

use chase_core::{
    isomorphic_up_to_null_renaming, Constant, DependencySet, Fact, GroundTerm, Instance,
};
use chase_engine::{Chase, ChaseBudget, ChaseOutcome, ObliviousVariant};
use chase_ivm::{ChaseMaterialization, IvmError};
use chase_ontology::{
    generate, generate_database, generate_family, update_stream, OntologyProfile,
    UpdateStreamProfile,
};
use std::collections::BTreeSet;

/// Worker counts every re-chase is run at: inline discovery, sharded
/// discovery, and whatever the CI matrix adds via `CHASE_TEST_WORKERS`.
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![1, 4];
    if let Ok(value) = std::env::var("CHASE_TEST_WORKERS") {
        if let Ok(n) = value.parse::<usize>() {
            if n > 1 && !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

fn budget() -> ChaseBudget {
    ChaseBudget::default().with_max_steps(200_000)
}

/// Drives `stream` through a materialization of `(sigma, base)` and checks
/// the differential invariant after every batch. Returns how many batches
/// were applied (a batch whose inserts violate an EGD ends the walk early —
/// after checking that the from-scratch chase fails on the same base).
fn assert_stream_matches_rechase(
    sigma: &DependencySet,
    variant: ObliviousVariant,
    base: &Instance,
    stream: &[chase_ontology::UpdateBatch],
) -> usize {
    let run = match Chase::oblivious(sigma, variant)
        .with_budget(budget())
        .materialize(base)
    {
        Ok(run) => run,
        Err(e) => panic!("the initial chase must terminate cleanly, got {e}"),
    };
    let mut live = ChaseMaterialization::from_run(sigma, run).expect("replay reconstructs the run");

    // The expected base, tracked independently of the materialization.
    let mut expected: BTreeSet<Fact> = base.facts().collect();
    let mut applied = 0;
    for batch in stream {
        for f in &batch.retracts {
            expected.remove(f);
        }
        for f in &batch.inserts {
            expected.insert(f.clone());
        }
        let expected_base = Instance::from_facts(expected.iter().cloned());
        match live.update(batch.inserts.clone(), batch.retracts.clone()) {
            Ok(_) => {}
            Err(IvmError::Violation(_)) => {
                // The updated base has no model: the from-scratch chase must
                // agree, and the materialization must refuse further work.
                let fresh = Chase::oblivious(sigma, variant)
                    .with_budget(budget())
                    .run(&expected_base);
                assert!(
                    matches!(fresh, ChaseOutcome::Failed { .. }),
                    "ivm reported ⊥ but the re-chase terminated"
                );
                assert!(live.is_poisoned());
                return applied;
            }
            Err(e) => panic!("unexpected maintenance error: {e}"),
        }
        applied += 1;
        assert_eq!(
            live.base_instance().sorted_facts(),
            expected_base.sorted_facts(),
            "the maintained base drifted from the applied stream"
        );
        for workers in worker_counts() {
            let fresh = Chase::oblivious(sigma, variant)
                .with_budget(budget())
                .workers(workers)
                .run(&expected_base)
                .into_instance()
                .expect("the maintained base must re-chase to a model");
            assert!(
                isomorphic_up_to_null_renaming(live.instance(), &fresh),
                "batch {applied}: live instance diverged from the {workers}-worker re-chase\n\
                 live : {:?}\nfresh: {:?}",
                live.instance().sorted_facts(),
                fresh.sorted_facts(),
            );
        }
    }
    applied
}

fn ontology_case(
    profile: &OntologyProfile,
    db_facts: usize,
    stream_profile: &UpdateStreamProfile,
    variant: ObliviousVariant,
) -> usize {
    let sigma = generate(profile);
    let base = generate_database(&sigma, db_facts, profile.seed ^ 0x5eed);
    let stream = update_stream(&sigma, &base, stream_profile);
    assert_stream_matches_rechase(&sigma, variant, &base, &stream)
}

#[test]
fn tgd_only_ontology_streams_match_rechase() {
    let applied = ontology_case(
        &OntologyProfile {
            existential: 6,
            full: 10,
            egds: 0,
            cyclic: false,
            seed: 41,
        },
        80,
        &UpdateStreamProfile {
            batches: 6,
            batch_size: 12,
            retract_fraction: 0.3,
            seed: 7,
        },
        ObliviousVariant::SemiOblivious,
    );
    assert_eq!(applied, 6, "a TGD-only stream never fails");
}

#[test]
fn egd_bearing_ontology_streams_match_rechase() {
    // EGDs present: retractions can invalidate substitutions (replay
    // fallback) and inserts can make the base inconsistent (early stop after
    // cross-checking the ⊥). Seeds are chosen so the *initial* base chases
    // cleanly — the stream is what introduces violations.
    for seed in [3u64, 5, 9] {
        ontology_case(
            &OntologyProfile {
                existential: 3,
                full: 6,
                egds: 3,
                cyclic: false,
                seed,
            },
            40,
            &UpdateStreamProfile {
                batches: 5,
                batch_size: 10,
                retract_fraction: 0.35,
                seed: seed.wrapping_mul(31),
            },
            ObliviousVariant::SemiOblivious,
        );
    }
}

#[test]
fn oblivious_variant_streams_match_rechase() {
    let applied = ontology_case(
        &OntologyProfile {
            existential: 4,
            full: 8,
            egds: 0,
            cyclic: false,
            seed: 13,
        },
        60,
        &UpdateStreamProfile {
            batches: 4,
            batch_size: 10,
            retract_fraction: 0.3,
            seed: 5,
        },
        ObliviousVariant::Oblivious,
    );
    assert_eq!(applied, 4);
}

#[test]
fn insert_only_and_retract_only_streams_match_rechase() {
    let profile = OntologyProfile {
        existential: 3,
        full: 6,
        egds: 2,
        cyclic: false,
        seed: 5,
    };
    let sigma = generate(&profile);
    let base = generate_database(&sigma, 40, profile.seed ^ 0x5eed);
    for retract_fraction in [0.0, 1.0] {
        let stream = update_stream(
            &sigma,
            &base,
            &UpdateStreamProfile {
                batches: 4,
                batch_size: 12,
                retract_fraction,
                seed: 71,
            },
        );
        assert_stream_matches_rechase(&sigma, ObliviousVariant::SemiOblivious, &base, &stream);
    }
}

#[test]
fn terminating_family_programs_match_rechase() {
    // The atlas families with a terminating (semi-)oblivious chase; the
    // EGD-heavy ones drive the noop-repair and replay paths hard.
    for (family, size, db_facts) in [
        ("transitive-closure", 6, 40),
        ("role-chains", 5, 30),
        ("functional-roles", 5, 40),
        ("egd-heavy", 4, 30),
    ] {
        let sigma = generate_family(family, size, 1).unwrap_or_else(|| {
            panic!("unknown atlas family {family}");
        });
        let base = generate_database(&sigma, db_facts, 17);
        // Not every family member terminates under the *oblivious* fired-key
        // semantics for every database — skip those runs honestly.
        if !matches!(
            Chase::semi_oblivious(&sigma)
                .with_budget(budget())
                .run(&base),
            ChaseOutcome::Terminated { .. }
        ) {
            continue;
        }
        let stream = update_stream(
            &sigma,
            &base,
            &UpdateStreamProfile {
                batches: 4,
                batch_size: 8,
                retract_fraction: 0.4,
                seed: 53,
            },
        );
        assert_stream_matches_rechase(&sigma, ObliviousVariant::SemiOblivious, &base, &stream);
    }
}

/// The work gate: applying a delta through [`ChaseMaterialization::update`]
/// must fire strictly fewer triggers than a from-scratch semi-oblivious
/// re-chase of the post-update base, and end at an instance of the same size,
/// for deltas of 1/5/20 % of `full_base` in insert, retract and mixed modes.
///
/// The delta is every k-th fact of `full_base`, spread evenly. Each mode
/// starts and ends so that the maintained instance and the re-chase see the
/// same base: insert starts at `full_base` minus the delta and inserts it;
/// retract starts at `full_base` and retracts the delta; mixed starts without
/// the delta's first half, inserts it and retracts the second half.
fn assert_repair_fires_fewer_triggers(workload: &str, sigma: &DependencySet, full_base: &[Fact]) {
    let budget = ChaseBudget::default().with_max_steps(50_000_000);
    for delta_pct in [1, 5, 20] {
        let delta_size = (full_base.len() * delta_pct / 100).max(1);
        let delta: Vec<Fact> = (0..delta_size)
            .map(|i| full_base[i * full_base.len() / delta_size].clone())
            .collect();
        for mode in ["insert", "retract", "mixed"] {
            let (inserts, retracts) = match mode {
                "insert" => (delta.clone(), Vec::new()),
                "retract" => (Vec::new(), delta.clone()),
                _ => {
                    let (ins, ret) = delta.split_at(delta.len() / 2);
                    (ins.to_vec(), ret.to_vec())
                }
            };
            let start: Vec<Fact> = full_base
                .iter()
                .filter(|f| !inserts.contains(f))
                .cloned()
                .collect();
            let end = Instance::from_facts(
                start
                    .iter()
                    .filter(|f| !retracts.contains(f))
                    .chain(&inserts)
                    .cloned(),
            );

            let run = Chase::oblivious(sigma, ObliviousVariant::SemiOblivious)
                .with_budget(budget)
                .materialize(&Instance::from_facts(start))
                .expect("the workload chase terminates");
            let mut live =
                ChaseMaterialization::from_run(sigma, run).expect("replay reconstructs the run");
            let repair = live
                .update(inserts, retracts)
                .expect("a TGD-only workload never fails")
                .triggers_fired;

            let outcome = Chase::oblivious(sigma, ObliviousVariant::SemiOblivious)
                .with_budget(budget)
                .run(&end);
            let rechase = outcome.stats().steps;
            let fresh = outcome
                .into_instance()
                .expect("the workload chase terminates");
            let cell = format!("{workload} {delta_pct}% {mode}");
            assert_eq!(
                live.instance().len(),
                fresh.len(),
                "{cell}: repaired instance size diverged from the re-chase"
            );
            assert!(
                repair < rechase,
                "{cell}: repair fired {repair} triggers, re-chase only {rechase}"
            );
        }
    }
}

#[test]
fn closure_repair_fires_fewer_triggers_than_rechase() {
    // Right-linear transitive closure over 120 disjoint chains of 10 edges:
    // one retracted edge tears down a quadratic cone of derived facts, one
    // inserted edge welds two chain halves together.
    let sigma = chase_core::parser::parse_dependencies(
        "copy: E(?x, ?y) -> R(?x, ?y). step: R(?x, ?y), E(?y, ?z) -> R(?x, ?z).",
    )
    .unwrap();
    let edges: Vec<Fact> = (0..120)
        .flat_map(|i| {
            (0..10).map(move |j| {
                Fact::from_parts(
                    "E",
                    vec![
                        GroundTerm::Const(Constant::new(&format!("c{i}_{j}"))),
                        GroundTerm::Const(Constant::new(&format!("c{i}_{}", j + 1))),
                    ],
                )
            })
        })
        .collect();
    assert_repair_fires_fewer_triggers("closure", &sigma, &edges);
}

#[test]
fn ontology_repair_fires_fewer_triggers_than_rechase() {
    let sigma = generate(&OntologyProfile {
        existential: 5,
        full: 10,
        egds: 0,
        cyclic: false,
        seed: 41,
    });
    let base = generate_database(&sigma, 2_000, 0x1_dead).sorted_facts();
    assert_repair_fires_fewer_triggers("ontology", &sigma, &base);
}

/// Drives a periodic stream over `base`: each pass retracts eight strided
/// slices of it batch by batch, re-inserting every slice in the next batch,
/// and a last batch re-inserts the eighth, so every pass ends on the base it
/// started from. After each batch the ledger must hold only alive records;
/// after the last pass it must hold exactly as many as right after
/// [`ChaseMaterialization::from_run`], however often the facts churned.
/// Returns the facts rederived over the whole stream.
fn assert_ledger_stays_bounded(workload: &str, sigma: &DependencySet, base: &[Fact]) -> usize {
    const SLICES: usize = 8;
    let run = Chase::semi_oblivious(sigma)
        .with_budget(budget())
        .materialize(&Instance::from_facts(base.iter().cloned()))
        .expect("the workload chase terminates");
    let mut live = ChaseMaterialization::from_run(sigma, run).expect("replay reconstructs the run");
    let (initial_len, initial_facts) = (live.ledger().len(), live.instance().len());
    assert_eq!(initial_len, live.ledger().alive_len());
    let slices: Vec<Vec<Fact>> = (0..SLICES)
        .map(|k| base.iter().skip(k).step_by(SLICES).cloned().collect())
        .collect();
    let mut rederived = 0;
    for pass in 0..3 {
        let mut restore = Vec::new();
        for retract in slices.iter().cloned().chain([Vec::new()]) {
            let inserts = std::mem::replace(&mut restore, retract.clone());
            let stats = live
                .update(inserts, retract)
                .expect("a TGD-only workload never fails");
            rederived += stats.rederived;
            let ledger = live.ledger();
            assert_eq!(stats.ledger_len, ledger.len());
            assert_eq!(
                ledger.len(),
                ledger.alive_len(),
                "{workload} pass {pass}: a dead record outlived its batch"
            );
        }
    }
    assert_eq!(live.instance().len(), initial_facts);
    assert_eq!(
        live.ledger().len(),
        initial_len,
        "{workload}: the ledger grew with the stream's history"
    );
    rederived
}

#[test]
fn closure_ledger_stays_bounded_over_a_periodic_stream() {
    // Chains with skip edges (j → j+1 and, from even j, j → j+2): a derived
    // R(x, z) often has a second path, so retractions revive records in
    // place as well as reclaim them.
    let sigma = chase_core::parser::parse_dependencies(
        "copy: E(?x, ?y) -> R(?x, ?y). step: R(?x, ?y), E(?y, ?z) -> R(?x, ?z).",
    )
    .unwrap();
    let node = |i: usize, j: usize| GroundTerm::Const(Constant::new(&format!("c{i}_{j}")));
    let edges: Vec<Fact> = (0..40)
        .flat_map(|i| {
            (0..8).flat_map(move |j| {
                let skip =
                    (j % 2 == 0).then(|| Fact::from_parts("E", vec![node(i, j), node(i, j + 2)]));
                std::iter::once(Fact::from_parts("E", vec![node(i, j), node(i, j + 1)])).chain(skip)
            })
        })
        .collect();
    let rederived = assert_ledger_stays_bounded("closure", &sigma, &edges);
    assert!(rederived > 0, "the stream never revived a record");
}

#[test]
fn ontology_ledger_stays_bounded_over_a_periodic_stream() {
    let sigma = generate(&OntologyProfile {
        existential: 5,
        full: 10,
        egds: 0,
        cyclic: false,
        seed: 41,
    });
    let base = generate_database(&sigma, 600, 0x1_dead).sorted_facts();
    assert_ledger_stays_bounded("ontology", &sigma, &base);
}

/// Takes `base` over twice: handed over by [`ChaseMaterialization::from_run`]
/// from a run on `base`, and inserted into a materialization of the empty
/// base. Both run the same per-step loop on the same facts, so they must
/// agree up to null renaming, with as many ledger records and fired keys.
/// Returns the EGD substitutions of the run on `base`.
fn assert_handoff_matches_insert(workload: &str, sigma: &DependencySet, base: &Instance) -> usize {
    let materialize = |db: &Instance| {
        Chase::semi_oblivious(sigma)
            .with_budget(budget())
            .materialize(db)
            .expect("the workload chase terminates")
    };
    let run = materialize(base);
    let substitutions = run.stats.null_replacements;
    let handed = ChaseMaterialization::from_run(sigma, run).expect("the run's own set");
    let mut inserted = ChaseMaterialization::from_run(sigma, materialize(&Instance::new()))
        .expect("the run's own set");
    inserted
        .insert(base.sorted_facts())
        .expect("the workload base has a model");
    assert!(
        isomorphic_up_to_null_renaming(handed.instance(), inserted.instance()),
        "{workload}: the handed-over model differs from the inserted one"
    );
    assert_eq!(handed.base_len(), inserted.base_len(), "{workload}");
    assert_eq!(handed.ledger().len(), inserted.ledger().len(), "{workload}");
    assert_eq!(
        handed.fired_keys().len(),
        inserted.fired_keys().len(),
        "{workload}"
    );
    substitutions
}

#[test]
fn from_run_agrees_with_inserting_the_base() {
    let closure = chase_core::parser::parse_dependencies(
        "copy: E(?x, ?y) -> R(?x, ?y). step: R(?x, ?y), E(?y, ?z) -> R(?x, ?z).",
    )
    .unwrap();
    let node = |i: usize, j: usize| GroundTerm::Const(Constant::new(&format!("c{i}_{j}")));
    let chains = Instance::from_facts((0..20).flat_map(|i| {
        (0..6).map(move |j| Fact::from_parts("E", vec![node(i, j), node(i, j + 1)]))
    }));
    assert_handoff_matches_insert("closure", &closure, &chains);

    let profile = OntologyProfile {
        existential: 3,
        full: 6,
        egds: 3,
        cyclic: false,
        seed: 5,
    };
    let sigma = generate(&profile);
    let base = generate_database(&sigma, 40, profile.seed ^ 0x5eed);
    let substitutions = assert_handoff_matches_insert("ontology", &sigma, &base);
    assert!(substitutions > 0, "the ontology run applies an EGD");
}

#[test]
fn from_run_refuses_another_dependency_set() {
    let p = chase_core::parser::parse_program("t: E(?x, ?y) -> R(?x, ?y). E(a, b).").unwrap();
    let other = chase_core::parser::parse_dependencies("t: E(?x, ?y) -> R(?y, ?x).").unwrap();
    let run = Chase::semi_oblivious(&p.dependencies)
        .materialize(&p.database)
        .unwrap();
    assert!(matches!(
        ChaseMaterialization::from_run(&other, run),
        Err(IvmError::Reconstruction(_))
    ));
}

/// An EGD replay re-chases under the budget of the run it replaces: here the
/// run needs more steps than `ChaseBudget::default()` allows.
#[test]
fn egd_replay_runs_under_the_run_budget() {
    const EDGES: usize = 460;
    let sigma = chase_core::parser::parse_dependencies(
        "copy: E(?x, ?y) -> R(?x, ?y). step: R(?x, ?y), E(?y, ?z) -> R(?x, ?z).
         g: A(?x) -> exists ?y: B(?x, ?y).
         k: B(?x, ?y), C(?x, ?z) -> ?y = ?z.",
    )
    .unwrap();
    let c = |s: &str| GroundTerm::Const(Constant::new(s));
    let node = |i: usize| c(&format!("n{i}"));
    let key_fact = Fact::from_parts("C", vec![c("a"), c("c")]);
    let base = Instance::from_facts(
        (0..EDGES)
            .map(|i| Fact::from_parts("E", vec![node(i), node(i + 1)]))
            .chain([Fact::from_parts("A", vec![c("a")]), key_fact.clone()]),
    );
    let run = Chase::semi_oblivious(&sigma)
        .with_budget(ChaseBudget::unlimited())
        .materialize(&base)
        .expect("the chase terminates");
    let closure = EDGES * (EDGES + 1) / 2;
    assert_eq!(run.stats.steps, closure + 2, "the closure, g and k");
    assert!(ChaseBudget::default().max_steps < Some(run.stats.steps));
    let mut live = ChaseMaterialization::from_run(&sigma, run).unwrap();
    let stats = live
        .retract([key_fact])
        .expect("the replay runs under the run's unlimited budget");
    assert!(stats.egd_replay);
    assert!(!live.is_poisoned());
    // The closure, the edges, A(a) and B(a, η) with a fresh null.
    assert_eq!(live.instance().len(), closure + EDGES + 2);
    assert_eq!(live.instance().nulls().len(), 1);
}
