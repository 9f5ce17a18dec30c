//! The round-parallel chase runner for the (semi-)oblivious variants.
//!
//! The paper's oblivious and semi-oblivious chases fire *every* trigger of a round
//! (modulo the fired-key comparison) — there is no activity check whose outcome
//! depends on what else fired in the meantime. That makes their rounds honest:
//! discovery can run against a frozen snapshot of the instance and the discovered
//! batch can be applied wholesale, and the result is the same set of steps a
//! sequential run would fire, in a different order. This module exploits exactly
//! that:
//!
//! 1. **snapshot** — the round's new facts (the delta) are discovered against a
//!    read-only [`Snapshot`] of the [`FactIndex`], sharded over disjoint
//!    `FactId` ranges of the delta as jobs on the persistent worker pool
//!    ([`chase_core::pool`] — long-lived channel-fed threads, no per-round
//!    spawn; see [`chase_trigger::parallel::discover_batch`]);
//! 2. **deterministic merge** — the merged candidates are deduped and sorted by
//!    the canonical `(DepId, body FactIds)` order
//!    ([`chase_trigger::sort_canonical`], keys computed for dedup survivors
//!    only), which does not depend on the worker count or any hash order;
//! 3. **sequential apply** — the sorted batch is applied one trigger at a time
//!    with the same fired-key dedup and the same per-step budget-clock cadence
//!    as the sequential runner, so fresh-null numbering, [`ChaseObserver`] event
//!    streams and budget accounting are bitwise-identical **at any worker count**.
//!
//! Relative to the *sequential* oblivious runner the only difference is the order
//! in which the (identical) set of triggers fires, so terminating runs produce
//! instances equal up to a renaming of labeled nulls with identical
//! [`ChaseStats`]; `tests/property_tests.rs` proves this differentially over
//! random ontology corpora.
//!
//! ## Why only the oblivious variants batch whole rounds
//!
//! * The **standard chase** checks *activity* at application time: whether a
//!   trigger fires depends on the facts added earlier in the sequence, so
//!   batching a whole round against a stale snapshot genuinely changes the result
//!   (a trigger can fire on the ∃-null it would have found satisfied one step
//!   later — not even isomorphic). Its apply order must stay sequential, and
//!   parallelising only the read-only phases around it never paid (0.40× at 2
//!   workers), so the standard chase runs sequentially at any worker count.
//! * **EGD-bearing** dependency sets fall back to the sequential runners
//!   entirely: an EGD substitution rewrites the pending state (`h ↦ γ∘h`) and the
//!   fired-key sets, so which triggers exist — and even how many steps fire —
//!   depends on the interleaving of substitutions with TGD steps. Two orders of
//!   the same round can produce non-isomorphic results, so no deterministic merge
//!   can honour the equivalence contract; the run stays sequential instead.
//! * The **core chase** already fires all triggers per round (logically); its
//!   execution cost is dominated by core computation, which runs sequentially.

use crate::budget::{BudgetClock, ChaseBudget};
use crate::observer::{record_step_effect, ChaseObserver};
use crate::result::{ChaseOutcome, ChaseStats};
use crate::step::{StepEffect, Trigger};
use chase_core::{DependencySet, FactId, GroundTerm, Instance, Snapshot, Variable};
use chase_trigger::{
    discover_batch, discover_batch_instrumented, sort_canonical, FactIndex, SeedAtoms,
};
use std::collections::HashSet;
use std::time::Instant;

/// Runs the (semi-)oblivious chase round-parallel. Callers guarantee `sigma` has
/// no EGDs (the dispatcher in [`crate::oblivious`] falls back to the sequential
/// runner otherwise) and `workers >= 1`.
///
/// `key_vars` holds, per dependency, the variables of the fired-key comparison —
/// all body variables for the oblivious chase, the frontier for the
/// semi-oblivious chase (see `key_variables` in [`crate::oblivious`]).
pub(crate) fn run_oblivious_parallel(
    sigma: &DependencySet,
    key_vars: &[Vec<Variable>],
    budget: &ChaseBudget,
    database: &Instance,
    observer: &mut dyn ChaseObserver,
    workers: usize,
) -> ChaseOutcome {
    debug_assert!(
        sigma.egd_ids().is_empty(),
        "the round-parallel runner requires an EGD-free dependency set"
    );
    let clock = BudgetClock::start(budget);
    let seeds = SeedAtoms::new(sigma);
    let mut index = FactIndex::new();
    // The round-0 delta is the database itself, loaded through the one shared
    // routine ([`FactIndex::insert_database`]) the sequential engine also uses.
    let mut delta: Vec<FactId> = index.insert_database(database);
    // Fired trigger keys per dependency. Σ is EGD-free, so keys are never
    // rewritten and a plain set suffices (contrast with the sequential runner's
    // γ-propagation).
    let mut fired: Vec<HashSet<Vec<GroundTerm>>> = vec![HashSet::new(); sigma.len()];
    // Every assignment ever discovered, per dependency: cross-round dedup, since
    // later rounds re-discover joins whose facts span multiple rounds.
    let mut seen: Vec<HashSet<Vec<(Variable, GroundTerm)>>> = vec![HashSet::new(); sigma.len()];
    let mut stats = ChaseStats::default();
    let mut round = 0usize;
    // Phase instrumentation is opt-in (consulted once): without it the loop
    // below performs no clock reads beyond the budget's own.
    let phases = observer.observes_phases();
    loop {
        // Discovery round: every candidate seeded from the delta, against a
        // frozen snapshot, sharded across workers, merged in batch order.
        let had_delta = !delta.is_empty();
        let mut batch = if !had_delta {
            // A zero-length delta discovers nothing: skip the snapshot and, in
            // particular, emit no empty-shard `discovery_completed` event (a
            // round whose steps added no new facts would otherwise report a
            // phantom zero-fact discovery round).
            Vec::new()
        } else {
            let snapshot = Snapshot::new(index.indexed());
            if phases {
                let (batch, discovery) =
                    discover_batch_instrumented(sigma, &seeds, snapshot, &delta, workers);
                observer.discovery_completed(&discovery);
                batch
            } else {
                discover_batch(sigma, &seeds, snapshot, &delta, workers)
            }
        };
        delta.clear();
        // Dedup in (deterministic) batch order, then impose the canonical
        // (DepId, body FactIds) merge order for application — keys are computed
        // here, for the dedup survivors only.
        // No discovery sweep ⇒ nothing to merge either: the skipped round
        // emits neither event (discovery/merge events stay paired).
        let merge_start = (phases && had_delta).then(Instant::now);
        let candidates = batch.len();
        batch.retain(|t| seen[t.dep.0].insert(t.assignment.canonical()));
        sort_canonical(sigma, index.store(), &mut batch);
        if let Some(start) = merge_start {
            observer.merge_completed(candidates, batch.len(), start.elapsed());
        }
        if batch.is_empty() {
            // Mirror the sequential loop's cadence: the budget is checked once
            // more before concluding that no applicable trigger remains.
            let tripped = clock.check_step(&stats, index.len());
            if phases {
                observer.budget_checked(tripped);
            }
            if let Some(limit) = tripped {
                return ChaseOutcome::BudgetExhausted {
                    limit,
                    instance: index.into_instance(),
                    stats,
                };
            }
            return ChaseOutcome::Terminated {
                instance: index.into_instance(),
                stats,
            };
        }
        let steps_before = stats.steps;
        for candidate in batch {
            // Fired-key dedup at application time, exactly like the sequential
            // runner's accept closure (rejected candidates consume no budget).
            let key: Vec<GroundTerm> = key_vars[candidate.dep.0]
                .iter()
                .map(|&v| {
                    candidate
                        .assignment
                        .get(v)
                        .expect("body variables are bound")
                })
                .collect();
            if !fired[candidate.dep.0].insert(key) {
                continue;
            }
            let tripped = clock.check_step(&stats, index.len());
            if phases {
                observer.budget_checked(tripped);
            }
            if let Some(limit) = tripped {
                return ChaseOutcome::BudgetExhausted {
                    limit,
                    instance: index.into_instance(),
                    stats,
                };
            }
            // Apply the TGD step natively on the index (Σ is EGD-free).
            let tgd = sigma
                .get(candidate.dep)
                .as_tgd()
                .expect("EGD-free dependency set");
            let mut extended = candidate.assignment.clone();
            let ex = tgd.existential_variables();
            let fresh_nulls = ex.len();
            for v in ex {
                let n = index.fresh_null();
                extended.bind(v, GroundTerm::Null(n));
            }
            let mut added = Vec::new();
            for atom in &tgd.head {
                let fact = extended
                    .apply_atom(atom)
                    .expect("all head variables are bound after extension");
                let (id, new) = index.insert_full(fact.clone());
                if new {
                    delta.push(id);
                    added.push(fact);
                }
            }
            let trigger = Trigger {
                dep: candidate.dep,
                assignment: candidate.assignment,
            };
            let effect = StepEffect::AddedFacts {
                facts: added,
                fresh_nulls,
            };
            if record_step_effect(sigma, &trigger, &effect, &mut stats, observer).is_some() {
                unreachable!("TGD steps cannot fail");
            }
        }
        // Round-granular events, in the unified order pinned by
        // `tests/api_redesign.rs`: `round_completed` immediately followed by
        // `round_nulls`, after all of the round's step/null events. A sweep in
        // which every candidate was fired-key-rejected applied no step and
        // reports no round — observers never see phantom no-op rounds.
        if stats.steps > steps_before {
            round += 1;
            observer.round_completed(round, index.len());
            observer.round_nulls(index.instance().nulls().len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::TraceObserver;
    use crate::session::Chase;
    use crate::ObliviousVariant;
    use chase_core::parser::parse_program;

    fn closure_program(n: usize) -> chase_core::Program {
        let mut src = String::from("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).\n");
        for i in 0..n {
            src.push_str(&format!("E(v{i}, v{}).\n", i + 1));
        }
        parse_program(&src).unwrap()
    }

    #[test]
    fn zero_length_delta_rounds_emit_no_discovery_events() {
        // Satellite: a round whose delta is empty (steps that added nothing
        // new, or an empty database) must not emit a phantom zero-fact
        // `discovery_completed` shard event.
        use crate::observer::{ChaseEvent, EventObserver};
        let p = closure_program(6);
        let count_rounds = |db: &chase_core::Instance| {
            let mut discoveries = Vec::new();
            let mut obs = EventObserver(|e: ChaseEvent| {
                if let ChaseEvent::DiscoveryCompleted { stats } = e {
                    discoveries.push(stats.facts_scanned());
                }
            });
            let out = Chase::semi_oblivious(&p.dependencies)
                .workers(4)
                .run_observed(db, &mut obs);
            assert!(out.is_terminating());
            discoveries
        };
        // Empty database: the single (empty) round discovers nothing.
        assert!(count_rounds(&chase_core::Instance::new()).is_empty());
        // Real run: every reported discovery round scanned at least one fact.
        let discoveries = count_rounds(&p.database);
        assert!(!discoveries.is_empty());
        assert!(discoveries.iter().all(|&scanned| scanned > 0));
    }

    #[test]
    fn parallel_closure_matches_sequential_exactly() {
        // Full TGDs invent no nulls, so the parallel result must be *equal* to
        // the sequential one, not merely isomorphic.
        let p = closure_program(12);
        for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
            let sequential = Chase::oblivious(&p.dependencies, variant).run(&p.database);
            for workers in [2, 4] {
                let parallel = Chase::oblivious(&p.dependencies, variant)
                    .workers(workers)
                    .run(&p.database);
                assert!(parallel.is_terminating());
                assert_eq!(
                    sequential.instance().unwrap(),
                    parallel.instance().unwrap(),
                    "{variant:?} at {workers} workers"
                );
                assert_eq!(sequential.stats(), parallel.stats());
            }
        }
    }

    #[test]
    fn parallel_runs_are_byte_identical_across_worker_counts() {
        let p = parse_program(
            r#"
            r1: A(?x) -> exists ?y: R(?x, ?y).
            r2: R(?x, ?y) -> S(?y, ?x).
            r3: S(?x, ?y) -> exists ?z: R(?x, ?z).
            A(a). A(b). A(c).
            "#,
        )
        .unwrap();
        let budget = ChaseBudget::unlimited().with_max_steps(100);
        let run = |workers| {
            let mut trace = TraceObserver::new();
            let out = Chase::semi_oblivious(&p.dependencies)
                .workers(workers)
                .with_budget(budget)
                .run_observed(&p.database, &mut trace);
            (
                out.instance().unwrap().sorted_facts(),
                out.stats().clone(),
                out.exhausted_limit(),
                trace.steps,
                trace.rounds,
                trace.round_null_counts,
            )
        };
        let two = run(2);
        for workers in [3, 4, 8] {
            assert_eq!(two, run(workers), "worker count {workers} diverged");
        }
    }

    #[test]
    fn budget_trip_is_deterministic_across_worker_counts() {
        let p = parse_program(
            r#"
            r: C(?x) -> exists ?y: R(?x, ?y).
            c: R(?x, ?y) -> C(?y).
            C(a).
            "#,
        )
        .unwrap();
        let budget = ChaseBudget::unlimited().with_max_steps(37);
        let sequential = Chase::semi_oblivious(&p.dependencies)
            .with_budget(budget)
            .run(&p.database);
        assert!(sequential.is_budget_exhausted());
        let base = Chase::semi_oblivious(&p.dependencies)
            .workers(2)
            .with_budget(budget)
            .run(&p.database);
        assert_eq!(base.exhausted_limit(), sequential.exhausted_limit());
        assert_eq!(base.stats().steps, sequential.stats().steps);
        for workers in [4, 8] {
            let out = Chase::semi_oblivious(&p.dependencies)
                .workers(workers)
                .with_budget(budget)
                .run(&p.database);
            assert_eq!(out.exhausted_limit(), base.exhausted_limit());
            assert_eq!(out.stats(), base.stats());
            assert_eq!(
                out.instance().unwrap().sorted_facts(),
                base.instance().unwrap().sorted_facts()
            );
        }
    }

    #[test]
    fn egd_bearing_sets_fall_back_to_the_sequential_runner() {
        // With an EGD in Σ, `workers(8)` must behave exactly like the sequential
        // session (the documented fallback), not just isomorphically.
        let p = parse_program(
            r#"
            r1: Emp(?x) -> exists ?d: Works(?x, ?d).
            k: Works(?x, ?d1), Works(?x, ?d2) -> ?d1 = ?d2.
            Emp(e1). Works(e1, d0). Dept(d0).
            "#,
        )
        .unwrap();
        for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
            let sequential = Chase::oblivious(&p.dependencies, variant).run(&p.database);
            let parallel = Chase::oblivious(&p.dependencies, variant)
                .workers(8)
                .run(&p.database);
            assert_eq!(sequential, parallel, "{variant:?}");
        }
    }

    #[test]
    fn semi_oblivious_example6_parallel() {
        // Example 6: one step, the second trigger shares the frontier key.
        let p = parse_program("r: E(?x, ?y) -> exists ?z: E(?x, ?z). E(a, b).").unwrap();
        let out = Chase::semi_oblivious(&p.dependencies)
            .workers(4)
            .run(&p.database);
        assert!(out.is_terminating());
        assert_eq!(out.stats().steps, 1);
        assert_eq!(out.instance().unwrap().len(), 2);
    }
}
