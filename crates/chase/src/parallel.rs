//! The round runner of the EGD-free (semi-)oblivious chase, at every worker
//! count.
//!
//! The paper's oblivious and semi-oblivious chases fire *every* trigger of a round
//! (modulo the fired-key comparison) — there is no activity check whose outcome
//! depends on what else fired in the meantime. Without EGDs, trigger equivalence
//! ("modulo `γ_j···γ_{i-1}`") is plain key equality, so any order fires the same
//! triggers up to a renaming of nulls. That makes rounds honest: discovery can
//! run against a frozen snapshot of the instance and the discovered batch can be
//! applied wholesale. This module exploits exactly that:
//!
//! 1. **discovery** — the round's new facts (the delta) are discovered against a
//!    shared borrow of the [`IndexedInstance`]. `workers` is only the
//!    shard width: with `workers > 1` the delta is split over disjoint `FactId`
//!    ranges as jobs on the persistent worker pool ([`chase_core::pool`] —
//!    long-lived channel-fed threads, no per-round spawn; see
//!    [`chase_trigger::parallel::discover_batch`]), with `workers(1)` it is
//!    walked inline;
//! 2. **deterministic merge** — discovery drops candidates whose key fired in
//!    an earlier round (a read-only test on the frozen [`FiredKeys`]); the shard
//!    outputs are concatenated in chunk order, which is the order a
//!    single-threaded discovery produces, and deduped in that order by the
//!    same fired-key comparison as the per-step runner; neither step depends
//!    on the worker count or any hash order;
//! 3. **sequential apply** — the deduped batch is applied in that discovery
//!    order, one trigger at a time, with the same per-step budget-clock cadence
//!    as the per-step runner, so fresh-null numbering, [`ChaseObserver`] event
//!    streams and budget accounting are bitwise-identical **at any worker count**.
//!
//! Relative to the per-step oblivious loop ([`crate::chase_steps`]), which
//! EGD-bearing sets and [`Chase::materialize`](crate::Chase::materialize)
//! run, the only difference is the order in which the
//! (identical) set of triggers fires — round by round instead of
//! dependency by dependency — so terminating runs produce instances equal up
//! to a renaming of labeled nulls with identical [`ChaseStats`];
//! `tests/property_tests.rs` checks this differentially over random ontology
//! corpora.
//!
//! ## Why only the EGD-free oblivious variants batch whole rounds
//!
//! * The **standard chase** checks *activity* at application time: whether a
//!   trigger fires depends on the facts added earlier in the sequence, so
//!   batching a whole round against a stale snapshot genuinely changes the result
//!   (a trigger can fire on the ∃-null it would have found satisfied one step
//!   later — not even isomorphic). Its apply order must stay sequential, and
//!   parallelising only the read-only phases around it never paid (0.40× at 2
//!   workers), so the standard chase runs per step at any worker count.
//! * **EGD-bearing** dependency sets run per step: an EGD substitution rewrites
//!   the pending state (`h ↦ γ∘h`) and the fired-key sets, so which triggers
//!   exist — and even how many steps fire — depends on the interleaving of
//!   substitutions with TGD steps. Two orders of the same round can produce
//!   non-isomorphic results, so no deterministic merge can honour the
//!   equivalence contract.
//! * The **core chase** already fires all triggers per round (logically); its
//!   execution cost is dominated by core computation, which runs sequentially.

use crate::budget::{BudgetClock, ChaseBudget};
use crate::oblivious::FiredKeys;
use crate::observer::{record_step_effect, ChaseObserver};
use crate::result::{ChaseOutcome, ChaseStats};
use chase_core::{DependencySet, DiscoveryStats, FactId, IndexedInstance, Instance};
use chase_trigger::engine::apply_tgd;
use chase_trigger::{discover_batch, SeedAtoms};
use std::time::Instant;

/// Runs the (semi-)oblivious chase round by round, discovering each round over
/// up to `workers` shards. Callers guarantee `sigma` has no EGDs (the
/// dispatcher in [`crate::oblivious`] runs those per step) and `workers >= 1`;
/// `fired` is the variant's empty fired-key state.
pub(crate) fn run_rounds(
    sigma: &DependencySet,
    mut fired: FiredKeys,
    budget: &ChaseBudget,
    database: &Instance,
    observer: &mut dyn ChaseObserver,
    workers: usize,
) -> ChaseOutcome {
    debug_assert!(
        sigma.egd_ids().is_empty(),
        "the round runner requires an EGD-free dependency set"
    );
    // Phase instrumentation is opt-in (consulted once): without it the loop
    // below performs no clock reads beyond the budget's own.
    let phases = observer.observes_phases();
    let clock = BudgetClock::start(budget, phases);
    let seeds = SeedAtoms::new(sigma);
    let mut index = IndexedInstance::new();
    // The round-0 delta is the database itself, loaded through the one shared
    // routine ([`IndexedInstance::insert_database`]) the trigger engine also
    // uses.
    let mut delta: Vec<FactId> = index.insert_database(database);
    // Σ is EGD-free, so no fact is ever removed, and every fresh null is in the
    // new head fact that invents it: the live nulls are the database's plus
    // `stats.nulls_created`, with no scan of the instance.
    let database_nulls = database.nulls().len();
    let mut stats = ChaseStats::default();
    let mut round = 0usize;
    loop {
        // Discovery round: every candidate seeded from the delta, against the
        // index borrowed for the round, sharded across workers, merged in batch
        // order.
        let had_delta = !delta.is_empty();
        // A zero-length delta discovers nothing: skip discovery and, in
        // particular, emit no empty-shard `discovery_completed` event (a round
        // whose steps added no new facts would otherwise report a phantom
        // zero-fact discovery round).
        let mut discovery = (phases && had_delta).then(DiscoveryStats::default);
        // The workers skip keys fired in earlier rounds: the merge would drop
        // them anyway, as keys of an EGD-free run are never rewritten.
        let mut batch = if had_delta {
            let keep = |dep, h: &_| !fired.has_fired(dep, h);
            let stats = discovery.as_mut();
            discover_batch(sigma, &seeds, &index, &delta, workers, &keep, stats)
        } else {
            Vec::new()
        };
        if let Some(discovery) = &discovery {
            observer.discovery_completed(discovery);
        }
        delta.clear();
        // Fired-key dedup in (deterministic) batch order: a candidate survives
        // only if no equal key fired before in this round (discovery dropped
        // earlier rounds' keys). Σ is EGD-free, so keys are never rewritten and
        // every survivor fires below. No discovery sweep ⇒ nothing to merge
        // either: the skipped round emits neither event (discovery/merge events
        // stay paired).
        let merge_start = (phases && had_delta).then(Instant::now);
        let candidates = batch.len();
        batch.retain(|t| fired.fire(t.dep, &t.assignment).is_some());
        if let Some(start) = merge_start {
            observer.merge_completed(candidates, batch.len(), start.elapsed());
        }
        if batch.is_empty() {
            // Mirror the per-step loop's cadence: the budget is checked once
            // more before concluding that no applicable trigger remains.
            if let Some(limit) = clock.check_step(&stats, index.len(), observer) {
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
        for trigger in batch {
            if let Some(limit) = clock.check_step(&stats, index.len(), observer) {
                return ChaseOutcome::BudgetExhausted {
                    limit,
                    instance: index.into_instance(),
                    stats,
                };
            }
            // Apply the TGD step natively on the index (Σ is EGD-free).
            let tgd = sigma
                .get(trigger.dep)
                .as_tgd()
                .expect("EGD-free dependency set");
            let effect = apply_tgd(&mut index, tgd, &trigger.assignment, |id, new| {
                if new {
                    delta.push(id);
                }
            });
            if record_step_effect(sigma, &trigger, &effect, &mut stats, observer).is_some() {
                unreachable!("TGD steps cannot fail");
            }
        }
        // Round-granular events, in the unified order pinned by
        // `tests/api_redesign.rs`: `round_completed` immediately followed by
        // `round_nulls`, after all of the round's step/null events. A sweep in
        // which every candidate was fired-key-rejected ended the run above, so
        // observers never see phantom no-op rounds.
        round += 1;
        observer.round_completed(round, index.len());
        observer.round_nulls(database_nulls + stats.nulls_created);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{ChaseEvent, EventObserver, TraceObserver};
    use crate::session::Chase;
    use crate::ObliviousVariant;
    use chase_core::parser::parse_program;
    use std::collections::HashSet;

    fn closure_program(n: usize) -> chase_core::Program {
        let mut src = String::from("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).\n");
        for i in 0..n {
            src.push_str(&format!("E(v{i}, v{}).\n", i + 1));
        }
        parse_program(&src).unwrap()
    }

    #[test]
    fn round_one_is_applied_in_deduped_discovery_order() {
        // Two dependencies whose discoveries interleave (every fact seeds r1 and
        // both r2 atoms), on a delta large enough to shard across 2 workers.
        let mut src =
            String::from("r1: E(?x, ?y) -> P(?x).\nr2: E(?x, ?y), E(?y, ?z) -> Q(?x, ?z).\n");
        for i in 0..20 {
            src.push_str(&format!("E(v{i}, v{}).\n", i + 1));
        }
        let p = parse_program(&src).unwrap();
        let sigma = &p.dependencies;
        let mut index = IndexedInstance::new();
        let delta = index.insert_database(&p.database);
        let seeds = SeedAtoms::new(sigma);
        let mut expected = discover_batch(sigma, &seeds, &index, &delta, 2, &|_, _| true, None);
        let mut seen = HashSet::new();
        expected.retain(|t| seen.insert((t.dep, t.assignment.canonical())));
        assert!(
            expected.windows(2).any(|w| w[0].dep > w[1].dep),
            "the discovery order must differ from a dependency-major order"
        );
        // Oblivious keys cover every body variable, so the fired-key dedup
        // drops exactly the repeated assignments and every survivor fires.
        let mut round_one = Vec::new();
        let mut round_done = false;
        let mut obs = EventObserver(|e: ChaseEvent| match e {
            ChaseEvent::StepApplied { trigger, .. } if !round_done => round_one.push(trigger),
            ChaseEvent::RoundCompleted { .. } => round_done = true,
            _ => {}
        });
        let out = Chase::oblivious(sigma, ObliviousVariant::Oblivious)
            .workers(2)
            .run_observed(&p.database, &mut obs);
        assert!(out.is_terminating());
        assert_eq!(round_one, expected);
    }

    #[test]
    fn zero_length_delta_rounds_emit_no_discovery_events() {
        // Satellite: a round whose delta is empty (steps that added nothing
        // new, or an empty database) must not emit a phantom zero-fact
        // `discovery_completed` shard event.
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
    fn round_runner_closure_matches_the_per_step_runner_exactly() {
        // Full TGDs invent no nulls, so the round runner's result must be
        // *equal* to the per-step one, not merely isomorphic. A recorded run
        // (`materialize`) runs per step.
        let p = closure_program(12);
        for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
            let sequential = Chase::oblivious(&p.dependencies, variant)
                .materialize(&p.database)
                .unwrap();
            for workers in [1, 2, 4] {
                let parallel = Chase::oblivious(&p.dependencies, variant)
                    .workers(workers)
                    .run(&p.database);
                assert!(parallel.is_terminating());
                assert_eq!(
                    sequential.instance(),
                    parallel.instance().unwrap(),
                    "{variant:?} at {workers} workers"
                );
                assert_eq!(&sequential.stats, parallel.stats());
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
        let one = run(1);
        assert!(!one.4.is_empty(), "workers(1) runs round by round");
        for workers in [2, 3, 4, 8] {
            assert_eq!(one, run(workers), "worker count {workers} diverged");
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
        let run = |workers| {
            Chase::semi_oblivious(&p.dependencies)
                .workers(workers)
                .with_budget(budget)
                .run(&p.database)
        };
        let base = run(1);
        assert!(base.is_budget_exhausted());
        assert_eq!(base.stats().steps, 37);
        for workers in [2, 4, 8] {
            let out = run(workers);
            assert_eq!(out.exhausted_limit(), base.exhausted_limit());
            assert_eq!(out.stats(), base.stats());
            assert_eq!(
                out.instance().unwrap().sorted_facts(),
                base.instance().unwrap().sorted_facts()
            );
        }
    }

    #[test]
    fn egd_bearing_sets_run_per_step_at_every_worker_count() {
        // With an EGD in Σ, `workers(8)` must behave exactly like `workers(1)`:
        // both run the per-step loop, so the results are equal, not just
        // isomorphic.
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
