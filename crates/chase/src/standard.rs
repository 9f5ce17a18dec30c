//! The standard chase: exhaustive application of *active* triggers.
//!
//! A standard chase sequence applies chase steps only to triggers whose TGD head is not
//! already witnessed (or whose EGD equality does not already hold), and stops when no
//! further step is applicable. Different trigger-selection policies lead to different
//! sequences; [`StepOrder`] controls the policy, which is exactly the nondeterminism
//! the paper exploits (a set may have both terminating and non-terminating sequences,
//! cf. Example 1).
//!
//! The front door is [`Chase::standard`](crate::Chase::standard).

use crate::budget::{BudgetClock, ChaseBudget};
use crate::observer::{observed_pop, record_step_effect, report_search, ChaseObserver};
use crate::result::{ChaseOutcome, ChaseStats};
use crate::step::{apply_step, first_applicable_trigger, StepEffect};
use chase_core::{DepId, DependencySet, Instance};
use chase_trigger::engine::is_standard_active;
use chase_trigger::TriggerEngine;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// How the runner discovers applicable triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerDiscovery {
    /// Delta-driven incremental discovery through [`chase_trigger::TriggerEngine`]
    /// (the default): homomorphism search is seeded only from the facts each step
    /// adds or rewrites.
    Incremental,
    /// The original strategy: a full homomorphism re-scan of the entire instance
    /// before every step, over a plain index-free [`chase_core::Instance`] (the
    /// join itself still runs through the shared engine, on a transient per-query
    /// index). Kept only as the reference that the differential tests compare
    /// the incremental engine against.
    NaiveRescan,
}

/// Trigger-selection policy of the standard chase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOrder {
    /// Consider dependencies in the textual order of the dependency set.
    Textual,
    /// Consider EGDs first, then full TGDs, then existential TGDs.
    ///
    /// This is the policy suggested by the paper's analysis: enforcing EGDs eagerly can
    /// block the firing of existential TGDs (Definition 2 and Example 11).
    EgdsFirst,
    /// Consider all full dependencies (EGDs and full TGDs) before existential TGDs.
    FullFirst,
    /// A fixed pseudo-random order derived from the given seed (useful to sample
    /// different sequences).
    Shuffled(u64),
}

/// The dependency order induced by a [`StepOrder`] policy.
pub(crate) fn dependency_order(sigma: &DependencySet, order: StepOrder) -> Vec<DepId> {
    let mut ids: Vec<DepId> = sigma.ids().collect();
    match order {
        StepOrder::Textual => {}
        StepOrder::EgdsFirst => {
            ids.sort_by_key(|&id| {
                let dep = sigma.get(id);
                if dep.is_egd() {
                    0
                } else if dep.is_full() {
                    1
                } else {
                    2
                }
            });
        }
        StepOrder::FullFirst => {
            ids.sort_by_key(|&id| if sigma.get(id).is_full() { 0 } else { 1 });
        }
        StepOrder::Shuffled(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            ids.shuffle(&mut rng);
        }
    }
    ids
}

/// Runs the standard chase under `budget`, reporting events to `observer`.
///
/// The run is sequential at every [`Chase::workers`](crate::Chase::workers)
/// setting. Applications must follow the exact trigger order — that order *is*
/// the standard chase's semantics (fresh-null numbering, later activity) — so
/// only the read-only phases around it could run in parallel, and doing that
/// (sharded delta drains, conflict-aware batches of activity checks) measured
/// 0.40× at 2 workers on the `standard_ontology` 120x120 workload.
pub(crate) fn run_standard(
    sigma: &DependencySet,
    order: StepOrder,
    discovery: TriggerDiscovery,
    budget: &ChaseBudget,
    database: &Instance,
    observer: &mut dyn ChaseObserver,
) -> ChaseOutcome {
    match discovery {
        TriggerDiscovery::Incremental => run_incremental(sigma, order, budget, database, observer),
        TriggerDiscovery::NaiveRescan => run_naive(sigma, order, budget, database, observer),
    }
}

/// Delta-driven run: the [`TriggerEngine`] owns the instance, discovery is seeded
/// from each step's delta, and steps are applied in place.
fn run_incremental(
    sigma: &DependencySet,
    order: StepOrder,
    budget: &ChaseBudget,
    database: &Instance,
    observer: &mut dyn ChaseObserver,
) -> ChaseOutcome {
    let order = dependency_order(sigma, order);
    let phases = observer.observes_phases();
    let clock = BudgetClock::start(budget, phases);
    let mut engine = TriggerEngine::with_database(sigma, database);
    let mut stats = ChaseStats::default();
    loop {
        if let Some(limit) = clock.check_step(&stats, engine.instance().len(), observer) {
            return ChaseOutcome::BudgetExhausted {
                limit,
                instance: engine.into_instance(),
                stats,
            };
        }
        let next = observed_pop(&mut engine, observer, phases, |engine| {
            engine.next_trigger_where(&order, |index, dep, h| {
                is_standard_active(index, sigma.get(dep), h)
            })
        });
        let Some(trigger) = next else {
            return ChaseOutcome::Terminated {
                instance: engine.into_instance(),
                stats,
            };
        };
        let effect = engine.apply_trigger(trigger.dep, &trigger.assignment);
        if effect == StepEffect::NotApplicable {
            // Only active triggers are popped, so this cannot happen; treat
            // defensively as a skipped step.
            continue;
        }
        if let Some(violation) = record_step_effect(sigma, &trigger, &effect, &mut stats, observer)
        {
            return ChaseOutcome::Failed { violation, stats };
        }
    }
}

/// The original full re-scan loop, kept as the differential tests' reference.
fn run_naive(
    sigma: &DependencySet,
    order: StepOrder,
    budget: &ChaseBudget,
    database: &Instance,
    observer: &mut dyn ChaseObserver,
) -> ChaseOutcome {
    let order = dependency_order(sigma, order);
    let phases = observer.observes_phases();
    let clock = BudgetClock::start(budget, phases);
    let mut current = database.clone();
    let mut stats = ChaseStats::default();
    loop {
        if let Some(limit) = clock.check_step(&stats, current.len(), observer) {
            return ChaseOutcome::BudgetExhausted {
                limit,
                instance: current,
                stats,
            };
        }
        // A full re-scan visits the whole instance; report it as one shard.
        let search_start = phases.then(Instant::now);
        let next = first_applicable_trigger(&current, sigma, &order);
        if let Some(start) = search_start {
            let found = usize::from(next.is_some());
            report_search(observer, current.len(), found, start.elapsed());
        }
        let Some(trigger) = next else {
            return ChaseOutcome::Terminated {
                instance: current,
                stats,
            };
        };
        let dep = sigma.get(trigger.dep);
        let (next, effect) = apply_step(&current, dep, &trigger.assignment);
        if effect == StepEffect::NotApplicable {
            // `first_applicable_trigger` only returns active triggers, so this
            // cannot happen; treat defensively as termination of the loop body.
            continue;
        }
        if let Some(violation) = record_step_effect(sigma, &trigger, &effect, &mut stats, observer)
        {
            return ChaseOutcome::Failed { violation, stats };
        }
        current = next.expect("non-failing steps produce a successor instance");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::TraceObserver;
    use crate::session::Chase;
    use chase_core::parser::parse_program;
    use chase_core::satisfaction::satisfies_all;
    use chase_core::{Fact, GroundTerm};

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(chase_core::Constant::new(s))
    }

    #[test]
    fn example1_terminating_sequence_with_egd_priority() {
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            N(a).
            "#,
        )
        .unwrap();
        let outcome = Chase::standard(&p.dependencies)
            .with_order(StepOrder::EgdsFirst)
            .run(&p.database);
        assert!(outcome.is_terminating());
        let j = outcome.instance().unwrap();
        assert_eq!(j.len(), 2);
        assert!(j.contains(&Fact::from_parts("N", vec![gc("a")])));
        assert!(j.contains(&Fact::from_parts("E", vec![gc("a"), gc("a")])));
        assert!(satisfies_all(j, &p.dependencies));
        assert_eq!(outcome.stats().steps, 2);
    }

    #[test]
    fn example1_textual_order_does_not_terminate() {
        // Repeatedly enforcing r1 then r2 yields an infinite sequence; with textual
        // order and a small budget the run must exhaust the budget.
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            N(a).
            "#,
        )
        .unwrap();
        let outcome = Chase::standard(&p.dependencies)
            .with_order(StepOrder::Textual)
            .with_budget(ChaseBudget::unlimited().with_max_steps(200))
            .run(&p.database);
        // With textual order, r1 is always tried first, then r2; r3 would only be
        // reached if neither applies, which never happens, so the run diverges.
        assert!(outcome.is_budget_exhausted());
        assert_eq!(
            outcome.exhausted_limit(),
            Some(crate::budget::BudgetLimit::Steps)
        );
    }

    #[test]
    fn example6_standard_chase_is_empty() {
        let p = parse_program("r: E(?x, ?y) -> exists ?z: E(?x, ?z). E(a, b).").unwrap();
        let outcome = Chase::standard(&p.dependencies).run(&p.database);
        assert!(outcome.is_terminating());
        assert_eq!(outcome.stats().steps, 0);
        assert_eq!(outcome.instance().unwrap(), &p.database);
    }

    #[test]
    fn failing_chase_reports_the_violation() {
        // Key constraint violated by two distinct constants.
        let p = parse_program(
            r#"
            k: P(?x, ?y), P(?x, ?z) -> ?y = ?z.
            P(a, b).
            P(a, c).
            "#,
        )
        .unwrap();
        let outcome = Chase::standard(&p.dependencies).run(&p.database);
        assert!(outcome.is_failing());
        let violation = outcome.violation().expect("failing runs carry a violation");
        assert_eq!(violation.dep, chase_core::DepId(0));
        assert_eq!(violation.label.as_deref(), Some("k"));
        let (mut l, mut r) = (violation.left.to_string(), violation.right.to_string());
        if l > r {
            std::mem::swap(&mut l, &mut r);
        }
        assert_eq!((l.as_str(), r.as_str()), ("b", "c"));
    }

    #[test]
    fn weakly_acyclic_set_terminates_under_any_order() {
        let p = parse_program(
            r#"
            r1: P(?x, ?y) -> exists ?z: E(?x, ?z).
            r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).
            P(a, b).
            Q(c, d).
            "#,
        )
        .unwrap();
        for order in [
            StepOrder::Textual,
            StepOrder::EgdsFirst,
            StepOrder::FullFirst,
            StepOrder::Shuffled(7),
        ] {
            let outcome = Chase::standard(&p.dependencies)
                .with_order(order)
                .run(&p.database);
            assert!(outcome.is_terminating());
            // Example 3: the universal model adds E(a, η1) and E(η2, d).
            assert_eq!(outcome.instance().unwrap().len(), 4);
        }
    }

    #[test]
    fn example10_has_no_terminating_sequence() {
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z).
            r2: E(?x, ?y, ?y) -> N(?y).
            r3: E(?x, ?y, ?z) -> ?y = ?z.
            N(a).
            "#,
        )
        .unwrap();
        for order in [
            StepOrder::Textual,
            StepOrder::EgdsFirst,
            StepOrder::FullFirst,
        ] {
            let outcome = Chase::standard(&p.dependencies)
                .with_order(order)
                .with_budget(ChaseBudget::unlimited().with_max_steps(500))
                .run(&p.database);
            assert!(
                outcome.is_budget_exhausted(),
                "Σ10 must not terminate under {order:?}"
            );
        }
    }

    #[test]
    fn trace_observer_sees_every_step() {
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r3: E(?x, ?y) -> ?x = ?y.
            N(a).
            "#,
        )
        .unwrap();
        let mut trace = TraceObserver::new();
        let outcome = Chase::standard(&p.dependencies).run_observed(&p.database, &mut trace);
        assert!(outcome.is_terminating());
        assert_eq!(trace.steps.len(), outcome.stats().steps);
        assert_eq!(trace.steps.len(), 2);
        assert_eq!(trace.nulls, outcome.stats().nulls_created);
        assert_eq!(trace.collapses.len(), outcome.stats().null_replacements);
    }

    #[test]
    fn naive_and_incremental_discovery_agree_on_example_1() {
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            N(a).
            "#,
        )
        .unwrap();
        for order in [
            StepOrder::Textual,
            StepOrder::EgdsFirst,
            StepOrder::FullFirst,
        ] {
            let runner = Chase::standard(&p.dependencies)
                .with_order(order)
                .with_budget(ChaseBudget::unlimited().with_max_steps(200));
            let naive = runner
                .clone()
                .with_discovery(TriggerDiscovery::NaiveRescan)
                .run(&p.database);
            let incremental = runner
                .with_discovery(TriggerDiscovery::Incremental)
                .run(&p.database);
            assert_eq!(
                naive.is_terminating(),
                incremental.is_terminating(),
                "termination disagrees under {order:?}"
            );
            assert_eq!(naive.is_failing(), incremental.is_failing());
            assert_eq!(
                naive.is_budget_exhausted(),
                incremental.is_budget_exhausted()
            );
            if naive.is_terminating() {
                assert_eq!(naive.instance(), incremental.instance());
                assert_eq!(naive.stats(), incremental.stats());
            }
        }
    }

    #[test]
    fn incremental_discovery_is_the_default() {
        let p = parse_program("r: A(?x) -> B(?x). A(a).").unwrap();
        let out = Chase::standard(&p.dependencies).run(&p.database);
        assert!(out.is_terminating());
        assert_eq!(out.instance().unwrap().len(), 2);
    }

    #[test]
    fn full_tgds_compute_transitive_closure() {
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            E(a, b). E(b, c). E(c, d).
            "#,
        )
        .unwrap();
        let outcome = Chase::standard(&p.dependencies).run(&p.database);
        assert!(outcome.is_terminating());
        // Closure of a 4-chain has 3 + 2 + 1 = 6 edges.
        assert_eq!(outcome.instance().unwrap().len(), 6);
    }
}
