//! Pluggable observation of chase runs.
//!
//! A [`ChaseObserver`] receives structured events while a chase executes:
//! step-applied, nulls-created, EGD-collapse and (for the core chase) round-completed
//! events. It gives benchmarks, loggers and metrics a single hook into every
//! variant.
//!
//! Event streams per runner. Which runner runs depends on the variant and on
//! whether `Σ` has EGDs, never on [`Chase::workers`](crate::Chase::workers):
//!
//! * **per step** — the standard chase, and the (semi-)oblivious chase on
//!   EGD-bearing sets:
//!   [`ChaseObserver::step_applied`] after every applied step (including the
//!   failing one), plus [`ChaseObserver::nulls_created`] /
//!   [`ChaseObserver::egd_collapsed`] for the steps that invent nulls or apply a
//!   substitution; no round events;
//! * **core**: [`ChaseObserver::round_completed`] after every round, with
//!   [`ChaseObserver::nulls_created`] and [`ChaseObserver::egd_collapsed`] for the
//!   round's aggregate effects (the core chase applies all triggers in parallel, so
//!   there is no meaningful per-step event);
//! * **round runner** — the EGD-free (semi-)oblivious chase at every worker
//!   count: the per-step events *and* the round pair after each completed
//!   round.
//!
//! ## Round-event order (pinned)
//!
//! Every runner that reports rounds emits, per round, the same order:
//! all of the round's [`ChaseObserver::nulls_created`] /
//! [`ChaseObserver::egd_collapsed`] (and, for step-granular runners,
//! [`ChaseObserver::step_applied`]) events first, then
//! [`ChaseObserver::round_completed`] **immediately followed by**
//! [`ChaseObserver::round_nulls`] as an adjacent pair. Within a round that both
//! creates and collapses nulls, the aggregate `nulls_created` precedes the
//! round's `egd_collapsed` events (core chase). A round cut short by a failure
//! or a tripped budget emits the events of the work actually done but no round
//! pair. `tests/api_redesign.rs` pins this contract for both round-emitting
//! runners.
//!
//! ## Phase events (opt-in)
//!
//! Observers that return `true` from [`ChaseObserver::observes_phases`]
//! additionally receive **phase-boundary events**, which carry wall-clock
//! measurements and slot into the pinned order without disturbing it:
//!
//! * [`ChaseObserver::discovery_completed`] — a trigger-discovery batch
//!   finished, with per-worker [`ShardStats`]
//!   (fact ids scanned, triggers found, shard wall-clock). Emitted **before**
//!   the step events of the triggers it discovered. Per-step and core runners
//!   report a single worker-0 shard per discovery call; the round runner
//!   reports one shard per worker per round.
//! * [`ChaseObserver::merge_completed`] — the round runner finished
//!   deduplicating a round's candidate batch by fired key; emitted
//!   between the round's `discovery_completed` and its step events. Per-step
//!   and core runners never emit it.
//! * [`ChaseObserver::budget_checked`] — the runner consulted the budget
//!   clock; carries the tripped limit when the check failed. Emitted at every
//!   per-step/per-round check, so it
//!   may appear anywhere relative to the events above.
//!
//! When `observes_phases` is `false` (the default, and in particular for
//! [`NoopObserver`]) the runners skip both the events **and the clock reads
//! behind them** — instrumentation is pay-for-what-you-use, and the
//! deterministic event-stream contracts above hold unchanged because phase
//! events are separate defaulted methods that existing observers never see.

use crate::budget::BudgetLimit;
use crate::result::{ChaseStats, EgdViolation};
use crate::step::{StepEffect, Trigger};
use chase_core::substitution::NullSubstitution;
use chase_core::{DependencySet, DiscoveryStats, ShardStats};
use chase_trigger::TriggerEngine;
use std::time::{Duration, Instant};

/// Receives events during a chase run. All methods default to no-ops, so an observer
/// implements only what it cares about. No method chooses the runner: that
/// depends on the variant and `Σ` alone.
pub trait ChaseObserver {
    /// A chase step was applied (or failed): the trigger and its effect.
    fn step_applied(&mut self, trigger: &Trigger, effect: &StepEffect) {
        let _ = (trigger, effect);
    }

    /// `count` fresh labeled nulls were invented by the latest step (or round).
    fn nulls_created(&mut self, count: usize) {
        let _ = count;
    }

    /// An EGD step collapsed a labeled null: the substitution `γ` that was applied.
    fn egd_collapsed(&mut self, gamma: &NullSubstitution) {
        let _ = gamma;
    }

    /// A core-chase round completed, leaving `facts` facts in the (cored) instance.
    fn round_completed(&mut self, round: usize, facts: usize) {
        let _ = (round, facts);
    }

    /// A round completed, leaving `nulls` distinct labeled nulls in the instance
    /// (for the core chase: the cored instance). Always emitted immediately after
    /// [`ChaseObserver::round_completed`] (see the module docs for the pinned
    /// order); unlike the [`ChaseObserver::nulls_created`] /
    /// [`ChaseObserver::egd_collapsed`] stream, this accounts for nulls folded
    /// away by core computation, so peak-liveness trackers should use it.
    fn round_nulls(&mut self, nulls: usize) {
        let _ = nulls;
    }

    /// Opt-in gate for the phase-boundary events below. Runners consult this
    /// **once per run**; returning `false` (the default) means they emit no
    /// phase events and — more importantly — perform none of the clock reads
    /// and stat snapshots needed to construct them, so plain observers pay
    /// nothing for the instrumentation layer.
    fn observes_phases(&self) -> bool {
        false
    }

    /// A trigger-discovery batch completed, with per-worker shard accounting.
    /// Only emitted when [`ChaseObserver::observes_phases`] returns `true`.
    fn discovery_completed(&mut self, stats: &DiscoveryStats) {
        let _ = stats;
    }

    /// The round runner merged a round's candidate batch: `candidates`
    /// triggers (those whose key had not fired before the round) entered the
    /// fired-key dedup, `deduped` survived into the round (applied in discovery
    /// order), taking `elapsed` wall-clock. Only emitted when
    /// [`ChaseObserver::observes_phases`] returns `true`.
    fn merge_completed(&mut self, candidates: usize, deduped: usize, elapsed: Duration) {
        let _ = (candidates, deduped, elapsed);
    }

    /// The runner consulted the budget clock; `tripped` names the exhausted
    /// limit when the check failed. Only emitted when
    /// [`ChaseObserver::observes_phases`] returns `true`.
    fn budget_checked(&mut self, tripped: Option<BudgetLimit>) {
        let _ = tripped;
    }
}

/// Records one applied step's effect into the run statistics and the observer
/// stream — shared by the standard (incremental and naive) and (semi-)oblivious
/// runners so the per-effect bookkeeping cannot drift between loops. Returns the
/// violation for failing steps. Callers must handle [`StepEffect::NotApplicable`]
/// themselves (its semantics differ per variant) and never pass it here.
pub(crate) fn record_step_effect(
    sigma: &DependencySet,
    trigger: &Trigger,
    effect: &StepEffect,
    stats: &mut ChaseStats,
    observer: &mut dyn ChaseObserver,
) -> Option<EgdViolation> {
    stats.steps += 1;
    match effect {
        StepEffect::AddedFacts { facts, fresh_nulls } => {
            stats.facts_added += facts.len();
            stats.nulls_created += fresh_nulls;
            if *fresh_nulls > 0 {
                observer.nulls_created(*fresh_nulls);
            }
        }
        StepEffect::Substituted { gamma } => {
            stats.null_replacements += 1;
            observer.egd_collapsed(gamma);
        }
        StepEffect::Failure => {
            observer.step_applied(trigger, effect);
            return Some(EgdViolation::from_trigger(sigma, trigger));
        }
        StepEffect::NotApplicable => {
            unreachable!("callers filter NotApplicable before recording")
        }
    }
    observer.step_applied(trigger, effect);
    None
}

/// Reports one sequential trigger search as a single worker-0 discovery shard.
/// Callers emit it only for phase observers.
pub(crate) fn report_search(
    observer: &mut dyn ChaseObserver,
    facts_scanned: usize,
    triggers_found: usize,
    elapsed: Duration,
) {
    observer.discovery_completed(&DiscoveryStats {
        shards: vec![ShardStats {
            worker: 0,
            facts_scanned,
            triggers_found,
            elapsed,
        }],
        elapsed,
    });
}

/// Runs `pop`, one trigger search on `engine`, and with `phases` on reports it
/// through [`report_search`] from the engine-stat deltas of exactly this call:
/// the seeds drained and the candidates discovered (zero for a pop served
/// straight from the pending queue). Without `phases` it reads no clock.
pub(crate) fn observed_pop<'a, T>(
    engine: &mut TriggerEngine<'a>,
    observer: &mut dyn ChaseObserver,
    phases: bool,
    pop: impl FnOnce(&mut TriggerEngine<'a>) -> T,
) -> T {
    if !phases {
        return pop(engine);
    }
    let before = engine.stats().clone();
    let start = Instant::now();
    let next = pop(engine);
    let elapsed = start.elapsed();
    let after = engine.stats();
    report_search(
        observer,
        after.deltas_processed - before.deltas_processed,
        after.triggers_discovered - before.triggers_discovered,
        elapsed,
    );
    next
}

/// The do-nothing observer used by plain `run` calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl ChaseObserver for NoopObserver {}

/// An observer that records every step (trigger and effect) in order.
#[derive(Clone, Debug, Default)]
pub struct TraceObserver {
    /// The recorded steps, in application order.
    pub steps: Vec<(Trigger, StepEffect)>,
    /// The EGD substitutions applied, in order.
    pub collapses: Vec<NullSubstitution>,
    /// Total fresh nulls reported.
    pub nulls: usize,
    /// Rounds completed, as `(round, facts)` (core chase and the round runner,
    /// i.e. every EGD-free (semi-)oblivious run; empty for per-step runs).
    pub rounds: Vec<(usize, usize)>,
    /// Per-round live-null counts ([`ChaseObserver::round_nulls`]), parallel to
    /// [`TraceObserver::rounds`]. Previously this event was silently dropped by
    /// the trace, making round streams of different runners incomparable.
    pub round_null_counts: Vec<usize>,
}

impl TraceObserver {
    /// A fresh, empty trace.
    pub fn new() -> Self {
        TraceObserver::default()
    }
}

impl ChaseObserver for TraceObserver {
    fn step_applied(&mut self, trigger: &Trigger, effect: &StepEffect) {
        self.steps.push((trigger.clone(), effect.clone()));
    }

    fn nulls_created(&mut self, count: usize) {
        self.nulls += count;
    }

    fn egd_collapsed(&mut self, gamma: &NullSubstitution) {
        self.collapses.push(gamma.clone());
    }

    fn round_completed(&mut self, round: usize, facts: usize) {
        self.rounds.push((round, facts));
    }

    fn round_nulls(&mut self, nulls: usize) {
        self.round_null_counts.push(nulls);
    }
}

/// One chase event in owned form, as delivered to an [`EventObserver`]
/// closure. Variants mirror the [`ChaseObserver`] methods one-to-one.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaseEvent {
    /// A chase step was applied ([`ChaseObserver::step_applied`]).
    StepApplied {
        /// The fired trigger.
        trigger: Trigger,
        /// What the step did.
        effect: StepEffect,
    },
    /// Fresh nulls were invented ([`ChaseObserver::nulls_created`]).
    NullsCreated {
        /// How many.
        count: usize,
    },
    /// An EGD step collapsed a null ([`ChaseObserver::egd_collapsed`]).
    EgdCollapsed {
        /// The applied substitution.
        gamma: NullSubstitution,
    },
    /// A round finished ([`ChaseObserver::round_completed`]).
    RoundCompleted {
        /// 1-based round number.
        round: usize,
        /// Fact count after the round.
        facts: usize,
    },
    /// The post-round live-null count ([`ChaseObserver::round_nulls`]).
    RoundNulls {
        /// Live labeled nulls after the round.
        nulls: usize,
    },
    /// A discovery batch finished ([`ChaseObserver::discovery_completed`]).
    DiscoveryCompleted {
        /// Per-shard and whole-batch statistics.
        stats: DiscoveryStats,
    },
    /// A parallel merge pass finished ([`ChaseObserver::merge_completed`]).
    MergeCompleted {
        /// Triggers entering the merge.
        candidates: usize,
        /// Triggers surviving dedup.
        deduped: usize,
        /// Wall-clock of the merge pass.
        elapsed: Duration,
    },
    /// The budget was checked ([`ChaseObserver::budget_checked`]).
    BudgetChecked {
        /// The limit that tripped, if any.
        tripped: Option<BudgetLimit>,
    },
}

/// Adapts a `FnMut(ChaseEvent)` closure into a [`ChaseObserver`] that receives
/// **every** event — including the phase-boundary events, which it opts into
/// (`observes_phases` is `true`). The cheap way to tap the full stream without
/// writing an observer type.
pub struct EventObserver<F>(pub F);

impl<F: FnMut(ChaseEvent)> ChaseObserver for EventObserver<F> {
    fn step_applied(&mut self, trigger: &Trigger, effect: &StepEffect) {
        (self.0)(ChaseEvent::StepApplied {
            trigger: trigger.clone(),
            effect: effect.clone(),
        })
    }

    fn nulls_created(&mut self, count: usize) {
        (self.0)(ChaseEvent::NullsCreated { count })
    }

    fn egd_collapsed(&mut self, gamma: &NullSubstitution) {
        (self.0)(ChaseEvent::EgdCollapsed {
            gamma: gamma.clone(),
        })
    }

    fn round_completed(&mut self, round: usize, facts: usize) {
        (self.0)(ChaseEvent::RoundCompleted { round, facts })
    }

    fn round_nulls(&mut self, nulls: usize) {
        (self.0)(ChaseEvent::RoundNulls { nulls })
    }

    fn observes_phases(&self) -> bool {
        true
    }

    fn discovery_completed(&mut self, stats: &DiscoveryStats) {
        (self.0)(ChaseEvent::DiscoveryCompleted {
            stats: stats.clone(),
        })
    }

    fn merge_completed(&mut self, candidates: usize, deduped: usize, elapsed: Duration) {
        (self.0)(ChaseEvent::MergeCompleted {
            candidates,
            deduped,
            elapsed,
        })
    }

    fn budget_checked(&mut self, tripped: Option<BudgetLimit>) {
        (self.0)(ChaseEvent::BudgetChecked { tripped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::Assignment;
    use chase_core::DepId;

    #[test]
    fn trace_observer_records_steps_and_collapses() {
        let mut obs = TraceObserver::new();
        let trigger = Trigger {
            dep: DepId(0),
            assignment: Assignment::new(),
        };
        let added = StepEffect::AddedFacts {
            facts: vec![],
            fresh_nulls: 2,
        };
        // Round 1: a null-inventing step, then two EGD collapses in order.
        obs.nulls_created(2);
        obs.step_applied(&trigger, &added);
        let gamma_a = NullSubstitution::single(
            chase_core::NullValue(0),
            chase_core::GroundTerm::Null(chase_core::NullValue(1)),
        );
        let gamma_b = NullSubstitution::single(
            chase_core::NullValue(1),
            chase_core::GroundTerm::Const(chase_core::Constant::new("a")),
        );
        obs.egd_collapsed(&gamma_a);
        obs.step_applied(
            &trigger,
            &StepEffect::Substituted {
                gamma: gamma_a.clone(),
            },
        );
        obs.egd_collapsed(&gamma_b);
        obs.step_applied(
            &trigger,
            &StepEffect::Substituted {
                gamma: gamma_b.clone(),
            },
        );
        obs.round_completed(1, 10);
        obs.round_nulls(2);
        // Round 2: no work, smaller live-null count after core folding.
        obs.round_completed(2, 10);
        obs.round_nulls(1);

        // The full recorded stream, pinned: steps in application order …
        assert_eq!(
            obs.steps,
            vec![
                (trigger.clone(), added),
                (
                    trigger.clone(),
                    StepEffect::Substituted {
                        gamma: gamma_a.clone()
                    }
                ),
                (
                    trigger.clone(),
                    StepEffect::Substituted {
                        gamma: gamma_b.clone()
                    }
                ),
            ]
        );
        // … collapses in application order (gamma_a strictly before gamma_b) …
        assert_eq!(obs.collapses, vec![gamma_a, gamma_b]);
        assert_eq!(obs.nulls, 2);
        // … and the round pairs, with round_null_counts parallel to rounds.
        assert_eq!(obs.rounds, vec![(1, 10), (2, 10)]);
        assert_eq!(obs.round_null_counts, vec![2, 1]);
    }

    #[test]
    fn event_observer_receives_the_full_stream_in_order() {
        let mut events = Vec::new();
        {
            let mut obs = EventObserver(|e: ChaseEvent| events.push(e));
            assert!(obs.observes_phases());
            let trigger = Trigger {
                dep: DepId(1),
                assignment: Assignment::new(),
            };
            let stats = chase_core::DiscoveryStats {
                shards: vec![chase_core::ShardStats {
                    worker: 0,
                    facts_scanned: 5,
                    triggers_found: 1,
                    elapsed: Duration::from_micros(7),
                }],
                elapsed: Duration::from_micros(9),
            };
            obs.discovery_completed(&stats);
            obs.merge_completed(3, 1, Duration::from_micros(2));
            obs.budget_checked(None);
            obs.nulls_created(1);
            obs.step_applied(
                &trigger,
                &StepEffect::AddedFacts {
                    facts: vec![],
                    fresh_nulls: 1,
                },
            );
            obs.round_completed(1, 6);
            obs.round_nulls(1);
            obs.budget_checked(Some(BudgetLimit::Steps));
        }
        // Every event arrives, in emission order, with its payload intact.
        assert_eq!(events.len(), 8);
        assert!(matches!(
            &events[0],
            ChaseEvent::DiscoveryCompleted { stats } if stats.facts_scanned() == 5
        ));
        assert!(matches!(
            events[1],
            ChaseEvent::MergeCompleted {
                candidates: 3,
                deduped: 1,
                ..
            }
        ));
        assert!(matches!(
            events[2],
            ChaseEvent::BudgetChecked { tripped: None }
        ));
        assert!(matches!(events[3], ChaseEvent::NullsCreated { count: 1 }));
        assert!(matches!(events[4], ChaseEvent::StepApplied { .. }));
        assert!(matches!(
            events[5],
            ChaseEvent::RoundCompleted { round: 1, facts: 6 }
        ));
        assert!(matches!(events[6], ChaseEvent::RoundNulls { nulls: 1 }));
        assert!(matches!(
            events[7],
            ChaseEvent::BudgetChecked {
                tripped: Some(BudgetLimit::Steps)
            }
        ));
    }
}
