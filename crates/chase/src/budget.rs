//! Resource budgets for chase runs.
//!
//! A [`ChaseBudget`] bounds a chase run along every axis that can diverge — steps,
//! rounds (core chase), fresh labeled nulls, instance size and wall-clock time — and
//! replaces the per-variant ad-hoc caps (`with_max_steps` / `with_max_rounds`) of the
//! legacy runners. When a run stops because of a budget, the resulting
//! [`ChaseOutcome::BudgetExhausted`](crate::ChaseOutcome::BudgetExhausted) names the
//! tripped [`BudgetLimit`], so callers can distinguish "diverged past the step cap"
//! from "ran out of time" or "instance grew too large".

use crate::observer::ChaseObserver;
use crate::result::ChaseStats;
use std::fmt;
use std::time::{Duration, Instant};

/// Which budget limit stopped a chase run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetLimit {
    /// [`ChaseBudget::max_steps`] was reached.
    Steps,
    /// [`ChaseBudget::max_rounds`] was reached (core chase).
    Rounds,
    /// [`ChaseBudget::max_fresh_nulls`] was reached.
    FreshNulls,
    /// [`ChaseBudget::max_facts`] was reached.
    Facts,
    /// [`ChaseBudget::wall_clock`] elapsed.
    WallClock,
    /// The core chase reached a round that made no progress (the cored result
    /// equals the previous instance) while violations remain. No [`ChaseBudget`]
    /// field tripped — raising budgets will not help this run.
    NoProgress,
}

impl fmt::Display for BudgetLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetLimit::Steps => write!(f, "max_steps"),
            BudgetLimit::Rounds => write!(f, "max_rounds"),
            BudgetLimit::FreshNulls => write!(f, "max_fresh_nulls"),
            BudgetLimit::Facts => write!(f, "max_facts"),
            BudgetLimit::WallClock => write!(f, "wall_clock"),
            BudgetLimit::NoProgress => write!(f, "no_progress"),
        }
    }
}

/// A resource budget for one chase run. Every limit is optional; `None` means
/// unlimited along that axis.
///
/// Semantics per variant:
///
/// * step-based variants (standard, (semi-)oblivious) check `max_steps`,
///   `max_fresh_nulls`, `max_facts` and `wall_clock` before every step and ignore
///   `max_rounds`;
/// * the core chase counts **rounds** (one parallel application of all triggers plus
///   a core computation): both `max_rounds` and `max_steps` bound the rounds
///   conjunctively (it has no finer step granularity), together with
///   `max_fresh_nulls`, `max_facts` and `wall_clock`.
///
/// Limits are enforced *before* work is performed, so `stats.steps` never exceeds
/// `max_steps`; counters that can grow by more than one per step (nulls, facts) may
/// overshoot by at most one step's worth before the run stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseBudget {
    /// Maximum number of chase steps (step-based variants).
    pub max_steps: Option<usize>,
    /// Maximum number of rounds (core chase).
    pub max_rounds: Option<usize>,
    /// Maximum number of fresh labeled nulls invented.
    pub max_fresh_nulls: Option<usize>,
    /// Maximum number of facts in the instance.
    pub max_facts: Option<usize>,
    /// Maximum wall-clock duration of the run.
    pub wall_clock: Option<Duration>,
}

impl Default for ChaseBudget {
    /// The defaults of the legacy runners: 100 000 steps, 1 000 rounds, everything
    /// else unlimited.
    fn default() -> Self {
        ChaseBudget {
            max_steps: Some(100_000),
            max_rounds: Some(1_000),
            max_fresh_nulls: None,
            max_facts: None,
            wall_clock: None,
        }
    }
}

impl ChaseBudget {
    /// A budget with no limits at all. Use with care: the chase is not guaranteed to
    /// terminate.
    pub fn unlimited() -> Self {
        ChaseBudget {
            max_steps: None,
            max_rounds: None,
            max_fresh_nulls: None,
            max_facts: None,
            wall_clock: None,
        }
    }

    /// Sets the step limit.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Sets the round limit (core chase).
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Sets the fresh-null limit.
    pub fn with_max_fresh_nulls(mut self, max_fresh_nulls: usize) -> Self {
        self.max_fresh_nulls = Some(max_fresh_nulls);
        self
    }

    /// Sets the instance-size limit.
    pub fn with_max_facts(mut self, max_facts: usize) -> Self {
        self.max_facts = Some(max_facts);
        self
    }

    /// Sets the wall-clock limit.
    pub fn with_wall_clock(mut self, wall_clock: Duration) -> Self {
        self.wall_clock = Some(wall_clock);
        self
    }
}

/// Internal per-run enforcement state: the budget, the run's start time, and
/// whether the run's observer takes phase events.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BudgetClock {
    budget: ChaseBudget,
    started: Instant,
    phases: bool,
}

impl BudgetClock {
    /// Starts the clock; with `phases` (the run's one
    /// [`ChaseObserver::observes_phases`] answer) every check is reported as
    /// a `budget_checked` event.
    pub(crate) fn start(budget: &ChaseBudget, phases: bool) -> Self {
        BudgetClock {
            budget: *budget,
            started: Instant::now(),
            phases,
        }
    }

    /// Checks the step-based limits against the current counters; `facts` is the
    /// current instance size.
    pub(crate) fn check_step(
        &self,
        stats: &ChaseStats,
        facts: usize,
        observer: &mut dyn ChaseObserver,
    ) -> Option<BudgetLimit> {
        let tripped = match self.budget.max_steps {
            Some(n) if stats.steps >= n => Some(BudgetLimit::Steps),
            _ => self.check_common(stats, facts),
        };
        self.report(tripped, observer)
    }

    /// Checks the round-based limits (core chase); `stats.steps` counts rounds.
    /// Both `max_rounds` and `max_steps` bound the rounds conjunctively (whichever
    /// trips first is reported), matching the conjunctive semantics of the other
    /// limits — a core chase has no finer step granularity than its rounds.
    pub(crate) fn check_round(
        &self,
        stats: &ChaseStats,
        facts: usize,
        observer: &mut dyn ChaseObserver,
    ) -> Option<BudgetLimit> {
        let tripped = match (self.budget.max_rounds, self.budget.max_steps) {
            (Some(n), _) if stats.steps >= n => Some(BudgetLimit::Rounds),
            (_, Some(n)) if stats.steps >= n => Some(BudgetLimit::Steps),
            _ => self.check_common(stats, facts),
        };
        self.report(tripped, observer)
    }

    fn report(
        &self,
        tripped: Option<BudgetLimit>,
        observer: &mut dyn ChaseObserver,
    ) -> Option<BudgetLimit> {
        if self.phases {
            observer.budget_checked(tripped);
        }
        tripped
    }

    fn check_common(&self, stats: &ChaseStats, facts: usize) -> Option<BudgetLimit> {
        if let Some(n) = self.budget.max_fresh_nulls {
            if stats.nulls_created >= n {
                return Some(BudgetLimit::FreshNulls);
            }
        }
        if let Some(n) = self.budget.max_facts {
            if facts >= n {
                return Some(BudgetLimit::Facts);
            }
        }
        if let Some(d) = self.budget.wall_clock {
            if self.started.elapsed() >= d {
                return Some(BudgetLimit::WallClock);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NoopObserver;

    #[test]
    fn default_matches_the_legacy_caps() {
        let b = ChaseBudget::default();
        assert_eq!(b.max_steps, Some(100_000));
        assert_eq!(b.max_rounds, Some(1_000));
        assert_eq!(b.max_fresh_nulls, None);
    }

    #[test]
    fn builders_compose() {
        let b = ChaseBudget::unlimited()
            .with_max_steps(10)
            .with_max_fresh_nulls(3)
            .with_max_facts(100)
            .with_wall_clock(Duration::from_secs(1));
        assert_eq!(b.max_steps, Some(10));
        assert_eq!(b.max_rounds, None);
        assert_eq!(b.max_fresh_nulls, Some(3));
        assert_eq!(b.max_facts, Some(100));
        assert_eq!(b.wall_clock, Some(Duration::from_secs(1)));
    }

    /// A clock for `budget` whose checks report to no observer.
    fn clock(budget: ChaseBudget) -> BudgetClock {
        BudgetClock::start(&budget, false)
    }

    fn steps(clock: &BudgetClock, stats: &ChaseStats, facts: usize) -> Option<BudgetLimit> {
        clock.check_step(stats, facts, &mut NoopObserver)
    }

    fn rounds(clock: &BudgetClock, stats: &ChaseStats) -> Option<BudgetLimit> {
        clock.check_round(stats, 0, &mut NoopObserver)
    }

    #[test]
    fn clock_trips_the_right_limit() {
        let c = clock(ChaseBudget::unlimited().with_max_steps(5));
        let mut stats = ChaseStats::default();
        assert_eq!(steps(&c, &stats, 0), None);
        stats.steps = 5;
        assert_eq!(steps(&c, &stats, 0), Some(BudgetLimit::Steps));

        let c = clock(ChaseBudget::unlimited().with_max_fresh_nulls(2));
        stats.nulls_created = 2;
        assert_eq!(steps(&c, &stats, 0), Some(BudgetLimit::FreshNulls));

        let c = clock(ChaseBudget::unlimited().with_max_facts(7));
        assert_eq!(steps(&c, &stats, 7), Some(BudgetLimit::Facts));

        let c = clock(ChaseBudget::unlimited().with_wall_clock(Duration::ZERO));
        assert_eq!(steps(&c, &stats, 0), Some(BudgetLimit::WallClock));
    }

    #[test]
    fn round_checks_enforce_steps_and_rounds_conjunctively() {
        let stats = ChaseStats {
            steps: 4,
            ..Default::default()
        };
        let only_steps = clock(ChaseBudget::unlimited().with_max_steps(4));
        assert_eq!(rounds(&only_steps, &stats), Some(BudgetLimit::Steps));
        // With both limits set, whichever trips first wins — a tight step cap is
        // not silenced by a loose round cap.
        let both = clock(
            ChaseBudget::unlimited()
                .with_max_steps(4)
                .with_max_rounds(10),
        );
        assert_eq!(rounds(&both, &stats), Some(BudgetLimit::Steps));
        let rounds_first = clock(
            ChaseBudget::unlimited()
                .with_max_steps(10)
                .with_max_rounds(4),
        );
        assert_eq!(rounds(&rounds_first, &stats), Some(BudgetLimit::Rounds));
    }

    #[test]
    fn limit_display() {
        assert_eq!(BudgetLimit::Steps.to_string(), "max_steps");
        assert_eq!(BudgetLimit::WallClock.to_string(), "wall_clock");
    }
}
