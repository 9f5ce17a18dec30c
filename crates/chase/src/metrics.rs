//! A [`ChaseObserver`] that feeds the [`chase_obs`] metrics layer.
//!
//! [`MetricsObserver`] turns the observer event stream into a
//! [`MetricsRegistry`] of counters and histograms, per-phase wall-clock
//! ([`PhaseTimes`]), the per-round fact/null curve and per-worker discovery
//! shard totals — everything needed to build a [`RunReport`] for the run.
//!
//! Phase attribution works by *marking*: the observer remembers the instant of
//! the previous phase boundary and charges the gap to the phase named by the
//! next event. `discovery_completed` closes a `discovery` span,
//! `merge_completed` a `merge` span, and `step_applied` / `round_completed`
//! charge the remainder to `apply`. Every nanosecond between the first and the
//! last event therefore lands in exactly one named phase, so
//! [`RunReport::attribution`] is 1.0 by construction for the observed window.
//!
//! ```
//! use chase_core::parser::parse_program;
//! use chase_engine::{Chase, MetricsObserver};
//!
//! let p = parse_program(
//!     r#"
//!     t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
//!     E(a, b). E(b, c). E(c, d).
//!     "#,
//! )
//! .unwrap();
//! let mut metrics = MetricsObserver::new();
//! let outcome = Chase::semi_oblivious(&p.dependencies)
//!     .run_observed(&p.database, &mut metrics);
//! let report = metrics.report("transitive-closure", &outcome);
//! assert_eq!(report.outcome, "terminated");
//! assert_eq!(report.stats.steps, outcome.stats().steps as u64);
//! assert!(!report.phases.is_empty());
//! ```

use crate::budget::BudgetLimit;
use crate::observer::ChaseObserver;
use crate::result::ChaseOutcome;
use crate::step::{StepEffect, Trigger};
use chase_core::{DiscoveryStats, NullSubstitution};
use chase_obs::{
    duration_ns, MetricsRegistry, PhaseTimes, ReportStats, RoundPoint, RunReport, WorkerReport,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-worker accumulation across every discovery event of a run.
#[derive(Clone, Copy, Debug, Default)]
struct WorkerAccum {
    batches: u64,
    facts_scanned: u64,
    triggers_found: u64,
    total_ns: u64,
}

/// A [`ChaseObserver`] that collects counters, phase timings, round curves and
/// worker shard totals, and renders them as a [`RunReport`].
///
/// Reports `observes_phases() == true`, so the runners emit the opt-in phase
/// events ([`discovery_completed`](ChaseObserver::discovery_completed),
/// [`merge_completed`](ChaseObserver::merge_completed),
/// [`budget_checked`](ChaseObserver::budget_checked)) when this observer is
/// attached. A fresh observer should be used per run: counters are cumulative.
#[derive(Clone, Debug)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
    phases: PhaseTimes,
    rounds: Vec<RoundPoint>,
    workers: BTreeMap<usize, WorkerAccum>,
    tripped: Option<BudgetLimit>,
    /// The previous phase boundary; gaps between events are charged to the
    /// phase named by the *next* event (see the module docs).
    last_mark: Instant,
}

impl MetricsObserver {
    /// A fresh observer; the attribution clock starts now.
    pub fn new() -> Self {
        MetricsObserver {
            registry: MetricsRegistry::new(),
            phases: PhaseTimes::new(),
            rounds: Vec::new(),
            workers: BTreeMap::new(),
            tripped: None,
            last_mark: Instant::now(),
        }
    }

    /// Closes the span since the previous mark and returns its length.
    fn take_span(&mut self) -> Duration {
        let now = Instant::now();
        let span = now.duration_since(self.last_mark);
        self.last_mark = now;
        span
    }

    /// The collected counters and histograms.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Wall-clock attributed per phase (`discovery`, `merge`, `apply`).
    pub fn phases(&self) -> &PhaseTimes {
        &self.phases
    }

    /// The per-round `(round, facts, nulls)` curve.
    pub fn rounds(&self) -> &[RoundPoint] {
        &self.rounds
    }

    /// The budget limit reported tripped by the run, if any.
    pub fn tripped(&self) -> Option<BudgetLimit> {
        self.tripped
    }

    /// Per-worker discovery totals, one row per worker id seen.
    pub fn worker_reports(&self) -> Vec<WorkerReport> {
        self.workers
            .iter()
            .map(|(&worker, acc)| WorkerReport {
                worker: worker as u64,
                batches: acc.batches,
                facts_scanned: acc.facts_scanned,
                triggers_found: acc.triggers_found,
                total_ns: acc.total_ns,
            })
            .collect()
    }

    /// Renders everything collected, plus the outcome's statistics, as a
    /// [`RunReport`] named `name`. Analyzer verdicts can be appended to the
    /// returned report's `verdicts` afterwards.
    pub fn report(&self, name: impl Into<String>, outcome: &ChaseOutcome) -> RunReport {
        let stats = outcome.stats();
        let mut report = RunReport::new(name);
        report.outcome = match outcome {
            ChaseOutcome::Terminated { .. } => "terminated".to_string(),
            ChaseOutcome::Failed { .. } => "failed".to_string(),
            ChaseOutcome::BudgetExhausted { .. } => "budget_exhausted".to_string(),
        };
        report.tripped = outcome
            .exhausted_limit()
            .or(self.tripped)
            .map(|limit| limit.to_string());
        report.stats = ReportStats {
            steps: stats.steps as u64,
            facts_added: stats.facts_added as u64,
            nulls_created: stats.nulls_created as u64,
            null_replacements: stats.null_replacements as u64,
            elapsed_ns: duration_ns(stats.elapsed),
        };
        report.set_phases(&self.phases);
        report.rounds = self.rounds.clone();
        report.workers = self.worker_reports();
        report
    }
}

impl Default for MetricsObserver {
    fn default() -> Self {
        MetricsObserver::new()
    }
}

impl ChaseObserver for MetricsObserver {
    fn step_applied(&mut self, _trigger: &Trigger, effect: &StepEffect) {
        let span = self.take_span();
        self.phases.add("apply", span);
        self.registry.inc("chase.steps");
        match effect {
            StepEffect::AddedFacts { facts, fresh_nulls } => {
                self.registry.add("chase.facts_added", facts.len() as u64);
                self.registry.add("chase.fresh_nulls", *fresh_nulls as u64);
            }
            StepEffect::Substituted { .. } => self.registry.inc("chase.substitutions"),
            StepEffect::Failure => self.registry.inc("chase.failures"),
            StepEffect::NotApplicable => {}
        }
    }

    fn nulls_created(&mut self, count: usize) {
        self.registry.add("chase.nulls_created", count as u64);
    }

    fn egd_collapsed(&mut self, _gamma: &NullSubstitution) {
        self.registry.inc("chase.collapses");
    }

    fn round_completed(&mut self, round: usize, facts: usize) {
        // Residue since the last step (round bookkeeping, dedup, EGD passes)
        // is charged to `apply` so the round's wall-clock stays fully named.
        let span = self.take_span();
        self.phases.add("apply", span);
        self.registry.inc("chase.rounds");
        self.registry.set_gauge("chase.facts", facts as i64);
        self.rounds.push(RoundPoint {
            round: round as u64,
            facts: facts as u64,
            nulls: 0,
        });
    }

    fn round_nulls(&mut self, nulls: usize) {
        self.registry.set_gauge("chase.nulls", nulls as i64);
        if let Some(point) = self.rounds.last_mut() {
            point.nulls = nulls as u64;
        }
    }

    fn observes_phases(&self) -> bool {
        true
    }

    fn discovery_completed(&mut self, stats: &DiscoveryStats) {
        let span = self.take_span();
        self.phases.add("discovery", span);
        self.registry.record("discovery.batch", stats.elapsed);
        self.registry.inc("discovery.batches");
        self.registry
            .add("discovery.facts_scanned", stats.facts_scanned() as u64);
        self.registry
            .add("discovery.triggers_found", stats.triggers_found() as u64);
        for shard in &stats.shards {
            let acc = self.workers.entry(shard.worker).or_default();
            acc.batches += 1;
            acc.facts_scanned += shard.facts_scanned as u64;
            acc.triggers_found += shard.triggers_found as u64;
            acc.total_ns += duration_ns(shard.elapsed);
        }
    }

    fn merge_completed(&mut self, candidates: usize, deduped: usize, elapsed: Duration) {
        let span = self.take_span();
        self.phases.add("merge", span);
        self.registry.record("merge.pass", elapsed);
        self.registry.add("merge.candidates", candidates as u64);
        self.registry.add("merge.kept", deduped as u64);
        self.registry
            .add("merge.dropped", candidates.saturating_sub(deduped) as u64);
    }

    fn budget_checked(&mut self, tripped: Option<BudgetLimit>) {
        self.registry.inc("budget.checks");
        if let Some(limit) = tripped {
            self.tripped = Some(limit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::ChaseBudget;
    use crate::session::Chase;
    use chase_core::parser::parse_program;

    fn transitive() -> chase_core::Program {
        parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            E(a, b). E(b, c). E(c, d). E(d, e).
            "#,
        )
        .unwrap()
    }

    #[test]
    fn metrics_agree_with_stats_on_a_sequential_run() {
        // An EGD-bearing set: the (semi-)oblivious chase runs it step by step.
        let p = parse_program(
            r#"
            r1: Emp(?x) -> exists ?d: Works(?x, ?d).
            k: Works(?x, ?d1), Works(?x, ?d2) -> ?d1 = ?d2.
            Emp(e1). Emp(e2). Works(e1, d0).
            "#,
        )
        .unwrap();
        let mut metrics = MetricsObserver::new();
        let outcome =
            Chase::semi_oblivious(&p.dependencies).run_observed(&p.database, &mut metrics);
        let stats = outcome.stats();
        assert!(stats.nulls_created > 0 && stats.null_replacements > 0);
        assert_eq!(
            metrics.registry().counter("chase.steps"),
            stats.steps as u64
        );
        assert_eq!(
            metrics.registry().counter("chase.nulls_created"),
            stats.nulls_created as u64
        );
        assert!(metrics.registry().counter("discovery.batches") > 0);
        assert!(metrics.registry().counter("budget.checks") > 0);
        assert!(metrics.phases().get("discovery").is_some());
        assert!(metrics.phases().get("apply").is_some());
        // Round events come from the round runner and the core chase only, so
        // a step-at-a-time run has an empty curve.
        assert!(metrics.rounds().is_empty());
        // Per-step runs report their discovery as a single worker-0 shard.
        let workers = metrics.worker_reports();
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].worker, 0);
    }

    #[test]
    fn parallel_run_reports_one_shard_row_per_worker() {
        let p = transitive();
        let mut metrics = MetricsObserver::new();
        let outcome = Chase::semi_oblivious(&p.dependencies)
            .workers(3)
            .run_observed(&p.database, &mut metrics);
        assert!(outcome.is_terminating());
        assert!(metrics.phases().get("merge").is_some());
        assert!(
            !metrics.rounds().is_empty(),
            "the round runner emits the curve"
        );
        let workers = metrics.worker_reports();
        assert!(!workers.is_empty() && workers.len() <= 3);
        let scanned: u64 = workers.iter().map(|w| w.facts_scanned).sum();
        assert_eq!(
            scanned,
            metrics.registry().counter("discovery.facts_scanned")
        );
    }

    #[test]
    fn report_carries_outcome_stats_rounds_and_tripped_limit() {
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            N(a).
            "#,
        )
        .unwrap();
        let mut metrics = MetricsObserver::new();
        let outcome = Chase::semi_oblivious(&p.dependencies)
            .with_budget(ChaseBudget::unlimited().with_max_steps(10))
            .run_observed(&p.database, &mut metrics);
        let report = metrics.report("sigma-budget", &outcome);
        assert_eq!(report.name, "sigma-budget");
        assert_eq!(report.outcome, "budget_exhausted");
        assert!(report.tripped.is_some());
        assert_eq!(report.stats.steps, outcome.stats().steps as u64);
        assert_eq!(report.rounds.len(), metrics.rounds().len());
        // The report roundtrips through its JSON schema unchanged.
        let parsed = RunReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(parsed, report);
    }
}
