//! The unified chase session API: one builder for every variant.
//!
//! [`Chase`] is the single front door to the four chase variants of the paper. Every
//! session shares the same vocabulary — one [`ChaseBudget`] for resource limits, one
//! [`ChaseOutcome`] with failure diagnostics and tripped-limit reporting, one
//! [`ChaseObserver`] hook for tracing and metrics:
//!
//! ```
//! use chase_core::parser::parse_program;
//! use chase_engine::{Chase, ChaseBudget, StepOrder};
//!
//! let p = parse_program(
//!     r#"
//!     r1: N(?x) -> exists ?y: E(?x, ?y).
//!     r2: E(?x, ?y) -> N(?y).
//!     r3: E(?x, ?y) -> ?x = ?y.
//!     N(a).
//!     "#,
//! )
//! .unwrap();
//!
//! // Enforcing EGDs eagerly yields the terminating sequence of Example 1.
//! let outcome = Chase::standard(&p.dependencies)
//!     .with_order(StepOrder::EgdsFirst)
//!     .with_budget(ChaseBudget::default().with_max_steps(1_000))
//!     .run(&p.database);
//! assert!(outcome.is_terminating());
//! assert_eq!(outcome.instance().unwrap().len(), 2); // {N(a), E(a, a)}
//! ```

use crate::budget::ChaseBudget;
use crate::core_chase::run_core;
use crate::materialize::{MaterializeError, MaterializedRun};
use crate::oblivious::{chase_steps, run_oblivious, FiredKeys, ObliviousVariant, StepHalt};
use crate::observer::{ChaseObserver, NoopObserver};
use crate::result::{ChaseOutcome, ChaseStats};
use crate::standard::{run_standard, StepOrder, TriggerDiscovery};
use chase_core::{DependencySet, Instance};
use chase_trigger::TriggerEngine;

/// Which chase variant a [`Chase`] session runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    Standard,
    Oblivious(ObliviousVariant),
    Core,
}

/// A configured chase session over a dependency set: variant, trigger policy,
/// discovery strategy and resource budget.
///
/// Construct with one of [`Chase::standard`], [`Chase::oblivious`],
/// [`Chase::semi_oblivious`] or [`Chase::core`], refine with the `with_*` builders,
/// then [`run`](Chase::run) it on a database (or
/// [`run_observed`](Chase::run_observed) with a [`ChaseObserver`]).
#[derive(Clone)]
pub struct Chase<'a> {
    sigma: &'a DependencySet,
    variant: Variant,
    order: StepOrder,
    discovery: TriggerDiscovery,
    budget: ChaseBudget,
    workers: usize,
}

impl<'a> Chase<'a> {
    fn new(sigma: &'a DependencySet, variant: Variant) -> Self {
        Chase {
            sigma,
            variant,
            order: StepOrder::EgdsFirst,
            discovery: TriggerDiscovery::Incremental,
            budget: ChaseBudget::default(),
            workers: 1,
        }
    }

    /// A standard chase session (default policy [`StepOrder::EgdsFirst`], incremental
    /// trigger discovery).
    pub fn standard(sigma: &'a DependencySet) -> Self {
        Chase::new(sigma, Variant::Standard)
    }

    /// An oblivious or semi-oblivious chase session, selected by `variant`.
    pub fn oblivious(sigma: &'a DependencySet, variant: ObliviousVariant) -> Self {
        Chase::new(sigma, Variant::Oblivious(variant))
    }

    /// A semi-oblivious chase session (shorthand for
    /// [`Chase::oblivious`]`(sigma, ObliviousVariant::SemiOblivious)`).
    pub fn semi_oblivious(sigma: &'a DependencySet) -> Self {
        Chase::new(sigma, Variant::Oblivious(ObliviousVariant::SemiOblivious))
    }

    /// A core chase session (rounds of parallel steps followed by core computation).
    pub fn core(sigma: &'a DependencySet) -> Self {
        Chase::new(sigma, Variant::Core)
    }

    /// Sets the trigger-selection policy (standard chase only; the oblivious variants
    /// fire in textual order by definition and the core chase fires all triggers in
    /// parallel, so the policy is ignored there).
    pub fn with_order(mut self, order: StepOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the trigger-discovery strategy (standard chase only).
    pub fn with_discovery(mut self, discovery: TriggerDiscovery) -> Self {
        self.discovery = discovery;
        self
    }

    /// Sets the resource budget.
    pub fn with_budget(mut self, budget: ChaseBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the shard width of the (semi-)oblivious variants' trigger
    /// discovery: up to `n` lanes on the persistent, process-wide worker pool
    /// ([`chase_core::pool`]). `workers(0)` is normalized to 1, which
    /// discovers inline on the calling thread. The pool's threads are spawned
    /// once and reused across rounds, runs and sessions; repeated runs on one
    /// session are byte-identical (pinned by the pool-reuse suite).
    ///
    /// `n` chooses no algorithm. An **EGD-free (semi-)oblivious** run takes
    /// the round runner at every `n`: discovery of each round's delta runs
    /// against a frozen snapshot and the deduped triggers are applied in
    /// discovery order, which does not depend on `n`, so runs with the same
    /// inputs and any `n` produce byte-identical instances, statistics,
    /// observer streams and tripped budget limits. **EGD-bearing** sets run per
    /// step at every `n`: substitutions rewrite fired keys in sequence order,
    /// so the result depends on the interleaving (see [`crate::parallel`] for
    /// the full argument). So does [`Chase::materialize`], whose log is defined
    /// per applied step.
    ///
    /// The **standard** and **core** chases ignore the setting: their
    /// outcomes, statistics and observer streams are the same at every `n`.
    /// The standard chase's semantics is its sequential trigger order, so only
    /// read-only phases could run in parallel, and doing so measured 0.40× at
    /// 2 workers (`standard_ontology` 120x120).
    ///
    /// ```
    /// use chase_core::parser::parse_program;
    /// use chase_engine::Chase;
    ///
    /// let p = parse_program(
    ///     r#"
    ///     t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
    ///     E(a, b). E(b, c). E(c, d). E(d, e).
    ///     "#,
    /// )
    /// .unwrap();
    /// let one = Chase::semi_oblivious(&p.dependencies).run(&p.database);
    /// let four = Chase::semi_oblivious(&p.dependencies)
    ///     .workers(4)
    ///     .run(&p.database);
    /// // Both run the same rounds in the same order: the outcomes are equal,
    /// // labeled nulls included.
    /// assert_eq!(one.instance().unwrap(), four.instance().unwrap());
    /// assert_eq!(one.stats(), four.stats());
    /// ```
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// The session's budget.
    pub fn budget(&self) -> &ChaseBudget {
        &self.budget
    }

    /// Runs the session on `database`.
    pub fn run(&self, database: &Instance) -> ChaseOutcome {
        self.run_observed(database, &mut NoopObserver)
    }

    /// Runs the session on `database`, reporting events to `observer`.
    ///
    /// The returned outcome's [`ChaseStats::elapsed`](crate::ChaseStats) holds
    /// the wall-clock of the whole run, stamped here for every variant (it is
    /// excluded from stats equality, so determinism contracts are unaffected).
    pub fn run_observed(
        &self,
        database: &Instance,
        observer: &mut dyn ChaseObserver,
    ) -> ChaseOutcome {
        let started = std::time::Instant::now();
        let mut outcome = match self.variant {
            Variant::Standard => run_standard(
                self.sigma,
                self.order,
                self.discovery,
                &self.budget,
                database,
                observer,
            ),
            Variant::Oblivious(variant) => run_oblivious(
                self.sigma,
                variant,
                &self.budget,
                database,
                observer,
                self.workers,
            ),
            Variant::Core => run_core(self.sigma, &self.budget, database, observer),
        };
        outcome.stats_mut().elapsed = started.elapsed();
        outcome
    }

    /// Runs the session on `database` on the per-step loop
    /// ([`chase_steps`]) while logging every derivation,
    /// and hands over the terminated run — its engine, fired keys and log —
    /// as the input to incremental view maintenance
    /// (`chase_ivm::ChaseMaterialization`).
    ///
    /// Only the (semi-)oblivious variants are maintainable: their fired-key
    /// step semantics are monotone in the base, so inserted facts can ride the
    /// semi-naive delta path and retractions can be repaired from the recorded
    /// supports. The standard chase (non-monotone activity check) and the core
    /// chase (folds facts away) are rejected with
    /// [`MaterializeError::UnsupportedVariant`]; failing and budget-exhausted
    /// runs are rejected too, since there is no model to maintain. The log is
    /// defined per applied step, so the run takes the per-step loop at every
    /// worker count, EGD-free sets included.
    pub fn materialize(
        &self,
        database: &Instance,
    ) -> Result<MaterializedRun<'a>, MaterializeError> {
        let variant = match self.variant {
            Variant::Oblivious(v) => v,
            Variant::Standard => return Err(MaterializeError::UnsupportedVariant("standard")),
            Variant::Core => return Err(MaterializeError::UnsupportedVariant("core")),
        };
        let started = std::time::Instant::now();
        let mut engine = TriggerEngine::with_database(self.sigma, database);
        let base = engine.instance().fact_ids().collect();
        let mut fired = FiredKeys::new(self.sigma, variant);
        let mut stats = ChaseStats::default();
        let mut log = Vec::new();
        let halt = chase_steps(
            &mut engine,
            &mut fired,
            &self.budget,
            &mut stats,
            &mut NoopObserver,
            Some(&mut log),
        );
        match halt {
            Ok(()) => {}
            Err(StepHalt::Violation(violation)) => return Err(MaterializeError::Failed(violation)),
            Err(StepHalt::Budget(limit)) => return Err(MaterializeError::BudgetExhausted(limit)),
        }
        stats.elapsed = started.elapsed();
        Ok(MaterializedRun {
            variant,
            engine,
            fired,
            log,
            stats,
            budget: self.budget,
            base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetLimit;
    use crate::observer::TraceObserver;
    use chase_core::parser::parse_program;

    fn sigma1() -> chase_core::Program {
        parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            N(a).
            "#,
        )
        .unwrap()
    }

    #[test]
    fn all_four_variants_run_through_the_same_builder() {
        let p = sigma1();
        let budget = ChaseBudget::default()
            .with_max_steps(300)
            .with_max_rounds(20);
        let std_out = Chase::standard(&p.dependencies)
            .with_budget(budget)
            .run(&p.database);
        assert!(std_out.is_terminating());
        let sobl = Chase::semi_oblivious(&p.dependencies)
            .with_budget(budget)
            .run(&p.database);
        let obl = Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious)
            .with_budget(budget)
            .run(&p.database);
        // For Σ1 the oblivious chase keeps re-firing r1 on new nulls.
        assert!(!obl.is_terminating());
        assert!(sobl.stats().steps > 0, "the semi-oblivious session ran");
        let core = Chase::core(&p.dependencies)
            .with_budget(budget)
            .run(&p.database);
        assert!(core.is_terminating());
        assert_eq!(core.instance().unwrap().len(), 2);
    }

    #[test]
    fn budget_reports_the_tripped_limit_per_variant() {
        let p = sigma1();
        let steps = Chase::standard(&p.dependencies)
            .with_order(crate::StepOrder::Textual)
            .with_budget(ChaseBudget::unlimited().with_max_steps(50))
            .run(&p.database);
        assert_eq!(steps.exhausted_limit(), Some(BudgetLimit::Steps));

        let nulls = Chase::standard(&p.dependencies)
            .with_order(crate::StepOrder::Textual)
            .with_budget(ChaseBudget::unlimited().with_max_fresh_nulls(5))
            .run(&p.database);
        assert_eq!(nulls.exhausted_limit(), Some(BudgetLimit::FreshNulls));
        assert!(nulls.stats().nulls_created >= 5);

        let facts = Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious)
            .with_budget(ChaseBudget::unlimited().with_max_facts(8))
            .run(&p.database);
        assert_eq!(facts.exhausted_limit(), Some(BudgetLimit::Facts));
    }

    #[test]
    fn observer_reaches_every_variant() {
        let p = sigma1();
        let mut trace = TraceObserver::new();
        let out = Chase::standard(&p.dependencies).run_observed(&p.database, &mut trace);
        assert_eq!(trace.steps.len(), out.stats().steps);

        let mut core_trace = TraceObserver::new();
        let core = Chase::core(&p.dependencies).run_observed(&p.database, &mut core_trace);
        assert!(core.is_terminating());
        assert_eq!(core_trace.rounds.len(), core.stats().steps);
    }
}
