//! # chase-engine
//!
//! The chase procedure over TGDs and EGDs, in the four variants used by Calautti et
//! al. (PVLDB 2016): **standard**, **oblivious**, **semi-oblivious** and **core**
//! chase, together with core computation, universal-model checks and certain-answer
//! evaluation.
//!
//! The central operation is the *chase step* of Definition 1: enforcing a single
//! dependency under a homomorphism, either by adding facts with fresh labeled nulls
//! (TGDs) or by replacing a labeled null with another term (EGDs), possibly failing
//! when an EGD equates two distinct constants.
//!
//! The front door is the unified [`Chase`] session builder: one constructor per
//! variant, one [`ChaseBudget`] for resource limits (steps, rounds, fresh nulls,
//! facts, wall-clock), one [`ChaseOutcome`] whose failure case carries the violating
//! EGD and trigger and whose budget case names the tripped limit, and a pluggable
//! [`ChaseObserver`] for tracing and metrics.
//!
//! Trigger discovery is delta-driven by default: the runners feed each step's
//! added or rewritten facts to the incremental
//! [`TriggerEngine`](chase_trigger::TriggerEngine) instead of re-scanning the
//! whole instance ([`Chase::with_discovery`]`(`[`TriggerDiscovery::NaiveRescan`]`)`
//! keeps the full re-scan as the reference the differential tests compare
//! against). Step
//! bookkeeping rides the arena-interned `chase_core::FactStore`: deltas travel
//! as dense `FactId`s, the core chase substitutes in place through the id delta,
//! and [`core_of`](crate::core_of::core_of) folds nulls on ids with per-version
//! memoisation.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod certain;
pub mod core_chase;
pub mod core_of;
pub mod materialize;
pub mod metrics;
pub mod oblivious;
pub mod observer;
pub mod parallel;
pub mod result;
pub mod session;
pub mod standard;
pub mod step;
pub mod universal;

pub use budget::{BudgetLimit, ChaseBudget};
pub use certain::{certain_answers, ConjunctiveQuery};
pub use core_of::{core_of, is_core};
pub use materialize::{MaterializeError, MaterializeEvent, MaterializedRun};
pub use metrics::MetricsObserver;
pub use oblivious::{chase_steps, FiredKeys, ObliviousVariant, StepHalt};
pub use observer::{ChaseEvent, ChaseObserver, EventObserver, NoopObserver, TraceObserver};
pub use result::{ChaseOutcome, ChaseStats, EgdViolation};
pub use session::Chase;
pub use standard::{StepOrder, TriggerDiscovery};
pub use step::{applicable_standard_triggers, apply_step, StepEffect, Trigger};
pub use universal::{homomorphically_equivalent, is_model, is_universal_model_among};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::budget::{BudgetLimit, ChaseBudget};
    pub use crate::certain::{certain_answers, ConjunctiveQuery};
    pub use crate::core_of::{core_of, is_core};
    pub use crate::metrics::MetricsObserver;
    pub use crate::oblivious::ObliviousVariant;
    pub use crate::observer::{
        ChaseEvent, ChaseObserver, EventObserver, NoopObserver, TraceObserver,
    };
    pub use crate::result::{ChaseOutcome, ChaseStats, EgdViolation};
    pub use crate::session::Chase;
    pub use crate::standard::{StepOrder, TriggerDiscovery};
    pub use crate::universal::{homomorphically_equivalent, is_model};
}
