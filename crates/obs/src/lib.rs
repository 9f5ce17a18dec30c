//! # chase_obs — zero-dependency observability for the chase workspace
//!
//! This crate deliberately knows nothing about dependencies, instances or
//! triggers: it is the leaf of the workspace graph (std only, no
//! dependencies, vendored or otherwise) so every other crate — including
//! `chase_termination` — can use it without cycles. The chase-specific glue
//! (`MetricsObserver`, phase events) lives in `chase_engine::metrics`.
//!
//! Three layers:
//!
//! * [`metrics`] — a [`MetricsRegistry`] of
//!   monotonic counters, gauges and log-bucketed duration histograms with
//!   `p50`/`p95`/`max`;
//! * [`phase`] — per-name accumulation of wall-clock spans ([`PhaseTimes`]);
//! * [`report`] — [`RunReport`], the JSON-serialisable
//!   summary of a whole run (headline stats, per-phase timings, per-round
//!   fact/null curves, per-worker discovery shards, tripped budget, analyzer
//!   verdict table), backed by the hand-rolled writer + parser in [`json`].
//!
//! ```
//! use chase_obs::prelude::*;
//! use std::time::Duration;
//!
//! let mut registry = MetricsRegistry::new();
//! registry.inc("rounds");
//! registry.record("round_time", Duration::from_millis(3));
//!
//! let mut phases = PhaseTimes::new();
//! phases.add("discovery", Duration::from_millis(2));
//! phases.add("apply", Duration::from_millis(1));
//!
//! let mut report = RunReport::new("example");
//! report.outcome = "terminated".into();
//! report.stats.elapsed_ns = 3_000_000;
//! report.set_phases(&phases);
//!
//! let text = report.to_json_string();
//! assert_eq!(RunReport::parse(&text).unwrap(), report);
//! assert!(report.attribution() > 0.99);
//! ```

pub mod json;
pub mod metrics;
pub mod phase;
pub mod report;

pub use json::{parse as parse_json, JsonError, JsonValue};
pub use metrics::{Histogram, MetricsRegistry};
pub use phase::{PhaseAccum, PhaseTimes};
pub use report::{
    duration_ns, PhaseReport, ReportError, ReportStats, RoundPoint, RunReport, VerdictRow,
    WorkerReport, SCHEMA,
};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::json::JsonValue;
    pub use crate::metrics::{Histogram, MetricsRegistry};
    pub use crate::phase::PhaseTimes;
    pub use crate::report::{
        PhaseReport, ReportStats, RoundPoint, RunReport, VerdictRow, WorkerReport,
    };
}
