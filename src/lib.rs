//! # egd-chase
//!
//! Facade crate re-exporting the whole `egd-chase` workspace: a Rust reproduction of
//! Calautti, Greco, Molinaro, Trubitsyna — *Exploiting Equality Generating Dependencies
//! in Checking Chase Termination*, PVLDB 9(5):396–407, 2016.
//!
//! The workspace is organised as follows:
//!
//! * [`core`](chase_core) — the dependency language (TGDs, EGDs), instances,
//!   homomorphisms, satisfaction and a textual parser;
//! * [`trigger`](chase_trigger) — the delta-driven incremental trigger engine:
//!   indexed fact storage ([`FactIndex`](chase_trigger::FactIndex)), the delta
//!   worklist and semi-naive trigger discovery that the chase variants and the
//!   MFA saturation loop run on (full re-scans remain available as
//!   [`TriggerDiscovery::NaiveRescan`](chase_engine::TriggerDiscovery));
//! * [`engine`](chase_engine) — the chase behind the unified
//!   [`Chase`](chase_engine::Chase) session builder: standard, oblivious,
//!   semi-oblivious and core variants under one
//!   [`ChaseBudget`](chase_engine::ChaseBudget) / [`ChaseObserver`](chase_engine::ChaseObserver)
//!   vocabulary and an opt-in round-parallel execution mode
//!   ([`Chase::workers`](chase_engine::Chase::workers)), plus core computation,
//!   universal models and certain answers;
//! * [`criteria`](chase_criteria) — baseline termination criteria (weak acyclicity,
//!   safety, stratification, c-stratification, super-weak acyclicity, MFA) as
//!   witness-producing [`TerminationCriterion`](chase_criteria::TerminationCriterion)
//!   structs, and the EGD→TGD simulations;
//! * [`termination`](chase_termination) — the paper's contribution: the firing graph,
//!   semi-stratification, the `Adn∃` adornment algorithm, semi-acyclicity, the
//!   `Adn∃-C` combinator — and the
//!   [`TerminationAnalyzer`](chase_termination::TerminationAnalyzer) running the whole
//!   hierarchy cheapest-first;
//! * [`ivm`](chase_ivm) — incremental view maintenance: keep a completed
//!   (semi-)oblivious chase live under base-fact inserts and retracts
//!   ([`ChaseMaterialization`](chase_ivm::ChaseMaterialization)), with
//!   semi-naive forward repair, DRed overdelete/rederive on a support ledger,
//!   and a full-replay fallback when a retraction invalidates an EGD rewrite;
//! * [`ontology`](chase_ontology) — a synthetic ontology-style workload generator
//!   reproducing the corpus shape of the paper's evaluation, plus seeded
//!   base-update streams for exercising the maintenance path;
//! * [`obs`](chase_obs) — the dependency-free observability layer: a
//!   [`MetricsRegistry`](chase_obs::MetricsRegistry) of counters, gauges and
//!   log-bucketed duration histograms, phase timing
//!   ([`PhaseTimes`](chase_obs::PhaseTimes)) and the
//!   [`RunReport`](chase_obs::RunReport) JSON run-report schema, wired into the
//!   engine by [`MetricsObserver`](chase_engine::MetricsObserver) and into the
//!   analyzer by
//!   [`TerminationReport::verdict_rows`](chase_termination::TerminationReport::verdict_rows).
//!
//! ## Quickstart
//!
//! ```
//! use egd_chase::prelude::*;
//!
//! // Σ1 of Example 1 in the paper, plus the database D = {N(a)}.
//! let program = parse_program(
//!     r#"
//!     r1: N(?x) -> exists ?y: E(?x, ?y).
//!     r2: E(?x, ?y) -> N(?y).
//!     r3: E(?x, ?y) -> ?x = ?y.
//!     N(a).
//!     "#,
//! )
//! .unwrap();
//!
//! // One call answers "can the chase be used here?": the analyzer runs the whole
//! // criteria hierarchy cheapest-first; the classical criteria reject Σ1, the
//! // paper's adornment algorithm recognises it, and every verdict carries a
//! // machine-readable witness.
//! let report = TerminationAnalyzer::new().analyze(&program.dependencies);
//! assert!(report.is_terminating());
//! assert_eq!(report.accepted().unwrap().criterion, "SAC");
//! assert!(!report.verdict_for("Str").unwrap().accepted);
//!
//! // And indeed a terminating standard chase sequence exists: one session builder
//! // serves every variant, with budgets and failure diagnostics built in.
//! let result = Chase::standard(&program.dependencies)
//!     .with_order(StepOrder::EgdsFirst)
//!     .with_budget(ChaseBudget::default().with_max_steps(1_000))
//!     .run(&program.database);
//! assert!(result.is_terminating());
//!
//! // Attach a MetricsObserver instead of `run` to get counters, per-phase
//! // wall-clock and a JSON-serializable RunReport — including the analyzer's
//! // verdict table — out of the same session.
//! let mut metrics = MetricsObserver::new();
//! let observed = Chase::standard(&program.dependencies)
//!     .with_budget(ChaseBudget::default().with_max_steps(1_000))
//!     .run_observed(&program.database, &mut metrics);
//! let mut run_report = metrics.report("sigma1", &observed);
//! run_report.verdicts = report.verdict_rows();
//! assert_eq!(run_report.outcome, "terminated");
//! assert_eq!(RunReport::parse(&run_report.to_json_string()).unwrap(), run_report);
//! ```
//!
//! ## Incremental maintenance
//!
//! When the base changes faster than you want to re-chase it, materialize the
//! run once and repair it per batch:
//!
//! ```
//! use egd_chase::prelude::*;
//! use egd_chase::chase_ivm::ChaseMaterialization;
//! use egd_chase::chase_core::{Constant, GroundTerm};
//!
//! let p = parse_program(
//!     "t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, b). E(b, c).",
//! )
//! .unwrap();
//! let run = Chase::semi_oblivious(&p.dependencies)
//!     .materialize(&p.database)
//!     .unwrap();
//! let mut live = ChaseMaterialization::from_run(&p.dependencies, run).unwrap();
//!
//! let c = |s| GroundTerm::Const(Constant::new(s));
//! let stats = live.insert([Fact::from_parts("E", vec![c("c"), c("d")])]).unwrap();
//! assert_eq!(stats.triggers_fired, 2); // repair cost, not a full re-chase
//! let stats = live.retract([Fact::from_parts("E", vec![c("a"), c("b")])]).unwrap();
//! assert_eq!(stats.overdeleted, 3); // E(a,b), E(a,c), E(a,d)
//! ```
//!
//! ## Snapshots and million-fact instances
//!
//! Instances persist to a versioned, self-checking binary snapshot —
//! `Instance::save` / `Instance::load`, no serde involved — and bulk loads go
//! through the columnar store's batched interning. Pre-size with
//! `Instance::with_capacity` and feed batches via `extend_parts`; chase the
//! result now or reload it later instead of regenerating:
//!
//! ```
//! use egd_chase::prelude::*;
//! use egd_chase::chase_ontology::{data_exchange_instance, ScaleProfile};
//!
//! // A deterministic data-exchange base (the gated bench runs this at 10M).
//! let base = data_exchange_instance(&ScaleProfile::new(5_000));
//! assert_eq!(base.len(), 5_000);
//!
//! let path = std::env::temp_dir().join("egd_chase_quickstart.chasefs");
//! base.save(&path).unwrap();
//! let reloaded = Instance::load(&path).unwrap();
//! std::fs::remove_file(&path).ok();
//!
//! // The roundtrip is lossless down to fact ids, so it composes with
//! // id-holding machinery (indexes, the IVM support ledger).
//! assert_eq!(reloaded, base);
//! assert_eq!(reloaded.sorted_fact_ids(), base.sorted_fact_ids());
//! ```

pub use chase_core;
pub use chase_criteria;
pub use chase_engine;
pub use chase_ivm;
pub use chase_obs;
pub use chase_ontology;
pub use chase_termination;
pub use chase_trigger;

/// Convenience re-exports for the most common entry points.
pub mod prelude {
    pub use chase_core::builder::{atom, cst, egd, tgd, var};
    pub use chase_core::parser::{parse_database, parse_dependencies, parse_program};
    pub use chase_core::{
        Atom, DepId, Dependency, DependencySet, Fact, FactId, FactStore, Instance, Predicate,
        PredicateId, Term, Variable,
    };
    pub use chase_criteria::prelude::*;
    pub use chase_engine::prelude::*;
    pub use chase_ivm::{BatchStats, ChaseMaterialization, IvmError};
    pub use chase_obs::prelude::*;
    pub use chase_ontology::prelude::*;
    pub use chase_termination::prelude::*;
    pub use chase_trigger::prelude::*;
}
