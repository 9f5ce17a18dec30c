//! # chase-criteria
//!
//! Baseline chase-termination criteria from the literature, against which the paper's
//! contribution (semi-stratification and semi-acyclicity, in `chase-termination`) is
//! compared:
//!
//! * [`weak_acyclicity`] — weak acyclicity **WA** (Fagin et al. 2005);
//! * [`safety`] — safety **SC** and affected positions (Meier et al. 2009);
//! * [`stratification`] — stratification **Str** and c-stratification **CStr**
//!   (Deutsch–Nash–Remmel 2008, Meier et al. 2009), built on the bounded-witness
//!   firing test of [`firing`];
//! * [`super_weak`] — super-weak acyclicity **SwA** (Marnette 2009);
//! * [`mfa`] — model-faithful acyclicity **MFA** (Cuenca Grau et al. 2013);
//! * [`positions`] — the position table WA, SC and SwA share, compiled once per
//!   set, with the counter propagation behind SC's affected positions and SwA's
//!   null reach;
//! * [`simulation`] — the natural and substitution-free EGD→TGD simulations that the
//!   TGD-only criteria rely on (Section 4 of the paper);
//! * [`criterion`] — the [`TerminationCriterion`] trait, the witness-producing
//!   [`Verdict`] type and the registry used by the experiment harness and by
//!   `chase_termination::TerminationAnalyzer`.
//!
//! Every criterion is a unit struct implementing [`TerminationCriterion`], whose one
//! required method, [`verdict_in`](TerminationCriterion::verdict_in), runs on an
//! [`AnalysisContext`] shared by the criteria of one analysis;
//! [`verdict`](TerminationCriterion::verdict) runs it in a fresh context. A verdict
//! explains *why* with a machine-readable [`Witness`] (the special-edge cycle for
//! WA/SC, the stratum assignment for (C-)Str, the trigger cycle for SwA, the
//! saturation certificate for MFA). No criterion has a setting: the bounds of the
//! firing test and of MFA's saturation are fixed, so each shared artefact is
//! computed once per analysis.
//!
//! ```
//! use chase_core::parser::parse_dependencies;
//! use chase_criteria::prelude::*;
//!
//! // Σ1 of Example 1: none of the classical criteria accepts it …
//! let sigma1 = parse_dependencies(
//!     "r1: N(?x) -> exists ?y: E(?x, ?y).
//!      r2: E(?x, ?y) -> N(?y).
//!      r3: E(?x, ?y) -> ?x = ?y.",
//! )
//! .unwrap();
//! let verdict = WeakAcyclicity.verdict(&sigma1);
//! assert!(!verdict.accepted);
//! // … and the rejection carries the offending special-edge cycle.
//! assert!(matches!(verdict.witness, Witness::PositionCycle { .. }));
//! assert!(!Safety.accepts(&sigma1));
//! assert!(!Stratification.accepts(&sigma1));
//! assert!(!SuperWeakAcyclicity.accepts(&sigma1));
//! assert!(!ModelFaithfulAcyclicity.accepts(&sigma1));
//! // … which is exactly the gap the paper's EGD-aware criteria close.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod criterion;
pub mod firing;
pub mod graph;
pub mod mfa;
pub mod positions;
pub mod safety;
pub mod simulation;
pub mod stratification;
pub mod super_weak;
pub mod weak_acyclicity;

pub use criterion::{
    baseline_criteria, AnalysisContext, CriterionId, Guarantee, TerminationCriterion, Verdict,
    Witness,
};
pub use firing::{
    chase_graph_edge, chase_graphs, for_each_firing_witness, Applicability, ChaseGraphs,
    FiringAnswer, FiringWitness,
};
pub use mfa::{mfa_report_tgds, MfaReport, MfaVerdict, ModelFaithfulAcyclicity};
pub use safety::{affected_positions, Safety};
pub use simulation::{natural_simulation, substitution_free_simulation};
pub use stratification::{CStratification, Stratification};
pub use super_weak::SuperWeakAcyclicity;
pub use weak_acyclicity::WeakAcyclicity;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::criterion::{
        baseline_criteria, CriterionId, Guarantee, TerminationCriterion, Verdict, Witness,
    };
    pub use crate::mfa::ModelFaithfulAcyclicity;
    pub use crate::safety::Safety;
    pub use crate::simulation::{natural_simulation, substitution_free_simulation};
    pub use crate::stratification::{CStratification, Stratification};
    pub use crate::super_weak::SuperWeakAcyclicity;
    pub use crate::weak_acyclicity::WeakAcyclicity;
}
