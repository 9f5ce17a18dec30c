//! # chase-termination
//!
//! The contribution of Calautti, Greco, Molinaro, Trubitsyna — *Exploiting Equality
//! Generating Dependencies in Checking Chase Termination* (PVLDB 9(5), 2016):
//! EGD-aware sufficient conditions for membership in `CT_std_∃` (for every database,
//! at least one terminating standard chase sequence exists).
//!
//! * [`firing`] — the firing relation `r1 < r2` and the firing graph `Gf(Σ)` of
//!   **Definition 2**, which refines the chase graph of stratification by discarding
//!   edges whose firing can always be blocked by first enforcing a full dependency;
//! * [`semi_stratification`] — **semi-stratification** (`S-Str`, Definition 3): every
//!   strongly connected component of `Gf(Σ)` must be weakly acyclic;
//! * [`adornment`] — the **`Adn∃` adornment algorithm** (Algorithm 1) and
//!   **semi-acyclicity** (`SAC`, Definition 4), which analyse EGDs directly by
//!   propagating bound/free adornments and applying EGD-induced substitutions;
//! * [`combined`] — the **`Adn∃-C`** combinator (Theorems 10–11): any existing
//!   criterion applied to the adorned set recognises strictly more sets in `CT_std_∃`;
//! * [`analyzer`] — the [`TerminationAnalyzer`]: the whole hierarchy behind one call,
//!   run cheapest-first with short-circuiting, producing a witness-carrying
//!   [`TerminationReport`].
//!
//! The criteria are functions of `Σ` alone: none has a setting. The firing graph and
//! the `Adn∃` run are built once per [`AnalysisContext`](chase_criteria::AnalysisContext)
//! under one fixed key each, and `Adn∃` stops at a fixed cap of 5,000 adorned rules
//! (a conservative rejection, [`AdnResult::budget_exhausted`]).
//!
//! ```
//! use chase_core::parser::parse_dependencies;
//! use chase_termination::prelude::*;
//!
//! // Σ11 of Example 11: semi-stratified (and semi-acyclic), although not stratified.
//! let sigma11 = parse_dependencies(
//!     "r1: N(?x) -> exists ?y: E(?x, ?y).
//!      r2: E(?x, ?y) -> N(?y).
//!      r3: E(?x, ?y) -> E(?y, ?x).",
//! )
//! .unwrap();
//! assert!(SemiStratification.accepts(&sigma11));
//!
//! // Σ1 of Example 1: recognised by the adornment algorithm (Example 12). The
//! // analyzer runs the hierarchy cheapest-first and reports who accepted and why.
//! let sigma1 = parse_dependencies(
//!     "r1: N(?x) -> exists ?y: E(?x, ?y).
//!      r2: E(?x, ?y) -> N(?y).
//!      r3: E(?x, ?y) -> ?x = ?y.",
//! )
//! .unwrap();
//! let report = TerminationAnalyzer::new().analyze(&sigma1);
//! assert_eq!(report.accepted().unwrap().criterion, "SAC");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adornment;
pub mod analyzer;
pub mod combined;
pub mod firing;
pub mod semi_stratification;

pub use adornment::{adorn, adornment_witness, AdSym, AdnDefinition, AdnResult, SemiAcyclicity};
pub use analyzer::{AnalysisEntry, TerminationAnalyzer, TerminationReport};
pub use combined::{all_criteria, paper_criteria, AdnCombined};
pub use firing::{definition2_edge, firing_graph, is_fireable};
pub use semi_stratification::{
    semi_stratification_report, SemiStratification, SemiStratificationReport,
};

/// Convenience re-exports.
pub mod prelude {
    pub use chase_criteria::criterion::{Guarantee, TerminationCriterion, Verdict, Witness};

    pub use crate::adornment::{adorn, AdnResult, SemiAcyclicity};
    pub use crate::analyzer::{TerminationAnalyzer, TerminationReport};
    pub use crate::combined::{all_criteria, paper_criteria, AdnCombined};
    pub use crate::firing::{definition2_edge, firing_graph};
    pub use crate::semi_stratification::{semi_stratification_report, SemiStratification};
}
