//! # chase-core
//!
//! Core data model for the `egd-chase` workspace: the dependency language of
//! Calautti et al., *Exploiting Equality Generating Dependencies in Checking Chase
//! Termination* (PVLDB 9(5), 2016) and the machinery every other crate builds on.
//!
//! The crate provides:
//!
//! * interned [`Symbol`]s and the three kinds of terms of the paper's Section 2
//!   (constants, labeled nulls, variables) — see [`term`];
//! * [`Atom`]s, ground [`Fact`]s and predicates — see [`atom`];
//! * tuple generating dependencies ([`Tgd`]), equality generating dependencies
//!   ([`Egd`]) and [`DependencySet`]s with the `Σtgd / Σegd / Σ∀ / Σ∃` views used
//!   throughout the paper — see [`dependency`];
//! * the columnar, dictionary-compressed fact store (per-predicate column
//!   strips of dense [`TermId`] cells, dense [`FactId`]s) — see [`fact_store`]
//!   — with store-backed instances and databases holding per-predicate id lists
//!   and on-disk snapshot save/load — see [`instance`] and [`persist`] — and
//!   the position index of the join, built per query or maintained by an
//!   opt-in indexed instance beside its per-null id index — see [`index`];
//! * the workspace's single join engine ([`JoinPlan`] + [`HomomorphismSearch`]),
//!   substitutions and first-order satisfaction — see [`homomorphism`],
//!   [`substitution`] and [`satisfaction`];
//! * one fixed, fast word hasher for the engine's internal maps — see [`hash`];
//! * a small textual format and parser for dependencies and facts — see [`parser`];
//! * ergonomic constructors for writing dependencies in Rust — see [`builder`].
//!
//! ## Quick example
//!
//! ```
//! use chase_core::parser::parse_program;
//!
//! // Σ1 of Example 1 in the paper.
//! let program = parse_program(
//!     r#"
//!     r1: N(?x) -> exists ?y: E(?x, ?y).
//!     r2: E(?x, ?y) -> N(?y).
//!     r3: E(?x, ?y) -> ?x = ?y.
//!     N(a).
//!     "#,
//! )
//! .unwrap();
//! assert_eq!(program.dependencies.len(), 3);
//! assert_eq!(program.database.len(), 1);
//! ```

// Unsafe code is denied crate-wide; the single audited exception is the scoped
// job lifetime erasure in [`pool`], which carries its own safety proof.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod builder;
pub mod dependency;
pub mod error;
pub mod fact_store;
pub mod hash;
pub mod homomorphism;
pub mod id_set;
pub mod index;
pub mod instance;
pub mod interner;
pub mod isomorphism;
pub mod parser;
pub mod persist;
pub mod pool;
pub mod position;
pub mod satisfaction;
pub mod substitution;
pub mod term;

pub use atom::{Atom, Fact, Predicate};
pub use dependency::{DepId, Dependency, DependencySet, Egd, Tgd};
pub use error::CoreError;
pub use fact_store::{FactId, FactStore, FactTerms, PredicateId, StoreFootprint, TermId};
pub use homomorphism::{Assignment, HomomorphismSearch, JoinPlan};
pub use id_set::FactIdSet;
pub use index::{IndexedInstance, PositionIndex};
pub use instance::Instance;
pub use interner::Symbol;
pub use isomorphism::isomorphic_up_to_null_renaming;
pub use parser::{parse_dependencies, parse_program, Program};
pub use persist::PersistError;
pub use pool::{DiscoveryStats, ShardStats};
pub use position::Position;
pub use substitution::NullSubstitution;
pub use term::{Constant, GroundTerm, NullValue, Term, Variable};
