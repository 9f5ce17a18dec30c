//! # chase-trigger
//!
//! Delta-driven incremental trigger discovery for the chase.
//!
//! Every chase step needs a *trigger*: a dependency `r` and a homomorphism `h`
//! from `Body(r)` into the current instance. Re-running a full homomorphism
//! search over the whole instance after every step — the naive strategy of
//! `chase_engine::step::first_applicable_trigger` — re-derives the same matches
//! over and over. This crate replaces the re-scan with *semi-naive* discovery:
//!
//! * indexed fact storage — the engine owns a
//!   [`chase_core::IndexedInstance`], whose per-(predicate, position) hash
//!   indexes answer "which facts can this body atom map to?" by lookup instead
//!   of scan;
//! * [`DeltaQueue`] — the worklist of facts added (TGD steps) or rewritten (EGD
//!   substitutions) since discovery last ran, carried as dense
//!   [`chase_core::FactId`]s over the index's arena-interned
//!   [`chase_core::FactStore`] (a delta enqueue is a 4-byte copy, and EGD
//!   substitutions remap queued entries through the reported `(old, new)` id
//!   pairs);
//! * seeded search — every delta fact is pinned to each body atom it unifies
//!   with and the remaining atoms are joined by the shared engine of
//!   [`chase_core::homomorphism`] (a [`chase_core::JoinPlan`] executed over the
//!   maintained indexes through `HomomorphismSearch::over_index`,
//!   most-selective-atom first);
//! * [`TriggerEngine`] — the driver: [`TriggerEngine::push_facts`] /
//!   [`TriggerEngine::apply_substitution`] feed the worklist,
//!   [`TriggerEngine::next_trigger_where`] pops candidates in the caller's
//!   dependency order under the caller's acceptance test (standard activity,
//!   an unfired key, or everything for saturation loops), preserving every
//!   trigger-selection policy's semantics, and
//!   [`TriggerEngine::apply_trigger`] applies chase steps natively — no full
//!   instance clone per step.
//!
//! EGD substitutions are first-class, and a substitution `γ = {η/t}` costs
//! what mentions `η`: the dedup keys are rewritten through a per-null index
//! ([`KeySets`], flat per-dependency rows that also hold the oblivious chase's
//! fired keys), pending triggers are resolved to `γ∘h` when popped, and the
//! rewritten facts re-enter the worklist because a substitution can *create*
//! matches (e.g. a body atom `E(x, x)` matching only after two nulls
//! collapse).
//!
//! Discovery also runs **in parallel** for round-batched consumers:
//! [`parallel::discover_batch`] shards a delta batch across the worker pool over
//! a shared `&IndexedInstance` and merges the results in batch order,
//! identically at any worker count. The engine itself drains sequentially.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod engine;
pub mod keys;
pub mod parallel;

pub use delta::DeltaQueue;
pub use engine::{EngineStats, StepEffect, StepLog, Trigger, TriggerEngine};
pub use keys::KeySets;
pub use parallel::{discover_batch, SeedAtoms};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::delta::DeltaQueue;
    pub use crate::engine::{EngineStats, StepEffect, StepLog, Trigger, TriggerEngine};
    pub use crate::keys::KeySets;
    pub use crate::parallel::{discover_batch, SeedAtoms};
}
