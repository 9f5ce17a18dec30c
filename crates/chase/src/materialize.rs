//! Derivation-recorded chase runs: the handoff from a one-shot chase to an
//! incrementally maintained materialization.
//!
//! [`Chase::materialize`](crate::Chase::materialize) runs a (semi-)oblivious
//! session on the per-step loop ([`chase_steps`](crate::chase_steps)) with a
//! step log, and hands over the run as a [`MaterializedRun`]: the quiescent
//! engine, its fired keys and the log. A consumer
//! (`chase_ivm::ChaseMaterialization`) keeps maintaining that engine; it folds
//! the log into its support structure and repeats no step, no homomorphism
//! search and no interning.
//!
//! ## Why only the (semi-)oblivious variants
//!
//! Maintainability needs the chase's step semantics to be *monotone in the
//! base*: adding base facts may only add fired triggers, and every previously
//! fired key stays fired. The oblivious variants have exactly this property —
//! a trigger fires unless its key already fired, and keys never un-fire. The
//! standard chase's activity check is non-monotone (a step applied against a
//! small instance may be inactive against a larger one, so the maintained
//! model could diverge from every from-scratch run), and the core chase folds
//! facts away entirely. Both are rejected with
//! [`MaterializeError::UnsupportedVariant`].
//!
//! ## Id space
//!
//! Every [`chase_core::FactId`] in the log and in [`MaterializedRun::base`]
//! is an id of the handed-over engine's own arena, as it was when the event
//! happened: a [`MaterializeEvent::Rewritten`] maps the ids before it
//! forward, so a consumer that folds the log in order ends in the engine's
//! current id space.

use crate::budget::{BudgetLimit, ChaseBudget};
use crate::oblivious::{FiredKeys, ObliviousVariant};
use crate::result::{ChaseStats, EgdViolation};
use chase_core::substitution::NullSubstitution;
use chase_core::{DepId, FactId, FactIdSet, GroundTerm, Instance};
use chase_trigger::TriggerEngine;
use std::fmt;

/// One derivation event of a (semi-)oblivious run, in application order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaterializeEvent {
    /// A trigger consumed its fired key: a TGD step (non-empty `heads`), an
    /// EGD substitution step (the next event is the matching
    /// [`MaterializeEvent::Rewritten`]) or an EGD trigger with equal images
    /// (no step; empty `heads`, no rewrite).
    Fired {
        /// The dependency that fired.
        dep: DepId,
        /// The fired key: images of the variant's key variables, in order.
        key: Vec<GroundTerm>,
        /// The body image: one interned fact id per body atom, pre-step.
        body: Vec<FactId>,
        /// All head fact ids (TGD steps only), pre-existing ones included.
        heads: Vec<FactId>,
    },
    /// An EGD substitution step rewrote the instance: `γ` plus the
    /// `(old, new)` id pairs mapping every rewritten fact forward.
    Rewritten {
        /// The applied substitution.
        gamma: NullSubstitution,
        /// The rewritten `(old, new)` id pairs.
        delta: Vec<(FactId, FactId)>,
    },
}

/// A terminated, derivation-recorded (semi-)oblivious chase run: the input
/// to incremental view maintenance. Produced by
/// [`Chase::materialize`](crate::Chase::materialize).
#[derive(Clone)]
pub struct MaterializedRun<'a> {
    /// Which oblivious variant ran (fired-key discipline of the log).
    pub variant: ObliviousVariant,
    /// The run's engine, quiescent: its instance is the chase result.
    pub engine: TriggerEngine<'a>,
    /// The keys the run fired, modulo its EGD substitutions.
    pub fired: FiredKeys,
    /// Every derivation event, in application order (see the module docs
    /// for the id space).
    pub log: Vec<MaterializeEvent>,
    /// The run's statistics.
    pub stats: ChaseStats,
    /// The session's budget, for consumers that chase again.
    pub budget: ChaseBudget,
    /// The ids of the database's facts, as the run started.
    pub base: FactIdSet,
}

impl MaterializedRun<'_> {
    /// The run's final instance.
    pub fn instance(&self) -> &Instance {
        self.engine.instance()
    }
}

/// Why a session could not be materialized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaterializeError {
    /// The session's variant has non-monotone step semantics (standard or
    /// core chase) — no support ledger can maintain it (see module docs).
    UnsupportedVariant(&'static str),
    /// The chase failed (`⊥`): there is no model to maintain.
    Failed(EgdViolation),
    /// A budget limit tripped before termination: the partial instance is not
    /// a model, so it cannot be maintained.
    BudgetExhausted(BudgetLimit),
}

impl fmt::Display for MaterializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaterializeError::UnsupportedVariant(variant) => write!(
                f,
                "the {variant} chase is not maintainable: its step semantics \
                 are not monotone in the base (use Chase::semi_oblivious or \
                 Chase::oblivious)"
            ),
            MaterializeError::Failed(violation) => {
                write!(f, "the chase failed (⊥), nothing to maintain: {violation}")
            }
            MaterializeError::BudgetExhausted(limit) => {
                write!(f, "budget exhausted ({limit}) before termination")
            }
        }
    }
}

impl std::error::Error for MaterializeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Chase;
    use chase_core::parser::parse_program;

    #[test]
    fn standard_and_core_sessions_are_rejected() {
        let p = parse_program("r: E(?x, ?y) -> N(?y). E(a, b).").unwrap();
        assert!(matches!(
            Chase::standard(&p.dependencies).materialize(&p.database),
            Err(MaterializeError::UnsupportedVariant("standard"))
        ));
        assert!(matches!(
            Chase::core(&p.dependencies).materialize(&p.database),
            Err(MaterializeError::UnsupportedVariant("core"))
        ));
    }

    #[test]
    fn failing_runs_are_rejected() {
        let p = parse_program("k: P(?x, ?y), P(?x, ?z) -> ?y = ?z. P(a, b). P(a, c).").unwrap();
        let err = Chase::semi_oblivious(&p.dependencies).materialize(&p.database);
        assert!(matches!(err, Err(MaterializeError::Failed(_))));
    }

    #[test]
    fn the_log_matches_the_run_and_records_egd_rewrites() {
        let p = parse_program(
            r#"
            r1: Emp(?x) -> exists ?d: Works(?x, ?d).
            k: Works(?x, ?d1), Works(?x, ?d2) -> ?d1 = ?d2.
            Emp(e1). Works(e1, d0).
            "#,
        )
        .unwrap();
        let run = Chase::semi_oblivious(&p.dependencies)
            .materialize(&p.database)
            .unwrap();
        assert!(run.engine.is_quiescent(), "a materialized run terminated");
        // r1 fires (a TGD `Fired` with one head), the key EGD collapses the
        // invented department null onto d0 (a `Fired` immediately followed by
        // its `Rewritten` pair); EGD triggers with equal images appear as
        // head-less `Fired` events.
        let tgd_fires = run
            .log
            .iter()
            .filter(|e| matches!(e, MaterializeEvent::Fired { heads, .. } if !heads.is_empty()))
            .count();
        let rewrites = run
            .log
            .iter()
            .filter(|e| matches!(e, MaterializeEvent::Rewritten { .. }))
            .count();
        assert_eq!(tgd_fires, 1);
        assert_eq!(rewrites, 1);
        assert!(run.instance().nulls().is_empty());
        // The recorded run is the same as an unrecorded one.
        let plain = Chase::semi_oblivious(&p.dependencies).run(&p.database);
        assert_eq!(Some(run.instance()), plain.instance());
        assert_eq!(&run.stats, plain.stats());
    }

    #[test]
    fn materialize_takes_the_per_step_path() {
        // An EGD-free run takes the round runner, which cannot log
        // derivations; materialize must still record every step (one Fired
        // per applied step on a TGD-only program).
        let p = parse_program("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, b). E(b, c). E(c, d).")
            .unwrap();
        let run = Chase::semi_oblivious(&p.dependencies)
            .workers(4)
            .materialize(&p.database)
            .unwrap();
        assert_eq!(run.log.len(), run.stats.steps);
        assert_eq!(run.instance().len(), 6, "closure of a 4-chain");
        let store = run.instance().store();
        let base = Instance::from_facts(run.base.iter().map(|id| store.fact(id)));
        assert_eq!(base, p.database);
    }
}
