//! Derivation-recorded chase runs: the handoff from a one-shot chase to an
//! incrementally maintained materialization.
//!
//! [`Chase::materialize`](crate::Chase::materialize) runs a (semi-)oblivious
//! session on the per-step loop with an internal observer that opts into the
//! derivation events ([`ChaseObserver::fact_derived`] /
//! [`ChaseObserver::facts_rewritten`]),
//! and packages the outcome together with the full derivation log as a
//! [`MaterializedRun`]. The log is **replayable**: every event carries enough
//! information — fired key, body image, head ids, substitution deltas — for a
//! consumer (`chase_ivm::ChaseMaterialization`) to rebuild the run's support
//! structure in a fresh engine without re-running any homomorphism search.
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
//! All [`chase_core::FactId`]s in the log refer to the run's own engine arena.
//! Because the per-step runner is deterministic, a consumer that replays the
//! log on a fresh engine seeded from the same database reproduces the same
//! arena — but the log is self-describing either way: the final instance's
//! [`chase_core::FactStore`] (arena interning survives EGD rewrites and
//! removals) resolves every id that ever appears.

use crate::budget::BudgetLimit;
use crate::oblivious::ObliviousVariant;
use crate::observer::ChaseObserver;
use crate::result::{ChaseOutcome, EgdViolation};
use chase_core::substitution::NullSubstitution;
use chase_core::{DepId, FactId, GroundTerm, Instance};
use std::fmt;

/// One derivation event of a (semi-)oblivious run, in application order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaterializeEvent {
    /// A trigger consumed its fired key ([`ChaseObserver::fact_derived`]):
    /// a TGD step (non-empty `heads`), an EGD substitution step (the next
    /// event is the matching [`MaterializeEvent::Rewritten`]) or an EGD
    /// trigger with equal images (no step; empty `heads`, no rewrite).
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
    /// An EGD substitution step rewrote the instance
    /// ([`ChaseObserver::facts_rewritten`]):
    /// `γ` plus the `(old, new)` id pairs mapping every rewritten fact forward.
    Rewritten {
        /// The applied substitution.
        gamma: NullSubstitution,
        /// The rewritten `(old, new)` id pairs.
        delta: Vec<(FactId, FactId)>,
    },
}

/// A completed, derivation-recorded (semi-)oblivious chase run: the input to
/// incremental view maintenance. Produced by
/// [`Chase::materialize`](crate::Chase::materialize); always wraps a
/// [`ChaseOutcome::Terminated`].
#[derive(Clone, Debug)]
pub struct MaterializedRun {
    /// Which oblivious variant ran (fired-key discipline of the log).
    pub variant: ObliviousVariant,
    /// The base the run chased (consumers re-seed their own engine from it).
    pub database: Instance,
    /// The terminated outcome; its instance's store resolves every logged id.
    pub outcome: ChaseOutcome,
    /// Every derivation event, in application order.
    pub log: Vec<MaterializeEvent>,
}

impl MaterializedRun {
    /// The run's final instance.
    pub fn instance(&self) -> &Instance {
        self.outcome
            .instance()
            .expect("a materialized run is always terminated")
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

/// The internal observer behind [`Chase::materialize`](crate::Chase::materialize):
/// opts into derivation events and records them verbatim.
#[derive(Debug, Default)]
pub(crate) struct DerivationRecorder {
    log: Vec<MaterializeEvent>,
}

impl DerivationRecorder {
    pub(crate) fn into_log(self) -> Vec<MaterializeEvent> {
        self.log
    }
}

impl ChaseObserver for DerivationRecorder {
    fn observes_derivations(&self) -> bool {
        true
    }

    fn fact_derived(&mut self, dep: DepId, key: &[GroundTerm], body: &[FactId], heads: &[FactId]) {
        self.log.push(MaterializeEvent::Fired {
            dep,
            key: key.to_vec(),
            body: body.to_vec(),
            heads: heads.to_vec(),
        });
    }

    fn facts_rewritten(&mut self, gamma: &NullSubstitution, delta: &[(FactId, FactId)]) {
        self.log.push(MaterializeEvent::Rewritten {
            gamma: gamma.clone(),
            delta: delta.to_vec(),
        });
    }
}

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
        assert!(run.outcome.is_terminating());
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
        // The recorded outcome is the same as an unobserved run's.
        let plain = Chase::semi_oblivious(&p.dependencies).run(&p.database);
        assert_eq!(run.outcome, plain);
    }

    #[test]
    fn materialize_takes_the_per_step_path() {
        // An unobserved EGD-free run takes the round runner, which cannot log
        // derivations; materialize must still record every step (one Fired
        // per applied step on a TGD-only program).
        let p = parse_program("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, b). E(b, c). E(c, d).")
            .unwrap();
        let run = Chase::semi_oblivious(&p.dependencies)
            .workers(4)
            .materialize(&p.database)
            .unwrap();
        assert_eq!(run.log.len(), run.outcome.stats().steps);
        assert_eq!(run.instance().len(), 6, "closure of a 4-chain");
        assert_eq!(run.database, p.database);
    }
}
