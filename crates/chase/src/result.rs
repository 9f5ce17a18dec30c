//! Chase outcomes, statistics and failure diagnostics.

use crate::budget::BudgetLimit;
use crate::step::Trigger;
use chase_core::{DependencySet, GroundTerm, Instance};
use std::fmt;
use std::time::Duration;

/// Statistics collected during a chase run.
#[derive(Clone, Debug, Default, Eq)]
pub struct ChaseStats {
    /// Number of chase steps applied (for the core chase, number of rounds).
    pub steps: usize,
    /// Number of facts added by TGD steps.
    pub facts_added: usize,
    /// Number of EGD steps that replaced a null.
    pub null_replacements: usize,
    /// Number of fresh labeled nulls invented.
    pub nulls_created: usize,
    /// Wall-clock time of the run, stamped by the session dispatchers when the
    /// runner returns. **Excluded from equality**: two runs of the same chase
    /// are `==` whenever their logical effects agree, regardless of timing —
    /// the determinism contracts (per-step vs. round runner, one worker count
    /// vs. another) compare stats directly and must not depend on the clock.
    pub elapsed: Duration,
}

/// Equality over the logical counters only; `elapsed` is deliberately ignored
/// (see the field docs).
impl PartialEq for ChaseStats {
    fn eq(&self, other: &Self) -> bool {
        self.steps == other.steps
            && self.facts_added == other.facts_added
            && self.null_replacements == other.null_replacements
            && self.nulls_created == other.nulls_created
    }
}

/// The diagnostic context of a failing chase (`⊥`): which EGD failed, under which
/// trigger, and which two distinct constants it tried to equate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EgdViolation {
    /// The failing EGD.
    pub dep: chase_core::DepId,
    /// The EGD's label, if it has one.
    pub label: Option<String>,
    /// The trigger (dependency and body homomorphism) whose step failed.
    pub trigger: Trigger,
    /// The left-hand value of the equality — a constant distinct from `right`.
    pub left: GroundTerm,
    /// The right-hand value of the equality — a constant distinct from `left`.
    pub right: GroundTerm,
}

impl EgdViolation {
    /// Builds the violation record for a failing trigger: resolves the EGD's equated
    /// variables under the trigger's assignment.
    pub fn from_trigger(sigma: &DependencySet, trigger: &Trigger) -> Self {
        let egd = sigma
            .get(trigger.dep)
            .as_egd()
            .expect("only EGD steps can fail");
        let left = trigger
            .assignment
            .get(egd.left)
            .expect("EGD body variables are bound");
        let right = trigger
            .assignment
            .get(egd.right)
            .expect("EGD body variables are bound");
        EgdViolation {
            dep: trigger.dep,
            label: egd.label.clone(),
            trigger: trigger.clone(),
            left,
            right,
        }
    }
}

impl fmt::Display for EgdViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.label {
            Some(label) => write!(
                f,
                "EGD {label} (#{}) tried to equate {} and {}",
                self.dep.0, self.left, self.right
            ),
            None => write!(
                f,
                "EGD #{} tried to equate {} and {}",
                self.dep.0, self.left, self.right
            ),
        }
    }
}

/// The outcome of running a chase variant on a database with a dependency set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// The sequence is terminating and successful; the result is a (universal) model.
    Terminated {
        /// The final instance.
        instance: Instance,
        /// Run statistics.
        stats: ChaseStats,
    },
    /// The sequence is failing (`⊥`): an EGD required equating two distinct constants.
    Failed {
        /// The failing EGD, its trigger and the two constants it tried to equate.
        violation: EgdViolation,
        /// Run statistics up to the failing step.
        stats: ChaseStats,
    },
    /// A resource budget was exhausted before the sequence terminated: the run is
    /// inconclusive (the sequence may be infinite).
    BudgetExhausted {
        /// Which budget limit tripped.
        limit: BudgetLimit,
        /// The instance reached when the budget ran out.
        instance: Instance,
        /// Run statistics.
        stats: ChaseStats,
    },
}

impl ChaseOutcome {
    /// Returns `true` iff the chase terminated successfully.
    pub fn is_terminating(&self) -> bool {
        matches!(self, ChaseOutcome::Terminated { .. })
    }

    /// Returns `true` iff the chase failed (`⊥`).
    pub fn is_failing(&self) -> bool {
        matches!(self, ChaseOutcome::Failed { .. })
    }

    /// Returns `true` iff a budget limit was exhausted.
    pub fn is_budget_exhausted(&self) -> bool {
        matches!(self, ChaseOutcome::BudgetExhausted { .. })
    }

    /// The final instance of a terminated run (also available for exhausted runs).
    pub fn instance(&self) -> Option<&Instance> {
        match self {
            ChaseOutcome::Terminated { instance, .. }
            | ChaseOutcome::BudgetExhausted { instance, .. } => Some(instance),
            ChaseOutcome::Failed { .. } => None,
        }
    }

    /// Consumes the outcome, returning the final instance of a terminated run
    /// (also available for exhausted runs) without cloning it — the handoff
    /// used when a run's model becomes a maintained materialization.
    pub fn into_instance(self) -> Option<Instance> {
        match self {
            ChaseOutcome::Terminated { instance, .. }
            | ChaseOutcome::BudgetExhausted { instance, .. } => Some(instance),
            ChaseOutcome::Failed { .. } => None,
        }
    }

    /// The run statistics.
    pub fn stats(&self) -> &ChaseStats {
        match self {
            ChaseOutcome::Terminated { stats, .. }
            | ChaseOutcome::Failed { stats, .. }
            | ChaseOutcome::BudgetExhausted { stats, .. } => stats,
        }
    }

    /// Mutable access for the session dispatchers (wall-clock stamping).
    pub(crate) fn stats_mut(&mut self) -> &mut ChaseStats {
        match self {
            ChaseOutcome::Terminated { stats, .. }
            | ChaseOutcome::Failed { stats, .. }
            | ChaseOutcome::BudgetExhausted { stats, .. } => stats,
        }
    }

    /// The failure diagnostics, if the chase failed.
    pub fn violation(&self) -> Option<&EgdViolation> {
        match self {
            ChaseOutcome::Failed { violation, .. } => Some(violation),
            _ => None,
        }
    }

    /// The tripped budget limit, if a budget was exhausted.
    pub fn exhausted_limit(&self) -> Option<BudgetLimit> {
        match self {
            ChaseOutcome::BudgetExhausted { limit, .. } => Some(*limit),
            _ => None,
        }
    }
}

impl fmt::Display for ChaseOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseOutcome::Terminated { instance, stats } => write!(
                f,
                "terminated after {} steps with {} facts",
                stats.steps,
                instance.len()
            ),
            ChaseOutcome::Failed { violation, stats } => {
                write!(f, "failed (⊥) after {} steps: {violation}", stats.steps)
            }
            ChaseOutcome::BudgetExhausted { limit, stats, .. } => {
                write!(f, "budget exhausted ({limit}) after {} steps", stats.steps)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;
    use chase_core::Assignment;

    fn sample_violation() -> EgdViolation {
        let p = parse_program(
            r#"
            k: P(?x, ?y), P(?x, ?z) -> ?y = ?z.
            P(a, b). P(a, c).
            "#,
        )
        .unwrap();
        let egd = p.dependencies.get(chase_core::DepId(0)).as_egd().unwrap();
        let assignment = Assignment::from_pairs([
            (
                chase_core::Variable::new("x"),
                GroundTerm::Const(chase_core::Constant::new("a")),
            ),
            (egd.left, GroundTerm::Const(chase_core::Constant::new("b"))),
            (egd.right, GroundTerm::Const(chase_core::Constant::new("c"))),
        ]);
        EgdViolation::from_trigger(
            &p.dependencies,
            &Trigger {
                dep: chase_core::DepId(0),
                assignment,
            },
        )
    }

    #[test]
    fn outcome_accessors() {
        let t = ChaseOutcome::Terminated {
            instance: Instance::new(),
            stats: ChaseStats::default(),
        };
        assert!(t.is_terminating());
        assert!(!t.is_failing());
        assert!(t.instance().is_some());
        assert!(t.violation().is_none());
        assert!(t.exhausted_limit().is_none());

        let fail = ChaseOutcome::Failed {
            violation: sample_violation(),
            stats: ChaseStats {
                steps: 3,
                ..Default::default()
            },
        };
        assert!(fail.is_failing());
        assert!(fail.instance().is_none());
        assert_eq!(fail.stats().steps, 3);
        assert_eq!(fail.violation().unwrap().dep, chase_core::DepId(0));

        let ex = ChaseOutcome::BudgetExhausted {
            limit: BudgetLimit::Steps,
            instance: Instance::new(),
            stats: ChaseStats::default(),
        };
        assert!(ex.is_budget_exhausted());
        assert!(!ex.is_terminating());
        assert_eq!(ex.exhausted_limit(), Some(BudgetLimit::Steps));
    }

    #[test]
    fn stats_equality_ignores_elapsed() {
        let logical = ChaseStats {
            steps: 2,
            facts_added: 3,
            null_replacements: 0,
            nulls_created: 1,
            elapsed: Duration::ZERO,
        };
        let timed = ChaseStats {
            elapsed: Duration::from_secs(5),
            ..logical.clone()
        };
        assert_eq!(logical, timed);
        let mut different = timed;
        different.steps += 1;
        assert_ne!(logical, different);
    }

    #[test]
    fn violation_display_names_the_egd_and_constants() {
        let v = sample_violation();
        let rendered = v.to_string();
        assert!(rendered.contains('k'), "label rendered: {rendered}");
        assert!(rendered.contains('b') && rendered.contains('c'));

        let fail = ChaseOutcome::Failed {
            violation: v,
            stats: ChaseStats {
                steps: 7,
                ..Default::default()
            },
        };
        let rendered = fail.to_string();
        assert!(rendered.contains('7'));
        assert!(rendered.contains("equate"));
    }

    #[test]
    fn exhausted_display_names_the_limit() {
        let ex = ChaseOutcome::BudgetExhausted {
            limit: BudgetLimit::FreshNulls,
            instance: Instance::new(),
            stats: ChaseStats::default(),
        };
        assert!(ex.to_string().contains("max_fresh_nulls"));
    }
}
