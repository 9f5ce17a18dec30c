//! The core chase: parallel application of all standard chase steps followed by core
//! computation (Deutsch–Nash–Remmel).
//!
//! A core chase step (i) applies *all* applicable standard chase steps in parallel and
//! (ii) replaces the result by its core. This removes the nondeterminism of the
//! standard chase, and the core chase is complete for finding universal models:
//! whenever a universal model of `(D, Σ)` exists, the core chase terminates and
//! produces one.
//!
//! "In parallel" here is the paper's logical notion (all triggers of a round fire
//! against the same instance). Execution is sequential: the trigger scan, the
//! round's applications and the fold search of [`core_of`] all run on the calling
//! thread, whatever [`Chase::workers`](crate::Chase::workers) says.

use crate::budget::{BudgetClock, BudgetLimit, ChaseBudget};
use crate::core_of::core_of;
use crate::observer::{report_search, ChaseObserver};
use crate::result::{ChaseOutcome, ChaseStats, EgdViolation};
use crate::step::applicable_standard_triggers;
use chase_core::satisfaction::satisfies_all;
use chase_core::substitution::NullSubstitution;
use chase_core::{Dependency, DependencySet, GroundTerm, Instance};
use std::collections::HashMap;
use std::time::Instant;

/// Runs the core chase under `budget`, reporting round-level events to `observer`.
///
/// The budget's `max_rounds` and `max_steps` both bound the rounds (conjunctively —
/// the core chase has no finer step granularity); `max_fresh_nulls`, `max_facts` and
/// `wall_clock` apply as usual.
pub(crate) fn run_core(
    sigma: &DependencySet,
    budget: &ChaseBudget,
    database: &Instance,
    observer: &mut dyn ChaseObserver,
) -> ChaseOutcome {
    let phases = observer.observes_phases();
    let clock = BudgetClock::start(budget, phases);
    let mut current = database.clone();
    let mut stats = ChaseStats::default();
    loop {
        if satisfies_all(&current, sigma) {
            return ChaseOutcome::Terminated {
                instance: current,
                stats,
            };
        }
        if let Some(limit) = clock.check_round(&stats, current.len(), observer) {
            return ChaseOutcome::BudgetExhausted {
                limit,
                instance: current,
                stats,
            };
        }
        stats.steps += 1;
        // (i) apply all standard chase steps in parallel. With phases on, the
        // full trigger scan of the round is one worker-0 discovery shard.
        let search_start = phases.then(Instant::now);
        let triggers = applicable_standard_triggers(&current, sigma);
        if let Some(start) = search_start {
            report_search(observer, current.len(), triggers.len(), start.elapsed());
        }
        let mut next = current.clone();
        // Union–find over ground terms for the EGD merges of this round.
        let mut merges = UnionFind::new();
        let mut round_nulls = 0usize;
        let mut failure: Option<EgdViolation> = None;
        for trigger in &triggers {
            match sigma.get(trigger.dep) {
                Dependency::Tgd(tgd) => {
                    let mut extended = trigger.assignment.clone();
                    let fresh = tgd.existential_variables();
                    stats.nulls_created += fresh.len();
                    round_nulls += fresh.len();
                    for &v in fresh {
                        let n = next.fresh_null();
                        extended.bind(v, GroundTerm::Null(n));
                    }
                    for atom in tgd.head() {
                        let fact = extended
                            .apply_atom(atom)
                            .expect("head variables are bound after extension");
                        if next.insert(fact) {
                            stats.facts_added += 1;
                        }
                    }
                }
                Dependency::Egd(egd) => {
                    let a = trigger.assignment.get(egd.left).expect("bound");
                    let b = trigger.assignment.get(egd.right).expect("bound");
                    if let Err((ra, rb)) = merges.merge(a, b) {
                        // The merge failure is on the class representatives: the
                        // trigger's own images may be nulls already merged into two
                        // distinct constants earlier in the round.
                        let mut violation = EgdViolation::from_trigger(sigma, trigger);
                        violation.left = ra;
                        violation.right = rb;
                        failure = Some(violation);
                        break;
                    }
                }
            }
        }
        // Report the round's nulls even when the round fails, so observer streams
        // stay consistent with `stats` (which already counted them).
        if round_nulls > 0 {
            observer.nulls_created(round_nulls);
        }
        if let Some(violation) = failure {
            return ChaseOutcome::Failed { violation, stats };
        }
        // Apply the merges accumulated this round, rewriting ids in place (no
        // instance rebuild per substitution).
        for (null, target) in merges.substitutions() {
            stats.null_replacements += 1;
            let gamma = NullSubstitution::single(null, target);
            observer.egd_collapsed(&gamma);
            next.substitute_in_place_ids(&gamma);
        }
        // (ii) take the core.
        let mut cored = core_of(&next);
        // Drop the dead arena history this round accumulated (rewritten and
        // folded-away facts), so the next round's clones copy only live facts.
        cored.compact();
        observer.round_completed(stats.steps, cored.len());
        observer.round_nulls(cored.nulls().len());
        if cored == current {
            // No progress is possible: the remaining violations cannot be repaired
            // (this can only happen when the budget semantics interact with core
            // computation). Report the dedicated no-progress marker — raising
            // `max_rounds` would not help, so claiming `Rounds` would mislead.
            return ChaseOutcome::BudgetExhausted {
                limit: BudgetLimit::NoProgress,
                instance: cored,
                stats,
            };
        }
        current = cored;
    }
}

/// A small union–find over ground terms in which constants may never be merged with
/// distinct constants, and class representatives prefer constants over nulls.
struct UnionFind {
    parent: HashMap<GroundTerm, GroundTerm>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind {
            parent: HashMap::new(),
        }
    }

    fn find(&mut self, t: GroundTerm) -> GroundTerm {
        let p = *self.parent.get(&t).unwrap_or(&t);
        if p == t {
            return t;
        }
        let root = self.find(p);
        self.parent.insert(t, root);
        root
    }

    /// Merges the classes of `a` and `b`; fails iff this would equate two distinct
    /// constants (the failure case of the chase), returning the two representatives.
    fn merge(&mut self, a: GroundTerm, b: GroundTerm) -> Result<(), (GroundTerm, GroundTerm)> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(());
        }
        match (ra, rb) {
            (GroundTerm::Const(_), GroundTerm::Const(_)) => Err((ra, rb)),
            (GroundTerm::Const(_), GroundTerm::Null(_)) => {
                self.parent.insert(rb, ra);
                Ok(())
            }
            (GroundTerm::Null(_), _) => {
                self.parent.insert(ra, rb);
                Ok(())
            }
        }
    }

    /// The substitutions implied by the merges: every null that is not its own
    /// representative maps to its representative.
    fn substitutions(&mut self) -> Vec<(chase_core::NullValue, GroundTerm)> {
        let keys: Vec<GroundTerm> = self.parent.keys().copied().collect();
        let mut out = Vec::new();
        for k in keys {
            let root = self.find(k);
            if let GroundTerm::Null(n) = k {
                if root != k {
                    out.push((n, root));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Chase;
    use chase_core::parser::parse_program;
    use chase_core::{Constant, Fact};

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }

    #[test]
    fn example7_core_chase_is_empty_on_satisfied_set() {
        let p = parse_program("r: E(?x, ?y) -> exists ?z: E(?x, ?z). E(a, b).").unwrap();
        let out = Chase::core(&p.dependencies).run(&p.database);
        assert!(out.is_terminating());
        assert_eq!(out.stats().steps, 0);
        assert_eq!(out.instance().unwrap(), &p.database);
    }

    #[test]
    fn example1_core_chase_terminates_and_finds_the_small_model() {
        // Σ1 has a universal model {N(a), E(a, a)}; the core chase must find it even
        // though some standard sequences diverge.
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            N(a).
            "#,
        )
        .unwrap();
        let out = Chase::core(&p.dependencies).run(&p.database);
        assert!(out.is_terminating());
        let j = out.instance().unwrap();
        assert!(satisfies_all(j, &p.dependencies));
        assert_eq!(j.len(), 2);
        assert!(j.contains(&Fact::from_parts("E", vec![gc("a"), gc("a")])));
    }

    #[test]
    fn example3_core_chase_builds_the_two_null_model() {
        let p = parse_program(
            r#"
            r1: P(?x, ?y) -> exists ?z: E(?x, ?z).
            r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).
            P(a, b). Q(c, d).
            "#,
        )
        .unwrap();
        let out = Chase::core(&p.dependencies).run(&p.database);
        assert!(out.is_terminating());
        let j = out.instance().unwrap();
        assert_eq!(j.len(), 4);
        assert_eq!(j.nulls().len(), 2);
    }

    #[test]
    fn failing_set_is_detected() {
        let p = parse_program(
            r#"
            k: P(?x, ?y), P(?x, ?z) -> ?y = ?z.
            P(a, b). P(a, c).
            "#,
        )
        .unwrap();
        let out = Chase::core(&p.dependencies).run(&p.database);
        assert!(out.is_failing());
    }

    #[test]
    fn diverging_set_exhausts_budget() {
        // Σ10 has no universal model for D = {N(a)}; the core chase cannot terminate.
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z).
            r2: E(?x, ?y, ?y) -> N(?y).
            r3: E(?x, ?y, ?z) -> ?y = ?z.
            N(a).
            "#,
        )
        .unwrap();
        let out = Chase::core(&p.dependencies)
            .with_budget(ChaseBudget::unlimited().with_max_rounds(10))
            .run(&p.database);
        assert!(out.is_budget_exhausted());
        assert_eq!(out.exhausted_limit(), Some(BudgetLimit::Rounds));
    }

    #[test]
    fn core_chase_result_is_a_core() {
        use crate::core_of::is_core;
        let p = parse_program(
            r#"
            r1: A(?x) -> exists ?y: R(?x, ?y).
            r2: A(?x) -> R(?x, ?x).
            A(a).
            "#,
        )
        .unwrap();
        let out = Chase::core(&p.dependencies).run(&p.database);
        assert!(out.is_terminating());
        let j = out.instance().unwrap();
        // R(a, η) folds onto R(a, a); the core has no nulls.
        assert!(is_core(j));
        assert!(j.nulls().is_empty());
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn transitive_closure_with_keys() {
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            E(a, b). E(b, c).
            "#,
        )
        .unwrap();
        let out = Chase::core(&p.dependencies).run(&p.database);
        assert!(out.is_terminating());
        assert_eq!(out.instance().unwrap().len(), 3);
    }
}
