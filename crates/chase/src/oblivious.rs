//! The oblivious and semi-oblivious chase.
//!
//! Both variants apply a chase step for a trigger `(r, h)` unless an "equivalent"
//! trigger was already applied earlier in the sequence, where equivalence is judged
//! modulo the EGD substitutions applied in between (`h_i(x) = h_j(x) γ_j · · · γ_{i-1}`
//! in the paper):
//!
//! * the **oblivious** chase compares the images of *all* body variables;
//! * the **semi-oblivious** chase compares only the variables occurring in both the
//!   body and the head (for an EGD: the two equated variables).
//!
//! In particular, a TGD step is applied even when its head is already satisfied
//! (contrast with the standard chase, cf. Example 6 of the paper).
//!
//! The front door is [`Chase::oblivious`](crate::Chase::oblivious) /
//! [`Chase::semi_oblivious`](crate::Chase::semi_oblivious).

use crate::budget::{BudgetClock, BudgetLimit, ChaseBudget};
use crate::materialize::MaterializeEvent;
use crate::observer::{observed_pop, record_step_effect, ChaseObserver};
use crate::result::{ChaseOutcome, ChaseStats, EgdViolation};
use crate::step::StepEffect;
use chase_core::substitution::NullSubstitution;
use chase_core::{
    Assignment, DepId, Dependency, DependencySet, GroundTerm, Instance, NullValue, Variable,
};
use chase_trigger::{KeySets, Trigger, TriggerEngine};

/// Which oblivious variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObliviousVariant {
    /// The oblivious chase (Skolemisation over all body variables).
    Oblivious,
    /// The semi-oblivious chase (Skolemisation over the frontier only).
    SemiOblivious,
}

/// The variables of `dep` that participate in the trigger key for `variant`, in a
/// fixed (sorted) order: all body variables for the oblivious chase; the frontier
/// (TGD) or the two equated variables (EGD) for the semi-oblivious chase.
fn key_variables(variant: ObliviousVariant, dep: &Dependency) -> Vec<Variable> {
    let body_vars = dep.body_variables();
    match variant {
        ObliviousVariant::Oblivious => body_vars.into_iter().collect(),
        ObliviousVariant::SemiOblivious => match dep {
            Dependency::Tgd(t) => t.frontier_variables().to_vec(),
            Dependency::Egd(e) => body_vars
                .into_iter()
                .filter(|v| *v == e.left || *v == e.right)
                .collect(),
        },
    }
}

/// The longest trigger key [`FiredKeys`] probes without allocating.
const INLINE_KEY: usize = 16;

/// The fired-key state of a (semi-)oblivious chase: the paper's trigger
/// equivalence "`h_i(x) = h_j(x) γ_j · · · γ_{i-1}`" in one place.
///
/// A trigger's *key* is the image of its dependency's key variables (all body
/// variables for [`ObliviousVariant::Oblivious`], the frontier or the equated
/// pair for [`ObliviousVariant::SemiOblivious`]). A trigger fires only if no
/// trigger with an equal key fired before; every EGD substitution is applied to
/// the recorded keys that mention its null ([`FiredKeys::apply_gamma`], through
/// the per-null index of [`KeySets`]), so later comparisons are modulo the
/// substitutions in between. The per-step loop ([`chase_steps`]), the round
/// runner and incremental maintenance (`chase_ivm`, which also un-fires keys
/// on retraction) all keep their state here.
///
/// The keys sit on [`KeySets`]' flat rows, one stride per dependency (its
/// key variables). Testing a trigger's key and recording it is one call and
/// one probe ([`FiredKeys::fire`], [`FiredKeys::next_unfired`]), which hands
/// back the key as recorded; nothing is cloned to record it. An un-fired
/// key's row is reused by the next key fired for its dependency.
#[derive(Clone, Debug)]
pub struct FiredKeys {
    /// Per dependency, the key variables in a fixed order.
    key_vars: Vec<Vec<Variable>>,
    /// Per dependency, the keys fired so far.
    fired: KeySets,
}

impl FiredKeys {
    /// No key fired yet, with `variant`'s key variables for every dependency of
    /// `sigma`.
    pub fn new(sigma: &DependencySet, variant: ObliviousVariant) -> Self {
        let key_vars: Vec<Vec<Variable>> = sigma
            .iter()
            .map(|(_, dep)| key_variables(variant, dep))
            .collect();
        let fired = KeySets::new(key_vars.iter().map(Vec::len));
        FiredKeys { key_vars, fired }
    }

    /// Fires the key of the trigger `(dep, h)` unless an equivalent trigger
    /// already fired, testing and recording it with one probe. Returns the
    /// key as recorded if it is new, `None` if it had fired.
    pub fn fire(&mut self, dep: DepId, h: &Assignment) -> Option<&[GroundTerm]> {
        let row = fire_key(&self.key_vars, &mut self.fired, dep, h)?;
        Some(self.fired.key(dep, row))
    }

    /// `true` iff a trigger equivalent to `(dep, h)` already fired. Allocates
    /// nothing for a key of up to 16 terms.
    pub fn has_fired(&self, dep: DepId, h: &Assignment) -> bool {
        self.with_key(dep, h, |key| self.fired.contains(dep, key))
    }

    /// Calls `f` on the key of `(dep, h)`, built in a stack buffer unless it
    /// has more than [`INLINE_KEY`] terms.
    fn with_key<R>(&self, dep: DepId, h: &Assignment, f: impl FnOnce(&[GroundTerm]) -> R) -> R {
        let vars = &self.key_vars[dep.0];
        let image = |&v: &Variable| h.get(v).expect("body variables are bound");
        if vars.len() > INLINE_KEY {
            return f(&vars.iter().map(image).collect::<Vec<_>>());
        }
        let mut buf = [GroundTerm::Null(NullValue(0)); INLINE_KEY];
        for (slot, v) in buf.iter_mut().zip(vars) {
            *slot = image(v);
        }
        f(&buf[..vars.len()])
    }

    /// Pops the engine's next trigger whose key has not fired, trying the
    /// dependencies in `order`, fires its key ([`FiredKeys::fire`]) and
    /// returns the trigger with the key as recorded. Candidates with a fired
    /// key are dropped.
    pub fn next_unfired(
        &mut self,
        engine: &mut TriggerEngine<'_>,
        order: &[DepId],
    ) -> Option<(Trigger, &[GroundTerm])> {
        let (key_vars, fired) = (&self.key_vars, &mut self.fired);
        let mut row = None;
        let trigger = engine.next_trigger_where(order, |_, dep, h| {
            row = fire_key(key_vars, fired, dep, h);
            row.is_some()
        })?;
        let row = row.expect("an accepted trigger fired its key");
        let key = self.fired.key(trigger.dep, row);
        Some((trigger, key))
    }

    /// The number of keys fired so far, over all dependencies.
    pub fn len(&self) -> usize {
        (0..self.key_vars.len())
            .map(|i| self.fired.len(DepId(i)))
            .sum()
    }

    /// `true` iff no key has fired.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets that `key` fired for `dep`, so an equal key can fire again.
    pub fn unfire(&mut self, dep: DepId, key: &[GroundTerm]) {
        self.fired.remove(dep, key);
    }

    /// Rewrites the fired keys that mention `gamma`'s null; keys that become
    /// equal merge into one.
    pub fn apply_gamma(&mut self, gamma: &NullSubstitution) {
        self.fired.apply_gamma(gamma);
    }

    /// The partial assignment binding `dep`'s key variables to `key`: the seed
    /// of a search for a body witness that fires exactly this key.
    pub fn seed(&self, dep: DepId, key: &[GroundTerm]) -> Assignment {
        Assignment::from_pairs(
            self.key_vars[dep.0]
                .iter()
                .copied()
                .zip(key.iter().copied()),
        )
    }
}

/// Records the key of `(dep, h)` in `fired` with one probe: its row if it is
/// new.
fn fire_key(
    key_vars: &[Vec<Variable>],
    fired: &mut KeySets,
    dep: DepId,
    h: &Assignment,
) -> Option<u32> {
    let image = |&v: &Variable| h.get(v).expect("body variables are bound");
    fired.insert_iter(dep, key_vars[dep.0].iter().map(image))
}

/// Runs the (semi-)oblivious chase under `budget`, reporting events to `observer`.
///
/// The runner depends on `sigma` alone. An EGD-free set takes the round
/// runner ([`crate::parallel`]) at every worker count: without substitutions,
/// trigger equivalence is plain key equality, so the step order changes the
/// result only up to a renaming of nulls. An EGD-bearing set runs on
/// [`chase_steps`]: its substitutions rewrite the fired keys
/// (`h ↦ γ∘h γ_j···γ_{i-1}`), so which triggers fire — and how many —
/// depends on how substitutions interleave with TGD steps.
pub(crate) fn run_oblivious(
    sigma: &DependencySet,
    variant: ObliviousVariant,
    budget: &ChaseBudget,
    database: &Instance,
    observer: &mut dyn ChaseObserver,
    workers: usize,
) -> ChaseOutcome {
    let mut fired = FiredKeys::new(sigma, variant);
    if sigma.egd_ids().is_empty() {
        return crate::parallel::run_rounds(sigma, fired, budget, database, observer, workers);
    }
    let mut engine = TriggerEngine::with_database(sigma, database);
    let mut stats = ChaseStats::default();
    match chase_steps(&mut engine, &mut fired, budget, &mut stats, observer, None) {
        Ok(()) => ChaseOutcome::Terminated {
            instance: engine.into_instance(),
            stats,
        },
        Err(StepHalt::Budget(limit)) => ChaseOutcome::BudgetExhausted {
            limit,
            instance: engine.into_instance(),
            stats,
        },
        Err(StepHalt::Violation(violation)) => ChaseOutcome::Failed { violation, stats },
    }
}

/// Why [`chase_steps`] stopped before the engine quiesced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepHalt {
    /// A budget limit tripped.
    Budget(BudgetLimit),
    /// An EGD equated two distinct constants (`⊥`).
    Violation(EgdViolation),
}

/// The per-step (semi-)oblivious chase loop, on a caller-owned engine and
/// fired-key state: pops the engine's next trigger whose key has not fired
/// (dependencies in textual order), recording its key in the same probe,
/// applies it, and propagates an EGD substitution to the recorded keys, until
/// the engine quiesces (`Ok`) or the run halts.
///
/// `budget` is checked before every step against `stats`, which the loop
/// adds each applied step to. With `log`, each trigger that consumed its key
/// appends a [`MaterializeEvent::Fired`] in the engine's own fact ids — EGD
/// triggers with equal images too, with empty heads — and a substitution
/// step appends its [`MaterializeEvent::Rewritten`] right after. The event's
/// key is the one copy of the recorded key the step makes, and its body is
/// the body image discovery found for the trigger
/// ([`TriggerEngine::apply_trigger_logged`]).
///
/// Discovery is delta-driven: homomorphisms are found once, when the facts
/// completing them appear, and wait in the engine's queues; the fired-key
/// comparison filters them at pop time. So a caller that pushes facts into a
/// quiescent engine and calls the loop again continues the same run: this is
/// how `chase_ivm` repairs a materialization.
pub fn chase_steps(
    engine: &mut TriggerEngine<'_>,
    fired: &mut FiredKeys,
    budget: &ChaseBudget,
    stats: &mut ChaseStats,
    observer: &mut dyn ChaseObserver,
    mut log: Option<&mut Vec<MaterializeEvent>>,
) -> Result<(), StepHalt> {
    let sigma = engine.sigma();
    let order: Vec<DepId> = sigma.ids().collect();
    let phases = observer.observes_phases();
    let clock = BudgetClock::start(budget, phases);
    loop {
        if let Some(limit) = clock.check_step(stats, engine.instance().len(), observer) {
            return Err(StepHalt::Budget(limit));
        }
        let logging = log.is_some();
        let next = observed_pop(engine, observer, phases, |engine| {
            let (trigger, key) = fired.next_unfired(engine, &order)?;
            Some((trigger, logging.then(|| key.to_vec())))
        });
        let Some((trigger, key)) = next else {
            return Ok(());
        };
        let (effect, step) = if log.is_some() {
            let (effect, step) = engine.apply_trigger_logged(trigger.dep, &trigger.assignment);
            (effect, Some(step))
        } else {
            (engine.apply_trigger(trigger.dep, &trigger.assignment), None)
        };
        // An EGD trigger with equal images is no chase step (Definition 1),
        // but its key is recorded so that it is not reconsidered forever.
        if effect != StepEffect::NotApplicable {
            if let Some(violation) = record_step_effect(sigma, &trigger, &effect, stats, observer) {
                return Err(StepHalt::Violation(violation));
            }
        }
        let rewrites = match (log.as_deref_mut(), step, key) {
            (Some(log), Some(step), Some(key)) => {
                log.push(MaterializeEvent::Fired {
                    dep: trigger.dep,
                    key,
                    body: step.body,
                    heads: step.heads,
                });
                step.rewrites
            }
            _ => Vec::new(),
        };
        // The key was recorded at pop: propagate the substitution (if any) to
        // all recorded keys so that future comparisons are "modulo γ_j · · · γ_{i-1}".
        if let StepEffect::Substituted { gamma } = effect {
            fired.apply_gamma(&gamma);
            if let Some(log) = log.as_deref_mut() {
                log.push(MaterializeEvent::Rewritten {
                    gamma,
                    delta: rewrites,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::TraceObserver;
    use crate::session::Chase;
    use chase_core::parser::{parse_dependencies, parse_program};
    use chase_core::satisfaction::satisfies_all;
    use chase_core::term::{Constant, NullValue};

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }

    fn gn(n: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(n))
    }

    fn bind(pairs: &[(&str, GroundTerm)]) -> Assignment {
        Assignment::from_pairs(pairs.iter().map(|&(v, t)| (Variable::new(v), t)))
    }

    #[test]
    fn gamma_collapsing_two_fired_keys_leaves_one() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?x, ?z).").unwrap();
        let r = DepId(0);
        let mut fired = FiredKeys::new(&sigma, ObliviousVariant::SemiOblivious);
        // Semi-oblivious: the key is the frontier image `x` alone.
        assert_eq!(fired.fire(r, &bind(&[("x", gn(1))])), Some(&[gn(1)][..]));
        assert!(fired.fire(r, &bind(&[("x", gn(2))])).is_some());
        assert_eq!(fired.fired.len(r), 2);
        fired.apply_gamma(&NullSubstitution::single(NullValue(1), gn(2)));
        assert_eq!(fired.fired.len(r), 1);
        assert!(fired.fired.contains(r, &[gn(2)]));
        // Both the rewritten key and an equal fresh one count as fired.
        assert_eq!(fired.fire(r, &bind(&[("x", gn(2)), ("y", gc("b"))])), None);
        assert_eq!(
            fired.fire(r, &bind(&[("x", gc("a")), ("y", gn(2))])),
            Some(&[gc("a")][..])
        );
    }

    #[test]
    fn an_unfired_key_is_accepted_again() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> P(?x).").unwrap();
        let r = DepId(0);
        let mut fired = FiredKeys::new(&sigma, ObliviousVariant::Oblivious);
        let h = bind(&[("x", gc("a")), ("y", gc("b"))]);
        // Oblivious: the key is the image of every body variable.
        assert!(!fired.has_fired(r, &h));
        let key = fired.fire(r, &h).expect("nothing fired yet").to_vec();
        assert_eq!(key, [gc("a"), gc("b")]);
        assert_eq!(fired.fire(r, &h), None);
        assert!(fired.has_fired(r, &h));
        fired.unfire(r, &key);
        assert!(!fired.has_fired(r, &h));
        assert_eq!(fired.fire(r, &h), Some(&key[..]));
        // The rederive seed binds exactly the key variables.
        assert_eq!(fired.seed(r, &key), h);
    }

    #[test]
    fn a_key_longer_than_the_stack_buffer_is_probed_too() {
        let n = INLINE_KEY + 1;
        let vars: Vec<String> = (0..n).map(|i| format!("?v{i}")).collect();
        let rule = format!("r: W({}) -> P(?v0).", vars.join(", "));
        let sigma = parse_dependencies(&rule).unwrap();
        let r = DepId(0);
        let mut fired = FiredKeys::new(&sigma, ObliviousVariant::Oblivious);
        let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        let h = bind(
            &names
                .iter()
                .map(|v| (v.as_str(), gc(v)))
                .collect::<Vec<_>>(),
        );
        assert!(!fired.has_fired(r, &h));
        assert_eq!(fired.fire(r, &h).expect("nothing fired yet").len(), n);
        assert!(fired.has_fired(r, &h));
        assert_eq!(fired.fire(r, &h), None);
    }

    #[test]
    fn the_observer_does_not_choose_the_runner() {
        // An EGD-free set takes the round runner under any observer: a trace
        // of it records rounds.
        let p = parse_program("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, b). E(b, c). E(c, d).")
            .unwrap();
        let mut trace = TraceObserver::new();
        let out = Chase::semi_oblivious(&p.dependencies).run_observed(&p.database, &mut trace);
        assert!(out.is_terminating());
        assert!(!trace.rounds.is_empty(), "the round runner reports rounds");
        assert_eq!(trace.steps.len(), out.stats().steps);
    }

    #[test]
    fn example6_semi_oblivious_terminates_oblivious_does_not() {
        let p = parse_program("r: E(?x, ?y) -> exists ?z: E(?x, ?z). E(a, b).").unwrap();
        let sobl = Chase::semi_oblivious(&p.dependencies).run(&p.database);
        assert!(sobl.is_terminating());
        // One step: E(a, η1) is added; the trigger with y = η1 has the same frontier
        // image (x = a) and is therefore skipped.
        assert_eq!(sobl.stats().steps, 1);
        assert_eq!(sobl.instance().unwrap().len(), 2);

        let obl = Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious)
            .with_budget(ChaseBudget::unlimited().with_max_steps(100))
            .run(&p.database);
        assert!(obl.is_budget_exhausted());
    }

    #[test]
    fn example1_oblivious_diverges_even_with_egds() {
        // For Σ1, the oblivious chase keeps re-firing r1 on new nulls regardless of the
        // EGD, so it diverges.
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            N(a).
            "#,
        )
        .unwrap();
        let obl = Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious)
            .with_budget(ChaseBudget::unlimited().with_max_steps(300))
            .run(&p.database);
        assert!(!obl.is_terminating());
    }

    #[test]
    fn weakly_acyclic_tgds_terminate_in_all_variants() {
        let p = parse_program(
            r#"
            r1: P(?x, ?y) -> exists ?z: E(?x, ?z).
            r2: E(?x, ?y) -> M(?y).
            P(a, b). P(c, d).
            "#,
        )
        .unwrap();
        for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
            let out = Chase::oblivious(&p.dependencies, variant).run(&p.database);
            assert!(out.is_terminating());
            assert!(satisfies_all(out.instance().unwrap(), &p.dependencies));
        }
    }

    #[test]
    fn egd_failure_is_detected_with_diagnostics() {
        let p = parse_program(
            r#"
            k: P(?x, ?y), P(?x, ?z) -> ?y = ?z.
            P(a, b). P(a, c).
            "#,
        )
        .unwrap();
        let out = Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious).run(&p.database);
        assert!(out.is_failing());
        let violation = out.violation().unwrap();
        assert_eq!(violation.dep, chase_core::DepId(0));
        assert!(violation.left != violation.right);
    }

    #[test]
    fn egd_triggers_are_not_reapplied_after_substitution() {
        // Functional dependency resolving a null: terminates and satisfies Σ.
        let p = parse_program(
            r#"
            r1: Emp(?x) -> exists ?d: Works(?x, ?d).
            r2: Works(?x, ?d), Dept(?d) -> Ok(?x).
            k: Works(?x, ?d1), Works(?x, ?d2) -> ?d1 = ?d2.
            Emp(e1). Works(e1, d0). Dept(d0).
            "#,
        )
        .unwrap();
        for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
            let out = Chase::oblivious(&p.dependencies, variant).run(&p.database);
            assert!(out.is_terminating(), "variant {variant:?} must terminate");
            let j = out.instance().unwrap();
            assert!(satisfies_all(j, &p.dependencies));
            // The invented department null is merged into d0 by the key EGD.
            assert!(j.nulls().is_empty());
        }
    }

    #[test]
    fn oblivious_step_count_at_least_standard() {
        let p = parse_program(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y) -> C(?y).
            A(a). A(b).
            "#,
        )
        .unwrap();
        let std_out = Chase::standard(&p.dependencies).run(&p.database);
        let obl_out =
            Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious).run(&p.database);
        assert!(std_out.is_terminating() && obl_out.is_terminating());
        assert!(obl_out.stats().steps >= std_out.stats().steps);
    }
}
