//! The `Adn∃-C` combinator (Theorems 10 and 11): apply an arbitrary termination
//! criterion `C` to the adorned set `Σµ = Adn∃(Σ)[1]` instead of `Σ`.
//!
//! If `Σµ ∈ C` then `Σ ∈ CT_std_∃` (Theorem 10), and `C ⊆ Adn∃-C` for every criterion
//! `C` (Theorem 11) — combining the adornment with a criterion never loses sets and
//! often gains some, because the adorned set has the same or weaker structural
//! dependencies (EGD effects having been compiled away into the adornments).

use crate::adornment::{adorn_in, adornment_witness, SemiAcyclicity};
use crate::semi_stratification::SemiStratification;
use chase_criteria::criterion::{
    AnalysisContext, Guarantee, TerminationCriterion, Verdict, Witness,
};
use chase_criteria::safety::Safety;
use chase_criteria::super_weak::SuperWeakAcyclicity;
use chase_criteria::weak_acyclicity::WeakAcyclicity;

/// The `Adn∃-C` combinator as a witness-producing [`TerminationCriterion`]: runs the
/// adornment algorithm, then the inner criterion `C` on the adorned set `Σµ`.
///
/// The verdict's witness pairs the adornment trace with the inner criterion's verdict
/// on `Σµ` ([`Witness::Combined`]); the guarantee is always `CT_std_∃` (Theorem 10),
/// regardless of what `C` guarantees on sets it analyses directly.
pub struct AdnCombined {
    name: &'static str,
    cost: u32,
    inner: Box<dyn TerminationCriterion + Send + Sync>,
}

impl AdnCombined {
    /// Combines the adornment with an arbitrary inner criterion.
    pub fn new(
        name: &'static str,
        cost: u32,
        inner: impl TerminationCriterion + Send + Sync + 'static,
    ) -> Self {
        AdnCombined {
            name,
            cost,
            inner: Box::new(inner),
        }
    }

    /// `Adn∃-WA`: weak acyclicity on the adorned set.
    pub fn weak_acyclicity() -> Self {
        AdnCombined::new("Adn-WA", 90, WeakAcyclicity)
    }

    /// `Adn∃-SC`: safety on the adorned set.
    pub fn safety() -> Self {
        AdnCombined::new("Adn-SC", 91, Safety)
    }

    /// `Adn∃-SwA`: super-weak acyclicity on the adorned set.
    pub fn super_weak_acyclicity() -> Self {
        AdnCombined::new("Adn-SwA", 92, SuperWeakAcyclicity)
    }
}

impl TerminationCriterion for AdnCombined {
    fn name(&self) -> &'static str {
        self.name
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::SomeSequence
    }

    fn cost(&self) -> u32 {
        self.cost
    }

    fn verdict_in(&self, cx: &AnalysisContext) -> Verdict {
        let result = adorn_in(cx);
        let inner = self.inner.verdict(&result.adorned);
        Verdict {
            criterion: self.name,
            guarantee: Guarantee::SomeSequence,
            accepted: inner.accepted,
            witness: Witness::Combined {
                adornment: Box::new(adornment_witness(&result)),
                inner: Box::new(inner),
            },
        }
    }
}

/// Wraps every baseline criterion `C` into its `Adn∃-C` counterpart, for use in the
/// experiment harness. All combined criteria guarantee membership in `CT_std_∃`.
pub fn combined_criteria() -> Vec<Box<dyn TerminationCriterion + Send + Sync>> {
    vec![
        Box::new(AdnCombined::weak_acyclicity()),
        Box::new(AdnCombined::safety()),
        Box::new(AdnCombined::super_weak_acyclicity()),
    ]
}

/// The paper's own criteria: semi-stratification and semi-acyclicity.
pub fn paper_criteria() -> Vec<Box<dyn TerminationCriterion + Send + Sync>> {
    vec![Box::new(SemiStratification), Box::new(SemiAcyclicity)]
}

/// Every criterion known to the workspace: the baselines, the paper's criteria and the
/// `Adn∃-C` combinations, in that order.
pub fn all_criteria() -> Vec<Box<dyn TerminationCriterion + Send + Sync>> {
    let mut out = chase_criteria::criterion::baseline_criteria();
    out.extend(paper_criteria());
    out.extend(combined_criteria());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firing::firing_graph_in;
    use chase_core::parser::parse_dependencies;
    use chase_core::DependencySet;
    use chase_criteria::firing::ChaseGraphs;
    use chase_criteria::graph::DiGraph;
    use chase_criteria::stratification::{chase_graphs_in, CStratification, Stratification};
    use std::rc::Rc;

    fn sigma1() -> DependencySet {
        parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            "#,
        )
        .unwrap()
    }

    #[test]
    fn theorem11_adn_c_contains_c_on_a_corpus() {
        let inputs = [
            "r1: P(?x, ?y) -> exists ?z: E(?x, ?z). r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).",
            "a: A(?x) -> B(?x). b: B(?x) -> C(?x).",
            "r: E(?x, ?y) -> exists ?z: E(?x, ?z).",
            "r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> C(?y).",
            "k: R(?x, ?y), R(?x, ?z) -> ?y = ?z.",
        ];
        for src in inputs {
            let sigma = parse_dependencies(src).unwrap();
            if WeakAcyclicity.accepts(&sigma) {
                assert!(
                    AdnCombined::weak_acyclicity().accepts(&sigma),
                    "WA ⊆ Adn-WA violated on {src}"
                );
            }
            if Safety.accepts(&sigma) {
                assert!(
                    AdnCombined::safety().accepts(&sigma),
                    "SC ⊆ Adn-SC violated on {src}"
                );
            }
        }
    }

    #[test]
    fn combined_verdict_nests_the_inner_witness() {
        let chain =
            parse_dependencies("r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> C(?y).")
                .unwrap();
        let verdict = AdnCombined::weak_acyclicity().verdict(&chain);
        assert!(verdict.accepted);
        match verdict.witness {
            Witness::Combined { adornment, inner } => {
                assert!(matches!(*adornment, Witness::AdornmentTrace { .. }));
                assert_eq!(inner.criterion, "WA");
                assert!(inner.accepted);
                assert!(matches!(
                    inner.witness,
                    Witness::AcyclicPositionGraph { .. }
                ));
            }
            other => panic!("expected Combined, got {other:?}"),
        }
    }

    #[test]
    fn sigma1_is_gained_by_the_adornment_algorithm_itself() {
        // Σ1 is rejected by every classical criterion (it is not even in CT_std_∀), but
        // the adornment algorithm recognises it directly (Example 12). Its adorned set
        // still carries the structural null-cycle (the adorned rules mirror r1/r2), so
        // the gain here comes from SAC, not from Adn∃-WA.
        let sigma = sigma1();
        assert!(!WeakAcyclicity.accepts(&sigma));
        assert!(!Safety.accepts(&sigma));
        assert!(crate::adornment::SemiAcyclicity.accepts(&sigma));
    }

    /// Str, CStr, S-Str, SAC and the `Adn∃-C` criteria, run in the analyzer's order on
    /// one context, build one artefact of each kind: Str the chase graphs, S-Str the
    /// firing graph and SAC the `Adn∃` run. The later criteria find them, and every
    /// verdict equals the criterion's standalone one.
    #[test]
    fn one_artefact_of_each_kind_per_analysis() {
        let sigma11 = parse_dependencies(
            "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> E(?y, ?x).",
        )
        .unwrap();
        for sigma in [sigma1(), sigma11] {
            let cx = AnalysisContext::new(&sigma);
            let mut verdicts = vec![(
                Stratification.verdict_in(&cx),
                Stratification.verdict(&sigma),
            )];
            let chase_graphs = cx.shared("chase graphs", || -> ChaseGraphs {
                panic!("Str must have left the chase graphs in the context")
            });
            verdicts.push((
                CStratification.verdict_in(&cx),
                CStratification.verdict(&sigma),
            ));
            verdicts.push((
                SemiStratification.verdict_in(&cx),
                SemiStratification.verdict(&sigma),
            ));
            let firing = cx.shared("Definition 2", || -> DiGraph {
                panic!("S-Str must have left the firing graph in the context")
            });
            let sac = SemiAcyclicity.verdict_in(&cx);
            let result = cx.shared("Adn∃", || -> crate::AdnResult {
                panic!("SAC must have left its Adn∃ result in the context")
            });
            assert_eq!(sac.accepted, result.acyclic);
            verdicts.push((sac, SemiAcyclicity.verdict(&sigma)));
            for criterion in [
                AdnCombined::weak_acyclicity(),
                AdnCombined::safety(),
                AdnCombined::super_weak_acyclicity(),
            ] {
                let shared = criterion.verdict_in(&cx);
                match &shared.witness {
                    Witness::Combined { adornment, .. } => {
                        assert_eq!(**adornment, adornment_witness(&result))
                    }
                    other => panic!("expected Combined, got {other:?}"),
                }
                verdicts.push((shared, criterion.verdict(&sigma)));
            }
            assert!(Rc::ptr_eq(&chase_graphs, &chase_graphs_in(&cx)));
            assert!(Rc::ptr_eq(&firing, &firing_graph_in(&cx)));
            assert!(Rc::ptr_eq(&result, &adorn_in(&cx)));
            for (shared, standalone) in verdicts {
                assert_eq!(shared, standalone, "{}", shared.criterion);
            }
        }
    }

    #[test]
    fn registry_contains_paper_and_combined_criteria() {
        let all = all_criteria();
        let names: Vec<&str> = all.iter().map(|c| c.name()).collect();
        for expected in [
            "WA", "SC", "SwA", "Str", "CStr", "MFA", "S-Str", "SAC", "Adn-WA",
        ] {
            assert!(names.contains(&expected), "missing criterion {expected}");
        }
    }

    #[test]
    fn sigma10_is_rejected_even_after_combination() {
        // Σ10 has no terminating sequence at all, so every sound criterion must reject.
        let sigma10 = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z).
            r2: E(?x, ?y, ?y) -> N(?y).
            r3: E(?x, ?y, ?z) -> ?y = ?z.
            "#,
        )
        .unwrap();
        for criterion in all_criteria() {
            let verdict = criterion.verdict(&sigma10);
            assert!(
                !verdict.accepted,
                "{} wrongly accepts Σ10",
                criterion.name()
            );
            assert!(
                !verdict.witness.is_trivial(),
                "{} must explain its rejection",
                criterion.name()
            );
        }
    }
}
