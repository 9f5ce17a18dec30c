//! Stratification (Deutsch, Nash, Remmel 2008) and c-stratification (Meier, Schmidt,
//! Lausen 2009).
//!
//! Stratification decomposes the dependency set along the chase graph `G(Σ)` (an edge
//! `r1 → r2` whenever `r1 ≺ r2`, see [`crate::firing`]) and requires every strongly
//! connected component to be weakly acyclic. As shown by Meier, the criterion
//! guarantees the existence of *some* terminating standard chase sequence;
//! c-stratification strengthens it (using oblivious-chase applicability in the firing
//! test) to guarantee termination of *all* standard chase sequences.
//!
//! Checking "every cycle is weakly acyclic" literally would require enumerating all
//! simple cycles; as in the research prototypes we check every SCC instead, which is
//! sound because weak acyclicity is closed under taking subsets of dependencies.

use crate::criterion::{AnalysisContext, Guarantee, TerminationCriterion, Verdict, Witness};
use crate::firing::{chase_graphs, ChaseGraphs};
use crate::graph::DiGraph;
use crate::weak_acyclicity::WeakAcyclicity;
use chase_core::{DepId, DependencySet, Position};
use std::collections::BTreeSet;
use std::rc::Rc;

/// Both chase graphs of the context's set, built once per analysis. Str builds them
/// and is charged for both; CStr reads the oblivious graph, and semi-stratification
/// filters the standard one into its firing graph, since every edge of the latter is
/// an edge of the former.
pub fn chase_graphs_in(cx: &AnalysisContext) -> Rc<ChaseGraphs> {
    cx.shared("chase graphs", || chase_graphs(cx.sigma()))
}

/// The first cyclic component of `sccs`, the SCC decomposition of `graph`, whose
/// dependencies are not weakly acyclic, if any, together with the special-edge
/// position cycle inside that subset.
pub fn offending_component_in(
    sigma: &DependencySet,
    graph: &DiGraph,
    sccs: &[Vec<usize>],
) -> Option<(Vec<DepId>, Vec<Position>)> {
    for scc in sccs {
        let cyclic = scc.len() > 1 || scc.iter().any(|&n| graph.has_edge(n, n));
        if !cyclic {
            continue;
        }
        let ids: BTreeSet<DepId> = scc.iter().map(|&n| DepId(n)).collect();
        let subset = sigma.restrict(&ids);
        let wa = WeakAcyclicity.verdict(&subset);
        if !wa.accepted {
            let cycle = match wa.witness {
                Witness::PositionCycle { positions } => positions,
                _ => Vec::new(),
            };
            return Some((ids.into_iter().collect(), cycle));
        }
    }
    None
}

/// Shared verdict construction for the stratification family (also used by
/// semi-stratification in `chase-termination`): reject with the first offending
/// component, accept with the stratum assignment (SCCs of the graph, whose nodes are
/// dependency indices of `sigma`).
pub fn verdict_from_components(
    name: &'static str,
    guarantee: Guarantee,
    sigma: &DependencySet,
    graph: &DiGraph,
) -> Verdict {
    let sccs = graph.sccs();
    match offending_component_in(sigma, graph, &sccs) {
        Some((component, position_cycle)) => Verdict::reject(
            name,
            guarantee,
            Witness::OffendingComponent {
                component,
                position_cycle,
            },
        ),
        None => {
            let mut strata: Vec<Vec<DepId>> = sccs
                .into_iter()
                .map(|scc| scc.into_iter().map(DepId).collect())
                .collect();
            // Every dependency belongs to a stratum even if it is isolated in the
            // graph (graphs may omit nodes without edges).
            let seen: BTreeSet<DepId> = strata.iter().flatten().copied().collect();
            for id in sigma.ids() {
                if !seen.contains(&id) {
                    strata.push(vec![id]);
                }
            }
            Verdict::accept(name, guarantee, Witness::StratumAssignment { strata })
        }
    }
}

/// Stratification as a witness-producing [`TerminationCriterion`] (`Str`).
///
/// Acceptance carries the stratum assignment (the SCC decomposition of the chase
/// graph); rejection the offending component and its inner special-edge cycle.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stratification;

impl TerminationCriterion for Stratification {
    fn name(&self) -> &'static str {
        "Str"
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::SomeSequence
    }

    fn cost(&self) -> u32 {
        40
    }

    fn verdict_in(&self, cx: &AnalysisContext) -> Verdict {
        let graphs = chase_graphs_in(cx);
        verdict_from_components(self.name(), self.guarantee(), cx.sigma(), &graphs.standard)
    }
}

/// C-stratification as a witness-producing [`TerminationCriterion`] (`CStr`).
#[derive(Clone, Copy, Debug, Default)]
pub struct CStratification;

impl TerminationCriterion for CStratification {
    fn name(&self) -> &'static str {
        "CStr"
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::AllSequences
    }

    fn cost(&self) -> u32 {
        50
    }

    fn verdict_in(&self, cx: &AnalysisContext) -> Verdict {
        let graphs = chase_graphs_in(cx);
        verdict_from_components(self.name(), self.guarantee(), cx.sigma(), &graphs.oblivious)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;

    #[test]
    fn rejection_names_the_offending_component() {
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            "#,
        )
        .unwrap();
        let verdict = Stratification.verdict(&sigma);
        assert!(!verdict.accepted);
        match &verdict.witness {
            Witness::OffendingComponent {
                component,
                position_cycle,
            } => {
                assert!(component.contains(&DepId(0)) && component.contains(&DepId(1)));
                assert!(!position_cycle.is_empty());
            }
            other => panic!("expected OffendingComponent, got {other:?}"),
        }
    }

    #[test]
    fn acceptance_assigns_every_dependency_to_a_stratum() {
        let sigma = parse_dependencies(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y) -> C(?y).
            k: R(?x, ?y), R(?x, ?z) -> ?y = ?z.
            "#,
        )
        .unwrap();
        let verdict = CStratification.verdict(&sigma);
        assert!(verdict.accepted);
        match &verdict.witness {
            Witness::StratumAssignment { strata } => {
                let all: BTreeSet<DepId> = strata.iter().flatten().copied().collect();
                assert_eq!(all.len(), sigma.len(), "every dependency gets a stratum");
            }
            other => panic!("expected StratumAssignment, got {other:?}"),
        }
    }

    #[test]
    fn example1_is_not_stratified() {
        // The chase graph of Σ1 has the cycle r1 -> r2 -> r1, and {r1, r2} is not
        // weakly acyclic.
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            "#,
        )
        .unwrap();
        assert!(!Stratification.accepts(&sigma));
        assert!(!CStratification.accepts(&sigma));
    }

    #[test]
    fn example11_is_not_stratified() {
        // Σ11 (TGDs only): the chase graph contains the cycle r1 -> r2 -> r1.
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> E(?y, ?x).
            "#,
        )
        .unwrap();
        assert!(!Stratification.accepts(&sigma));
    }

    #[test]
    fn weakly_acyclic_sets_are_stratified() {
        let sigma = parse_dependencies(
            r#"
            r1: P(?x, ?y) -> exists ?z: E(?x, ?z).
            r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).
            r3: E(?x, ?y) -> M(?x).
            "#,
        )
        .unwrap();
        assert!(Stratification.accepts(&sigma));
        assert!(CStratification.accepts(&sigma));
    }

    #[test]
    fn acyclic_chase_graph_with_locally_nasty_rules_is_stratified() {
        // Each rule alone is harmless; they form a chain in the chase graph.
        let sigma = parse_dependencies(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y) -> C(?y).
            r3: C(?x) -> D(?x).
            "#,
        )
        .unwrap();
        assert!(Stratification.accepts(&sigma));
        assert!(CStratification.accepts(&sigma));
    }

    #[test]
    fn stratification_separating_example_from_the_literature() {
        // Deutsch–Nash–Remmel's classic example: copying rule that is not WA but whose
        // chase-graph cycles are WA.
        //   r1: E(x,y) -> ∃z E(y,z)  (self-cycle in WA graph)
        // is not weakly acyclic, and indeed r1 ≺ r1 holds, so it is not stratified
        // either. A stratified-but-not-WA witness instead separates the criteria:
        //   s1: S(?x) -> exists ?y: E(?x, ?y).
        //   s2: E(?x, ?y), S(?y) -> S2(?y).
        // Here no rule fires s1 again, so every SCC is a singleton without self-loop.
        let not_strat = parse_dependencies("r1: E(?x, ?y) -> exists ?z: E(?y, ?z).").unwrap();
        assert!(!Stratification.accepts(&not_strat));

        let strat = parse_dependencies(
            r#"
            s1: S(?x) -> exists ?y: E(?x, ?y).
            s2: E(?x, ?y), S(?y) -> S2(?y).
            "#,
        )
        .unwrap();
        assert!(Stratification.accepts(&strat));
        assert!(!WeakAcyclicity.accepts(&strat) || Stratification.accepts(&strat));
    }

    #[test]
    fn c_stratification_is_at_most_as_permissive_as_stratification() {
        let inputs = [
            "r: E(?x, ?y) -> exists ?z: E(?x, ?z).",
            "r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> A(?y).",
            "r1: A(?x) -> B(?x). r2: B(?x) -> C(?x).",
            "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> ?x = ?y.",
            "r1: P(?x, ?y) -> exists ?z: E(?x, ?z). r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).",
        ];
        for src in inputs {
            let sigma = parse_dependencies(src).unwrap();
            if CStratification.accepts(&sigma) {
                assert!(
                    Stratification.accepts(&sigma),
                    "CStr ⊆ Str violated on {src}"
                );
            }
        }
    }

    #[test]
    fn example6_separates_stratification_from_c_stratification() {
        // r: E(x,y) -> ∃z E(x,z) is stratified (no standard chase-graph self-edge) and
        // in fact also c-stratified under the violation-based oblivious test; both
        // therefore accept, matching the fact that every standard sequence terminates.
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?x, ?z).").unwrap();
        assert!(Stratification.accepts(&sigma));
        assert!(CStratification.accepts(&sigma));
    }

    #[test]
    fn key_constraints_alone_are_stratified() {
        let sigma = parse_dependencies(
            r#"
            k1: R(?x, ?y), R(?x, ?z) -> ?y = ?z.
            k2: S(?x, ?y), S(?z, ?y) -> ?x = ?z.
            "#,
        )
        .unwrap();
        assert!(Stratification.accepts(&sigma));
        assert!(CStratification.accepts(&sigma));
    }
}
