//! Semi-stratification (Definition 3): every strongly connected component of the firing
//! graph `Gf(Σ)` must be weakly acyclic.
//!
//! Semi-stratification strictly generalises stratification (Theorem 5.1): the firing
//! graph is a subgraph of the chase graph, so its components are smaller, and the
//! weak-acyclicity check is applied to fewer dependencies at a time. Acceptance
//! guarantees, for every database, the existence of a terminating standard chase
//! sequence of length polynomial in the database (Theorem 3).

use crate::firing::{firing_graph, firing_graph_in};
use chase_core::DependencySet;
use chase_criteria::criterion::{AnalysisContext, Guarantee, TerminationCriterion, Verdict};
use chase_criteria::graph::DiGraph;

/// The result of the semi-stratification analysis, retaining the firing graph and the
/// offending component (if any) for reporting.
#[derive(Clone, Debug)]
pub struct SemiStratificationReport {
    /// The firing graph `Gf(Σ)` (node ids are dependency indices).
    pub firing_graph: DiGraph,
    /// The strongly connected components of the firing graph.
    pub components: Vec<Vec<usize>>,
    /// The first cyclic component that is not weakly acyclic, if any.
    pub offending_component: Option<Vec<usize>>,
}

impl SemiStratificationReport {
    /// Returns `true` iff the analysed set is semi-stratified.
    pub fn is_semi_stratified(&self) -> bool {
        self.offending_component.is_none()
    }
}

/// Runs the semi-stratification analysis and returns the full report.
pub fn semi_stratification_report(sigma: &DependencySet) -> SemiStratificationReport {
    let graph = firing_graph(sigma);
    let components = graph.sccs();
    // The offending-component search is shared with the stratification family.
    let offending =
        chase_criteria::stratification::offending_component_in(sigma, &graph, &components)
            .map(|(ids, _)| ids.into_iter().map(|d| d.0).collect());
    SemiStratificationReport {
        firing_graph: graph,
        components,
        offending_component: offending,
    }
}

/// Semi-stratification as a witness-producing [`TerminationCriterion`] (`S-Str`,
/// Definition 3).
///
/// Acceptance carries the stratum assignment (the SCC decomposition of the firing
/// graph `Gf(Σ)`); rejection the offending component and its inner special-edge
/// position cycle.
#[derive(Clone, Copy, Debug, Default)]
pub struct SemiStratification;

impl TerminationCriterion for SemiStratification {
    fn name(&self) -> &'static str {
        "S-Str"
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::SomeSequence
    }

    fn cost(&self) -> u32 {
        60
    }

    fn verdict_in(&self, cx: &AnalysisContext) -> Verdict {
        let graph = firing_graph_in(cx);
        chase_criteria::stratification::verdict_from_components(
            self.name(),
            self.guarantee(),
            cx.sigma(),
            &graph,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;
    use chase_core::DepId;
    use chase_criteria::criterion::Witness;
    use chase_criteria::stratification::Stratification;

    fn is_semi_stratified(sigma: &DependencySet) -> bool {
        SemiStratification.accepts(sigma)
    }

    fn is_stratified(sigma: &DependencySet) -> bool {
        Stratification.accepts(sigma)
    }

    #[test]
    fn verdict_witnesses_match_the_report() {
        let sigma1 = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            "#,
        )
        .unwrap();
        let verdict = SemiStratification.verdict(&sigma1);
        assert!(!verdict.accepted);
        match &verdict.witness {
            Witness::OffendingComponent { component, .. } => {
                assert!(component.contains(&DepId(0)) && component.contains(&DepId(1)));
            }
            other => panic!("expected OffendingComponent, got {other:?}"),
        }

        let sigma11 = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> E(?y, ?x).
            "#,
        )
        .unwrap();
        let verdict = SemiStratification.verdict(&sigma11);
        assert!(verdict.accepted);
        assert!(matches!(verdict.witness, Witness::StratumAssignment { .. }));
    }

    #[test]
    fn example11_is_semi_stratified_but_not_stratified() {
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> E(?y, ?x).
            "#,
        )
        .unwrap();
        assert!(is_semi_stratified(&sigma));
        assert!(!is_stratified(&sigma));
    }

    #[test]
    fn example1_is_not_semi_stratified() {
        // The EGD of Σ1 cannot block a constants-only witness, so the firing graph
        // still contains the cycle r1 <-> r2 and its component is not weakly acyclic.
        // (Σ1 is nevertheless recognised by the adornment algorithm — Example 12.)
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            "#,
        )
        .unwrap();
        let report = semi_stratification_report(&sigma);
        assert!(!report.is_semi_stratified());
        let offending = report.offending_component.unwrap();
        assert!(offending.contains(&0) && offending.contains(&1));
    }

    #[test]
    fn stratified_implies_semi_stratified() {
        // Theorem 5.1: Str ⊆ S-Str.
        let inputs = [
            "r1: P(?x, ?y) -> exists ?z: E(?x, ?z). r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).",
            "a: A(?x) -> B(?x). b: B(?x) -> C(?x).",
            "r: E(?x, ?y) -> exists ?z: E(?x, ?z).",
            "s1: S(?x) -> exists ?y: E(?x, ?y). s2: E(?x, ?y), S(?y) -> S2(?y).",
            "k1: R(?x, ?y), R(?x, ?z) -> ?y = ?z.",
            "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> E(?y, ?x).",
        ];
        for src in inputs {
            let sigma = parse_dependencies(src).unwrap();
            if is_stratified(&sigma) {
                assert!(is_semi_stratified(&sigma), "Str ⊆ S-Str violated on {src}");
            }
        }
    }

    #[test]
    fn weakly_acyclic_components_are_tolerated() {
        // A genuine firing-graph cycle whose dependencies are weakly acyclic (full
        // TGDs): transitive closure plus symmetry.
        let sigma = parse_dependencies(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            s: E(?x, ?y) -> E(?y, ?x).
            "#,
        )
        .unwrap();
        let report = semi_stratification_report(&sigma);
        assert!(report.is_semi_stratified());
        // The component containing t and s is cyclic in Gf but weakly acyclic.
        assert!(report
            .components
            .iter()
            .any(|c| c.len() == 2 || report.firing_graph.has_edge(c[0], c[0])));
    }

    #[test]
    fn self_feeding_existential_rule_is_rejected() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?y, ?z).").unwrap();
        assert!(!is_semi_stratified(&sigma));
    }

    #[test]
    fn report_exposes_the_firing_graph() {
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> E(?y, ?x).
            "#,
        )
        .unwrap();
        let report = semi_stratification_report(&sigma);
        assert!(report.firing_graph.has_edge(0, 1));
        assert!(!report.firing_graph.has_edge(1, 0));
        assert_eq!(report.firing_graph.node_count(), 3);
    }
}
