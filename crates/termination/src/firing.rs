//! The firing relation `r1 < r2` and the firing graph `Gf(Σ)` of Definition 2.
//!
//! The relation refines the chase-graph relation `≺` of stratification with one extra
//! condition: when the *target* dependency `r2` is existentially quantified, the edge
//! only exists if the witnessing situation cannot be defused by first enforcing a full
//! dependency — formally, there must be **no** `r3 ∈ Σ∀` with a standard chase step
//! `K --r3,h3,γ3--> J'` such that `J' ⊨ h2(r2)`.
//!
//! This is what allows semi-stratification to recognise sets such as Σ11 of Example 11,
//! where the re-firing of the existential rule can always be blocked by a full TGD.
//!
//! The witnesses of `≺` come from [`for_each_firing_witness`], each a view of its
//! candidate's facts. The blocking condition is
//! [`FiringWitness::is_blocked_by`](chase_criteria::firing::FiringWitness::is_blocked_by),
//! which simulates each blocker's standard step on those facts. As for `K ⊨ h2(r2)`,
//! `J' ⊨ h2(r2)` holds vacuously when `h2` does not map `Body(r2)` into `J'`.

use chase_core::{Dependency, DependencySet};
use chase_criteria::firing::{for_each_firing_witness, FiringConfig};
use chase_criteria::graph::DiGraph;
use chase_criteria::stratification::chase_graphs_in;
use chase_criteria::AnalysisContext;
use std::borrow::Borrow;
use std::ops::ControlFlow;
use std::rc::Rc;

/// Returns `true` iff `r1 < r2` (Definition 2), evaluated over the bounded witness
/// space of [`chase_criteria::firing`]. `sigma` provides the set `Σ∀` used by the
/// blocking condition.
pub fn definition2_edge(
    sigma: &DependencySet,
    r1: &Dependency,
    r2: &Dependency,
    config: &FiringConfig,
) -> bool {
    definition2_edge_among(&full_dependencies(sigma), r1, r2, config)
}

/// `Σ∀`: the full dependencies of `sigma`, the blockers of Definition 2.
pub(crate) fn full_dependencies(sigma: &DependencySet) -> Vec<&Dependency> {
    sigma
        .iter()
        .filter(|(_, d)| d.is_full())
        .map(|(_, d)| d)
        .collect()
}

/// [`definition2_edge`] with `Σ∀` given, for callers testing many pairs of one set.
pub(crate) fn definition2_edge_among<D: Borrow<Dependency>>(
    full_deps: &[D],
    r1: &Dependency,
    r2: &Dependency,
    config: &FiringConfig,
) -> bool {
    let existential = r2.is_existential();
    let answer = for_each_firing_witness(r1, r2, config, &mut |w| {
        if !existential || !w.is_blocked_by(full_deps, r2) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    answer.may_fire()
}

/// Builds the firing graph `Gf(Σ)` of Definition 2: nodes are dependency indices, with
/// an edge `(r1, r2)` iff `r1 < r2`.
pub fn firing_graph(sigma: &DependencySet) -> DiGraph {
    firing_graph_with(sigma, &FiringConfig::default())
}

/// [`firing_graph`] with an explicit firing-test configuration.
pub fn firing_graph_with(sigma: &DependencySet, config: &FiringConfig) -> DiGraph {
    let graph = firing_graph_in(&AnalysisContext::new(sigma), config);
    Rc::unwrap_or_clone(graph)
}

/// The firing graph of the context's set, built once per configuration and shared by
/// semi-stratification and the exact fireability test of the adornment.
///
/// It is filtered from the context's standard chase graph, which Str builds first in
/// an analysis. `r1 < r2` accepts a subset of the witnesses of `r1 ≺ r2`, so every
/// edge of `Gf(Σ)` is a chase-graph edge. When `r2` is full, Definition 2 accepts the
/// first witness, as the chase graph does, so the two edges coincide. Only the edges
/// into existential dependencies run the blocking enumeration.
pub(crate) fn firing_graph_in(cx: &AnalysisContext, config: &FiringConfig) -> Rc<DiGraph> {
    cx.shared(("Definition 2", *config), || {
        let sigma = cx.sigma();
        let deps = sigma.as_slice();
        let graphs = chase_graphs_in(cx, config.max_variables);
        let full_deps = full_dependencies(sigma);
        let mut g = DiGraph::new();
        for id in sigma.ids() {
            g.add_node(id.0);
        }
        for (i, j, _) in graphs.standard.edges() {
            let (r1, r2) = (&deps[i], &deps[j]);
            if r2.is_full() || definition2_edge_among(&full_deps, r1, r2, config) {
                g.add_edge(i, j, false);
            }
        }
        g
    })
}

/// Returns `true` iff `r1` is *fireable* with respect to `sigma`: some dependency of
/// `sigma` fires it (Definition 2).
pub fn is_fireable(sigma: &DependencySet, r1: &Dependency, config: &FiringConfig) -> bool {
    let full_deps = full_dependencies(sigma);
    sigma
        .iter()
        .any(|(_, r2)| definition2_edge_among(&full_deps, r2, r1, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;
    use chase_core::DepId;
    use chase_criteria::firing::chase_graph_edge;

    fn cfg() -> FiringConfig {
        FiringConfig::default()
    }

    fn sigma11() -> DependencySet {
        parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> E(?y, ?x).
            "#,
        )
        .unwrap()
    }

    #[test]
    fn example11_edge_r2_r1_is_in_chase_graph_but_not_firing_graph() {
        let sigma = sigma11();
        let r1 = sigma.get(DepId(0));
        let r2 = sigma.get(DepId(1));
        // Chase graph (stratification) has the edge r2 ≺ r1 …
        assert!(chase_graph_edge(r2, r1, &cfg()));
        // … but the firing of r1 because of r2 is always blocked by first enforcing r3,
        // so r2 < r1 does not hold (Figure 1 of the paper).
        assert!(!definition2_edge(&sigma, r2, r1, &cfg()));
    }

    #[test]
    fn example11_firing_graph_matches_figure1() {
        // Figure 1 (right): full TGDs r2 and r3 keep their incoming edges; the edge
        // r2 -> r1 is dropped.
        let sigma = sigma11();
        let g = firing_graph(&sigma);
        assert!(g.has_edge(0, 1), "r1 < r2");
        assert!(g.has_edge(0, 2), "r1 < r3");
        assert!(!g.has_edge(1, 0), "r2 < r1 must NOT hold");
        assert!(!g.has_edge(2, 0), "r3 < r1 must NOT hold");
    }

    #[test]
    fn example1_keeps_the_cycle_in_the_firing_graph() {
        // In Σ1 the blocker is an EGD, and a witness with two distinct constants cannot
        // be defused (the EGD step would fail), so r2 < r1 still holds.
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            "#,
        )
        .unwrap();
        let g = firing_graph(&sigma);
        assert!(g.has_edge(1, 0), "r2 < r1 holds for Σ1");
        assert!(g.has_edge(0, 1), "r1 < r2 holds for Σ1");
    }

    #[test]
    fn full_dependencies_have_identical_incoming_edges_in_both_graphs() {
        // For full targets the blocking condition is vacuous, so < and ≺ agree.
        let sigma = sigma11();
        let g = firing_graph(&sigma);
        for (i, r1) in sigma.iter() {
            for (j, r2) in sigma.iter() {
                if r2.is_full() {
                    assert_eq!(
                        g.has_edge(i.0, j.0),
                        chase_graph_edge(r1, r2, &cfg()),
                        "mismatch on ({i:?}, {j:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn fireable_dependencies_of_example11() {
        let sigma = sigma11();
        // r2 and r3 are fireable (r1 fires them); r1 is not fireable.
        assert!(is_fireable(&sigma, sigma.get(DepId(1)), &cfg()));
        assert!(is_fireable(&sigma, sigma.get(DepId(2)), &cfg()));
        assert!(!is_fireable(&sigma, sigma.get(DepId(0)), &cfg()));
    }

    #[test]
    fn firing_graph_is_a_subgraph_of_the_chase_graph() {
        for src in [
            "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> ?x = ?y.",
            "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> E(?y, ?x).",
            "a: A(?x) -> B(?x). b: B(?x) -> C(?x).",
            "r: E(?x, ?y) -> exists ?z: E(?y, ?z).",
        ] {
            let sigma = parse_dependencies(src).unwrap();
            let gf = firing_graph(&sigma);
            let gc = chase_criteria::firing::chase_graph(&sigma, &cfg());
            for (f, t, _) in gf.edges() {
                assert!(gc.has_edge(f, t), "Gf ⊆ G violated on {src}: ({f},{t})");
            }
        }
    }
}
