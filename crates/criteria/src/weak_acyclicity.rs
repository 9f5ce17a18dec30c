//! Weak acyclicity (Fagin, Kolaitis, Miller, Popa 2005).
//!
//! The *dependency graph* (also called position graph) of a set of TGDs has one node
//! per position `R[i]`. For every TGD `r` and every universally quantified variable `x`
//! occurring in the head of `r`, and every position `p` where `x` occurs in the body:
//!
//! * a **normal** edge `p → q` for every position `q` where `x` occurs in the head;
//! * a **special** edge `p → q'` for every position `q'` where an existentially
//!   quantified variable occurs in the head.
//!
//! `Σ` is weakly acyclic iff the graph has no cycle through a special edge. EGDs are
//! ignored by the analysis (exactly as in the original definition — this is the
//! weakness the paper sets out to address).

use crate::criterion::{Guarantee, TerminationCriterion, Verdict, Witness};
use crate::graph::DiGraph;
use chase_core::{DependencySet, Position, Term};
use std::collections::BTreeMap;

/// Builds the weak-acyclicity dependency graph of the TGDs of `sigma`, together with
/// the mapping from graph node ids to positions.
pub fn dependency_graph(sigma: &DependencySet) -> (DiGraph, Vec<Position>) {
    let mut positions: Vec<Position> = Vec::new();
    let mut id_of: BTreeMap<Position, usize> = BTreeMap::new();
    let mut graph = DiGraph::new();
    let mut intern = |p: Position, positions: &mut Vec<Position>| -> usize {
        *id_of.entry(p).or_insert_with(|| {
            positions.push(p);
            positions.len() - 1
        })
    };

    for (_, dep) in sigma.iter() {
        let tgd = match dep.as_tgd() {
            Some(t) => t,
            None => continue, // EGDs are ignored by weak acyclicity.
        };
        let existential: Vec<_> = tgd.existential_variables();
        for x in tgd.frontier_variables() {
            let body_positions = tgd.body_positions_of(x);
            let head_positions = tgd.head_positions_of(x);
            for &p in &body_positions {
                let pid = intern(p, &mut positions);
                graph.add_node(pid);
                for &q in &head_positions {
                    let qid = intern(q, &mut positions);
                    graph.add_edge(pid, qid, false);
                }
                for &z in &existential {
                    for q in tgd.head_positions_of(z) {
                        let qid = intern(q, &mut positions);
                        graph.add_edge(pid, qid, true);
                    }
                }
            }
        }
        // Positions mentioned only through constants or non-propagating variables are
        // still registered as nodes so the graph mirrors the schema.
        for atom in tgd.body.iter().chain(tgd.head.iter()) {
            for (i, t) in atom.terms.iter().enumerate() {
                if matches!(t, Term::Var(_) | Term::Const(_)) {
                    let pid = intern(Position::new(atom.predicate, i), &mut positions);
                    graph.add_node(pid);
                }
            }
        }
    }
    (graph, positions)
}

/// Weak acyclicity as a witness-producing [`TerminationCriterion`] (`WA`).
///
/// Rejections carry the special-edge position cycle; acceptances the shape of the
/// (acyclic) dependency graph.
#[derive(Clone, Copy, Debug, Default)]
pub struct WeakAcyclicity;

impl TerminationCriterion for WeakAcyclicity {
    fn name(&self) -> &'static str {
        "WA"
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::AllSequences
    }

    fn cost(&self) -> u32 {
        10
    }

    fn verdict(&self, sigma: &DependencySet) -> Verdict {
        let (graph, positions) = dependency_graph(sigma);
        verdict_from_position_graph(self.name(), self.guarantee(), &graph, &positions)
    }
}

/// Shared WA/SC verdict construction from a position graph: reject with the explicit
/// special-edge cycle, accept with the graph shape.
pub(crate) fn verdict_from_position_graph(
    name: &'static str,
    guarantee: Guarantee,
    graph: &DiGraph,
    positions: &[Position],
) -> Verdict {
    match graph.find_cycle_through_marked_edge() {
        Some(cycle) => Verdict::reject(
            name,
            guarantee,
            Witness::PositionCycle {
                positions: cycle.into_iter().map(|n| positions[n]).collect(),
            },
        ),
        None => Verdict::accept(
            name,
            guarantee,
            Witness::AcyclicPositionGraph {
                positions: positions.len(),
                edges: graph.edge_count(),
                special_edges: graph.marked_edge_count(),
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;

    #[test]
    fn rejection_witness_is_a_special_cycle() {
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            "#,
        )
        .unwrap();
        let verdict = WeakAcyclicity.verdict(&sigma);
        assert!(!verdict.accepted);
        match &verdict.witness {
            Witness::PositionCycle { positions } => {
                assert!(positions.len() >= 2);
                assert_eq!(positions.first(), positions.last());
                // The cycle starts with the special edge N[1] → E[2].
                assert_eq!(positions[0].predicate.name.as_str(), "N");
            }
            other => panic!("expected PositionCycle, got {other:?}"),
        }
    }

    #[test]
    fn acceptance_witness_describes_the_graph() {
        let sigma = parse_dependencies("r: A(?x) -> exists ?y: B(?x, ?y).").unwrap();
        let verdict = WeakAcyclicity.verdict(&sigma);
        assert!(verdict.accepted);
        match verdict.witness {
            Witness::AcyclicPositionGraph {
                positions,
                special_edges,
                ..
            } => {
                assert_eq!(positions, 3); // A[1], B[1], B[2]
                assert_eq!(special_edges, 1);
            }
            other => panic!("expected AcyclicPositionGraph, got {other:?}"),
        }
    }

    #[test]
    fn example1_is_not_weakly_acyclic() {
        // N[1] --*--> E[2] --> N[1] is a cycle through a special edge.
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            "#,
        )
        .unwrap();
        assert!(!WeakAcyclicity.accepts(&sigma));
    }

    #[test]
    fn example3_is_weakly_acyclic() {
        let sigma = parse_dependencies(
            r#"
            r1: P(?x, ?y) -> exists ?z: E(?x, ?z).
            r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).
            "#,
        )
        .unwrap();
        assert!(WeakAcyclicity.accepts(&sigma));
    }

    #[test]
    fn full_tgds_are_always_weakly_acyclic() {
        let sigma = parse_dependencies(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            s: E(?x, ?y) -> E(?y, ?x).
            "#,
        )
        .unwrap();
        assert!(WeakAcyclicity.accepts(&sigma));
    }

    #[test]
    fn self_feeding_existential_is_rejected() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?y, ?z).").unwrap();
        assert!(!WeakAcyclicity.accepts(&sigma));
    }

    #[test]
    fn example6_single_rule_is_not_weakly_acyclic() {
        // E(x,y) -> ∃z E(x,z): E[1] -> E[1] normal and E[1] --*--> E[2]; the special
        // edge E[1] -> E[2] lies on no cycle, and E[2] has no outgoing edge, so the set
        // is weakly acyclic.
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?x, ?z).").unwrap();
        assert!(WeakAcyclicity.accepts(&sigma));
    }

    #[test]
    fn egds_are_ignored() {
        let with_egd = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r4: E(?x, ?y) -> ?x = ?y.
            "#,
        )
        .unwrap();
        let without_egd = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            "#,
        )
        .unwrap();
        assert_eq!(
            WeakAcyclicity.accepts(&with_egd),
            WeakAcyclicity.accepts(&without_egd)
        );
    }

    #[test]
    fn dependency_graph_shape_for_example1() {
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            "#,
        )
        .unwrap();
        let (graph, positions) = dependency_graph(&sigma);
        // Positions: N[1], E[1], E[2].
        assert_eq!(positions.len(), 3);
        // Normal edges: N[1]->E[1] (x), E[2]->N[1] (y). Special: N[1]->E[2].
        assert_eq!(graph.edge_count(), 3);
        let pos_id = |name: &str, idx: usize| {
            positions
                .iter()
                .position(|p| p.predicate.name.as_str() == name && p.index == idx)
                .unwrap()
        };
        assert!(graph.has_marked_edge(pos_id("N", 0), pos_id("E", 1)));
        assert!(graph.has_edge(pos_id("N", 0), pos_id("E", 0)));
        assert!(graph.has_edge(pos_id("E", 1), pos_id("N", 0)));
    }

    #[test]
    fn empty_set_is_weakly_acyclic() {
        let sigma = DependencySet::new();
        assert!(WeakAcyclicity.accepts(&sigma));
    }
}
