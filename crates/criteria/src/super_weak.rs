//! Super-weak acyclicity (Marnette 2009).
//!
//! Super-weak acyclicity refines safety by tracking, for every existential variable `y`
//! of every TGD `r`, the set of positions that nulls invented for `y` can reach
//! (`Move(Σ, Out(r,y), ·)`), with the crucial refinement that a null can only enter a
//! body variable `x` of a rule if it can occupy **all** occurrences of `x` in that body
//! simultaneously (repeated variables block propagation, unlike in weak acyclicity or
//! safety).
//!
//! The set `Σ` is super-weakly acyclic iff the *trigger* relation between existential
//! rules — `r ⊑ r'` iff some null of `r` can reach all body occurrences of some
//! frontier variable of `r'` — is acyclic.
//!
//! The criterion is defined for TGDs only; EGDs are handled through the
//! substitution-free simulation (`Σ` is accepted iff its simulation is), exactly as the
//! paper assumes in Sections 3–4.
//!
//! Each marker's reach is one counter propagation over the [`PositionTable`] of the
//! analysed set (see [`crate::positions`]), started from the marker's head
//! positions; the clauses it brings to 0 are the frontier variables whose body
//! occurrences its nulls all reach, so their existential rules are its trigger
//! targets. Without EGDs the table is the one WA and SC share. With EGDs SwA
//! analyses the simulation, which it builds for the analysis and MFA reuses
//! ([`simulation_in`]).

use crate::criterion::{AnalysisContext, Guarantee, TerminationCriterion, Verdict, Witness};
use crate::graph::DiGraph;
use crate::positions::{position_table_in, PositionTable, Propagation, Rule};
use crate::simulation::{has_egds, simulation_in};
use chase_core::{DepId, DependencySet};

/// Builds the trigger graph over existential TGDs: an edge `r → r'` iff some null
/// marker of `r` reaches all body occurrences of some frontier variable of `r'`.
pub fn trigger_graph(sigma: &DependencySet) -> DiGraph {
    trigger_graph_of(&PositionTable::compile(sigma))
}

/// The trigger graph of the table's TGDs, over their indices in the set: one
/// propagation per null marker, and an edge to every existential rule with a
/// clause at 0.
fn trigger_graph_of(table: &PositionTable) -> DiGraph {
    let mut graph = DiGraph::new();
    let existential: Vec<&Rule> = table
        .rules()
        .iter()
        .filter(|rule| rule.is_existential())
        .collect();
    for rule in &existential {
        graph.add_node(rule.dep);
    }
    let mut reach = Propagation::new(table);
    for rule in &existential {
        for m in rule.markers.clone() {
            reach.run(table.marker(m));
            for target in &existential {
                if target.clauses.clone().any(|c| reach.has_fired(c)) {
                    graph.add_edge(rule.dep, target.dep, false);
                }
            }
        }
    }
    graph
}

/// Super-weak acyclicity as a witness-producing [`TerminationCriterion`] (`SwA`).
///
/// Rejections carry the cycle of the trigger graph; acceptances its (acyclic) shape.
/// For EGD-bearing sets the analysis — and hence the rule ids in the witness — refers
/// to the substitution-free simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuperWeakAcyclicity;

impl TerminationCriterion for SuperWeakAcyclicity {
    fn name(&self) -> &'static str {
        "SwA"
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::AllSequences
    }

    fn cost(&self) -> u32 {
        30
    }

    fn verdict_in(&self, cx: &AnalysisContext) -> Verdict {
        // Only SwA reads the simulation's positions; MFA shares the simulation.
        let graph = if has_egds(cx.sigma()) {
            trigger_graph_of(&PositionTable::compile(&simulation_in(cx)))
        } else {
            trigger_graph_of(&position_table_in(cx))
        };
        match graph.find_cycle() {
            Some(cycle) => Verdict::reject(
                self.name(),
                self.guarantee(),
                Witness::TriggerCycle {
                    rules: cycle.into_iter().map(DepId).collect(),
                },
            ),
            None => Verdict::accept(
                self.name(),
                self.guarantee(),
                Witness::AcyclicTriggerGraph {
                    existential_rules: graph.node_count(),
                    edges: graph.edge_count(),
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::Safety;
    use crate::weak_acyclicity::WeakAcyclicity;
    use chase_core::parser::parse_dependencies;

    #[test]
    fn rejection_witness_is_a_trigger_cycle() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?y, ?z).").unwrap();
        let verdict = SuperWeakAcyclicity.verdict(&sigma);
        assert!(!verdict.accepted);
        match &verdict.witness {
            Witness::TriggerCycle { rules } => {
                assert_eq!(rules.first(), rules.last());
                assert!(rules.contains(&DepId(0)));
            }
            other => panic!("expected TriggerCycle, got {other:?}"),
        }
    }

    #[test]
    fn example1_tgds_are_not_super_weakly_acyclic() {
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            "#,
        )
        .unwrap();
        assert!(!SuperWeakAcyclicity.accepts(&sigma));
    }

    #[test]
    fn repeated_body_variable_blocks_propagation() {
        // Marnette's motivating pattern: the null from r1 can reach E[2] but never both
        // occurrences of x in E(x, x), so r1 never re-fires itself. Weak acyclicity, by
        // contrast, sees the position cycle S[1] -*-> E[2] -> S[1] and rejects.
        let sigma = parse_dependencies(
            r#"
            r1: S(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?x) -> S(?x).
            "#,
        )
        .unwrap();
        assert!(SuperWeakAcyclicity.accepts(&sigma));
        assert!(!WeakAcyclicity.accepts(&sigma));
        // Safety already accepts here (E[1] is never affected); SwA agrees.
        assert!(Safety.accepts(&sigma));
    }

    #[test]
    fn safety_implies_super_weak_acyclicity() {
        let inputs = [
            "r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> C(?y).",
            "r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> A(?y).",
            "r: E(?x, ?y) -> exists ?z: E(?x, ?z).",
            "r: E(?x, ?y) -> exists ?z: E(?y, ?z).",
            "r1: P(?x, ?y) -> exists ?z: E(?x, ?z). r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).",
        ];
        for src in inputs {
            let sigma = parse_dependencies(src).unwrap();
            if Safety.accepts(&sigma) {
                assert!(
                    SuperWeakAcyclicity.accepts(&sigma),
                    "SC ⊆ SwA violated on {src}"
                );
            }
        }
    }

    #[test]
    fn self_feeding_rule_is_rejected() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?y, ?z).").unwrap();
        assert!(!SuperWeakAcyclicity.accepts(&sigma));
    }

    #[test]
    fn non_feeding_rule_is_accepted() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?x, ?z).").unwrap();
        // The null lands in E[2]; to re-fire r it would have to reach a frontier
        // variable of r, but the only frontier variable is x whose single body
        // occurrence is E[1], never reached.
        assert!(SuperWeakAcyclicity.accepts(&sigma));
    }

    #[test]
    fn example8_simulation_is_not_super_weakly_acyclic() {
        // Σ8 ∈ CT_∀ but its substitution-free simulation diverges (Theorem 2), and SwA
        // analyses the simulation, so SwA rejects Σ8.
        let sigma = parse_dependencies(
            r#"
            r1: A(?x), B(?x) -> C(?x).
            r2: C(?x) -> exists ?y: A(?x), B(?y).
            r3: C(?x) -> exists ?y: A(?y), B(?x).
            r4: A(?x), A(?y) -> ?x = ?y.
            r5: B(?x), B(?y) -> ?x = ?y.
            "#,
        )
        .unwrap();
        assert!(!SuperWeakAcyclicity.accepts(&sigma));
    }

    #[test]
    fn egd_free_full_sets_are_trivially_accepted() {
        let sigma = parse_dependencies("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).").unwrap();
        assert!(SuperWeakAcyclicity.accepts(&sigma));
    }
}
