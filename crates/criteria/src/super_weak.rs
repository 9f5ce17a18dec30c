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

use crate::criterion::{Guarantee, TerminationCriterion, Verdict, Witness};
use crate::graph::DiGraph;
use crate::simulation::{has_egds, substitution_free_simulation};
use chase_core::{DepId, DependencySet, Position, Variable};
use std::collections::BTreeSet;

/// A marker identifying the nulls invented for one existential variable of one TGD.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct NullMarker {
    /// Index of the TGD in the dependency set.
    pub dep: usize,
    /// Index of the existential variable within that TGD (in declaration order).
    pub var: usize,
}

/// Computes the positions reachable by nulls of the given marker: the least set of
/// positions containing the head positions of the existential variable and closed under
/// rule application with the all-occurrences condition on body variables.
pub fn reachable_positions(
    sigma: &DependencySet,
    dep_idx: usize,
    exist_var: Variable,
) -> BTreeSet<Position> {
    let mut reach: BTreeSet<Position> = BTreeSet::new();
    if let Some(tgd) = sigma.as_slice()[dep_idx].as_tgd() {
        for p in tgd.head_positions_of(exist_var) {
            reach.insert(p);
        }
    }
    loop {
        let mut changed = false;
        for (_, dep) in sigma.iter() {
            let tgd = match dep.as_tgd() {
                Some(t) => t,
                None => continue,
            };
            for x in tgd.frontier_variables() {
                let body_pos = tgd.body_positions_of(x);
                // The null can be matched against x only if it can appear in every
                // occurrence of x in the body (Marnette's repeated-variable refinement).
                if body_pos.is_empty() || !body_pos.iter().all(|p| reach.contains(p)) {
                    continue;
                }
                for q in tgd.head_positions_of(x) {
                    if reach.insert(q) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return reach;
        }
    }
}

/// Builds the trigger graph over existential TGDs: an edge `r → r'` iff some null
/// marker of `r` reaches all body occurrences of some frontier variable of `r'`.
pub fn trigger_graph(sigma: &DependencySet) -> DiGraph {
    let mut graph = DiGraph::new();
    let existential: Vec<usize> = sigma
        .iter()
        .filter(|(_, d)| d.is_existential())
        .map(|(i, _)| i.0)
        .collect();
    for &i in &existential {
        graph.add_node(i);
    }
    for &i in &existential {
        let tgd = sigma.as_slice()[i].as_tgd().expect("existential TGD");
        for y in tgd.existential_variables() {
            let reach = reachable_positions(sigma, i, y);
            for &j in &existential {
                let target = sigma.as_slice()[j].as_tgd().expect("existential TGD");
                let fires = target.frontier_variables().into_iter().any(|x| {
                    let body_pos = target.body_positions_of(x);
                    !body_pos.is_empty() && body_pos.iter().all(|p| reach.contains(p))
                });
                if fires {
                    graph.add_edge(i, j, false);
                }
            }
        }
    }
    graph
}

/// Returns `true` iff the TGD-only set `sigma` is super-weakly acyclic (no cycle in the
/// trigger graph). Panics in debug builds if EGDs are present — use
/// [`SuperWeakAcyclicity`] for general sets.
pub fn is_super_weakly_acyclic_tgds(sigma: &DependencySet) -> bool {
    debug_assert!(
        sigma.egd_ids().is_empty(),
        "is_super_weakly_acyclic_tgds expects a TGD-only set"
    );
    !trigger_graph(sigma).has_cycle()
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

    fn verdict(&self, sigma: &DependencySet) -> Verdict {
        let simulated;
        let analysed: &DependencySet = if has_egds(sigma) {
            simulated = substitution_free_simulation(sigma);
            &simulated
        } else {
            sigma
        };
        let graph = trigger_graph(analysed);
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
    fn reachable_positions_for_simple_chain() {
        let sigma = parse_dependencies(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y) -> C(?y).
            "#,
        )
        .unwrap();
        let y = Variable::new("y");
        let reach = reachable_positions(&sigma, 0, y);
        // B[2] (creation) and C[1] (via r2's frontier y).
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn egd_free_full_sets_are_trivially_accepted() {
        let sigma = parse_dependencies("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).").unwrap();
        assert!(SuperWeakAcyclicity.accepts(&sigma));
    }
}
