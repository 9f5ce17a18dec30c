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
//! The witnesses of `≺` come from the enumeration of
//! [`chase_criteria::firing`], each a view of its candidate, run in a
//! [`FiringWorkspace`] that a graph build or an `Adn∃` run reuses. The blocking
//! condition is
//! [`FiringWitness::is_blocked`](chase_criteria::firing::FiringWitness::is_blocked),
//! which simulates the standard step of each blocker given to the enumeration on the
//! candidate's facts, the blockers compiled once per pair. As for `K ⊨ h2(r2)`,
//! `J' ⊨ h2(r2)` holds vacuously when `h2` does not map `Body(r2)` into `J'`.
//!
//! Only the *relevant* blockers of a pair can block (`Blockers`): those whose body
//! predicates all occur in `Body(r1)` or `Body(r2)`, since `K` holds no other facts.
//! The firing graph and `Adn∃` pass only those to the blocking check. They memoise
//! the answers by pair shape (`Definition2Memo`), and the shape of a pair into an
//! existential `r2` includes its relevant blockers: two pairs of one shape, one with
//! a blocker and one without, can differ. [`definition2_edge`] stays the
//! single-pair oracle, with all of `Σ∀` and no memo.

use chase_core::hash::FastMap;
use chase_core::{Dependency, DependencySet, Predicate};
use chase_criteria::firing::{Applicability, FiringWorkspace, PreparedDependency, ShapeMemo};
use chase_criteria::graph::DiGraph;
use chase_criteria::stratification::chase_graphs_in;
use chase_criteria::AnalysisContext;
use std::ops::ControlFlow;
use std::rc::Rc;

/// Returns `true` iff `r1 < r2` (Definition 2), evaluated over the bounded witness
/// space of [`chase_criteria::firing`]. `sigma` provides the set `Σ∀` used by the
/// blocking condition.
pub fn definition2_edge(sigma: &DependencySet, r1: &Dependency, r2: &Dependency) -> bool {
    let (r1, r2) = (PreparedDependency::new(r1), PreparedDependency::new(r2));
    let mut workspace = FiringWorkspace::default();
    definition2_answer(&mut workspace, &r1, &r2, &full_dependencies(sigma))
}

/// `Σ∀`: the full dependencies of `sigma`, the blockers of Definition 2.
fn full_dependencies(sigma: &DependencySet) -> Vec<&Dependency> {
    sigma
        .iter()
        .filter(|(_, d)| d.is_full())
        .map(|(_, d)| d)
        .collect()
}

/// `r1 < r2` by one witness enumeration in `workspace`, with `blockers` as `Σ∀` (all
/// of it, or only the blockers relevant to the pair: the answer is the same).
fn definition2_answer(
    workspace: &mut FiringWorkspace,
    r1: &PreparedDependency<'_>,
    r2: &PreparedDependency<'_>,
    blockers: &[&Dependency],
) -> bool {
    let existential = r2.dependency().is_existential();
    let standard = Applicability::Standard;
    let answer = workspace.for_each_witness(r1, r2, standard, blockers, &mut |w| {
        if !existential || !w.is_blocked() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    answer.may_fire()
}

/// `Σ∀`, the blockers of Definition 2, as indices into a list of dependencies,
/// indexed by their first body predicate.
///
/// A candidate `K` of the pair `(r1, r2)` holds only facts over the predicates of
/// `Body(r1)` and `Body(r2)`. So a blocker whose body reads any other predicate has no
/// match in `K` and blocks nothing. The pair's *relevant* blockers are the others:
/// those whose body predicates all occur in `Body(r1)` or `Body(r2)`. Only they are
/// passed to the blocking check, and only they enter the pair's
/// [`ShapeKey`](chase_criteria::firing::ShapeKey). They
/// are found through the index (a dependency's body is never empty) once per pair,
/// not once per witness.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Blockers {
    /// Per first body predicate, the blockers' indices, ascending.
    by_first_predicate: FastMap<Predicate, Vec<usize>>,
}

impl Blockers {
    pub(crate) fn new() -> Self {
        Blockers::default()
    }

    /// Adds the full dependency at index `k`, whose body starts with `first`.
    pub(crate) fn insert(&mut self, first: Predicate, k: usize) {
        let list = self.by_first_predicate.entry(first).or_default();
        if let Err(at) = list.binary_search(&k) {
            list.insert(at, k);
        }
    }

    /// Takes out the dependency at index `k`, whose body starts with `first`.
    pub(crate) fn remove(&mut self, first: Predicate, k: usize) {
        if let Some(list) = self.by_first_predicate.get_mut(&first) {
            if let Ok(at) = list.binary_search(&k) {
                list.remove(at);
            }
            if list.is_empty() {
                self.by_first_predicate.remove(&first);
            }
        }
    }

    /// The blockers relevant to the pair `(r1, r2)`, the dependency at index `k`
    /// being `dependency(k)`: none when `r2` is full, as Definition 2 blocks nothing
    /// then.
    pub(crate) fn relevant<'d>(
        &self,
        r1: &Dependency,
        r2: &Dependency,
        dependency: impl Fn(usize) -> &'d Dependency,
    ) -> Vec<&'d Dependency> {
        if r2.is_full() {
            return Vec::new();
        }
        let mut read: Vec<Predicate> = Vec::new();
        for atom in r1.body().iter().chain(r2.body()) {
            if !read.contains(&atom.predicate) {
                read.push(atom.predicate);
            }
        }
        let mut out: Vec<&Dependency> = Vec::new();
        for p in &read {
            for &k in self.by_first_predicate.get(p).into_iter().flatten() {
                let blocker = dependency(k);
                if blocker.body().iter().all(|a| read.contains(&a.predicate)) {
                    out.push(blocker);
                }
            }
        }
        out
    }
}

/// Definition 2's answers by pair shape (see [`chase_criteria::firing`]), kept for
/// one firing-graph build or one `Adn∃` run and dropped with it.
#[derive(Default)]
pub(crate) struct Definition2Memo(ShapeMemo<bool>);

impl Definition2Memo {
    /// `r1 < r2` given the pair's `relevant` blockers (see [`Blockers::relevant`]):
    /// one enumeration per shape, the shape including them.
    pub(crate) fn answer(
        &mut self,
        r1: &PreparedDependency<'_>,
        r2: &PreparedDependency<'_>,
        relevant: &[&Dependency],
    ) -> bool {
        self.0
            .get_or_insert_with(r1, r2, Applicability::Standard, relevant, |workspace| {
                definition2_answer(workspace, r1, r2, relevant)
            })
    }
}

/// Builds the firing graph `Gf(Σ)` of Definition 2: nodes are dependency indices, with
/// an edge `(r1, r2)` iff `r1 < r2`.
pub fn firing_graph(sigma: &DependencySet) -> DiGraph {
    // As in `adorn`: the context is dropped with this statement, so the graph is
    // moved out, not cloned.
    let graph = firing_graph_in(&AnalysisContext::new(sigma));
    Rc::unwrap_or_clone(graph)
}

/// The firing graph of the context's set, built once per analysis and shared by
/// semi-stratification and the Ω(AD) cyclicity test of the adornment.
///
/// It is filtered from the context's standard chase graph, which Str builds first in
/// an analysis. `r1 < r2` accepts a subset of the witnesses of `r1 ≺ r2`, so every
/// edge of `Gf(Σ)` is a chase-graph edge. When `r2` is full, or the pair has no
/// relevant blocker, Definition 2 accepts the first witness, as the chase graph does,
/// so the two edges coincide. Only the other edges run the blocking enumeration, once
/// per pair shape.
pub(crate) fn firing_graph_in(cx: &AnalysisContext) -> Rc<DiGraph> {
    cx.shared("Definition 2", || {
        let sigma = cx.sigma();
        let graphs = chase_graphs_in(cx);
        let deps: Vec<PreparedDependency> = sigma
            .as_slice()
            .iter()
            .map(PreparedDependency::new)
            .collect();
        let mut blockers = Blockers::new();
        for (k, dep) in sigma.iter() {
            if dep.is_full() {
                blockers.insert(dep.body()[0].predicate, k.0);
            }
        }
        let mut memo = Definition2Memo::default();
        let mut g = DiGraph::new();
        for id in sigma.ids() {
            g.add_node(id.0);
        }
        for (i, j, _) in graphs.standard.edges() {
            let (r1, r2) = (&deps[i], &deps[j]);
            let relevant =
                blockers.relevant(r1.dependency(), r2.dependency(), |k| &sigma.as_slice()[k]);
            if relevant.is_empty() || memo.answer(r1, r2, &relevant) {
                g.add_edge(i, j, false);
            }
        }
        g
    })
}

/// Returns `true` iff `r1` is *fireable* with respect to `sigma`: some dependency of
/// `sigma` fires it (Definition 2).
pub fn is_fireable(sigma: &DependencySet, r1: &Dependency) -> bool {
    let full_deps = full_dependencies(sigma);
    let target = PreparedDependency::new(r1);
    let mut workspace = FiringWorkspace::default();
    sigma.iter().any(|(_, r2)| {
        definition2_answer(
            &mut workspace,
            &PreparedDependency::new(r2),
            &target,
            &full_deps,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;
    use chase_core::DepId;
    use chase_criteria::firing::{chase_graph_edge, chase_graphs};

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
        assert!(chase_graph_edge(r2, r1, Applicability::Standard));
        // … but the firing of r1 because of r2 is always blocked by first enforcing r3,
        // so r2 < r1 does not hold (Figure 1 of the paper).
        assert!(!definition2_edge(&sigma, r2, r1));
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
                        chase_graph_edge(r1, r2, Applicability::Standard),
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
        assert!(is_fireable(&sigma, sigma.get(DepId(1))));
        assert!(is_fireable(&sigma, sigma.get(DepId(2))));
        assert!(!is_fireable(&sigma, sigma.get(DepId(0))));
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
            let gc = chase_graphs(&sigma).standard;
            for (f, t, _) in gf.edges() {
                assert!(gc.has_edge(f, t), "Gf ⊆ G violated on {src}: ({f},{t})");
            }
        }
    }
}
