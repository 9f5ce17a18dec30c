//! The firing test between dependencies: given `r1, r2 ∈ Σ`, can enforcing `r1` cause
//! `r2` to become violated?
//!
//! This is the relation `r1 ≺ r2` underlying stratification (Deutsch–Nash–Remmel) and,
//! with an extra side condition, the relation `r1 < r2` of the paper's Definition 2
//! (implemented in `chase-termination` on top of the witness enumeration exposed here).
//!
//! Deciding `≺` quantifies over all instances `K`; following the bounded-witness
//! characterisation used by the research prototypes, it suffices to consider candidate
//! instances assembled from the two rule bodies under every identification of their
//! variables. Concretely we enumerate:
//!
//! 1. every partition of `Vars(Body(r1)) ⊎ Vars(Body(r2))` (renaming `r2`'s variables
//!    apart so that self-pairs `r ≺ r` are handled);
//! 2. a small set of constant/null labellings of the blocks (the labelling only
//!    matters for EGD steps and for the blocking condition of Definition 2, see
//!    DESIGN.md §4);
//! 3. every subset `S ⊆ θ(Body(r2))`, taking `K = θ(Body(r1)) ∪ S`.
//!
//! For each candidate we simulate one chase step of `r1` on `K` and report every
//! homomorphism `h2 : Body(r2) → J` with `K ⊨ h2(r2)` and `J ⊭ h2(r2)` to the caller.
//! The `h2` enumeration and the activity checks run through the shared join engine
//! of [`chase_core::homomorphism`] (indexed via a transient per-query index over the
//! small witness instances).
//!
//! Two cheap tests decide before anything is built. A TGD `r1` whose head shares no
//! predicate with `Body(r2)` fires nothing. An EGD step is settled per partition and
//! labelling, before step 3's subsets are built: `h1` is fixed by them, and the step
//! exists iff the EGD's two sides lie in different blocks that are not both labelled
//! constant. The partitions skipped are exactly those on which no subset has a step,
//! so the witnesses reported, and their order, do not change.
//!
//! When the combined variable count exceeds [`FiringConfig::max_variables`] the test
//! falls back to a conservative answer (an edge is assumed), which keeps every
//! criterion built on top of it sound.
//!
//! Both chase graphs come from one enumeration per pair ([`chase_graphs`]). The
//! standard and the oblivious step of `r1` build the same `K`, `h1` and `J`; they
//! differ only in that a standard TGD step needs `h1` not to extend to `r1`'s head in
//! `K`. So the standard witnesses are exactly the oblivious witnesses for which `r1`
//! is an EGD or its head does not extend `h1` into `K`, reported in the same order,
//! and the two searches share the prefilter and the [`FiringAnswer::Unknown`] cap.
//! One oblivious enumeration, run until its first standard witness, therefore
//! decides both edges, and the standard chase graph `G(Σ)` is a subgraph of the
//! oblivious one `Gc(Σ)`, edge by edge.

use crate::graph::DiGraph;
use chase_core::homomorphism::{homomorphisms, Assignment};
use chase_core::satisfaction::satisfies_under;
use chase_core::substitution::NullSubstitution;
use chase_core::{
    Atom, Constant, Dependency, DependencySet, Fact, GroundTerm, Instance, NullValue, Term,
    Variable,
};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Which notion of chase-step applicability the witness search uses for `r1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applicability {
    /// Standard chase: a TGD step requires that `h1` does not extend to the head.
    Standard,
    /// Oblivious chase: a TGD step is applicable regardless of the head (used by
    /// c-stratification).
    Oblivious,
}

/// Configuration of the firing test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FiringConfig {
    /// Applicability notion for the step of `r1`.
    pub applicability: Applicability,
    /// Maximum number of combined body variables before falling back to the
    /// conservative answer.
    pub max_variables: usize,
}

impl Default for FiringConfig {
    fn default() -> Self {
        FiringConfig {
            applicability: Applicability::Standard,
            max_variables: 10,
        }
    }
}

/// A witness that enforcing `r1` can make `r2` violated.
#[derive(Clone, Debug)]
pub struct FiringWitness {
    /// The instance before the step.
    pub k: Instance,
    /// The instance after the step.
    pub j: Instance,
    /// The homomorphism used to fire `r1`.
    pub h1: Assignment,
    /// The homomorphism under which `r2` is satisfied in `K` but violated in `J`.
    pub h2: Assignment,
    /// The substitution of the step (non-empty only for EGD steps).
    pub gamma: NullSubstitution,
}

/// Result of a firing test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FiringAnswer {
    /// A witness was found (or the caller's callback accepted one).
    Fires,
    /// No witness exists within the bounded search space.
    DoesNotFire,
    /// The search space was too large; callers must treat this as "may fire".
    Unknown,
}

impl FiringAnswer {
    /// Conservative boolean interpretation: `Unknown` counts as firing.
    pub fn may_fire(&self) -> bool {
        !matches!(self, FiringAnswer::DoesNotFire)
    }
}

/// Enumerates firing witnesses for the ordered pair `(r1, r2)`, invoking `on_witness`
/// for each; the callback may stop the search by returning `ControlFlow::Break`.
///
/// Returns [`FiringAnswer::Fires`] iff the callback broke out (accepted a witness),
/// [`FiringAnswer::DoesNotFire`] if the enumeration completed without acceptance, and
/// [`FiringAnswer::Unknown`] if the pair was too large to enumerate.
pub fn for_each_firing_witness(
    r1: &Dependency,
    r2: &Dependency,
    config: &FiringConfig,
    on_witness: &mut dyn FnMut(&FiringWitness) -> ControlFlow<()>,
) -> FiringAnswer {
    // Cheap pruning: a TGD can only newly violate r2 through facts it adds, so its head
    // must share a predicate with Body(r2). (EGD steps change facts by merging nulls,
    // so no such pruning applies.)
    if r1.is_tgd() && !shares_predicate(r1.head_atoms(), r2.body()) {
        return FiringAnswer::DoesNotFire;
    }

    // Rename r2's variables apart so that r1 == r2 is handled uniformly.
    let rename = |v: &Variable| Variable::new(&format!("@r2_{}", v.name()));
    let body2_renamed: Vec<Atom> = r2
        .body()
        .iter()
        .map(|a| {
            a.map_terms(|t| match t {
                Term::Var(v) => Term::Var(rename(v)),
                other => *other,
            })
        })
        .collect();

    let vars1: Vec<Variable> = r1.body_variables().into_iter().collect();
    let vars2: Vec<Variable> = body2_renamed
        .iter()
        .flat_map(|a| a.variables())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let all_vars: Vec<Variable> = vars1.iter().chain(vars2.iter()).copied().collect();
    if all_vars.len() > config.max_variables {
        return FiringAnswer::Unknown;
    }

    // The values of the blocks: block i is the null i or the constant `@c{i}`.
    let n = all_vars.len();
    let block_values: Vec<(GroundTerm, GroundTerm)> = (0..n)
        .map(|block| {
            (
                GroundTerm::Null(NullValue(block as u64)),
                GroundTerm::Const(Constant::new(&format!("@c{block}"))),
            )
        })
        .collect();
    // The positions in `all_vars` of the sides of an EGD `r1` (EGD sides are body
    // variables, so both are found).
    let egd_sides = r1.as_egd().and_then(|egd| {
        let side = |v: Variable| all_vars.iter().position(|w| *w == v);
        Some((side(egd.left)?, side(egd.right)?))
    });

    // Enumerate partitions via restricted growth strings.
    let mut rgs = vec![0usize; n];
    loop {
        let block_count = rgs.iter().copied().max().map(|m| m + 1).unwrap_or(0);
        for labelling in block_labellings(r1, block_count) {
            // An EGD step exists iff `h1` maps the two sides to distinct values that
            // are not both constants (see `simulate_step`). `h1` depends only on the
            // partition and the labelling, so this settles every subset of step 3.
            if let Some((left, right)) = egd_sides {
                let (a, b) = (rgs[left], rgs[right]);
                if a == b || !(labelling[a] || labelling[b]) {
                    continue;
                }
            }
            if let ControlFlow::Break(()) = try_partition(
                r1,
                r2,
                &body2_renamed,
                &all_vars,
                &rgs,
                &labelling,
                &block_values,
                config,
                on_witness,
            ) {
                return FiringAnswer::Fires;
            }
        }
        if !next_restricted_growth_string(&mut rgs) {
            break;
        }
    }
    FiringAnswer::DoesNotFire
}

/// Does some atom of `a` share its predicate with some atom of `b`?
pub fn shares_predicate(a: &[Atom], b: &[Atom]) -> bool {
    a.iter()
        .any(|x| b.iter().any(|y| x.predicate == y.predicate))
}

/// Returns `true` iff `r1 ≺ r2` may hold (conservatively), i.e. the chase-graph edge of
/// stratification.
pub fn chase_graph_edge(r1: &Dependency, r2: &Dependency, config: &FiringConfig) -> bool {
    for_each_firing_witness(r1, r2, config, &mut |_| ControlFlow::Break(())).may_fire()
}

/// Both chase-graph edges of the pair, `(standard, oblivious)`, from one oblivious
/// enumeration (see the module documentation): a witness counts for the standard
/// edge iff `r1` is an EGD or its head does not extend `h1` into `K`.
fn chase_graph_edges(r1: &Dependency, r2: &Dependency, max_variables: usize) -> (bool, bool) {
    let config = FiringConfig {
        applicability: Applicability::Oblivious,
        max_variables,
    };
    let mut oblivious = false;
    let answer = for_each_firing_witness(r1, r2, &config, &mut |w| {
        oblivious = true;
        let standard = match r1 {
            Dependency::Egd(_) => true,
            Dependency::Tgd(tgd) => {
                !chase_core::homomorphism::exists_homomorphism_extending(&tgd.head, &w.k, &w.h1)
            }
        };
        if standard {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    match answer {
        FiringAnswer::DoesNotFire => (false, oblivious),
        FiringAnswer::Fires | FiringAnswer::Unknown => (true, true),
    }
}

/// The chase graphs of stratification and c-stratification: nodes are dependencies,
/// with an edge `(r1, r2)` iff `r1 ≺ r2` (conservatively) under standard and under
/// oblivious applicability respectively.
#[derive(Clone, Debug)]
pub struct ChaseGraphs {
    /// `G(Σ)`, the graph of stratification.
    pub standard: DiGraph,
    /// `Gc(Σ)`, the graph of c-stratification; a supergraph of `standard`.
    pub oblivious: DiGraph,
}

/// Builds both chase graphs with one oblivious witness enumeration per pair (see the
/// module documentation).
pub fn chase_graphs(sigma: &DependencySet, max_variables: usize) -> ChaseGraphs {
    let mut standard = DiGraph::new();
    for id in sigma.ids() {
        standard.add_node(id.0);
    }
    let mut oblivious = standard.clone();
    for (i, r1) in sigma.iter() {
        for (j, r2) in sigma.iter() {
            let (std_edge, obl_edge) = chase_graph_edges(r1, r2, max_variables);
            if std_edge {
                standard.add_edge(i.0, j.0, false);
            }
            if obl_edge {
                oblivious.add_edge(i.0, j.0, false);
            }
        }
    }
    ChaseGraphs {
        standard,
        oblivious,
    }
}

/// The chase graph of `sigma` under `config`'s applicability: the matching
/// projection of [`chase_graphs`].
pub fn chase_graph(sigma: &DependencySet, config: &FiringConfig) -> DiGraph {
    let graphs = chase_graphs(sigma, config.max_variables);
    match config.applicability {
        Applicability::Standard => graphs.standard,
        Applicability::Oblivious => graphs.oblivious,
    }
}

/// The per-block labellings worth trying (see the module documentation): constants and
/// nulls only matter for EGD steps of `r1` and for blocking checks performed by the
/// caller, so a handful of profiles suffices.
fn block_labellings(r1: &Dependency, block_count: usize) -> Vec<Vec<bool>> {
    // `true` = labeled null, `false` = fresh constant.
    let all_nulls = vec![true; block_count];
    let all_consts = vec![false; block_count];
    let mut out = vec![all_nulls, all_consts];
    if r1.is_egd() && block_count >= 2 {
        // Mixed profiles so that the equated pair can be (null, const) in either order.
        let mut first_const = vec![true; block_count];
        first_const[0] = false;
        let mut second_const = vec![true; block_count];
        second_const[1] = false;
        out.push(first_const);
        out.push(second_const);
    }
    out.dedup();
    out
}

#[allow(clippy::too_many_arguments)]
fn try_partition(
    r1: &Dependency,
    r2: &Dependency,
    body2_renamed: &[Atom],
    all_vars: &[Variable],
    rgs: &[usize],
    labelling: &[bool],
    block_values: &[(GroundTerm, GroundTerm)],
    config: &FiringConfig,
    on_witness: &mut dyn FnMut(&FiringWitness) -> ControlFlow<()>,
) -> ControlFlow<()> {
    // Build the assignment: block i -> fresh null i or fresh constant i.
    let mut sigma_map = Assignment::new();
    for (v, &block) in all_vars.iter().zip(rgs.iter()) {
        let (null, constant) = block_values[block];
        sigma_map.bind(*v, if labelling[block] { null } else { constant });
    }

    let facts1: Vec<Fact> = r1
        .body()
        .iter()
        .map(|a| {
            sigma_map
                .apply_atom(a)
                .expect("all body variables are assigned")
        })
        .collect();
    let facts2: Vec<Fact> = body2_renamed
        .iter()
        .map(|a| {
            sigma_map
                .apply_atom(a)
                .expect("all body variables are assigned")
        })
        .collect();

    let h1 = restrict_to(&sigma_map, &r1.body_variables());

    for mask in 0..(1u32 << facts2.len().min(20)) {
        let mut k = Instance::from_facts(facts1.iter().cloned());
        for (idx, f) in facts2.iter().enumerate() {
            if mask & (1 << idx) != 0 {
                k.insert(f.clone());
            }
        }
        // Simulate one chase step of r1 on K under h1.
        let step = simulate_step(&k, r1, &h1, config.applicability);
        let (j, gamma) = match step {
            Some(x) => x,
            None => continue,
        };
        // Look for h2 : Body(r2) → J with K ⊨ h2(r2) and J ⊭ h2(r2).
        for h2 in homomorphisms(r2.body(), &j) {
            if satisfies_under(&k, r2, &h2) && !satisfies_under(&j, r2, &h2) {
                let witness = FiringWitness {
                    k: k.clone(),
                    j: j.clone(),
                    h1: h1.clone(),
                    h2,
                    gamma: gamma.clone(),
                };
                if let ControlFlow::Break(()) = on_witness(&witness) {
                    return ControlFlow::Break(());
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// Simulates a single chase step of `dep` on `k` under `h`, returning the successor and
/// the substitution, or `None` if no step exists (inapplicable or failing).
fn simulate_step(
    k: &Instance,
    dep: &Dependency,
    h: &Assignment,
    applicability: Applicability,
) -> Option<(Instance, NullSubstitution)> {
    match dep {
        Dependency::Tgd(tgd) => {
            if applicability == Applicability::Standard
                && chase_core::homomorphism::exists_homomorphism_extending(&tgd.head, k, h)
            {
                return None;
            }
            let mut j = k.clone();
            let mut extended = h.clone();
            for v in tgd.existential_variables() {
                let n = j.fresh_null();
                extended.bind(v, GroundTerm::Null(n));
            }
            for atom in &tgd.head {
                let fact = extended.apply_atom(atom).expect("head variables bound");
                j.insert(fact);
            }
            Some((j, NullSubstitution::empty()))
        }
        Dependency::Egd(egd) => {
            let a = h.get(egd.left)?;
            let b = h.get(egd.right)?;
            if a == b {
                return None;
            }
            let gamma = match (a, b) {
                (GroundTerm::Const(_), GroundTerm::Const(_)) => return None,
                (GroundTerm::Null(n), other) => NullSubstitution::single(n, other),
                (other, GroundTerm::Null(n)) => NullSubstitution::single(n, other),
            };
            Some((k.apply_substitution(&gamma), gamma))
        }
    }
}

fn restrict_to(assignment: &Assignment, vars: &BTreeSet<Variable>) -> Assignment {
    Assignment::from_pairs(
        assignment
            .iter()
            .filter(|(v, _)| vars.contains(v))
            .collect::<Vec<_>>(),
    )
}

/// Advances a restricted growth string to the next set partition; returns `false` when
/// the enumeration is exhausted.
fn next_restricted_growth_string(rgs: &mut [usize]) -> bool {
    let n = rgs.len();
    if n == 0 {
        return false;
    }
    // Standard successor computation: find the rightmost position that can be
    // incremented (value ≤ max of prefix), increment it, reset the suffix to 0.
    for i in (1..n).rev() {
        let prefix_max = rgs[..i].iter().copied().max().unwrap_or(0);
        if rgs[i] <= prefix_max {
            rgs[i] += 1;
            for slot in rgs.iter_mut().skip(i + 1) {
                *slot = 0;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;
    use chase_core::DepId;

    fn cfg() -> FiringConfig {
        FiringConfig::default()
    }

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
    fn partition_enumeration_counts_bell_numbers() {
        // Bell numbers: 1, 1, 2, 5, 15, 52.
        for (n, bell) in [(0usize, 1usize), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)] {
            let mut rgs = vec![0usize; n];
            let mut count = 1;
            while next_restricted_growth_string(&mut rgs) {
                count += 1;
            }
            if n == 0 {
                // The empty partition is counted once by convention.
                assert_eq!(count, bell);
            } else {
                assert_eq!(count, bell, "Bell({n})");
            }
        }
    }

    #[test]
    fn example1_chase_graph_edges() {
        let sigma = sigma1();
        let r1 = sigma.get(DepId(0));
        let r2 = sigma.get(DepId(1));
        let r3 = sigma.get(DepId(2));
        // r1 adds E(x, η), which can violate r2 and r3.
        assert!(chase_graph_edge(r1, r2, &cfg()));
        assert!(chase_graph_edge(r1, r3, &cfg()));
        // r2 adds N(y), which can make r1 violated.
        assert!(chase_graph_edge(r2, r1, &cfg()));
        // r2 cannot violate r3 (it does not touch E), nor r2 itself.
        assert!(!chase_graph_edge(r2, r3, &cfg()));
        assert!(!chase_graph_edge(r2, r2, &cfg()));
        // r3 merges the two columns of E; this can re-violate r2 … no: merging nulls
        // only collapses facts, every new body match of N-free r2 must use an E fact
        // that existed before up to renaming. The interesting edge is r3 -> r1? r1's
        // body is N(x), untouched by r3. So r3 has no outgoing edges to r1.
        assert!(!chase_graph_edge(r3, r1, &cfg()));
    }

    #[test]
    fn full_tgd_chain_has_expected_edges() {
        let sigma = parse_dependencies(
            r#"
            a: A(?x) -> B(?x).
            b: B(?x) -> C(?x).
            "#,
        )
        .unwrap();
        let a = sigma.get(DepId(0));
        let b = sigma.get(DepId(1));
        assert!(chase_graph_edge(a, b, &cfg()));
        assert!(!chase_graph_edge(b, a, &cfg()));
        assert!(!chase_graph_edge(a, a, &cfg()));
    }

    #[test]
    fn self_edge_for_self_feeding_existential_rule() {
        // r: E(x,y) -> ∃z E(y,z): firing it creates a new E fact whose second column is
        // a fresh null, which yields a new active trigger of r itself.
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?y, ?z).").unwrap();
        let r = sigma.get(DepId(0));
        assert!(chase_graph_edge(r, r, &cfg()));
    }

    #[test]
    fn example6_rule_has_no_standard_self_edge() {
        // r: E(x,y) -> ∃z E(x,z): the new fact E(x, η) never enables a *new standard*
        // trigger (the head is already satisfied for x), so there is no edge r ≺ r.
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?x, ?z).").unwrap();
        let r = sigma.get(DepId(0));
        assert!(!chase_graph_edge(r, r, &cfg()));
        // Under oblivious applicability the edge is also absent for the *violation*
        // notion used here (the head being satisfied means r2 is never violated), which
        // matches c-stratification treating this set as terminating.
        let obl = FiringConfig {
            applicability: Applicability::Oblivious,
            ..cfg()
        };
        assert!(!chase_graph_edge(r, r, &obl));
    }

    #[test]
    fn egd_can_fire_a_tgd_by_merging_nulls() {
        // merging the two arguments of P can create a match of the body P(x, x).
        let sigma = parse_dependencies(
            r#"
            e: P(?x, ?y) -> ?x = ?y.
            t: P(?x, ?x) -> exists ?z: Q(?x, ?z).
            "#,
        )
        .unwrap();
        let e = sigma.get(DepId(0));
        let t = sigma.get(DepId(1));
        assert!(chase_graph_edge(e, t, &cfg()));
        assert!(!chase_graph_edge(t, e, &cfg()));
    }

    #[test]
    fn unknown_answer_for_oversized_pairs() {
        // 12 distinct variables exceed the default bound of 10.
        let sigma = parse_dependencies(
            r#"
            big1: R(?a, ?b, ?c, ?d, ?e, ?f) -> S(?a).
            big2: S(?x), T(?p, ?q, ?r, ?s, ?t) -> U(?x).
            "#,
        )
        .unwrap();
        let b1 = sigma.get(DepId(0));
        let b2 = sigma.get(DepId(1));
        let ans = for_each_firing_witness(b1, b2, &cfg(), &mut |_| ControlFlow::Break(()));
        assert_eq!(ans, FiringAnswer::Unknown);
        assert!(ans.may_fire());
    }

    #[test]
    fn chase_graph_of_example1_has_five_edges() {
        let sigma = sigma1();
        let g = chase_graph(&sigma, &cfg());
        // Edges: r1->r2, r1->r3, r2->r1, r3->r2, r3->r3.
        //  * r3->r2 arises from K = {E(η1, η2)}: enforcing r3 produces J = {E(η2, η2)},
        //    and the homomorphism x, y ↦ η2 maps Body(r2) into J but not into K, with
        //    N(η2) ∉ J.
        //  * r3->r3 arises from K = {E(η1, η2), E(η3, η1)}: merging η1 into η2 yields
        //    E(η3, η2), a fresh violation of r3 that did not exist in K.
        assert_eq!(g.edge_count(), 5);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 1));
        assert!(g.has_edge(2, 2));
    }

    #[test]
    fn an_egd_target_can_have_an_oblivious_edge_but_no_standard_one() {
        // K = {A(a), B(a, b)} already satisfies r1's head, so only the oblivious step
        // adds B(a, η), which violates the key r2 together with B(a, b).
        let sigma = parse_dependencies(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y), B(?x, ?z) -> ?y = ?z.
            "#,
        )
        .unwrap();
        let (r1, r2) = (sigma.get(DepId(0)), sigma.get(DepId(1)));
        let obl = FiringConfig {
            applicability: Applicability::Oblivious,
            ..cfg()
        };
        assert!(!chase_graph_edge(r1, r2, &cfg()));
        assert!(chase_graph_edge(r1, r2, &obl));
        assert_eq!(
            chase_graph_edges(r1, r2, cfg().max_variables),
            (false, true)
        );
        let graphs = chase_graphs(&sigma, cfg().max_variables);
        assert!(!graphs.standard.has_edge(0, 1));
        assert!(graphs.oblivious.has_edge(0, 1));
    }

    #[test]
    fn witness_contains_consistent_instances() {
        let sigma = sigma1();
        let r1 = sigma.get(DepId(0));
        let r2 = sigma.get(DepId(1));
        let mut seen = 0;
        for_each_firing_witness(r1, r2, &cfg(), &mut |w| {
            seen += 1;
            assert!(w.k.len() <= w.j.len());
            assert!(satisfies_under(&w.k, r2, &w.h2));
            assert!(!satisfies_under(&w.j, r2, &w.h2));
            ControlFlow::Continue(())
        });
        assert!(seen > 0);
    }
}
