//! Homomorphisms from conjunctions of atoms into instances — the workspace's single
//! join engine.
//!
//! A homomorphism `h : Dom(A1) → Dom(A2)` maps variables to ground terms (and is the
//! identity on constants), such that every atom of `A1` is sent to a fact of `A2`
//! (Section 2 of the paper). Every chase variant and every termination criterion
//! bottlenecks on this one primitive — trigger discovery, TGD-activity checks, EGD
//! satisfaction, core computation, MFA saturation — so this module owns the one
//! backtracking join everybody shares:
//!
//! * a [`JoinPlan`] orders the body atoms most-selective-first (see its docs for the
//!   exact heuristic);
//! * per-atom candidate enumeration goes through a per-(predicate, position) index —
//!   either the incrementally maintained one of an
//!   [`IndexedInstance`]
//!   ([`HomomorphismSearch::over_index`]) or a transient per-query index built over a
//!   plain [`Instance`] ([`HomomorphismSearch::new`]);
//! * the early-exit callback interface lets callers stop at the first witness.
//!
//! A deliberately index-free, plan-free reference implementation is retained as
//! [`naive_homomorphisms_extending`] for differential testing of the engine.

use crate::atom::{Atom, Fact, Predicate};
use crate::fact_store::{FactId, FactStore};
use crate::index::IndexedInstance;
use crate::instance::Instance;
use crate::term::{GroundTerm, Term, Variable};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::ops::ControlFlow;

/// A (partial) assignment of variables to ground terms — the variable part of a
/// homomorphism. Constants are always mapped to themselves.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    map: HashMap<Variable, GroundTerm>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Assignment::default()
    }

    /// Creates an assignment from pairs.
    pub fn from_pairs<I: IntoIterator<Item = (Variable, GroundTerm)>>(pairs: I) -> Self {
        Assignment {
            map: pairs.into_iter().collect(),
        }
    }

    /// Looks up a variable.
    pub fn get(&self, v: Variable) -> Option<GroundTerm> {
        self.map.get(&v).copied()
    }

    /// Binds a variable (overwrites any previous binding).
    pub fn bind(&mut self, v: Variable, t: GroundTerm) {
        self.map.insert(v, t);
    }

    /// Replaces every bound term `t` by `f(t)`, in place.
    pub fn rewrite_terms(&mut self, mut f: impl FnMut(GroundTerm) -> GroundTerm) {
        for t in self.map.values_mut() {
            *t = f(*t);
        }
    }

    /// Removes a binding (used by backtracking searches).
    pub fn unbind(&mut self, v: Variable) {
        self.map.remove(&v);
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` iff no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over the bindings in an arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (Variable, GroundTerm)> + '_ {
        self.map.iter().map(|(v, t)| (*v, *t))
    }

    /// Applies the assignment to a term: bound variables are replaced by their image,
    /// ground terms are returned unchanged, unbound variables yield `None`.
    pub fn apply_term(&self, t: &Term) -> Option<GroundTerm> {
        match t {
            Term::Const(c) => Some(GroundTerm::Const(*c)),
            Term::Null(n) => Some(GroundTerm::Null(*n)),
            Term::Var(v) => self.get(*v),
        }
    }

    /// Applies the assignment to an atom, producing a fact if all variables are bound.
    pub fn apply_atom(&self, atom: &Atom) -> Option<crate::atom::Fact> {
        let mut terms = Vec::with_capacity(atom.terms.len());
        for t in &atom.terms {
            terms.push(self.apply_term(t)?);
        }
        Some(crate::atom::Fact {
            predicate: atom.predicate,
            terms,
        })
    }

    /// Applies the assignment to an atom, leaving unbound variables in place.
    pub fn apply_atom_partial(&self, atom: &Atom) -> Atom {
        atom.map_terms(|t| match t {
            Term::Var(v) => match self.get(*v) {
                Some(g) => g.into(),
                None => *t,
            },
            _ => *t,
        })
    }

    /// Returns a canonical, sorted vector of bindings (useful as a hash key).
    pub fn canonical(&self) -> Vec<(Variable, GroundTerm)> {
        let mut v: Vec<_> = self.map.iter().map(|(a, b)| (*a, *b)).collect();
        v.sort();
        v
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.canonical().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} -> {t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Tries to unify `atom` with `fact` under `assignment`, binding unbound variables.
/// On success returns the newly bound variables; on failure the assignment is
/// rolled back and `None` is returned.
pub fn unify_atom_with_fact(
    atom: &Atom,
    fact: &Fact,
    assignment: &mut Assignment,
) -> Option<Vec<Variable>> {
    debug_assert_eq!(atom.predicate, fact.predicate);
    unify_atom_with_terms(atom, &fact.terms, assignment)
}

/// Tries to unify `atom` with a fact given by its argument terms as a value
/// slice under `assignment`. The predicate is assumed to match. Semantics are
/// those of [`unify_atom_with_fact`]; facts already interned in a
/// [`FactStore`] unify without materialising a slice via
/// [`unify_atom_with_stored`].
pub fn unify_atom_with_terms(
    atom: &Atom,
    fact_terms: &[GroundTerm],
    assignment: &mut Assignment,
) -> Option<Vec<Variable>> {
    debug_assert_eq!(atom.terms.len(), fact_terms.len());
    let mut new_bindings: Vec<Variable> = Vec::new();
    for (t, g) in atom.terms.iter().zip(fact_terms.iter()) {
        let ok = match t {
            Term::Const(c) => GroundTerm::Const(*c) == *g,
            Term::Null(n) => GroundTerm::Null(*n) == *g,
            Term::Var(v) => match assignment.get(*v) {
                Some(bound) => bound == *g,
                None => {
                    assignment.bind(*v, *g);
                    new_bindings.push(*v);
                    true
                }
            },
        };
        if !ok {
            for v in &new_bindings {
                assignment.unbind(*v);
            }
            return None;
        }
    }
    Some(new_bindings)
}

/// Tries to unify `atom` with the interned fact `id` of `store` under
/// `assignment` — the hot-path variant of [`unify_atom_with_terms`], reading
/// each position straight from the store's column strips (two array reads per
/// position, no term vector). The predicate is assumed to match.
pub fn unify_atom_with_stored(
    atom: &Atom,
    store: &FactStore,
    id: FactId,
    assignment: &mut Assignment,
) -> Option<Vec<Variable>> {
    let view = store.terms(id);
    debug_assert_eq!(atom.terms.len(), view.len());
    let mut new_bindings: Vec<Variable> = Vec::new();
    for (pos, t) in atom.terms.iter().enumerate() {
        let g = view.get(pos);
        let ok = match t {
            Term::Const(c) => GroundTerm::Const(*c) == g,
            Term::Null(n) => GroundTerm::Null(*n) == g,
            Term::Var(v) => match assignment.get(*v) {
                Some(bound) => bound == g,
                None => {
                    assignment.bind(*v, g);
                    new_bindings.push(*v);
                    true
                }
            },
        };
        if !ok {
            for v in &new_bindings {
                assignment.unbind(*v);
            }
            return None;
        }
    }
    Some(new_bindings)
}

// ---------------------------------------------------------------------------------
// Join planning
// ---------------------------------------------------------------------------------

/// A static join order over the atoms of a conjunctive body, most-selective-first.
///
/// The plan is computed greedily. Starting from the variables already bound (by the
/// caller's partial assignment, or by a seed fact), it repeatedly appends the
/// remaining atom with the smallest key
///
/// ```text
/// (number of distinct still-unbound variables,  candidate-count estimate,  original index)
/// ```
///
/// and marks that atom's variables bound. The three components mean:
///
/// 1. **bound positions first** — an atom whose positions are already ground
///    (constants, nulls, or variables bound earlier) acts as a filter or an index
///    probe rather than a generator, so it runs as early as possible;
/// 2. **small relations first** — among equally bound atoms, the one with the
///    smallest candidate estimate (the smallest per-(predicate, position) bucket over
///    its statically ground positions, or the predicate's fact count) generates the
///    fewest branches;
/// 3. **stability** — ties are broken by the original atom index, so equal-selectivity
///    bodies keep their textual order and plans are reproducible.
///
/// The estimate is *static*: it is computed once against the initial bindings, not
/// re-evaluated as the join binds more variables. Candidate enumeration at execution
/// time still consults the index with the *full* current assignment, so later atoms
/// benefit from every binding made before them regardless of the plan-time estimate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    order: Vec<usize>,
}

impl JoinPlan {
    /// Plans a join over `atoms`, given the variables bound by `partial` and a
    /// per-atom candidate-count estimate (`cardinality(i)` estimates the candidates
    /// for `atoms[i]` under `partial`; see the type-level docs).
    pub fn new(
        atoms: &[Atom],
        partial: &Assignment,
        cardinality: impl FnMut(usize) -> usize,
    ) -> JoinPlan {
        let include: Vec<usize> = (0..atoms.len()).collect();
        JoinPlan::for_subset(atoms, &include, partial, cardinality)
    }

    /// Plans a join over the subset `include` of `atoms` (used by seeded searches,
    /// where the seed atom is already matched and excluded from the plan).
    pub fn for_subset(
        atoms: &[Atom],
        include: &[usize],
        partial: &Assignment,
        mut cardinality: impl FnMut(usize) -> usize,
    ) -> JoinPlan {
        let mut bound: HashSet<Variable> = partial.iter().map(|(v, _)| v).collect();
        let estimates: HashMap<usize, usize> =
            include.iter().map(|&i| (i, cardinality(i))).collect();
        let mut remaining: Vec<usize> = include.to_vec();
        remaining.sort_unstable();
        let mut order = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            // `min_by_key` keeps the first minimum; `remaining` is in ascending
            // original-index order, so ties resolve to the lowest index (stability).
            let (pos, _) = remaining
                .iter()
                .enumerate()
                .map(|(pos, &ai)| {
                    let unbound = atoms[ai]
                        .terms
                        .iter()
                        .filter_map(|t| match t {
                            Term::Var(v) if !bound.contains(v) => Some(*v),
                            _ => None,
                        })
                        .collect::<BTreeSet<_>>()
                        .len();
                    (pos, (unbound, estimates[&ai]))
                })
                .min_by_key(|&(_, key)| key)
                .expect("remaining is non-empty");
            let ai = remaining.remove(pos);
            for v in atoms[ai].variables() {
                bound.insert(v);
            }
            order.push(ai);
        }
        JoinPlan { order }
    }

    /// The planned atom order (indices into the atom slice the plan was built for).
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

// ---------------------------------------------------------------------------------
// Candidate sources
// ---------------------------------------------------------------------------------

/// Selects the smallest candidate bucket among the atom's ground positions under
/// `assignment` — the one bucket-selection heuristic shared by the transient
/// per-query index and the maintained [`IndexedInstance`] index, so the two cannot
/// drift. A position is ground when it carries a constant, a null, or a variable
/// bound by `assignment`; the scan stops early on an empty bucket (no candidate can
/// match). Returns `None` when no position is ground (callers fall back to the
/// per-predicate scan).
pub(crate) fn select_smallest_bucket<B>(
    atom: &Atom,
    assignment: &Assignment,
    mut bucket_for: impl FnMut(usize, GroundTerm) -> B,
    len_of: impl Fn(&B) -> usize,
) -> Option<B> {
    let mut best: Option<B> = None;
    for (i, term) in atom.terms.iter().enumerate() {
        let ground: Option<GroundTerm> = match term {
            Term::Const(c) => Some(GroundTerm::Const(*c)),
            Term::Null(n) => Some(GroundTerm::Null(*n)),
            Term::Var(v) => assignment.get(*v),
        };
        if let Some(g) = ground {
            let bucket = bucket_for(i, g);
            let bucket_len = len_of(&bucket);
            if best.as_ref().is_none_or(|b| bucket_len < len_of(b)) {
                best = Some(bucket);
            }
            if bucket_len == 0 {
                break;
            }
        }
    }
    best
}

/// A transient per-(predicate, position) index over a plain [`Instance`], built for
/// the predicates of one query. Buckets hold [`FactId`]s into the instance's arena,
/// so facts are never cloned.
struct QueryIndex {
    buckets: HashMap<(Predicate, usize, GroundTerm), Vec<FactId>>,
}

impl QueryIndex {
    fn build(atoms: &[Atom], instance: &Instance) -> QueryIndex {
        let mut buckets: HashMap<(Predicate, usize, GroundTerm), Vec<FactId>> = HashMap::new();
        let predicates: BTreeSet<Predicate> = atoms.iter().map(|a| a.predicate).collect();
        let store = instance.store();
        // Column-major build: one pass per (predicate, position) over that
        // position's contiguous strip — cache-linear, instead of striding
        // across every fact's full row.
        for p in predicates {
            let Some(pid) = store.lookup_predicate(p) else {
                continue;
            };
            for pos in 0..p.arity {
                let col = store.column(pid, pos);
                for &id in instance.ids_of(p) {
                    let t = store.term(col[store.row_of(id)]);
                    buckets.entry((p, pos, t)).or_default().push(id);
                }
            }
        }
        QueryIndex { buckets }
    }

    /// The smallest bucket among the atom's ground positions under `assignment`, or
    /// `None` when no position is ground (callers fall back to the predicate scan).
    fn best_bucket(&self, atom: &Atom, assignment: &Assignment) -> Option<&[FactId]> {
        const EMPTY: &[FactId] = &[];
        select_smallest_bucket(
            atom,
            assignment,
            |i, g| {
                self.buckets
                    .get(&(atom.predicate, i, g))
                    .map(|v| v.as_slice())
                    .unwrap_or(EMPTY)
            },
            |b| b.len(),
        )
    }
}

enum Source<'a> {
    /// A plain instance plus a transient index over the query's predicates.
    Scan {
        instance: &'a Instance,
        index: QueryIndex,
    },
    /// An instance with incrementally maintained indexes.
    Indexed(&'a IndexedInstance),
}

impl Source<'_> {
    /// Candidate-count estimate for `atom` under `h` (plan-time and ordering hints).
    fn candidate_count(&self, atom: &Atom, h: &Assignment) -> usize {
        match self {
            Source::Scan { instance, index } => match index.best_bucket(atom, h) {
                Some(bucket) => bucket.len(),
                None => instance.ids_of(atom.predicate).len(),
            },
            Source::Indexed(ix) => ix.candidate_count(atom, h),
        }
    }

    /// The arena behind the candidate ids this source enumerates.
    fn store(&self) -> &FactStore {
        match self {
            Source::Scan { instance, .. } => instance.store(),
            Source::Indexed(ix) => ix.store(),
        }
    }
}

// ---------------------------------------------------------------------------------
// The search
// ---------------------------------------------------------------------------------

/// Backtracking homomorphism search from a conjunction of atoms into an instance,
/// executing a [`JoinPlan`] over an indexed candidate source.
pub struct HomomorphismSearch<'a> {
    atoms: &'a [Atom],
    source: Source<'a>,
}

impl<'a> HomomorphismSearch<'a> {
    /// Creates a search for homomorphisms from `atoms` into `instance`.
    ///
    /// Builds a transient per-(predicate, position) index over the predicates the
    /// query mentions (cost: one pass over their facts), so that the join itself is
    /// index-backed even though plain instances maintain no indexes.
    pub fn new(atoms: &'a [Atom], instance: &'a Instance) -> Self {
        HomomorphismSearch {
            atoms,
            source: Source::Scan {
                instance,
                index: QueryIndex::build(atoms, instance),
            },
        }
    }

    /// Creates a search for homomorphisms from `atoms` into an [`IndexedInstance`],
    /// reusing its incrementally maintained indexes (no per-query build cost). This
    /// is the entry point of the delta-driven trigger engine.
    pub fn over_index(atoms: &'a [Atom], index: &'a IndexedInstance) -> Self {
        HomomorphismSearch {
            atoms,
            source: Source::Indexed(index),
        }
    }

    /// Visits every homomorphism extending `partial`, invoking `visit` for each.
    /// The visitor can stop the enumeration early by returning
    /// [`ControlFlow::Break`].
    pub fn for_each_extending<B>(
        &self,
        partial: &Assignment,
        visit: &mut impl FnMut(&Assignment) -> ControlFlow<B>,
    ) -> Option<B> {
        let plan = JoinPlan::new(self.atoms, partial, |i| {
            self.source.candidate_count(&self.atoms[i], partial)
        });
        let mut assignment = partial.clone();
        match self.search(plan.order(), 0, &mut assignment, visit) {
            ControlFlow::Break(b) => Some(b),
            ControlFlow::Continue(()) => None,
        }
    }

    /// Visits every homomorphism in which atom `seed_index` is mapped to `seed_fact`
    /// — the semi-naive seeding step of delta-driven trigger discovery. The seed is
    /// unified from the given fact value; [`HomomorphismSearch::for_each_seeded_id`]
    /// is the allocation-free entry point for seeds already interned in the source's
    /// [`FactStore`].
    pub fn for_each_seeded<B>(
        &self,
        seed_index: usize,
        seed_fact: &Fact,
        visit: &mut impl FnMut(&Assignment) -> ControlFlow<B>,
    ) -> Option<B> {
        if self.atoms[seed_index].predicate != seed_fact.predicate {
            return None;
        }
        let mut assignment = Assignment::new();
        unify_atom_with_terms(&self.atoms[seed_index], &seed_fact.terms, &mut assignment)?;
        self.seeded_continue(seed_index, assignment, visit)
    }

    /// Visits every homomorphism in which atom `seed_index` is mapped to the
    /// interned fact `seed` of the source's store. The seed unifies straight
    /// from the store's strips — no term slice is materialised.
    pub fn for_each_seeded_id<B>(
        &self,
        seed_index: usize,
        seed: FactId,
        visit: &mut impl FnMut(&Assignment) -> ControlFlow<B>,
    ) -> Option<B> {
        let store = self.source.store();
        if self.atoms[seed_index].predicate != store.predicate_of(seed) {
            return None;
        }
        let mut assignment = Assignment::new();
        unify_atom_with_stored(&self.atoms[seed_index], store, seed, &mut assignment)?;
        self.seeded_continue(seed_index, assignment, visit)
    }

    fn seeded_continue<B>(
        &self,
        seed_index: usize,
        mut assignment: Assignment,
        visit: &mut impl FnMut(&Assignment) -> ControlFlow<B>,
    ) -> Option<B> {
        let include: Vec<usize> = (0..self.atoms.len()).filter(|&i| i != seed_index).collect();
        let plan = JoinPlan::for_subset(self.atoms, &include, &assignment, |i| {
            self.source.candidate_count(&self.atoms[i], &assignment)
        });
        match self.search(plan.order(), 0, &mut assignment, visit) {
            ControlFlow::Break(b) => Some(b),
            ControlFlow::Continue(()) => None,
        }
    }

    fn search<B>(
        &self,
        order: &[usize],
        depth: usize,
        assignment: &mut Assignment,
        visit: &mut impl FnMut(&Assignment) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if depth == order.len() {
            return visit(assignment);
        }
        let atom = &self.atoms[order[depth]];
        match &self.source {
            Source::Indexed(ix) => {
                for &id in ix.candidates_for(atom, assignment) {
                    self.try_id(order, depth, atom, id, assignment, visit)?;
                }
            }
            Source::Scan { instance, index } => {
                let candidates = match index.best_bucket(atom, assignment) {
                    Some(bucket) => bucket,
                    None => instance.ids_of(atom.predicate),
                };
                for &id in candidates {
                    self.try_id(order, depth, atom, id, assignment, visit)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    fn try_id<B>(
        &self,
        order: &[usize],
        depth: usize,
        atom: &Atom,
        id: FactId,
        assignment: &mut Assignment,
        visit: &mut impl FnMut(&Assignment) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if let Some(new_bindings) =
            unify_atom_with_stored(atom, self.source.store(), id, assignment)
        {
            let flow = self.search(order, depth + 1, assignment, visit);
            for v in &new_bindings {
                assignment.unbind(*v);
            }
            flow
        } else {
            ControlFlow::Continue(())
        }
    }
}

// ---------------------------------------------------------------------------------
// Convenience entry points
// ---------------------------------------------------------------------------------

/// Returns every homomorphism from `atoms` into `instance` extending `partial`.
pub fn homomorphisms_extending(
    atoms: &[Atom],
    instance: &Instance,
    partial: &Assignment,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    HomomorphismSearch::new(atoms, instance).for_each_extending::<()>(partial, &mut |a| {
        out.push(a.clone());
        ControlFlow::Continue(())
    });
    out
}

/// Returns every homomorphism from `atoms` into `instance`.
pub fn homomorphisms(atoms: &[Atom], instance: &Instance) -> Vec<Assignment> {
    homomorphisms_extending(atoms, instance, &Assignment::new())
}

/// Returns some homomorphism from `atoms` into `instance` extending `partial`, if any.
pub fn find_homomorphism_extending(
    atoms: &[Atom],
    instance: &Instance,
    partial: &Assignment,
) -> Option<Assignment> {
    HomomorphismSearch::new(atoms, instance)
        .for_each_extending(partial, &mut |a| ControlFlow::Break(a.clone()))
}

/// Returns `true` iff some homomorphism from `atoms` into `instance` extends `partial`.
pub fn exists_homomorphism_extending(
    atoms: &[Atom],
    instance: &Instance,
    partial: &Assignment,
) -> bool {
    find_homomorphism_extending(atoms, instance, partial).is_some()
}

/// Returns `true` iff some homomorphism from `atoms` into `instance` exists.
pub fn exists_homomorphism(atoms: &[Atom], instance: &Instance) -> bool {
    exists_homomorphism_extending(atoms, instance, &Assignment::new())
}

/// Reference implementation retained for differential testing: enumerate every
/// homomorphism from `atoms` into `instance` extending `partial` by plain
/// backtracking over `facts_of(predicate)` scans, in textual atom order — no
/// indexes, no join planning. Exponentially slower than the engine on selective
/// joins; never use it outside tests.
pub fn naive_homomorphisms_extending(
    atoms: &[Atom],
    instance: &Instance,
    partial: &Assignment,
) -> Vec<Assignment> {
    fn recurse(
        atoms: &[Atom],
        instance: &Instance,
        depth: usize,
        assignment: &mut Assignment,
        out: &mut Vec<Assignment>,
    ) {
        let Some(atom) = atoms.get(depth) else {
            out.push(assignment.clone());
            return;
        };
        for &id in instance.ids_of(atom.predicate) {
            if let Some(new_bindings) =
                unify_atom_with_stored(atom, instance.store(), id, assignment)
            {
                recurse(atoms, instance, depth + 1, assignment, out);
                for v in &new_bindings {
                    assignment.unbind(*v);
                }
            }
        }
    }
    let mut out = Vec::new();
    recurse(atoms, instance, 0, &mut partial.clone(), &mut out);
    out
}

/// Searches for a homomorphism from instance `from` into instance `to`, i.e. a mapping
/// of the labeled nulls of `from` to ground terms of `to` that is the identity on
/// constants and maps every fact of `from` to a fact of `to`.
///
/// This is the notion used to define universal models and cores. Returns the null
/// mapping if one exists.
pub fn instance_homomorphism(
    from: &Instance,
    to: &Instance,
) -> Option<HashMap<crate::term::NullValue, GroundTerm>> {
    // Convert the nulls of `from` into variables and reuse the atom-level search.
    let store = from.store();
    let atoms: Vec<Atom> = from
        .fact_ids()
        .map(|id| Atom {
            predicate: store.predicate_of(id),
            terms: store
                .terms(id)
                .iter()
                .map(|t| match t {
                    GroundTerm::Null(n) => Term::Var(Variable::new(&format!("__null_{}", n.0))),
                    GroundTerm::Const(c) => Term::Const(c),
                })
                .collect(),
        })
        .collect();
    let assignment = find_homomorphism_extending(&atoms, to, &Assignment::new())?;
    let mut out = HashMap::new();
    for n in from.nulls() {
        let v = Variable::new(&format!("__null_{}", n.0));
        if let Some(g) = assignment.get(v) {
            out.insert(n, g);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Fact;
    use crate::builder::{atom, cst, var};
    use crate::term::{Constant, NullValue};

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }
    fn gn(i: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(i))
    }

    fn path_instance() -> Instance {
        Instance::from_facts(vec![
            Fact::from_parts("E", vec![gc("a"), gc("b")]),
            Fact::from_parts("E", vec![gc("b"), gc("c")]),
            Fact::from_parts("E", vec![gc("c"), gc("d")]),
            Fact::from_parts("N", vec![gc("a")]),
        ])
    }

    #[test]
    fn single_atom_homomorphisms() {
        let k = path_instance();
        let homs = homomorphisms(&[atom("E", vec![var("x"), var("y")])], &k);
        assert_eq!(homs.len(), 3);
    }

    #[test]
    fn join_two_atoms() {
        let k = path_instance();
        // E(x,y), E(y,z): two-step paths a->b->c and b->c->d.
        let homs = homomorphisms(
            &[
                atom("E", vec![var("x"), var("y")]),
                atom("E", vec![var("y"), var("z")]),
            ],
            &k,
        );
        assert_eq!(homs.len(), 2);
        for h in &homs {
            let x = h.get(Variable::new("x")).unwrap();
            let y = h.get(Variable::new("y")).unwrap();
            assert!(k.contains(&Fact::from_parts("E", vec![x, y])));
        }
    }

    #[test]
    fn repeated_variable_constrains_match() {
        let mut k = path_instance();
        let homs = homomorphisms(&[atom("E", vec![var("x"), var("x")])], &k);
        assert!(homs.is_empty());
        k.insert(Fact::from_parts("E", vec![gc("e"), gc("e")]));
        let homs = homomorphisms(&[atom("E", vec![var("x"), var("x")])], &k);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(Variable::new("x")), Some(gc("e")));
    }

    #[test]
    fn constants_in_query_atoms_must_match() {
        let k = path_instance();
        let homs = homomorphisms(&[atom("E", vec![cst("a"), var("y")])], &k);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(Variable::new("y")), Some(gc("b")));
        let none = homomorphisms(&[atom("E", vec![cst("z"), var("y")])], &k);
        assert!(none.is_empty());
    }

    #[test]
    fn partial_assignment_is_respected() {
        let k = path_instance();
        let partial = Assignment::from_pairs([(Variable::new("x"), gc("b"))]);
        let homs = homomorphisms_extending(&[atom("E", vec![var("x"), var("y")])], &k, &partial);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(Variable::new("y")), Some(gc("c")));
    }

    #[test]
    fn exists_homomorphism_early_exit() {
        let k = path_instance();
        assert!(exists_homomorphism(
            &[atom("E", vec![var("x"), var("y")])],
            &k
        ));
        assert!(!exists_homomorphism(&[atom("Missing", vec![var("x")])], &k));
    }

    #[test]
    fn example2_of_the_paper() {
        // K2 = {N(a), E(a, η1)}; h2 = {x -> a, y -> η1} is a homomorphism from the body
        // of r2 (and of r3) to K2.
        let k2 = Instance::from_facts(vec![
            Fact::from_parts("N", vec![gc("a")]),
            Fact::from_parts("E", vec![gc("a"), gn(1)]),
        ]);
        let homs = homomorphisms(&[atom("E", vec![var("x"), var("y")])], &k2);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(Variable::new("x")), Some(gc("a")));
        assert_eq!(homs[0].get(Variable::new("y")), Some(gn(1)));
    }

    #[test]
    fn nulls_in_query_atoms_behave_as_constants() {
        let k = Instance::from_facts(vec![Fact::from_parts("E", vec![gc("a"), gn(1)])]);
        let q = vec![Atom::from_parts(
            "E",
            vec![Term::Var(Variable::new("x")), Term::Null(NullValue(1))],
        )];
        let homs = homomorphisms(&q, &k);
        assert_eq!(homs.len(), 1);
        let q2 = vec![Atom::from_parts(
            "E",
            vec![Term::Var(Variable::new("x")), Term::Null(NullValue(2))],
        )];
        assert!(homomorphisms(&q2, &k).is_empty());
    }

    #[test]
    fn instance_homomorphism_example3() {
        // J1 = D ∪ {E(a, η1), E(η2, d)}, J2 = D ∪ {E(a, d)}: there is a homomorphism
        // J1 -> J2 (η1 ↦ d, η2 ↦ a) but none from J2 to J1... actually J2 -> J1 fails
        // because E(a, d) has no preimage... E(a,d) must map to a fact of J1; E(a, η1)
        // and E(η2, d) both differ on a constant, so no homomorphism exists.
        let d = vec![
            Fact::from_parts("P", vec![gc("a"), gc("b")]),
            Fact::from_parts("Q", vec![gc("c"), gc("d")]),
        ];
        let mut j1 = Instance::from_facts(d.clone());
        j1.insert(Fact::from_parts("E", vec![gc("a"), gn(1)]));
        j1.insert(Fact::from_parts("E", vec![gn(2), gc("d")]));
        let mut j2 = Instance::from_facts(d);
        j2.insert(Fact::from_parts("E", vec![gc("a"), gc("d")]));

        let h = instance_homomorphism(&j1, &j2).expect("J1 -> J2 must exist");
        assert_eq!(h.get(&NullValue(1)), Some(&gc("d")));
        assert_eq!(h.get(&NullValue(2)), Some(&gc("a")));
        assert!(instance_homomorphism(&j2, &j1).is_none());
    }

    #[test]
    fn assignment_apply_atom() {
        let a =
            Assignment::from_pairs([(Variable::new("x"), gc("a")), (Variable::new("y"), gn(1))]);
        let fact = a.apply_atom(&atom("E", vec![var("x"), var("y")])).unwrap();
        assert_eq!(fact, Fact::from_parts("E", vec![gc("a"), gn(1)]));
        assert!(a.apply_atom(&atom("E", vec![var("x"), var("z")])).is_none());
        let partial = a.apply_atom_partial(&atom("E", vec![var("x"), var("z")]));
        assert_eq!(partial.terms[0], Term::Const(Constant::new("a")));
        assert!(partial.terms[1].is_var());
    }

    #[test]
    fn indexed_and_scan_searches_agree() {
        let k = path_instance();
        let q = vec![
            atom("E", vec![var("x"), var("y")]),
            atom("E", vec![var("y"), var("z")]),
        ];
        let via_scan: BTreeSet<_> = homomorphisms(&q, &k)
            .iter()
            .map(|h| h.canonical())
            .collect();
        let ix = IndexedInstance::from_instance(k.clone());
        let mut via_index = BTreeSet::new();
        HomomorphismSearch::over_index(&q, &ix).for_each_extending::<()>(
            &Assignment::new(),
            &mut |h| {
                via_index.insert(h.canonical());
                ControlFlow::Continue(())
            },
        );
        let via_naive: BTreeSet<_> = naive_homomorphisms_extending(&q, &k, &Assignment::new())
            .iter()
            .map(|h| h.canonical())
            .collect();
        assert_eq!(via_scan, via_index);
        assert_eq!(via_scan, via_naive);
        assert_eq!(via_scan.len(), 2);
    }

    // -----------------------------------------------------------------------------
    // Searches over a maintained index (the trigger engine's entry points)
    // -----------------------------------------------------------------------------

    fn path_index() -> IndexedInstance {
        IndexedInstance::from_instance(path_instance())
    }

    fn two_hop_query() -> Vec<Atom> {
        vec![
            atom("E", vec![var("x"), var("y")]),
            atom("E", vec![var("y"), var("z")]),
        ]
    }

    /// Collects every homomorphism the index search visits with atom
    /// `seed_index` pinned to `seed`.
    fn seeded(
        atoms: &[Atom],
        idx: &IndexedInstance,
        seed_index: usize,
        seed: &Fact,
    ) -> Vec<Assignment> {
        let mut homs = Vec::new();
        HomomorphismSearch::over_index(atoms, idx).for_each_seeded::<()>(
            seed_index,
            seed,
            &mut |h| {
                homs.push(h.clone());
                ControlFlow::Continue(())
            },
        );
        homs
    }

    #[test]
    fn indexed_join_matches_expected_two_hop_paths() {
        let idx = path_index();
        let mut count = 0;
        HomomorphismSearch::over_index(&two_hop_query(), &idx).for_each_extending::<()>(
            &Assignment::new(),
            &mut |_| {
                count += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(count, 2);
    }

    #[test]
    fn seeded_search_only_finds_homs_through_the_seed() {
        let idx = path_index();
        let query = two_hop_query();
        let seed = Fact::from_parts("E", vec![gc("b"), gc("c")]);
        // Seeding atom 0 with E(b, c): the only completion is y=c, z=d.
        let homs = seeded(&query, &idx, 0, &seed);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(Variable::new("z")), Some(gc("d")));
        // Seeding atom 1 with the same fact: the only completion is x=a.
        let homs = seeded(&query, &idx, 1, &seed);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(Variable::new("x")), Some(gc("a")));
    }

    #[test]
    fn seeded_search_respects_repeated_variables() {
        let mut idx = path_index();
        idx.insert(Fact::from_parts("E", vec![gc("e"), gc("e")]));
        let query = vec![atom("E", vec![var("x"), var("x")])];
        let seed_no = Fact::from_parts("E", vec![gc("a"), gc("b")]);
        assert!(seeded(&query, &idx, 0, &seed_no).is_empty());
        let seed_yes = Fact::from_parts("E", vec![gc("e"), gc("e")]);
        assert_eq!(seeded(&query, &idx, 0, &seed_yes).len(), 1);
    }

    #[test]
    fn exists_extension_checks_partial_assignments() {
        let idx = path_index();
        let head = vec![atom("E", vec![var("x"), var("z")])];
        let exists = |x: &str| {
            let h = Assignment::from_pairs([(Variable::new("x"), gc(x))]);
            HomomorphismSearch::over_index(&head, &idx)
                .for_each_extending(&h, &mut |_| ControlFlow::Break(()))
                .is_some()
        };
        assert!(exists("a"));
        assert!(!exists("d"));
    }

    #[test]
    fn constants_and_early_exit() {
        let idx = path_index();
        let q = vec![atom("E", vec![cst("a"), var("y")])];
        let found = HomomorphismSearch::over_index(&q, &idx)
            .for_each_extending(&Assignment::new(), &mut |h| {
                ControlFlow::Break(h.get(Variable::new("y")).unwrap())
            });
        assert_eq!(found, Some(gc("b")));
    }

    #[test]
    fn zero_ary_and_empty_queries() {
        // Empty atom list: exactly the partial assignment is visited.
        let k = path_instance();
        let homs = homomorphisms(&[], &k);
        assert_eq!(homs.len(), 1);
        assert!(homs[0].is_empty());
        // 0-ary predicates join like any other atom.
        let mut k = Instance::new();
        k.insert(Fact::from_parts("Init", vec![]));
        k.insert(Fact::from_parts("N", vec![gc("a")]));
        let q = vec![atom("Init", vec![]), atom("N", vec![var("x")])];
        let homs = homomorphisms(&q, &k);
        assert_eq!(homs.len(), 1);
        assert!(homomorphisms(&[atom("Missing0", vec![])], &k).is_empty());
    }

    // -----------------------------------------------------------------------------
    // JoinPlan ordering (satellite: unit tests for the selectivity heuristic)
    // -----------------------------------------------------------------------------

    #[test]
    fn join_plan_puts_bound_atoms_before_free_atoms() {
        // Atom 1 has a constant (1 unbound var), atom 0 is fully free (2 unbound).
        let atoms = vec![
            atom("E", vec![var("x"), var("y")]),
            atom("E", vec![cst("a"), var("z")]),
        ];
        let plan = JoinPlan::new(&atoms, &Assignment::new(), |_| 10);
        assert_eq!(plan.order(), &[1, 0]);
    }

    #[test]
    fn join_plan_respects_partial_bindings() {
        // With y pre-bound, atom 1 (one unbound var) beats atom 0 (two unbound vars).
        let atoms = vec![
            atom("E", vec![var("u"), var("w")]),
            atom("E", vec![var("y"), var("z")]),
        ];
        let partial = Assignment::from_pairs([(Variable::new("y"), gc("b"))]);
        let plan = JoinPlan::new(&atoms, &partial, |_| 10);
        assert_eq!(plan.order(), &[1, 0]);
    }

    #[test]
    fn join_plan_orders_by_cardinality_when_boundness_ties() {
        // Same unbound-variable count, different candidate estimates: smaller first.
        let atoms = vec![
            atom("Big", vec![var("x")]),
            atom("Small", vec![var("y")]),
            atom("Mid", vec![var("z")]),
        ];
        let plan = JoinPlan::new(&atoms, &Assignment::new(), |i| [100, 1, 10][i]);
        assert_eq!(plan.order(), &[1, 2, 0]);
    }

    #[test]
    fn join_plan_ties_are_stable_in_textual_order() {
        // Identical selectivity on every key component: original order is kept.
        let atoms = vec![
            atom("P", vec![var("a")]),
            atom("P", vec![var("b")]),
            atom("P", vec![var("c")]),
        ];
        let plan = JoinPlan::new(&atoms, &Assignment::new(), |_| 5);
        assert_eq!(plan.order(), &[0, 1, 2]);
    }

    #[test]
    fn join_plan_chains_through_shared_variables() {
        // Picking the constant-rooted atom first makes its neighbour next-most bound.
        let atoms = vec![
            atom("E", vec![var("y"), var("z")]),
            atom("E", vec![cst("a"), var("y")]),
        ];
        let plan = JoinPlan::new(&atoms, &Assignment::new(), |_| 10);
        // Atom 1 first (constant), then atom 0 whose y is now bound.
        assert_eq!(plan.order(), &[1, 0]);
    }
}
