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
//! * per-atom candidate enumeration goes through one [`PositionIndex`]: built for
//!   the query over a plain [`Instance`] ([`HomomorphismSearch::new`]), or borrowed
//!   from the maintained index of an [`IndexedInstance`]
//!   ([`HomomorphismSearch::over_index`]);
//! * the early-exit callback interface lets callers stop at the first witness.
//!
//! Trying a candidate fact allocates nothing and hashes nothing: the
//! [`Assignment`] is a sorted vector, one unification routine binds in place and
//! records its bindings on an inline trail, and the plan is built in small
//! inline vectors.
//!
//! A deliberately index-free, plan-free reference implementation is retained as
//! [`naive_homomorphisms_extending`] for differential testing of the engine.

use crate::atom::Atom;
use crate::fact_store::{FactId, FactStore};
use crate::index::{IndexedInstance, PositionIndex};
use crate::instance::Instance;
use crate::term::{GroundTerm, Term, Variable};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::{ControlFlow, Deref, DerefMut};

/// A (partial) assignment of variables to ground terms — the variable part of a
/// homomorphism. Constants are always mapped to themselves.
///
/// The bindings are kept in a vector sorted by [`Variable`]: the few variables of
/// a dependency body are found by binary search, bound and unbound in place, and
/// the sorted vector is its own canonical form.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    pairs: Vec<(Variable, GroundTerm)>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Assignment::default()
    }

    /// An empty assignment with room for `n` bindings.
    fn with_capacity(n: usize) -> Self {
        Assignment {
            pairs: Vec::with_capacity(n),
        }
    }

    /// Creates an assignment from pairs. A variable given twice keeps its last
    /// binding.
    pub fn from_pairs<I: IntoIterator<Item = (Variable, GroundTerm)>>(pairs: I) -> Self {
        let mut out = Assignment::new();
        for (v, t) in pairs {
            out.bind(v, t);
        }
        out
    }

    /// Where `v`'s binding is, or where it would be inserted.
    #[inline]
    fn slot(&self, v: Variable) -> Result<usize, usize> {
        self.pairs.binary_search_by(|&(w, _)| w.cmp(&v))
    }

    /// Looks up a variable.
    #[inline]
    pub fn get(&self, v: Variable) -> Option<GroundTerm> {
        self.slot(v).ok().map(|i| self.pairs[i].1)
    }

    /// Binds a variable (overwrites any previous binding).
    pub fn bind(&mut self, v: Variable, t: GroundTerm) {
        match self.slot(v) {
            Ok(i) => self.pairs[i].1 = t,
            Err(i) => self.pairs.insert(i, (v, t)),
        }
    }

    /// Replaces every bound term `t` by `f(t)`, in place.
    pub fn rewrite_terms(&mut self, mut f: impl FnMut(GroundTerm) -> GroundTerm) {
        for (_, t) in &mut self.pairs {
            *t = f(*t);
        }
    }

    /// Rebinds the assignment to exactly `vars[i] ↦ terms[i]`, keeping its
    /// buffer. `vars` must be ascending and as many as `terms`.
    pub fn rebind(&mut self, vars: &[Variable], terms: impl IntoIterator<Item = GroundTerm>) {
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]));
        self.pairs.clear();
        self.pairs.extend(vars.iter().copied().zip(terms));
        debug_assert_eq!(self.pairs.len(), vars.len());
    }

    /// Removes a binding (used by backtracking searches).
    pub fn unbind(&mut self, v: Variable) {
        if let Ok(i) = self.slot(v) {
            self.pairs.remove(i);
        }
    }

    /// Unbinds the variables `trail` recorded after `mark`, truncating it there.
    fn unwind(&mut self, trail: &mut Trail, mark: usize) {
        while trail.len() > mark {
            let v = trail.remove(trail.len() - 1);
            self.unbind(v);
        }
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` iff no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over the bindings in ascending [`Variable`] order (the order of
    /// [`Assignment::canonical`]).
    pub fn iter(&self) -> impl Iterator<Item = (Variable, GroundTerm)> + '_ {
        self.pairs.iter().copied()
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

    /// Returns a canonical, sorted vector of bindings (useful as a hash key).
    pub fn canonical(&self) -> Vec<(Variable, GroundTerm)> {
        self.pairs.clone()
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.iter().enumerate() {
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

/// The variables a search bound, in binding order, so backtracking can unbind
/// them; a search binding up to sixteen variables keeps it inline.
type Trail = SmallVec<Variable, 16>;

/// The one unification routine: unifies `atom` with the interned fact `id` of
/// `store` under `assignment`, reading each position straight from the store's
/// column strips and binding the unbound variables. Each new binding is pushed
/// onto `trail`, so the caller undoes the match with [`Assignment::unwind`] to
/// the trail's length before the call. On a mismatch the bindings made so far
/// are undone and `false` is returned. The predicate is assumed to match. Atoms
/// of any width unify; nothing allocates while the assignment and the trail
/// have room.
#[inline]
fn unify(
    atom: &Atom,
    store: &FactStore,
    id: FactId,
    assignment: &mut Assignment,
    trail: &mut Trail,
) -> bool {
    let view = store.terms(id);
    debug_assert_eq!(atom.terms.len(), view.len());
    let mark = trail.len();
    for (pos, t) in atom.terms.iter().enumerate() {
        let g = view.get(pos);
        let ok = match t {
            Term::Const(c) => GroundTerm::Const(*c) == g,
            Term::Null(n) => GroundTerm::Null(*n) == g,
            Term::Var(v) => match assignment.slot(*v) {
                Ok(i) => assignment.pairs[i].1 == g,
                Err(i) => {
                    assignment.pairs.insert(i, (*v, g));
                    trail.push(*v);
                    true
                }
            },
        };
        if !ok {
            assignment.unwind(trail, mark);
            return false;
        }
    }
    true
}

/// The room a search over `atoms` reserves for its bindings: the atoms'
/// positions bound the variables they can bind, so a body's search never grows
/// its assignment. Past 64 (an instance searched as a query, as `core_of` does,
/// has thousands of positions) the assignment grows as it binds.
fn binding_room(atoms: &[Atom]) -> usize {
    atoms.iter().map(|a| a.terms.len()).sum::<usize>().min(64)
}

// ---------------------------------------------------------------------------------
// Small vectors
// ---------------------------------------------------------------------------------

/// A vector of up to `N` `Copy` values held inline, moving to the heap past that:
/// the planner's and the search's scratch, which bodies of a few atoms never
/// allocate. The inline buffer is filled with the first value pushed, so `T`
/// needs no default.
#[derive(Clone)]
enum SmallVec<T: Copy, const N: usize> {
    Empty,
    Inline(usize, [T; N]),
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> SmallVec<T, N> {
    fn new() -> Self {
        SmallVec::Empty
    }

    fn clear(&mut self) {
        *self = SmallVec::Empty;
    }

    fn insert(&mut self, i: usize, value: T) {
        match self {
            SmallVec::Empty => {
                assert_eq!(i, 0, "insertion index out of bounds");
                *self = SmallVec::Inline(1, [value; N]);
            }
            SmallVec::Inline(len, buf) if *len < N => {
                buf.copy_within(i..*len, i + 1);
                buf[i] = value;
                *len += 1;
            }
            SmallVec::Inline(len, buf) => {
                let mut heap = Vec::with_capacity(2 * N);
                heap.extend_from_slice(&buf[..*len]);
                heap.insert(i, value);
                *self = SmallVec::Heap(heap);
            }
            SmallVec::Heap(heap) => heap.insert(i, value),
        }
    }

    fn push(&mut self, value: T) {
        self.insert(self.len(), value);
    }

    fn remove(&mut self, i: usize) -> T {
        let value = self[i];
        match self {
            SmallVec::Inline(len, buf) => {
                buf.copy_within(i + 1..*len, i);
                *len -= 1;
            }
            SmallVec::Heap(heap) => {
                heap.remove(i);
            }
            SmallVec::Empty => unreachable!("indexing checked the bound"),
        }
        value
    }
}

impl<T: Copy, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.push(value);
        }
    }
}

impl<T: Copy, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            SmallVec::Empty => &[],
            SmallVec::Inline(len, buf) => &buf[..*len],
            SmallVec::Heap(heap) => heap,
        }
    }
}

impl<T: Copy, const N: usize> DerefMut for SmallVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            SmallVec::Empty => &mut [],
            SmallVec::Inline(len, buf) => &mut buf[..*len],
            SmallVec::Heap(heap) => heap,
        }
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
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
/// A plan over a single atom has nothing to order and asks for no estimate.
///
/// Planning a body of up to eight atoms over up to sixteen bound variables
/// allocates nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    order: SmallVec<usize, 8>,
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
        JoinPlan::plan(atoms, 0..atoms.len(), atoms.len(), partial, cardinality)
    }

    /// Plans a join over the subset `include` of `atoms` (used by seeded searches,
    /// where the seed atom is already matched and excluded from the plan).
    pub fn for_subset(
        atoms: &[Atom],
        include: &[usize],
        partial: &Assignment,
        cardinality: impl FnMut(usize) -> usize,
    ) -> JoinPlan {
        JoinPlan::plan(
            atoms,
            include.iter().copied(),
            include.len(),
            partial,
            cardinality,
        )
    }

    /// Plans the `count` atoms `include` yields.
    fn plan(
        atoms: &[Atom],
        include: impl Iterator<Item = usize>,
        count: usize,
        partial: &Assignment,
        mut cardinality: impl FnMut(usize) -> usize,
    ) -> JoinPlan {
        let mut order = SmallVec::new();
        if count <= 1 {
            order.extend(include);
            return JoinPlan { order };
        }
        // `(original index, estimate)`, in ascending original-index order, so the
        // first minimum below is the lowest index among ties (stability).
        let mut remaining: SmallVec<(usize, usize), 8> = SmallVec::new();
        remaining.extend(include.map(|i| (i, cardinality(i))));
        remaining.sort_unstable();
        // The bound variables, sorted: `partial`'s, then each planned atom's.
        let mut bound: SmallVec<Variable, 16> = SmallVec::new();
        bound.extend(partial.iter().map(|(v, _)| v));
        while !remaining.is_empty() {
            // `min_by_key` keeps the first minimum.
            let (pos, _) = remaining
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(ai, estimate))| {
                    (unbound_variables(&atoms[ai], &bound), estimate)
                })
                .expect("remaining is non-empty");
            let (ai, _) = remaining.remove(pos);
            for t in &atoms[ai].terms {
                if let Term::Var(v) = t {
                    if let Err(i) = bound.binary_search(v) {
                        bound.insert(i, *v);
                    }
                }
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

/// The number of distinct variables of `atom` not in the sorted `bound`.
fn unbound_variables(atom: &Atom, bound: &[Variable]) -> usize {
    atom.terms
        .iter()
        .enumerate()
        .filter(|&(pos, t)| match t {
            Term::Var(v) => bound.binary_search(v).is_err() && !atom.terms[..pos].contains(t),
            _ => false,
        })
        .count()
}

// ---------------------------------------------------------------------------------
// The search
// ---------------------------------------------------------------------------------

/// Backtracking homomorphism search from a conjunction of atoms into an instance,
/// executing a [`JoinPlan`] over the candidates of a [`PositionIndex`].
pub struct HomomorphismSearch<'a> {
    atoms: &'a [Atom],
    instance: &'a Instance,
    index: Cow<'a, PositionIndex>,
}

impl<'a> HomomorphismSearch<'a> {
    /// Creates a search for homomorphisms from `atoms` into `instance`.
    ///
    /// Builds a [`PositionIndex`] over the predicates the query mentions (cost:
    /// one pass over their facts), so that the join itself is index-backed even
    /// though plain instances maintain no indexes.
    pub fn new(atoms: &'a [Atom], instance: &'a Instance) -> Self {
        HomomorphismSearch {
            atoms,
            instance,
            index: Cow::Owned(PositionIndex::for_query(atoms, instance)),
        }
    }

    /// Creates a search for homomorphisms from `atoms` into an [`IndexedInstance`],
    /// borrowing its maintained [`PositionIndex`] (no per-query build cost). This
    /// is the entry point of the delta-driven trigger engine.
    pub fn over_index(atoms: &'a [Atom], index: &'a IndexedInstance) -> Self {
        HomomorphismSearch {
            atoms,
            instance: index.instance(),
            index: Cow::Borrowed(index.positions()),
        }
    }

    /// The candidate fact ids for `atom` under `assignment`.
    #[inline]
    fn candidates(&self, atom: &Atom, assignment: &Assignment) -> &[FactId] {
        self.index.candidates(self.instance, atom, assignment)
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
            self.candidates(&self.atoms[i], partial).len()
        });
        let mut assignment = Assignment::with_capacity(partial.len() + binding_room(self.atoms));
        assignment.pairs.extend_from_slice(&partial.pairs);
        self.run(
            plan.order(),
            &mut assignment,
            &mut Trail::new(),
            &mut [],
            &mut |h, _| visit(h),
        )
    }

    /// Visits every homomorphism in which atom `seed_index` is mapped to the
    /// interned fact `seed` of the instance's store — the semi-naive seeding
    /// step of delta-driven trigger discovery — together with its *body
    /// image*: one fact id per atom, in atom order (`seed` at `seed_index`,
    /// and at every other atom the candidate the join unified it with). The
    /// seed unifies straight from the store's strips — no term slice is
    /// materialised — and a search over up to eight atoms keeps its image
    /// inline. The search binds into `scratch`, which it clears first: a caller
    /// that seeds many searches passes one buffer, and no search allocates.
    pub fn for_each_seeded_id<B>(
        &self,
        seed_index: usize,
        seed: FactId,
        scratch: &mut Assignment,
        visit: &mut impl FnMut(&Assignment, &[FactId]) -> ControlFlow<B>,
    ) -> Option<B> {
        let store = self.instance.store();
        if self.atoms[seed_index].predicate != store.predicate_of(seed) {
            return None;
        }
        scratch.pairs.clear();
        scratch.pairs.reserve(binding_room(self.atoms));
        let mut trail = Trail::new();
        if !unify(&self.atoms[seed_index], store, seed, scratch, &mut trail) {
            return None;
        }
        // The seed's bindings hold for the whole search.
        trail.clear();
        let others = (0..self.atoms.len()).filter(|&i| i != seed_index);
        let plan = JoinPlan::plan(self.atoms, others, self.atoms.len() - 1, scratch, |i| {
            self.candidates(&self.atoms[i], scratch).len()
        });
        let mut image: SmallVec<FactId, 8> = SmallVec::new();
        image.extend(std::iter::repeat_n(seed, self.atoms.len()));
        self.run(plan.order(), scratch, &mut trail, &mut image, visit)
    }

    /// Runs the join in `order` from `assignment`, with one (empty) trail for
    /// the whole search. `image` is either empty or one slot per atom, which
    /// the join fills with the fact each atom is matched to.
    fn run<B>(
        &self,
        order: &[usize],
        assignment: &mut Assignment,
        trail: &mut Trail,
        image: &mut [FactId],
        visit: &mut impl FnMut(&Assignment, &[FactId]) -> ControlFlow<B>,
    ) -> Option<B> {
        match self.search(order, 0, assignment, trail, image, visit) {
            ControlFlow::Break(b) => Some(b),
            ControlFlow::Continue(()) => None,
        }
    }

    fn search<B>(
        &self,
        order: &[usize],
        depth: usize,
        assignment: &mut Assignment,
        trail: &mut Trail,
        image: &mut [FactId],
        visit: &mut impl FnMut(&Assignment, &[FactId]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if depth == order.len() {
            return visit(assignment, image);
        }
        let atom = &self.atoms[order[depth]];
        let store = self.instance.store();
        for &id in self.candidates(atom, assignment) {
            let mark = trail.len();
            if unify(atom, store, id, assignment, trail) {
                if let Some(slot) = image.get_mut(order[depth]) {
                    *slot = id;
                }
                let flow = self.search(order, depth + 1, assignment, trail, image, visit);
                assignment.unwind(trail, mark);
                flow?;
            }
        }
        ControlFlow::Continue(())
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
        trail: &mut Trail,
        out: &mut Vec<Assignment>,
    ) {
        let Some(atom) = atoms.get(depth) else {
            out.push(assignment.clone());
            return;
        };
        for &id in instance.ids_of(atom.predicate) {
            let mark = trail.len();
            if unify(atom, instance.store(), id, assignment, trail) {
                recurse(atoms, instance, depth + 1, assignment, trail, out);
                assignment.unwind(trail, mark);
            }
        }
    }
    let mut out = Vec::new();
    let mut assignment = partial.clone();
    recurse(
        atoms,
        instance,
        0,
        &mut assignment,
        &mut Trail::new(),
        &mut out,
    );
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
    use std::collections::BTreeSet;

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
    fn find_homomorphism_answers_existence() {
        let k = path_instance();
        let none = Assignment::new();
        assert!(
            find_homomorphism_extending(&[atom("E", vec![var("x"), var("y")])], &k, &none)
                .is_some()
        );
        assert!(
            find_homomorphism_extending(&[atom("Missing", vec![var("x")])], &k, &none).is_none()
        );
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
    /// `seed_index` pinned to the stored fact `seed`.
    fn seeded(
        atoms: &[Atom],
        idx: &IndexedInstance,
        seed_index: usize,
        seed: &Fact,
    ) -> Vec<Assignment> {
        let id = idx.instance().id_of(seed).expect("the seed is stored");
        let mut homs = Vec::new();
        HomomorphismSearch::over_index(atoms, idx).for_each_seeded_id::<()>(
            seed_index,
            id,
            &mut Assignment::new(),
            &mut |h, _| {
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
