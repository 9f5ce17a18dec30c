//! Tuple generating dependencies (TGDs), equality generating dependencies (EGDs) and
//! dependency sets, following Section 2 of the paper.

use crate::atom::{Atom, Predicate};
use crate::error::CoreError;
use crate::position::Position;
use crate::term::{Term, Variable};
use std::collections::BTreeSet;
use std::fmt;

/// A tuple generating dependency `∀x∀y ϕ(x,y) → ∃z ψ(x,z)`.
///
/// The body and head are conjunctions of atoms. Variables occurring in the head but not
/// in the body are the existentially quantified variables `z`; variables occurring in
/// both body and head are the *frontier* `x`.
///
/// Both variable lists are computed once, by [`Tgd::new`], and read as slices:
/// [`Tgd::existential_variables`] in first-occurrence order across the head atoms,
/// [`Tgd::frontier_variables`] sorted and deduplicated. The fields are private so the
/// lists cannot go stale, and boxed: a TGD never grows, so it keeps no spare capacity.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tgd {
    label: Option<Box<str>>,
    body: Box<[Atom]>,
    head: Box<[Atom]>,
    /// The existential variables followed by the frontier, in one allocation.
    variables: Box<[Variable]>,
    /// The number of existential variables: where the frontier starts in `variables`.
    existential_len: usize,
}

impl Tgd {
    /// Creates a TGD, validating that it is well formed:
    /// no nulls occur, and the body is non-empty.
    pub fn new(label: Option<String>, body: Vec<Atom>, head: Vec<Atom>) -> Result<Self, CoreError> {
        if body.is_empty() {
            return Err(CoreError::MalformedDependency {
                reason: "a TGD must have a non-empty body".into(),
            });
        }
        if head.is_empty() {
            return Err(CoreError::MalformedDependency {
                reason: "a TGD must have a non-empty head".into(),
            });
        }
        for atom in body.iter().chain(head.iter()) {
            if atom.terms.iter().any(Term::is_null) {
                return Err(CoreError::NullInDependency);
            }
        }
        let (variables, existential_len) = classify_head_variables(&body, &head);
        Ok(Tgd {
            label: label.map(String::into_boxed_str),
            body: body.into_boxed_slice(),
            head: head.into_boxed_slice(),
            variables,
            existential_len,
        })
    }

    /// The optional label (e.g. `r1`) used for display and graph output.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Body atoms `ϕ(x, y)`.
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// Head atoms `ψ(x, z)`.
    pub fn head(&self) -> &[Atom] {
        &self.head
    }

    /// The existentially quantified variables: head variables not occurring in the
    /// body, in order of first occurrence across the head atoms.
    pub fn existential_variables(&self) -> &[Variable] {
        &self.variables[..self.existential_len]
    }

    /// The frontier: variables occurring in both body and head, sorted and
    /// deduplicated.
    pub fn frontier_variables(&self) -> &[Variable] {
        &self.variables[self.existential_len..]
    }

    /// Returns `true` iff the TGD is full (universally quantified), i.e. has no
    /// existential variables.
    pub fn is_full(&self) -> bool {
        self.existential_len == 0
    }

    /// Positions of the body in which `v` occurs, in order, one per occurrence.
    pub fn body_positions_of(&self, v: Variable) -> impl Iterator<Item = Position> + '_ {
        positions_of(&self.body, v)
    }

    /// Positions of the head in which `v` occurs, in order, one per occurrence.
    pub fn head_positions_of(&self, v: Variable) -> impl Iterator<Item = Position> + '_ {
        positions_of(&self.head, v)
    }
}

/// The head variables of a TGD, split by [`Tgd::new`]: the existential ones in
/// first-occurrence order, then the frontier sorted, and the number of existential
/// ones. Linear scans over the atoms; TGDs are small. The variables are counted
/// before they are stored, so the list is allocated once, at its exact size.
fn classify_head_variables(body: &[Atom], head: &[Atom]) -> (Box<[Variable]>, usize) {
    let head_vars = || {
        head.iter().flat_map(|a| &a.terms).filter_map(|t| match t {
            Term::Var(v) => Some(*v),
            _ => None,
        })
    };
    let in_body = |v: Variable| body.iter().any(|a| a.terms.contains(&Term::Var(v)));
    // Each distinct head variable at its first occurrence.
    let distinct = || {
        head_vars()
            .enumerate()
            .filter(move |&(i, v)| !head_vars().take(i).any(|w| w == v))
            .map(|(_, v)| v)
    };
    let (mut existential_len, mut total) = (0, 0);
    for v in distinct() {
        existential_len += usize::from(!in_body(v));
        total += 1;
    }
    let mut variables: Vec<Variable> = Vec::with_capacity(total);
    variables.extend(distinct().filter(|&v| !in_body(v)));
    variables.extend(distinct().filter(|&v| in_body(v)));
    variables[existential_len..].sort_unstable();
    (variables.into_boxed_slice(), existential_len)
}

fn positions_of(atoms: &[Atom], v: Variable) -> impl Iterator<Item = Position> + '_ {
    atoms.iter().flat_map(move |atom| {
        atom.terms
            .iter()
            .enumerate()
            .filter(move |&(_, t)| *t == Term::Var(v))
            .map(move |(i, _)| Position::new(atom.predicate, i))
    })
}

/// An equality generating dependency `∀x∀y ϕ(x,y) → x1 = x2`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Egd {
    /// Optional label used for display and graph output.
    pub label: Option<String>,
    /// Body atoms.
    pub body: Vec<Atom>,
    /// Left-hand side of the equality (must occur in the body).
    pub left: Variable,
    /// Right-hand side of the equality (must occur in the body).
    pub right: Variable,
}

impl Egd {
    /// Creates an EGD, validating that both equated variables occur in the body and no
    /// nulls occur.
    pub fn new(
        label: Option<String>,
        body: Vec<Atom>,
        left: Variable,
        right: Variable,
    ) -> Result<Self, CoreError> {
        if body.is_empty() {
            return Err(CoreError::MalformedDependency {
                reason: "an EGD must have a non-empty body".into(),
            });
        }
        for atom in &body {
            if atom.terms.iter().any(Term::is_null) {
                return Err(CoreError::NullInDependency);
            }
        }
        let body_vars: BTreeSet<Variable> = body.iter().flat_map(|a| a.variables()).collect();
        for v in [left, right] {
            if !body_vars.contains(&v) {
                return Err(CoreError::MalformedDependency {
                    reason: format!("equated variable {v} does not occur in the EGD body"),
                });
            }
        }
        if left == right {
            return Err(CoreError::MalformedDependency {
                reason: "an EGD must equate two distinct variables".into(),
            });
        }
        Ok(Egd {
            label,
            body,
            left,
            right,
        })
    }
}

/// A dependency: either a TGD or an EGD.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Dependency {
    /// A tuple generating dependency.
    Tgd(Tgd),
    /// An equality generating dependency.
    Egd(Egd),
}

impl Dependency {
    /// The optional label of the dependency.
    pub fn label(&self) -> Option<&str> {
        match self {
            Dependency::Tgd(t) => t.label.as_deref(),
            Dependency::Egd(e) => e.label.as_deref(),
        }
    }

    /// Replaces the label.
    pub fn with_label(mut self, label: &str) -> Self {
        match &mut self {
            Dependency::Tgd(t) => t.label = Some(label.into()),
            Dependency::Egd(e) => e.label = Some(label.to_owned()),
        }
        self
    }

    /// The body atoms.
    pub fn body(&self) -> &[Atom] {
        match self {
            Dependency::Tgd(t) => &t.body,
            Dependency::Egd(e) => &e.body,
        }
    }

    /// The head atoms of a TGD, or the empty slice for an EGD.
    pub fn head_atoms(&self) -> &[Atom] {
        match self {
            Dependency::Tgd(t) => &t.head,
            Dependency::Egd(_) => &[],
        }
    }

    /// Returns `true` iff this is a TGD.
    pub fn is_tgd(&self) -> bool {
        matches!(self, Dependency::Tgd(_))
    }

    /// Returns `true` iff this is an EGD.
    pub fn is_egd(&self) -> bool {
        matches!(self, Dependency::Egd(_))
    }

    /// Returns `true` iff the dependency is full (universally quantified): an EGD or a
    /// full TGD. This is the `Σ∀` membership test of the paper.
    pub fn is_full(&self) -> bool {
        match self {
            Dependency::Tgd(t) => t.is_full(),
            Dependency::Egd(_) => true,
        }
    }

    /// Returns `true` iff the dependency is existentially quantified (`Σ∃` membership).
    pub fn is_existential(&self) -> bool {
        !self.is_full()
    }

    /// Returns the TGD if this dependency is one.
    pub fn as_tgd(&self) -> Option<&Tgd> {
        match self {
            Dependency::Tgd(t) => Some(t),
            Dependency::Egd(_) => None,
        }
    }

    /// Returns the EGD if this dependency is one.
    pub fn as_egd(&self) -> Option<&Egd> {
        match self {
            Dependency::Egd(e) => Some(e),
            Dependency::Tgd(_) => None,
        }
    }

    /// All variables of the body, in a deterministic order.
    pub fn body_variables(&self) -> BTreeSet<Variable> {
        self.body().iter().flat_map(|a| a.variables()).collect()
    }

    /// All predicates occurring in the dependency.
    pub fn predicates(&self) -> BTreeSet<Predicate> {
        self.body()
            .iter()
            .chain(self.head_atoms())
            .map(|a| a.predicate)
            .collect()
    }
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(l) = self.label() {
            write!(f, "{l}: ")?;
        }
        let body = self
            .body()
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        match self {
            Dependency::Tgd(t) => {
                let ex = t.existential_variables();
                let head = t
                    .head
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                if ex.is_empty() {
                    write!(f, "{body} -> {head}")
                } else {
                    let exvars = ex
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", ");
                    write!(f, "{body} -> exists {exvars}: {head}")
                }
            }
            Dependency::Egd(e) => write!(f, "{body} -> {} = {}", e.left, e.right),
        }
    }
}

impl fmt::Debug for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<Tgd> for Dependency {
    fn from(t: Tgd) -> Self {
        Dependency::Tgd(t)
    }
}

impl From<Egd> for Dependency {
    fn from(e: Egd) -> Self {
        Dependency::Egd(e)
    }
}

/// Identifier of a dependency within a [`DependencySet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DepId(pub usize);

/// A finite set of dependencies `Σ`, with the views used throughout the paper:
/// `Σtgd`, `Σegd`, `Σ∀` (full dependencies, including all EGDs) and `Σ∃`.
#[derive(Clone, Default)]
pub struct DependencySet {
    deps: Vec<Dependency>,
}

impl DependencySet {
    /// Creates an empty dependency set.
    pub fn new() -> Self {
        DependencySet { deps: Vec::new() }
    }

    /// Creates a set from a vector of dependencies.
    pub fn from_vec(deps: Vec<Dependency>) -> Self {
        DependencySet { deps }
    }

    /// Adds a dependency and returns its id.
    pub fn push(&mut self, dep: Dependency) -> DepId {
        let id = DepId(self.deps.len());
        self.deps.push(dep);
        id
    }

    /// Number of dependencies.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Returns `true` iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// The dependency with the given id.
    pub fn get(&self, id: DepId) -> &Dependency {
        &self.deps[id.0]
    }

    /// Iterates over `(id, dependency)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DepId, &Dependency)> {
        self.deps.iter().enumerate().map(|(i, d)| (DepId(i), d))
    }

    /// All dependency ids.
    pub fn ids(&self) -> impl Iterator<Item = DepId> + '_ {
        (0..self.deps.len()).map(DepId)
    }

    /// The slice of all dependencies.
    pub fn as_slice(&self) -> &[Dependency] {
        &self.deps
    }

    /// Ids of all TGDs (`Σtgd`).
    pub fn tgd_ids(&self) -> Vec<DepId> {
        self.iter()
            .filter(|(_, d)| d.is_tgd())
            .map(|(i, _)| i)
            .collect()
    }

    /// Ids of all EGDs (`Σegd`).
    pub fn egd_ids(&self) -> Vec<DepId> {
        self.iter()
            .filter(|(_, d)| d.is_egd())
            .map(|(i, _)| i)
            .collect()
    }

    /// Ids of all existentially quantified dependencies (`Σ∃`).
    pub fn existential_ids(&self) -> Vec<DepId> {
        self.iter()
            .filter(|(_, d)| d.is_existential())
            .map(|(i, _)| i)
            .collect()
    }

    /// The set of TGDs only, as a new dependency set (labels preserved).
    pub fn tgds_only(&self) -> DependencySet {
        DependencySet::from_vec(self.deps.iter().filter(|d| d.is_tgd()).cloned().collect())
    }

    /// All predicates occurring in the set (the schema `R`).
    pub fn predicates(&self) -> BTreeSet<Predicate> {
        self.deps
            .iter()
            .flat_map(|d| d.body().iter().chain(d.head_atoms()))
            .map(|a| a.predicate)
            .collect()
    }

    /// A subset of this dependency set, preserving labels and relative order.
    pub fn restrict(&self, ids: &BTreeSet<DepId>) -> DependencySet {
        DependencySet::from_vec(
            self.iter()
                .filter(|(i, _)| ids.contains(i))
                .map(|(_, d)| d.clone())
                .collect(),
        )
    }

    /// Looks up a dependency by label.
    pub fn by_label(&self, label: &str) -> Option<(DepId, &Dependency)> {
        self.iter().find(|(_, d)| d.label() == Some(label))
    }
}

impl fmt::Display for DependencySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for dep in &self.deps {
            writeln!(f, "{dep}.")?;
        }
        Ok(())
    }
}

impl fmt::Debug for DependencySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromIterator<Dependency> for DependencySet {
    fn from_iter<T: IntoIterator<Item = Dependency>>(iter: T) -> Self {
        DependencySet::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{atom, cst, var};

    fn example1() -> DependencySet {
        // Σ1 of Example 1.
        let r1 = Tgd::new(
            Some("r1".into()),
            vec![atom("N", vec![var("x")])],
            vec![atom("E", vec![var("x"), var("y")])],
        )
        .unwrap();
        let r2 = Tgd::new(
            Some("r2".into()),
            vec![atom("E", vec![var("x"), var("y")])],
            vec![atom("N", vec![var("y")])],
        )
        .unwrap();
        let r3 = Egd::new(
            Some("r3".into()),
            vec![atom("E", vec![var("x"), var("y")])],
            Variable::new("x"),
            Variable::new("y"),
        )
        .unwrap();
        DependencySet::from_vec(vec![r1.into(), r2.into(), r3.into()])
    }

    #[test]
    fn tgd_variable_classification() {
        let sigma = example1();
        let r1 = sigma.get(DepId(0)).as_tgd().unwrap().clone();
        assert_eq!(r1.existential_variables(), [Variable::new("y")]);
        assert!(r1.frontier_variables().contains(&Variable::new("x")));
        assert!(!r1.is_full());
        let r2 = sigma.get(DepId(1)).as_tgd().unwrap().clone();
        assert!(r2.is_full());
        assert!(r2.existential_variables().is_empty());
    }

    #[test]
    fn cached_variable_lists_keep_their_order_contracts() {
        // `z` repeats within one head atom and `u` across head atoms; `x` is a
        // frontier variable repeated in the head; `c` is a head constant.
        let t = Tgd::new(
            None,
            vec![
                atom("A", vec![var("y"), var("x")]),
                atom("B", vec![var("x"), var("w")]),
            ],
            vec![
                atom("R", vec![var("z"), var("x"), var("z"), cst("c")]),
                atom("S", vec![var("u"), var("x"), var("y")]),
                atom("T", vec![var("y"), var("u"), var("z")]),
            ],
        )
        .unwrap();
        let v = Variable::new;
        assert_eq!(t.existential_variables(), [v("z"), v("u")]);
        // Sorted and deduplicated: the order a `BTreeSet` iterates.
        let frontier: BTreeSet<Variable> = [v("y"), v("x")].into_iter().collect();
        assert_eq!(
            t.frontier_variables(),
            frontier.into_iter().collect::<Vec<_>>()
        );
        assert!(!t.is_full());

        let full = Tgd::new(
            None,
            vec![atom("A", vec![var("y"), var("x")])],
            vec![
                atom("R", vec![var("x"), var("x"), cst("c")]),
                atom("S", vec![var("y"), var("x")]),
            ],
        )
        .unwrap();
        assert!(full.existential_variables().is_empty());
        assert!(full.is_full());
        assert_eq!(full.frontier_variables().len(), 2);
        assert!(full.frontier_variables().windows(2).all(|w| w[0] < w[1]));

        // A head of constants only: no existential and no frontier variable.
        let ground = Tgd::new(
            None,
            vec![atom("A", vec![var("x")])],
            vec![atom("B", vec![cst("c")])],
        )
        .unwrap();
        assert!(ground.is_full());
        assert!(ground.existential_variables().is_empty());
        assert!(ground.frontier_variables().is_empty());
    }

    #[test]
    fn dependency_set_views() {
        let sigma = example1();
        assert_eq!(sigma.tgd_ids(), vec![DepId(0), DepId(1)]);
        assert_eq!(sigma.egd_ids(), vec![DepId(2)]);
        // Σ∃ contains r1.
        assert_eq!(sigma.existential_ids(), vec![DepId(0)]);
    }

    #[test]
    fn egd_requires_body_variables() {
        let bad = Egd::new(
            None,
            vec![atom("E", vec![var("x"), var("y")])],
            Variable::new("x"),
            Variable::new("z"),
        );
        assert!(bad.is_err());
        let same = Egd::new(
            None,
            vec![atom("E", vec![var("x"), var("y")])],
            Variable::new("x"),
            Variable::new("x"),
        );
        assert!(same.is_err());
    }

    #[test]
    fn tgd_rejects_empty_body_or_head() {
        assert!(Tgd::new(None, vec![], vec![atom("A", vec![var("x")])]).is_err());
        assert!(Tgd::new(None, vec![atom("A", vec![var("x")])], vec![]).is_err());
    }

    #[test]
    fn display_tgd_and_egd() {
        let sigma = example1();
        assert_eq!(
            sigma.get(DepId(0)).to_string(),
            "r1: N(?x) -> exists ?y: E(?x, ?y)"
        );
        assert_eq!(sigma.get(DepId(1)).to_string(), "r2: E(?x, ?y) -> N(?y)");
        assert_eq!(sigma.get(DepId(2)).to_string(), "r3: E(?x, ?y) -> ?x = ?y");
    }

    #[test]
    fn predicates_and_schema() {
        let sigma = example1();
        let preds = sigma.predicates();
        assert_eq!(preds.len(), 2);
        assert!(preds.contains(&Predicate::new("N", 1)));
        assert!(preds.contains(&Predicate::new("E", 2)));
    }

    #[test]
    fn restrict_and_label_lookup() {
        let sigma = example1();
        let (id, dep) = sigma.by_label("r2").unwrap();
        assert_eq!(id, DepId(1));
        assert!(dep.is_tgd());
        let sub = sigma.restrict(&[DepId(0), DepId(2)].into_iter().collect());
        assert_eq!(sub.len(), 2);
        assert!(sub.by_label("r2").is_none());
    }

    #[test]
    fn tgds_only_drops_egds() {
        let sigma = example1();
        let tgds = sigma.tgds_only();
        assert_eq!(tgds.len(), 2);
        assert!(tgds.iter().all(|(_, d)| d.is_tgd()));
    }

    #[test]
    fn constants_are_allowed_in_dependencies() {
        let t = Tgd::new(
            None,
            vec![atom("A", vec![var("x"), cst("admin")])],
            vec![atom("B", vec![var("x")])],
        );
        assert!(t.is_ok());
    }

    #[test]
    fn body_and_head_positions_of_variable() {
        let t = Tgd::new(
            None,
            vec![atom("E", vec![var("x"), var("y")])],
            vec![atom("E", vec![var("y"), var("x")])],
        )
        .unwrap();
        let x = Variable::new("x");
        let body: Vec<Position> = t.body_positions_of(x).collect();
        assert_eq!(body.len(), 1);
        assert_eq!(body[0].index, 0);
        assert_eq!(t.head_positions_of(x).next().unwrap().index, 1);
    }
}
