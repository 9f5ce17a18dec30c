//! Terms: constants, labeled nulls and variables (Section 2 of the paper).

use crate::interner::Symbol;
use std::fmt;

/// A constant from the infinite set `Consts`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Constant(pub Symbol);

/// A labeled null from the infinite set `Nulls`, written `η_k` in the paper.
///
/// Nulls are identified by a numeric label; fresh nulls are allocated by
/// [`crate::instance::Instance::fresh_null`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NullValue(pub u64);

/// A variable from the infinite set `Vars`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variable(pub Symbol);

/// A term is a constant, a labeled null, or a variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A constant.
    Const(Constant),
    /// A labeled null.
    Null(NullValue),
    /// A variable.
    Var(Variable),
}

/// A ground term: a constant or a labeled null (what may occur in a fact).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroundTerm {
    /// A constant.
    Const(Constant),
    /// A labeled null.
    Null(NullValue),
}

impl Constant {
    /// Creates a constant with the given name.
    pub fn new(name: &str) -> Self {
        Constant(Symbol::new(name))
    }

    /// The constant's name.
    pub fn name(&self) -> String {
        self.0.as_str()
    }
}

impl Variable {
    /// Creates a variable with the given name.
    pub fn new(name: &str) -> Self {
        Variable(Symbol::new(name))
    }

    /// The variable's name.
    pub fn name(&self) -> String {
        self.0.as_str()
    }
}

impl NullValue {
    /// The numeric label of the null.
    pub fn label(&self) -> u64 {
        self.0
    }
}

impl Term {
    /// Returns `true` iff the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Returns `true` iff the term is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }

    /// Returns `true` iff the term is a labeled null.
    pub fn is_null(&self) -> bool {
        matches!(self, Term::Null(_))
    }

    /// Returns the ground term if this term is ground (constant or null).
    pub fn as_ground(&self) -> Option<GroundTerm> {
        match self {
            Term::Const(c) => Some(GroundTerm::Const(*c)),
            Term::Null(n) => Some(GroundTerm::Null(*n)),
            Term::Var(_) => None,
        }
    }
}

impl GroundTerm {
    /// Returns `true` iff the ground term is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, GroundTerm::Const(_))
    }

    /// Returns `true` iff the ground term is a labeled null.
    pub fn is_null(&self) -> bool {
        matches!(self, GroundTerm::Null(_))
    }

    /// Returns the null if this ground term is one.
    pub fn as_null(&self) -> Option<NullValue> {
        match self {
            GroundTerm::Null(n) => Some(*n),
            GroundTerm::Const(_) => None,
        }
    }

    /// Returns the constant if this ground term is one.
    pub fn as_const(&self) -> Option<Constant> {
        match self {
            GroundTerm::Const(c) => Some(*c),
            GroundTerm::Null(_) => None,
        }
    }
}

impl From<GroundTerm> for Term {
    fn from(g: GroundTerm) -> Term {
        match g {
            GroundTerm::Const(c) => Term::Const(c),
            GroundTerm::Null(n) => Term::Null(n),
        }
    }
}

impl From<Constant> for Term {
    fn from(c: Constant) -> Term {
        Term::Const(c)
    }
}

impl From<Variable> for Term {
    fn from(v: Variable) -> Term {
        Term::Var(v)
    }
}

impl From<NullValue> for Term {
    fn from(n: NullValue) -> Term {
        Term::Null(n)
    }
}

impl From<Constant> for GroundTerm {
    fn from(c: Constant) -> GroundTerm {
        GroundTerm::Const(c)
    }
}

impl From<NullValue> for GroundTerm {
    fn from(n: NullValue) -> GroundTerm {
        GroundTerm::Null(n)
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl fmt::Display for NullValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:n{}", self.0)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(c) => write!(f, "{c}"),
            Term::Null(n) => write!(f, "{n}"),
            Term::Var(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for GroundTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundTerm::Const(c) => write!(f, "{c}"),
            GroundTerm::Null(n) => write!(f, "{n}"),
        }
    }
}

impl fmt::Debug for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Debug for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Debug for NullValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Debug for GroundTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_kind_predicates() {
        let c = Term::Const(Constant::new("a"));
        let v = Term::Var(Variable::new("x"));
        let n = Term::Null(NullValue(3));
        assert!(c.is_const() && !c.is_var() && !c.is_null());
        assert!(v.is_var() && !v.is_const() && !v.is_null());
        assert!(n.is_null() && !n.is_const() && !n.is_var());
    }

    #[test]
    fn ground_term_conversion() {
        let c = Term::Const(Constant::new("a"));
        let v = Term::Var(Variable::new("x"));
        assert_eq!(c.as_ground(), Some(GroundTerm::Const(Constant::new("a"))));
        assert_eq!(v.as_ground(), None);
        let back: Term = GroundTerm::Const(Constant::new("a")).into();
        assert_eq!(back, c);
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(Constant::new("a"), Constant::new("a"));
        assert_ne!(Constant::new("a"), Constant::new("b"));
        assert_eq!(Variable::new("x"), Variable::new("x"));
        assert_eq!(NullValue(1), NullValue(1));
        assert_ne!(NullValue(1), NullValue(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Term::Const(Constant::new("alice"))), "alice");
        assert_eq!(format!("{}", Term::Var(Variable::new("x"))), "?x");
        assert_eq!(format!("{}", Term::Null(NullValue(7))), "_:n7");
    }

    #[test]
    fn ground_term_accessors() {
        let n = GroundTerm::Null(NullValue(5));
        let c = GroundTerm::Const(Constant::new("a"));
        assert_eq!(n.as_null(), Some(NullValue(5)));
        assert_eq!(n.as_const(), None);
        assert_eq!(c.as_const(), Some(Constant::new("a")));
        assert_eq!(c.as_null(), None);
    }
}
