//! Predicates, atoms and facts.

use crate::error::CoreError;
use crate::interner::Symbol;
use crate::substitution::NullSubstitution;
use crate::term::{Constant, GroundTerm, NullValue, Term, Variable};
use std::collections::BTreeSet;
use std::fmt;

/// A predicate: an interned name together with an arity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Predicate {
    /// Interned predicate name.
    pub name: Symbol,
    /// Number of argument positions.
    pub arity: usize,
}

impl Predicate {
    /// Creates a predicate with the given name and arity.
    pub fn new(name: &str, arity: usize) -> Self {
        Predicate {
            name: Symbol::new(name),
            arity,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

impl fmt::Debug for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// An atom `R(t1, …, tn)` whose arguments may be constants, nulls or variables.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// The predicate of the atom.
    pub predicate: Predicate,
    /// The argument terms (length equals `predicate.arity`).
    pub terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom, checking that the number of terms matches the arity.
    pub fn new(predicate: Predicate, terms: Vec<Term>) -> Result<Self, CoreError> {
        if terms.len() != predicate.arity {
            return Err(CoreError::ArityMismatch {
                predicate: predicate.name.as_str(),
                expected: predicate.arity,
                found: terms.len(),
            });
        }
        Ok(Atom { predicate, terms })
    }

    /// Creates an atom inferring the arity from the number of terms.
    pub fn from_parts(name: &str, terms: Vec<Term>) -> Self {
        Atom {
            predicate: Predicate::new(name, terms.len()),
            terms,
        }
    }

    /// All variables occurring in the atom, in order of first occurrence.
    pub fn variables(&self) -> Vec<Variable> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if seen.insert(*v) {
                    out.push(*v);
                }
            }
        }
        out
    }

    /// All constants occurring in the atom.
    pub fn constants(&self) -> Vec<Constant> {
        self.terms
            .iter()
            .filter_map(|t| match t {
                Term::Const(c) => Some(*c),
                _ => None,
            })
            .collect()
    }

    /// Converts the atom into a fact; fails if a variable occurs.
    pub fn to_fact(&self) -> Option<Fact> {
        let mut args = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            args.push(t.as_ground()?);
        }
        Some(Fact {
            predicate: self.predicate,
            terms: args,
        })
    }

    /// Applies a variable-renaming-free map over terms, producing a new atom.
    pub fn map_terms(&self, f: impl FnMut(&Term) -> Term) -> Atom {
        Atom {
            predicate: self.predicate,
            terms: self.terms.iter().map(f).collect(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate.name)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A fact: an atom whose arguments are all ground (constants or labeled nulls).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    /// The predicate of the fact.
    pub predicate: Predicate,
    /// The ground argument terms.
    pub terms: Vec<GroundTerm>,
}

impl Fact {
    /// Creates a fact, checking the arity.
    pub fn new(predicate: Predicate, terms: Vec<GroundTerm>) -> Result<Self, CoreError> {
        if terms.len() != predicate.arity {
            return Err(CoreError::ArityMismatch {
                predicate: predicate.name.as_str(),
                expected: predicate.arity,
                found: terms.len(),
            });
        }
        Ok(Fact { predicate, terms })
    }

    /// Creates a fact inferring the arity from the number of terms.
    pub fn from_parts(name: &str, terms: Vec<GroundTerm>) -> Self {
        Fact {
            predicate: Predicate::new(name, terms.len()),
            terms,
        }
    }

    /// The nulls occurring in the fact.
    pub fn nulls(&self) -> Vec<NullValue> {
        self.terms
            .iter()
            .filter_map(|t| match t {
                GroundTerm::Null(n) => Some(*n),
                _ => None,
            })
            .collect()
    }

    /// Returns `true` iff no labeled null occurs in the fact.
    pub fn is_null_free(&self) -> bool {
        self.terms.iter().all(|t| t.is_const())
    }

    /// Applies a null substitution, replacing occurrences of the substituted null.
    pub fn apply(&self, gamma: &NullSubstitution) -> Fact {
        Fact {
            predicate: self.predicate,
            terms: self.terms.iter().map(|t| gamma.apply_ground(*t)).collect(),
        }
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate.name)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Constant, NullValue, Variable};

    fn c(s: &str) -> Term {
        Term::Const(Constant::new(s))
    }
    fn v(s: &str) -> Term {
        Term::Var(Variable::new(s))
    }

    #[test]
    fn atom_arity_check() {
        let p = Predicate::new("R", 2);
        assert!(Atom::new(p, vec![c("a")]).is_err());
        assert!(Atom::new(p, vec![c("a"), v("x")]).is_ok());
    }

    #[test]
    fn atom_variables_in_order_without_duplicates() {
        let a = Atom::from_parts("R", vec![v("x"), v("y"), v("x")]);
        assert_eq!(a.variables(), vec![Variable::new("x"), Variable::new("y")]);
    }

    #[test]
    fn atom_groundness_and_fact_conversion() {
        let ground = Atom::from_parts("R", vec![c("a"), Term::Null(NullValue(1))]);
        let open = Atom::from_parts("R", vec![c("a"), v("x")]);
        assert!(ground.to_fact().is_some());
        assert!(open.to_fact().is_none());
    }

    #[test]
    fn fact_nulls_and_null_free() {
        let f1 = Fact::from_parts(
            "E",
            vec![
                GroundTerm::Const(Constant::new("a")),
                GroundTerm::Null(NullValue(2)),
            ],
        );
        assert_eq!(f1.nulls(), vec![NullValue(2)]);
        assert!(!f1.is_null_free());
        let f2 = Fact::from_parts("N", vec![GroundTerm::Const(Constant::new("a"))]);
        assert!(f2.is_null_free());
    }

    #[test]
    fn fact_apply_substitution() {
        let f = Fact::from_parts(
            "E",
            vec![
                GroundTerm::Const(Constant::new("a")),
                GroundTerm::Null(NullValue(1)),
            ],
        );
        let gamma = NullSubstitution::single(NullValue(1), GroundTerm::Const(Constant::new("a")));
        let g = f.apply(&gamma);
        assert!(g.is_null_free());
        assert_eq!(g.terms[1], GroundTerm::Const(Constant::new("a")));
    }

    #[test]
    fn display_round_trip_shapes() {
        let a = Atom::from_parts("Edge", vec![v("x"), c("b")]);
        assert_eq!(format!("{a}"), "Edge(?x, b)");
        let f = Fact::from_parts("N", vec![GroundTerm::Null(NullValue(4))]);
        assert_eq!(format!("{f}"), "N(_:n4)");
    }
}
