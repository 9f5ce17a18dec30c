//! Ergonomic constructors for terms, atoms and dependencies.
//!
//! These helpers keep tests and examples terse without going through the parser:
//!
//! ```
//! use chase_core::builder::{atom, cst, var, tgd, egd};
//!
//! let r1 = tgd("r1", vec![atom("N", vec![var("x")])], vec![atom("E", vec![var("x"), var("y")])]);
//! let r3 = egd("r3", vec![atom("E", vec![var("x"), var("y")])], "x", "y");
//! assert!(r1.is_existential());
//! assert!(r3.is_egd());
//! ```

use crate::atom::Atom;
use crate::dependency::{Dependency, Egd, Tgd};
use crate::term::{Constant, Term, Variable};

/// A variable term `?name`.
pub fn var(name: &str) -> Term {
    Term::Var(Variable::new(name))
}

/// A constant term.
pub fn cst(name: &str) -> Term {
    Term::Const(Constant::new(name))
}

/// An atom `predicate(terms…)`, inferring the arity from the argument count.
pub fn atom(predicate: &str, terms: Vec<Term>) -> Atom {
    Atom::from_parts(predicate, terms)
}

/// A TGD with the given label; existential variables are inferred (head variables not
/// occurring in the body). Panics on malformed input — intended for tests and examples.
pub fn tgd(label: &str, body: Vec<Atom>, head: Vec<Atom>) -> Dependency {
    Dependency::Tgd(Tgd::new(Some(label.to_owned()), body, head).expect("malformed TGD in builder"))
}

/// An EGD `body → left = right` with the given label. Panics on malformed input.
pub fn egd(label: &str, body: Vec<Atom>, left: &str, right: &str) -> Dependency {
    Dependency::Egd(
        Egd::new(
            Some(label.to_owned()),
            body,
            Variable::new(left),
            Variable::new(right),
        )
        .expect("malformed EGD in builder"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_example1() {
        let r1 = tgd(
            "r1",
            vec![atom("N", vec![var("x")])],
            vec![atom("E", vec![var("x"), var("y")])],
        );
        let r2 = tgd(
            "r2",
            vec![atom("E", vec![var("x"), var("y")])],
            vec![atom("N", vec![var("y")])],
        );
        let r3 = egd("r3", vec![atom("E", vec![var("x"), var("y")])], "x", "y");
        assert!(r1.is_existential());
        assert!(r2.is_full() && r2.is_tgd());
        assert!(r3.is_egd() && r3.is_full());
        assert_eq!(r1.label(), Some("r1"));
    }

    #[test]
    #[should_panic(expected = "malformed EGD")]
    fn builder_panics_on_bad_egd() {
        let _ = egd("bad", vec![atom("E", vec![var("x"), var("y")])], "x", "zzz");
    }

    #[test]
    fn constants_in_atoms() {
        let a = atom("Role", vec![cst("admin"), var("u")]);
        assert_eq!(a.constants().len(), 1);
        assert_eq!(a.variables().len(), 1);
    }
}
