//! Predicate positions, the basic unit of the static termination criteria.
//!
//! A *position* `R[i]` denotes the `i`-th argument slot of predicate `R`. Weak
//! acyclicity, safety, super-weak acyclicity and the adornment machinery all reason
//! about how values propagate between positions.

use crate::atom::Predicate;
use std::fmt;

/// A position `R[i]`: the `i`-th argument slot (0-based) of predicate `R`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Position {
    /// The predicate.
    pub predicate: Predicate,
    /// The 0-based argument index.
    pub index: usize,
}

impl Position {
    /// Creates a position.
    pub fn new(predicate: Predicate, index: usize) -> Self {
        Position { predicate, index }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.predicate.name, self.index + 1)
    }
}

impl fmt::Debug for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_based_like_the_literature() {
        let p = Predicate::new("E", 2);
        assert_eq!(format!("{}", Position::new(p, 0)), "E[1]");
        assert_eq!(format!("{}", Position::new(p, 1)), "E[2]");
    }

    #[test]
    fn positions_of_distinct_predicates_differ() {
        let p = Predicate::new("A", 1);
        let q = Predicate::new("B", 1);
        assert_ne!(Position::new(p, 0), Position::new(q, 0));
    }
}
