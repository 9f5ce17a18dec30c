//! A process-wide string interner.
//!
//! Predicate names, constant names and variable names are interned into compact
//! [`Symbol`] handles so that terms and atoms are small, `Copy`, hashable and cheap
//! to compare. Interning is global (guarded by a [`std::sync::RwLock`]) which keeps
//! the rest of the API free of interner plumbing; the sets of distinct names occurring
//! in dependency sets and chase runs are small, so the table never becomes a
//! bottleneck.

use crate::hash::FastMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string.
///
/// Two symbols compare equal iff they were created from equal strings.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    map: FastMap<String, u32>,
    strings: Vec<String>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            map: FastMap::default(),
            strings: Vec::new(),
        }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_owned());
        self.map.insert(s.to_owned(), id);
        id
    }
}

fn global() -> &'static RwLock<Interner> {
    static GLOBAL: OnceLock<RwLock<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Interner::new()))
}

impl Symbol {
    /// Interns `s` and returns its symbol.
    pub fn new(s: &str) -> Symbol {
        // Fast path: read lock only.
        {
            let guard = global().read().expect("interner lock poisoned");
            if let Some(&id) = guard.map.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = global().write().expect("interner lock poisoned");
        Symbol(guard.intern(s))
    }

    /// Returns the string this symbol was interned from.
    pub fn as_str(&self) -> String {
        global().read().expect("interner lock poisoned").strings[self.0 as usize].clone()
    }

    /// Appends the string this symbol was interned from to `out`, read in place
    /// under the lock instead of cloned.
    pub fn push_to(&self, out: &mut String) {
        out.push_str(&global().read().expect("interner lock poisoned").strings[self.0 as usize]);
    }

    /// Returns the raw numeric id. Only meaningful within a single process.
    pub fn raw(&self) -> u32 {
        self.0
    }
}

#[cfg(test)]
impl Symbol {
    /// Interns `names` under one write lock, so that the names not interned yet get
    /// consecutive ids even while other threads intern.
    pub(crate) fn new_run<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<Symbol> {
        let mut guard = global().write().expect("interner lock poisoned");
        names.into_iter().map(|s| Symbol(guard.intern(s))).collect()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("hello");
        let b = Symbol::new("hello");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::new("R");
        let b = Symbol::new("S");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "R");
        assert_eq!(b.as_str(), "S");
    }

    #[test]
    fn push_to_appends_the_name() {
        let mut out = String::from("eq_refl_");
        Symbol::new("Person").push_to(&mut out);
        assert_eq!(out, "eq_refl_Person");
    }

    #[test]
    fn display_round_trips() {
        let a = Symbol::new("Person");
        assert_eq!(format!("{a}"), "Person");
    }

    #[test]
    fn from_string_and_str_agree() {
        let a: Symbol = "x".into();
        let b: Symbol = String::from("x").into();
        assert_eq!(a, b);
    }

    #[test]
    fn symbols_are_ordered_consistently_with_creation() {
        let a = Symbol::new("zzz_first_unique_zzz");
        let b = Symbol::new("zzz_second_unique_zzz");
        assert!(a.raw() < b.raw());
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::new("concurrent-symbol").raw()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
