//! The adornment algorithm `Adn∃` (Algorithm 1 and Function 2 of the paper) and the
//! semi-acyclicity criterion (Definition 4).
//!
//! The algorithm rewrites a set of dependencies `Σ` into a set of *adorned*
//! dependencies `Σµ` that tracks how terms can be derived during a chase execution:
//! every predicate argument is annotated with `b` ("bound": a value derived from the
//! database) or a *free* symbol `f_i` standing for the labeled nulls invented by one
//! existential variable of one rule under one adornment of its body. EGDs are analysed
//! *directly*: when an adorned EGD shows that a free symbol must be equal to `b` (or to
//! another free symbol), the corresponding substitution is applied to the whole adorned
//! set, which is exactly how enforcing the EGD during a real chase would collapse the
//! invented nulls.
//!
//! The boolean `Acyc` returned by the algorithm defines the **semi-acyclicity**
//! criterion (`SAC`): if no "cyclic" adornment symbol is ever produced, then for every
//! database there is a terminating standard chase sequence of polynomial length
//! (Theorem 8). The adorned set `Σµ` itself can be fed to any other termination
//! criterion, yielding the strictly more powerful `Adn∃-C` criteria (Theorems 10–11);
//! see [`crate::combined`].
//!
//! # The `Dµ(Σµ)` substitution-bookkeeping invariant
//!
//! Whether an EGD induces a substitution τ (line 9 of Algorithm 1) is tested on the
//! abstraction `Dµ(Σµ)`: one fact per adorned predicate, `b` as a constant, free
//! symbols as labeled nulls. The invariant this module maintains is that **distinct
//! facts of `Dµ(Σµ)` never share a labeled null**: a free symbol `f_i` denotes a
//! *family* of nulls — one per Skolem instantiation of its definitions, and a θ-merge
//! (lines 13–14) can fold several Skolem classes into one symbol — so only
//! occurrences of `f_i` inside the *same* fact are known to denote the same null.
//!
//! The historical soundness gap came from violating this invariant: with a single
//! global null per symbol, an EGD body could join two distinct facts through a
//! shared null — a match no real chase step realises, since the two facts stand for
//! different Skolem instantiations — and the resulting spurious τ deleted a cyclic
//! symbol's definitions, erasing the very evidence the cyclicity test needed. The
//! distilled reproducer (a cyclic gadget `g1`/`g2`, an unrelated functional EGD on
//! `R0`, and a copy chain `c1`/`c2` enabling the θ-merge) must be rejected:
//!
//! ```
//! use chase_core::parser::parse_dependencies;
//! use chase_termination::adornment::adorn;
//!
//! let sigma = parse_dependencies(
//!     r#"
//!     a1: C0(?x) -> exists ?y: R0(?y, ?x).
//!     c1: R0(?x, ?y) -> C2(?x).
//!     c2: C2(?x) -> C3(?x).
//!     g1: C0(?x) -> exists ?y: Rcyc(?x, ?y).
//!     g2: Rcyc(?x, ?y) -> C0(?y).
//!     e1: R0(?x, ?y), R0(?x, ?z) -> ?y = ?z.
//!     "#,
//! )
//! .unwrap();
//! assert!(!adorn(&sigma).acyclic, "the gadget's cycle must be found");
//! ```
//!
//! Skipping a match that is only realizable across facts biases the criterion toward
//! *rejection*, which is the sound direction for a sufficient termination condition;
//! genuinely single-fact EGD violations (e.g. Σ1's `E(?x, ?y) -> ?x = ?y`) still fire
//! their τ exactly as the paper prescribes.
//!
//! # Representation
//!
//! An adorned predicate `R^α` is a fresh predicate of `Σµ`, and an adorned rule is
//! kept as what it is: a [`Dependency`] over such predicates, with the index of its
//! source in Σ, prepared once for the firing test. A per-run table maps `(R, α)` to
//! its predicate and back. The name (`R`, a separator, then `α`, as in `E__bf1`) is
//! formatted and interned the first time the table needs it, so rendering an atom is
//! one lookup, and the algorithm reads an atom's adornment back through the table.
//!
//! The separator is the shortest run of two or more `_` that occurs in no predicate
//! name of Σ: `__` unless some name contains it. An input name never contains the
//! separator and an adornment string has no `_`, so an adorned predicate is neither
//! an input predicate nor another adorned one. A fixed `__` would make an input
//! predicate `E__bb` the adorned `E^bb`, and SAC would accept `E(?x, ?y) → ∃z
//! E(?y, ?z)` next to any rule reading `E__bb`.
//!
//! τ and θ rewrite predicates: a rule is rebuilt only when the adornment of one of
//! its atoms mentions a rewritten symbol, and the other rules keep their prepared
//! dependency. When one iteration finds both, `Σµ` takes τ followed by θ in one
//! pass, so the rewrite names only the predicates of the rewritten rules, in rule
//! order (predicates order by the interned id of their name, and the `Adn∃-C`
//! criteria run on `Σµ`). Rules carry no label while the run is in progress:
//! `base_R` and `adnk_of_rs` are attached by position to the final `Σµ`.

use crate::firing::{Blockers, Definition2Memo};
use chase_core::hash::FastMap;
use chase_core::{
    Atom, Constant, Dependency, DependencySet, Egd, Fact, GroundTerm, Instance, NullValue,
    Predicate, Term, Tgd, Variable,
};
use chase_criteria::firing::PreparedDependency;
use chase_criteria::graph::DiGraph;
use chase_criteria::AnalysisContext;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// An adornment symbol: `b` (bound) or a free symbol `f_i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AdSym {
    /// The bound symbol `b`.
    B,
    /// A free symbol `f_i` (indices start at 1).
    F(u32),
}

impl fmt::Display for AdSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdSym::B => write!(f, "b"),
            AdSym::F(i) => write!(f, "f{i}"),
        }
    }
}

/// An adornment: one symbol per predicate position.
pub type Adornment = Vec<AdSym>;

fn adornment_string(adornment: &[AdSym]) -> String {
    adornment.iter().map(|s| s.to_string()).collect()
}

/// A substitution of free symbols: τ, θ, or τ followed by θ.
type SymbolMap = BTreeMap<u32, AdSym>;

/// `symbol` under `map`.
fn substitute(symbol: AdSym, map: &SymbolMap) -> AdSym {
    match symbol {
        AdSym::F(i) => map.get(&i).copied().unwrap_or(symbol),
        AdSym::B => symbol,
    }
}

/// An adornment definition `f_i = f^r_z(α)`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AdnDefinition {
    /// The defined free symbol index (`i` in `f_i`).
    pub symbol: u32,
    /// The index (in the original set) of the existential TGD `r`.
    pub rule: usize,
    /// The index of the existential variable `z` within `r` (in declaration order).
    pub var_index: usize,
    /// The argument string `α`: the adornments of the frontier variables of `r`.
    pub args: Vec<AdSym>,
}

impl fmt::Display for AdnDefinition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f{} = f^r{}_z{}({})",
            self.symbol,
            self.rule,
            self.var_index,
            adornment_string(&self.args)
        )
    }
}

impl AdnDefinition {
    /// The largest symbol the definition mentions, as its symbol or an argument.
    fn largest_symbol(&self) -> u32 {
        self.args.iter().fold(self.symbol, |max, s| match s {
            AdSym::F(i) => max.max(*i),
            AdSym::B => max,
        })
    }
}

/// The adorned predicates of one run: `R^α` is the fresh predicate named `R`, the
/// separator, then `α`, interned the first time it is needed (see the module
/// documentation).
struct AdornedNames {
    /// The shortest run of two or more `_` that no predicate name of Σ contains.
    separator: String,
    /// `R^α` by `R`, then by `α`.
    by_source: FastMap<Predicate, FastMap<Adornment, Predicate>>,
    /// `R` and `α` by `R^α`.
    by_name: FastMap<Predicate, (Predicate, Adornment)>,
}

impl AdornedNames {
    fn new(sigma: &DependencySet) -> Self {
        let longest_run = sigma
            .predicates()
            .iter()
            .flat_map(|p| p.name.as_str().split(|c| c != '_').map(str::len).max())
            .max()
            .unwrap_or(0);
        AdornedNames {
            separator: "_".repeat(longest_run.max(1) + 1),
            by_source: FastMap::default(),
            by_name: FastMap::default(),
        }
    }

    /// `source^adornment`.
    fn predicate(&mut self, source: Predicate, adornment: &[AdSym]) -> Predicate {
        if let Some(&adorned) = self.by_source.get(&source).and_then(|by| by.get(adornment)) {
            return adorned;
        }
        let name = format!(
            "{}{}{}",
            source.name,
            self.separator,
            adornment_string(adornment)
        );
        let adorned = Predicate::new(&name, source.arity);
        let adornment = adornment.to_vec();
        self.by_source
            .entry(source)
            .or_default()
            .insert(adornment.clone(), adorned);
        self.by_name.insert(adorned, (source, adornment));
        adorned
    }

    /// The source and the adornment of an adorned predicate; `None` for a predicate
    /// of Σ.
    fn adornment(&self, predicate: Predicate) -> Option<&(Predicate, Adornment)> {
        self.by_name.get(&predicate)
    }

    /// `dep` with `map` applied to its adornments, or `None` when no adornment of
    /// `dep` mentions a symbol that `map` rewrites.
    fn rewrite(&mut self, dep: &Dependency, map: &SymbolMap) -> Option<Dependency> {
        let touched = |atom: &Atom| {
            self.adornment(atom.predicate)
                .is_some_and(|(_, adornment)| {
                    adornment
                        .iter()
                        .any(|s| matches!(s, AdSym::F(i) if map.contains_key(i)))
                })
        };
        if !dep.body().iter().chain(dep.head_atoms()).any(touched) {
            return None;
        }
        let mut image = |atom: &Atom| {
            let predicate = match self.adornment(atom.predicate) {
                Some(&(source, ref adornment)) => {
                    let adornment: Adornment =
                        adornment.iter().map(|s| substitute(*s, map)).collect();
                    self.predicate(source, &adornment)
                }
                None => atom.predicate,
            };
            Atom {
                predicate,
                terms: atom.terms.clone(),
            }
        };
        let body = dep.body().iter().map(&mut image).collect();
        let head = dep.head_atoms().iter().map(&mut image).collect();
        Some(adorned_version(dep, body, head))
    }
}

/// `dep` over the atoms `body` and, for a TGD, `head`, unlabelled: an adorned
/// version of `dep`.
fn adorned_version(dep: &Dependency, body: Vec<Atom>, head: Vec<Atom>) -> Dependency {
    match dep {
        Dependency::Egd(e) => Dependency::Egd(
            Egd::new(None, body, e.left, e.right).expect("adorned EGD is well-formed"),
        ),
        Dependency::Tgd(_) => {
            Dependency::Tgd(Tgd::new(None, body, head).expect("adorned TGD is well-formed"))
        }
    }
}

/// An adorned dependency: the index in Σ of its source (`None` for a base rule
/// `R(x̄) → R^{b…b}(x̄)`), and the dependency over adorned predicates, unlabelled
/// and prepared for the firing test.
struct AdRule {
    src: Option<usize>,
    dep: PreparedDependency<'static>,
}

impl AdRule {
    fn dependency(&self) -> &Dependency {
        self.dep.dependency()
    }
}

/// Hard cap on the number of adorned dependencies, base rules included: a run with
/// more, or with more than four times as many main-loop iterations, stops with
/// `Acyc = false` (a conservative rejection) and [`AdnResult::budget_exhausted`].
const MAX_ADORNED_RULES: usize = 5_000;

/// The result of running `Adn∃` on a dependency set.
#[derive(Clone, Debug)]
pub struct AdnResult {
    /// The adorned dependency set `Σµ = Adn∃(Σ)[1]`, with adorned predicates rendered
    /// as fresh predicates `R__bf1…` (with a longer separator when a predicate name of
    /// Σ contains `__`). Includes the base rules `R(x̄) → R^{b…b}(x̄)`.
    pub adorned: DependencySet,
    /// The boolean `Acyc = Adn∃(Σ)[2]`: `true` iff no cyclic adornment was detected.
    pub acyclic: bool,
    /// The final set of adornment definitions `AD`.
    pub definitions: Vec<AdnDefinition>,
    /// Number of adorned dependencies produced (excluding the base rules).
    pub adorned_rule_count: usize,
    /// Number of main-loop iterations executed.
    pub iterations: usize,
    /// The fireable pairs `(s, r)` over the *original* set used by the Ω(AD)
    /// cyclicity test: the edges of the Definition-2 firing graph.
    pub fireable_pairs: Vec<(usize, usize)>,
    /// `true` iff the rule budget was exhausted (the result is then a conservative
    /// rejection).
    pub budget_exhausted: bool,
    /// Number of τ, θ and deduplicating rewrites of `Σµ`: the only steps that are not
    /// appends, so the only ones after which the state indexed from the rules
    /// (`AP(Σµ)`, the bodies, writers, EGDs and blockers, and which bodies of which
    /// dependencies are still to be tested) is re-indexed, and every dependency
    /// revisited in full. Not part of the witness.
    pub rebuilds: usize,
}

impl AdnResult {
    /// The ratio `|Σµ| / |Σ|` reported in Table 2(b) of the paper (base rules included
    /// in `|Σµ|`, as they are part of the output set).
    pub fn size_ratio(&self, original: &DependencySet) -> f64 {
        if original.is_empty() {
            return 1.0;
        }
        self.adorned.len() as f64 / original.len() as f64
    }
}

/// Runs the adornment algorithm `Adn∃` (Algorithm 1). The `fireable` condition of
/// Function 2 is Definition 2's firing test over the current adorned set.
pub fn adorn(sigma: &DependencySet) -> AdnResult {
    // The context, and with it its share of the result, is dropped with this
    // statement, so the result is moved out, not cloned.
    let result = adorn_in(&AnalysisContext::new(sigma));
    Rc::unwrap_or_clone(result)
}

/// Builds the [`Witness`](chase_criteria::Witness) describing an adornment run: the
/// trace of Algorithm 1 (definitions, rule and iteration counts) together with the
/// fireable-pair set driving the Ω(AD) cyclicity test.
pub fn adornment_witness(result: &AdnResult) -> chase_criteria::Witness {
    chase_criteria::Witness::AdornmentTrace {
        adorned_rules: result.adorned_rule_count,
        iterations: result.iterations,
        definitions: result.definitions.iter().map(|d| d.to_string()).collect(),
        fireable_pairs: result
            .fireable_pairs
            .iter()
            .map(|&(s, r)| (chase_core::DepId(s), chase_core::DepId(r)))
            .collect(),
        budget_exhausted: result.budget_exhausted,
    }
}

/// Semi-acyclicity (`SAC`, Definition 4) as a witness-producing
/// [`TerminationCriterion`](chase_criteria::TerminationCriterion): runs `Adn∃` and
/// reports the adornment trace and fireable-pair set either way.
#[derive(Clone, Copy, Debug, Default)]
pub struct SemiAcyclicity;

impl chase_criteria::TerminationCriterion for SemiAcyclicity {
    fn name(&self) -> &'static str {
        "SAC"
    }

    fn guarantee(&self) -> chase_criteria::Guarantee {
        chase_criteria::Guarantee::SomeSequence
    }

    fn cost(&self) -> u32 {
        80
    }

    fn verdict_in(&self, cx: &AnalysisContext) -> chase_criteria::Verdict {
        let result = adorn_in(cx);
        chase_criteria::Verdict {
            criterion: self.name(),
            guarantee: chase_criteria::Guarantee::SomeSequence,
            accepted: result.acyclic,
            witness: adornment_witness(&result),
        }
    }
}

/// `Adn∃` on the context's set: run once per analysis and shared by SAC and every
/// `Adn∃-C` criterion.
pub(crate) fn adorn_in(cx: &AnalysisContext) -> Rc<AdnResult> {
    cx.shared("Adn∃", || Adn::new(cx, MAX_ADORNED_RULES).run())
}

// ---------------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------------

/// One run of Algorithm 1. Its main loop is semi-naive: lines 6–12 try only the
/// dependencies that are not settled, in the paper's scan order, and each tests only
/// the bodies that changed since its last try ([`Revisit`]). The rules, symbols and
/// iterations are those of the full rescan, which rescans every body of every
/// dependency after each appended rule.
struct Adn<'a> {
    sigma: &'a DependencySet,
    /// [`MAX_ADORNED_RULES`], or a smaller cap in tests.
    rule_cap: usize,
    /// Firing information over the *original* set, used by the Ω(AD) cyclicity test.
    original_firing: OriginalFiring,
    /// The scan order of lines 6–12: the universally quantified dependencies of the
    /// original set, EGDs first (lines 6–10), then the existential ones (lines 11–12).
    /// `rank` is its inverse, and the existential dependencies are at `existential..`.
    order: Vec<usize>,
    rank: Vec<usize>,
    existential: usize,
    /// `readers[p]`: the dependencies of the original set whose body mentions `p`.
    readers: HashMap<Predicate, Vec<usize>>,
    names: AdornedNames,
    rules: Vec<AdRule>,
    /// The indices in `rules` of the adorned versions of each original dependency,
    /// ascending.
    versions: Vec<Vec<usize>>,
    /// What is indexed from `rules`: built on first use, extended in place when a
    /// rule is appended, and dropped when a rewrite changes `rules`.
    derived: Option<Derived>,
    /// Definition 2's answers by pair shape, for the whole run: a shape key describes
    /// its pair up to renaming, so it stays valid across rewrites.
    memo: Definition2Memo,
    ad: Vec<AdnDefinition>,
    /// `AD` indexed by `(rule, var_index, args)`, to the first such definition's
    /// symbol, and the largest symbol `AD` mentions (as a definition or an argument):
    /// the next fresh symbol is one more. Rebuilt after every τ and θ.
    ad_index: AdIndex,
    ad_max: u32,
    acyclic: bool,
    iterations: usize,
    budget_exhausted: bool,
    rebuilds: usize,
    /// Test-only: ignore every [`Revisit`] and enumerate all bodies each time, as the
    /// full rescan of lines 6–12 does.
    #[cfg(test)]
    full_rescan: bool,
}

/// `AD` by `(rule, var_index)`, then by `args`, to the symbol of the first such
/// definition.
type AdIndex = HashMap<(usize, usize), HashMap<Vec<AdSym>, u32>>;

fn index_definition(index: &mut AdIndex, def: &AdnDefinition) {
    index
        .entry((def.rule, def.var_index))
        .or_default()
        .entry(def.args.clone())
        .or_insert(def.symbol);
}

/// `AP(Σµ)`, the adorned predicates, indexed by predicate. Iterated nested, it is in
/// `(predicate, adornment)` order.
type AdornedPredicates = BTreeMap<Predicate, BTreeSet<Adornment>>;

/// The state `Adn∃` indexes from its adorned rules. Appending a rule only adds to it.
///
/// The rules a candidate is tested against are found by index: `writers` maps each
/// adorned predicate to the TGD rules whose head writes it, and `egds` lists the
/// adorned EGDs, both ascending. A TGD rule whose head writes no predicate of the
/// candidate's body fails Definition 2's prefilter, so only an EGD is tried against
/// every candidate.
/// `blockers` is `Σ∀µ`, indexed for the relevant-blocker lookup. The answers of the
/// tests are memoised by pair shape in `Adn::memo`, which outlives this state.
///
/// `revisit` makes the main loop semi-naive: it records, per source dependency,
/// which of its coherent bodies its next `try_adorn` must look at (see [`Revisit`]).
/// All of it is dropped, and every dependency revisited in full, when a τ, θ or
/// deduplicating rewrite changes the rules. Building it again re-indexes the rules
/// and renders nothing: the rules are their own dependencies.
struct Derived {
    ap: AdornedPredicates,
    /// The bodies of the adorned versions of each original dependency, by their
    /// adorned predicates: a version's terms are its source's.
    bodies: Vec<HashSet<Vec<Predicate>>>,
    /// The TGD rules by head predicate, the EGD rules, and `Σ∀µ`.
    writers: FastMap<Predicate, Vec<usize>>,
    egds: Vec<usize>,
    blockers: Blockers<Dependency>,
    /// Per original dependency, what its next `try_adorn` tests.
    revisit: Vec<Revisit>,
    /// The positions in the scan order of the dependencies that are not settled.
    unsettled: BTreeSet<usize>,
}

impl Derived {
    fn build(rules: &[AdRule], names: &AdornedNames, sources: usize) -> Self {
        let mut derived = Derived {
            ap: BTreeMap::new(),
            bodies: vec![HashSet::new(); sources],
            writers: FastMap::default(),
            egds: Vec::new(),
            blockers: Blockers::new(),
            revisit: vec![Revisit::default(); sources],
            unsettled: (0..sources).collect(),
        };
        for (k, rule) in rules.iter().enumerate() {
            derived.append(rule, names, k);
        }
        derived
    }

    /// Revisits in full the dependencies at `positions` of the scan `order`.
    fn revisit_all(&mut self, positions: std::ops::Range<usize>, order: &[usize]) {
        for k in positions {
            self.revisit[order[k]] = Revisit::default();
            self.unsettled.insert(k);
        }
    }

    /// Accounts for `rule`, appended at `index`.
    fn append(&mut self, rule: &AdRule, names: &AdornedNames, index: usize) {
        let dep = rule.dependency();
        for atom in dep.body().iter().chain(dep.head_atoms()) {
            if let Some((source, adornment)) = names.adornment(atom.predicate) {
                let known = self.ap.entry(*source).or_default();
                if !known.contains(adornment) {
                    known.insert(adornment.clone());
                }
            }
        }
        if let Some(src) = rule.src {
            self.bodies[src].insert(dep.body().iter().map(|atom| atom.predicate).collect());
        }
        if dep.is_egd() {
            self.egds.push(index);
        }
        for atom in dep.head_atoms() {
            let writers = self.writers.entry(atom.predicate).or_default();
            if writers.last() != Some(&index) {
                writers.push(index);
            }
        }
        if dep.is_full() {
            self.blockers.push(dep.clone());
        }
    }

    /// The rules that can fire a candidate whose body is `body`: the TGD rules writing
    /// one of its predicates, then every adorned EGD.
    fn sources(&self, body: &[Atom]) -> Vec<usize> {
        let mut sources: Vec<usize> = Vec::new();
        for atom in body {
            if let Some(writers) = self.writers.get(&atom.predicate) {
                sources.extend_from_slice(writers);
            }
        }
        sources.sort_unstable();
        sources.dedup();
        sources.extend_from_slice(&self.egds);
        sources
    }
}

/// Which coherent bodies of one source dependency its next `try_adorn` must test.
///
/// Bodies are ordered by their per-atom adornment tuples: the order in which
/// [`coherent_adorned_bodies`] enumerates them, and so the order in which `try_adorn`
/// tests them and picks the first fireable one. The invariant is: **every coherent
/// body that is not after `done` and uses no element of `fed` is already the body of
/// an adorned version of the dependency, or a candidate that the full rescan would
/// test and reject now.** `try_adorn` then tests exactly the bodies after `done` and
/// those using an element of `fed`, in the full order, so it returns what the full
/// rescan returns, and leaves the rest untested.
///
/// `try_adorn` sets `done` to the body it appended (every body before it was tested),
/// or to [`Done::Everything`] when it appends nothing (the dependency is *settled*),
/// and empties `fed`. The rest of the loop keeps the invariant like this:
///
/// 1. An appended TGD rule whose head atom is `p^α` adds `(p, α)` to `fed` for every
///    dependency with `p` in its body. A body without `p^α` cannot be fired by the
///    rule: Definition 2's prefilter needs a head atom and a body atom with the same
///    adorned predicate. When `p^α` is new in `AP(Σµ)` the new bodies are exactly
///    those that use it. (This one trigger covers both "AP gained an adorned
///    predicate" and "a new rule feeds an old one".)
/// 2. An appended adorned EGD revisits every dependency in full: an EGD step changes
///    facts by merging nulls, so its firing test has no prefilter.
/// 3. A new definition in `AD` revisits every existential dependency in full: the
///    next fresh symbol moves, so a retried candidate gets a different head, and
///    Definition 2's blocking check reads the head.
/// 4. A τ, θ or deduplicating rewrite drops the whole [`Derived`] state.
#[derive(Clone, Debug, Default)]
struct Revisit {
    done: Done,
    /// The adorned predicates fed to the dependency's body since `done` was set.
    fed: AdornedPredicates,
}

/// How far through the ordered coherent bodies a dependency's last `try_adorn` got.
#[derive(Clone, Debug, Default, PartialEq)]
enum Done {
    /// Nothing: every body is tested.
    #[default]
    Nothing,
    /// Every body up to this one (by per-atom adornments), included.
    Through(Vec<Adornment>),
    /// Every body: the dependency is settled.
    Everything,
}

impl Revisit {
    /// Records that an appended rule feeds `predicate^adornment` to the body; nothing
    /// to record while every body is to be tested anyway.
    fn feed(&mut self, predicate: Predicate, adornment: &Adornment) {
        if self.done != Done::Nothing {
            let fed = self.fed.entry(predicate).or_default();
            if !fed.contains(adornment) {
                fed.insert(adornment.clone());
            }
        }
    }
}

/// Reachability structure over the original dependency set used by the cyclicity
/// condition of Ω(AD): `s ⇝ r` iff `s < r1 < · · · < rn < r` with every `ri ∈ Σ∀`.
struct OriginalFiring {
    /// The Definition-2 firing graph, shared with the analysis context.
    graph: Rc<DiGraph>,
    full: Vec<bool>,
}

impl OriginalFiring {
    fn compute(cx: &AnalysisContext) -> Self {
        let full = cx.sigma().iter().map(|(_, d)| d.is_full()).collect();
        OriginalFiring {
            graph: crate::firing::firing_graph_in(cx),
            full,
        }
    }

    /// Is there a chain `s < r1 < … < rn < r` (n ≥ 0) with every intermediate `ri`
    /// full?
    fn reaches_via_full(&self, s: usize, r: usize) -> bool {
        if self.graph.has_edge(s, r) {
            return true;
        }
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut stack: Vec<usize> = self.graph.successors(s).filter(|&m| self.full[m]).collect();
        while let Some(m) = stack.pop() {
            if !seen.insert(m) {
                continue;
            }
            if self.graph.has_edge(m, r) {
                return true;
            }
            stack.extend(
                self.graph
                    .successors(m)
                    .filter(|&next| self.full[next] && !seen.contains(&next)),
            );
        }
        false
    }
}

impl<'a> Adn<'a> {
    fn new(cx: &AnalysisContext<'a>, rule_cap: usize) -> Self {
        let sigma = cx.sigma();
        let mut readers: HashMap<Predicate, Vec<usize>> = HashMap::new();
        for (i, dep) in sigma.iter() {
            for atom in dep.body() {
                let list = readers.entry(atom.predicate).or_default();
                if list.last() != Some(&i.0) {
                    list.push(i.0);
                }
            }
        }
        let original_firing = OriginalFiring::compute(cx);
        // EGDs before full TGDs (the order is immaterial for correctness).
        let mut order: Vec<usize> = sigma
            .iter()
            .filter(|(_, d)| d.is_full())
            .map(|(i, _)| i.0)
            .collect();
        order.sort_by_key(|&i| if sigma.as_slice()[i].is_egd() { 0 } else { 1 });
        let existential = order.len();
        order.extend(
            sigma
                .iter()
                .filter(|(_, d)| d.is_existential())
                .map(|(i, _)| i.0),
        );
        let mut rank = vec![0; order.len()];
        for (k, &i) in order.iter().enumerate() {
            rank[i] = k;
        }
        // Base rules: R(x1, …, xn) → R^{b…b}(x1, …, xn) for every predicate of Σ.
        let mut names = AdornedNames::new(sigma);
        let rules = sigma
            .predicates()
            .into_iter()
            .map(|pred| {
                let terms: Vec<Term> = (0..pred.arity)
                    .map(|i| Term::Var(Variable::new(&format!("x{i}"))))
                    .collect();
                let head = Atom {
                    predicate: names.predicate(pred, &vec![AdSym::B; pred.arity]),
                    terms: terms.clone(),
                };
                let body = Atom {
                    predicate: pred,
                    terms,
                };
                let base =
                    Tgd::new(None, vec![body], vec![head]).expect("base rule is well-formed");
                AdRule {
                    src: None,
                    dep: PreparedDependency::owned(Dependency::Tgd(base)),
                }
            })
            .collect();
        Adn {
            sigma,
            rule_cap,
            original_firing,
            order,
            rank,
            existential,
            readers,
            names,
            rules,
            versions: vec![Vec::new(); sigma.len()],
            derived: None,
            memo: Definition2Memo::default(),
            ad: Vec::new(),
            ad_index: HashMap::new(),
            ad_max: 0,
            acyclic: true,
            iterations: 0,
            budget_exhausted: false,
            rebuilds: 0,
            #[cfg(test)]
            full_rescan: false,
        }
    }

    fn run(mut self) -> AdnResult {
        loop {
            self.iterations += 1;
            if self.rules.len() > self.rule_cap || self.iterations > 4 * self.rule_cap {
                self.budget_exhausted = true;
                self.acyclic = false;
                break;
            }
            let mut changed = false;
            // The substitution of `Σµ` in this iteration: τ, then θ. `AD` takes each
            // as it is found; `Σµ` takes their composition once, after θ is looked for
            // on the rules as τ left them.
            let mut rewrite = SymbolMap::new();
            // Lines 6–12, in `order`: the first dependency that yields a rule wins.
            // Settled dependencies yield none, so only the others are tried.
            let mut newly_added: Option<usize> = None;
            let mut from = 0;
            while let Some(k) = self.next_unsettled(from) {
                let idx = self.order[k];
                if let Some(rule_idx) = self.try_adorn(idx) {
                    newly_added = Some(rule_idx);
                    changed = true;
                    // Line 8–10: if the source is an EGD violated by Dµ(Σµ), apply the
                    // chase-step substitution τ.
                    if self.sigma.as_slice()[idx].is_egd() {
                        if let Some((from, to)) = self.dmu_chase_step(idx) {
                            // τ deletes the definitions of `f_from` from `AD`.
                            self.ad.retain(|d| d.symbol != from);
                            rewrite.insert(from, to);
                            self.substitute_ad(&rewrite);
                        }
                    }
                    break;
                }
                from = k + 1;
            }
            // Lines 13–16: adornment substitution θ and cyclicity detection.
            if let Some(rule_idx) = newly_added {
                let theta = self.find_valid_theta(rule_idx, &rewrite);
                if let Some(theta) = &theta {
                    self.substitute_ad(theta);
                    for to in rewrite.values_mut() {
                        *to = substitute(*to, theta);
                    }
                    for (&i, &to) in theta {
                        rewrite.entry(i).or_insert(to);
                    }
                }
                if !rewrite.is_empty() {
                    self.rewrite_rules(&rewrite);
                }
                if theta.is_some() {
                    // `headµθ is cyclic`: the head of the newly adorned dependency may
                    // itself be an equality (when the trigger was an adorned EGD, as in
                    // Example 13); in that case the cyclicity introduced by θ shows up
                    // in the heads that θ rewrote, so we inspect the whole adorned set
                    // — matching the example's "since Ω(AD) is cyclic, Acyc ≔ false".
                    let omega = self.omega_graph();
                    if self
                        .rules
                        .iter()
                        .any(|rule| head_is_cyclic(&self.names, rule.dependency(), &omega))
                    {
                        self.acyclic = false;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let adorned = self
            .rules
            .iter()
            .enumerate()
            .map(|(k, rule)| {
                let dep = rule.dependency().clone();
                let label = match rule.src {
                    None => format!("base_{}", dep.body()[0].predicate.name),
                    Some(s) => format!("adn{k}_of_r{s}"),
                };
                dep.with_label(&label)
            })
            .collect();
        let fireable_pairs: Vec<(usize, usize)> = self
            .original_firing
            .graph
            .edges()
            .map(|(s, r, _)| (s, r))
            .collect();
        AdnResult {
            adorned_rule_count: self.rules.iter().filter(|r| r.src.is_some()).count(),
            adorned,
            acyclic: self.acyclic,
            definitions: self.ad,
            iterations: self.iterations,
            fireable_pairs,
            budget_exhausted: self.budget_exhausted,
            rebuilds: self.rebuilds,
        }
    }

    /// The state indexed from the current rules, built if a rewrite dropped it.
    fn derived(&mut self) -> &mut Derived {
        let (rules, names, sources) = (&self.rules, &self.names, self.sigma.len());
        self.derived
            .get_or_insert_with(|| Derived::build(rules, names, sources))
    }

    /// The first position of `order` from `from` on whose dependency is not settled.
    fn next_unsettled(&mut self, from: usize) -> Option<usize> {
        #[cfg(test)]
        if self.full_rescan {
            return (from < self.order.len()).then_some(from);
        }
        self.derived().unsettled.range(from..).next().copied()
    }

    /// Drops what was indexed from `rules`; called on every rewrite of them.
    fn rules_changed(&mut self) {
        self.derived = None;
        for versions in &mut self.versions {
            versions.clear();
        }
        for (k, rule) in self.rules.iter().enumerate() {
            if let Some(src) = rule.src {
                self.versions[src].push(k);
            }
        }
    }

    /// Function 2 (`adorn`): tries to produce a new adorned version of the original
    /// dependency `idx`; on success the rule is appended and its index returned.
    ///
    /// Only the bodies that the dependency's [`Revisit`] leaves open are tested, in the
    /// full enumeration order, so the first fireable one is the full rescan's.
    fn try_adorn(&mut self, idx: usize) -> Option<usize> {
        let revisit = std::mem::take(&mut self.derived().revisit[idx]);
        #[cfg(test)]
        let revisit = if self.full_rescan {
            Revisit::default()
        } else {
            revisit
        };
        let dep = &self.sigma.as_slice()[idx];
        let candidates = coherent_adorned_bodies(dep.body(), &self.derived().ap, &revisit);
        let mut fresh = Vec::new();
        for (adornments, var_adornment) in candidates {
            let body: Vec<Predicate> = dep
                .body()
                .iter()
                .zip(&adornments)
                .map(|(atom, adornment)| self.names.predicate(atom.predicate, adornment))
                .collect();
            if self.derived().bodies[idx].contains(&body) {
                continue;
            }
            // Compute the adorned head (HeadAdn); its new definitions are committed to
            // AD only if the rule is appended.
            fresh.clear();
            let candidate = self.head_adorn(dep, idx, &body, &var_adornment, &mut fresh);
            if !self.is_fireable(&candidate) {
                continue;
            }
            self.derived().revisit[idx] = Revisit {
                done: Done::Through(adornments),
                fed: BTreeMap::new(),
            };
            let rule = AdRule {
                src: Some(idx),
                dep: candidate,
            };
            return Some(self.push_rule(rule, &fresh));
        }
        let settled = self.rank[idx];
        let derived = self.derived();
        derived.revisit[idx] = Revisit {
            done: Done::Everything,
            fed: BTreeMap::new(),
        };
        derived.unsettled.remove(&settled);
        None
    }

    /// Appends `rule`, whose head defined the `fresh` symbols, and revisits the
    /// dependencies it can affect (see [`Revisit`]).
    fn push_rule(&mut self, rule: AdRule, fresh: &[AdnDefinition]) -> usize {
        let index = self.rules.len();
        let (readers, rank, names) = (&self.readers, &self.rank, &self.names);
        let derived = self.derived.as_mut().expect("built by try_adorn");
        derived.append(&rule, names, index);
        let dep = rule.dependency();
        if dep.is_egd() {
            derived.revisit_all(0..self.order.len(), &self.order);
        }
        for atom in dep.head_atoms() {
            let (source, adornment) = names
                .adornment(atom.predicate)
                .expect("adorned heads are adorned");
            for &reader in readers.get(source).into_iter().flatten() {
                derived.revisit[reader].feed(*source, adornment);
                derived.unsettled.insert(rank[reader]);
            }
        }
        if !fresh.is_empty() {
            derived.revisit_all(self.existential..self.order.len(), &self.order);
            for def in fresh {
                self.ad_max = self.ad_max.max(def.largest_symbol());
                index_definition(&mut self.ad_index, def);
            }
            self.ad.extend_from_slice(fresh);
        }
        if let Some(src) = rule.src {
            self.versions[src].push(index);
        }
        self.rules.push(rule);
        index
    }

    /// HeadAdn (Section 6): the candidate adorned version of `dep` over the adorned
    /// predicates `body`, with the body adornments propagated to the head; existential
    /// variables get Skolem-style adornment definitions. A definition `AD` does not
    /// hold yet is pushed to `fresh`, with the next symbol after `AD`'s and `fresh`'s.
    fn head_adorn(
        &mut self,
        dep: &Dependency,
        idx: usize,
        body: &[Predicate],
        var_adornment: &BTreeMap<Variable, AdSym>,
        fresh: &mut Vec<AdnDefinition>,
    ) -> PreparedDependency<'static> {
        let body: Vec<Atom> = dep
            .body()
            .iter()
            .zip(body)
            .map(|(atom, &predicate)| Atom {
                predicate,
                terms: atom.terms.clone(),
            })
            .collect();
        let mut head = Vec::new();
        if let Dependency::Tgd(tgd) = dep {
            let args: Vec<AdSym> = tgd
                .frontier_variables()
                .iter()
                .map(|v| *var_adornment.get(v).unwrap_or(&AdSym::B))
                .collect();
            let mut ex_symbols: BTreeMap<Variable, AdSym> = BTreeMap::new();
            let mut max = self.ad_max;
            for (z_idx, z) in tgd.existential_variables().iter().enumerate() {
                let existing = self
                    .ad_index
                    .get(&(idx, z_idx))
                    .and_then(|by_args| by_args.get(args.as_slice()));
                let sym = match existing {
                    Some(&symbol) => AdSym::F(symbol),
                    None => {
                        let symbol = max + 1;
                        let def = AdnDefinition {
                            symbol,
                            rule: idx,
                            var_index: z_idx,
                            args: args.clone(),
                        };
                        max = max.max(def.largest_symbol());
                        fresh.push(def);
                        AdSym::F(symbol)
                    }
                };
                ex_symbols.insert(*z, sym);
            }
            for atom in tgd.head() {
                let adornment: Adornment = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => *var_adornment
                            .get(v)
                            .or_else(|| ex_symbols.get(v))
                            .unwrap_or(&AdSym::B),
                        Term::Const(_) | Term::Null(_) => AdSym::B,
                    })
                    .collect();
                head.push(Atom {
                    predicate: self.names.predicate(atom.predicate, &adornment),
                    terms: atom.terms.clone(),
                });
            }
        }
        PreparedDependency::owned(adorned_version(dep, body, head))
    }

    /// Is the candidate adorned rule fireable with respect to the current adorned set?
    /// Only the rules that can fire it are tested (see [`Derived`]). A candidate
    /// rejected before is tested again against every such rule: a rule that did not
    /// fire it then does not now, as the rules appended since only add blockers, and
    /// the memo usually answers that test.
    fn is_fireable(&mut self, candidate: &PreparedDependency<'static>) -> bool {
        let derived = self.derived.as_ref().expect("built by try_adorn");
        derived
            .sources(candidate.dependency().body())
            .into_iter()
            .any(|k| {
                self.memo
                    .edge(&derived.blockers, &self.rules[k].dep, candidate)
            })
    }

    /// `Dµ(Σµ)`: one fact per adorned predicate, with `b` as a constant and each free
    /// symbol rendered as a labeled null that is **unique to its fact**: two
    /// occurrences of `f_i` inside the same fact share a null, occurrences in
    /// distinct facts never do. A free symbol denotes a *family* of nulls — one per
    /// Skolem instantiation of its definitions (and θ-merges can fold several Skolem
    /// classes into one symbol) — so only same-fact occurrences are known to be the
    /// same null. A single global null `η_i` per symbol would let an EGD body join
    /// two distinct facts through a null no real chase step ever equates, firing a
    /// spurious τ (the historical `adorn_with` soundness gap).
    ///
    /// Only the facts over `predicates` are built, in the order of `AP(Σµ)`: the
    /// caller reads no others, so its query sees the facts it would see in the whole
    /// instance, in the same relative order.
    ///
    /// Returns the instance together with the adornment symbol of every null.
    fn dmu_instance(&mut self, predicates: &BTreeSet<Predicate>) -> (Instance, BTreeMap<u64, u32>) {
        let mut inst = Instance::new();
        let mut symbol_of: BTreeMap<u64, u32> = BTreeMap::new();
        let mut next_null: u64 = 0;
        let b = GroundTerm::Const(Constant::new("b"));
        let ap = &self.derived().ap;
        for (pred, adornment) in predicates
            .iter()
            .filter_map(|pred| Some((pred, ap.get(pred)?)))
            .flat_map(|(pred, adornments)| adornments.iter().map(move |a| (pred, a)))
        {
            let mut per_fact: BTreeMap<u32, NullValue> = BTreeMap::new();
            let terms: Vec<GroundTerm> = adornment
                .iter()
                .map(|s| match s {
                    AdSym::B => b,
                    AdSym::F(i) => {
                        let null = *per_fact.entry(*i).or_insert_with(|| {
                            let n = NullValue(next_null);
                            next_null += 1;
                            symbol_of.insert(n.0, *i);
                            n
                        });
                        GroundTerm::Null(null)
                    }
                })
                .collect();
            inst.insert(Fact {
                predicate: *pred,
                terms,
            });
        }
        (inst, symbol_of)
    }

    /// Line 9 of Algorithm 1: if the original EGD `idx` is violated by `Dµ(Σµ)`, run one
    /// chase step and return the induced symbol substitution `{f_i / s}`.
    ///
    /// A violation only counts when it is realizable in an actual chase: matches that
    /// equate two nulls of the *same* symbol are skipped (the symbol stands for a family
    /// of distinct Skolem values, and τ = {f_i / f_i} would destructively erase the
    /// symbol's definitions while changing nothing). Skipping an unrealizable match is
    /// conservative — it can only bias the criterion toward rejection.
    fn dmu_chase_step(&mut self, idx: usize) -> Option<(u32, AdSym)> {
        let egd = self.sigma.as_slice()[idx].as_egd()?;
        let read: BTreeSet<Predicate> = egd.body.iter().map(|a| a.predicate).collect();
        let (dmu, symbol_of) = self.dmu_instance(&read);
        for h in chase_core::homomorphism::homomorphisms(&egd.body, &dmu) {
            let left = h.get(egd.left)?;
            let right = h.get(egd.right)?;
            if left == right {
                continue;
            }
            // Definition 1(2b): replace a labeled null; both sides being constants is
            // impossible here since the only constant is `b`.
            let tau = match (left, right) {
                (GroundTerm::Null(n), GroundTerm::Null(m)) => {
                    let (sn, sm) = (symbol_of[&n.0], symbol_of[&m.0]);
                    if sn == sm {
                        continue;
                    }
                    (sn, AdSym::F(sm))
                }
                (GroundTerm::Null(n), GroundTerm::Const(_)) => (symbol_of[&n.0], AdSym::B),
                (GroundTerm::Const(_), GroundTerm::Null(m)) => (symbol_of[&m.0], AdSym::B),
                (GroundTerm::Const(_), GroundTerm::Const(_)) => continue,
            };
            return Some(tau);
        }
        None
    }

    /// Lines 10 and 14 on `AD`: applies τ or θ to the definitions, defined symbols
    /// included (τ's are deleted first), drops every definition equal to an earlier one
    /// (a rewrite can make non-adjacent definitions equal, which `Vec::dedup` would
    /// miss), then rebuilds the `AD` index and its largest symbol. `run` rewrites `Σµ`.
    fn substitute_ad(&mut self, map: &SymbolMap) {
        self.rebuilds += 1;
        for def in &mut self.ad {
            if let AdSym::F(j) = substitute(AdSym::F(def.symbol), map) {
                def.symbol = j;
            }
            for a in &mut def.args {
                *a = substitute(*a, map);
            }
        }
        let mut seen: BTreeSet<AdnDefinition> = BTreeSet::new();
        self.ad.retain(|d| seen.insert(d.clone()));
        self.ad_index.clear();
        self.ad_max = 0;
        for def in &self.ad {
            self.ad_max = self.ad_max.max(def.largest_symbol());
            index_definition(&mut self.ad_index, def);
        }
    }

    /// Lines 13–14: look for a non-empty valid substitution θ mapping the newly adorned
    /// rule onto an existing adorned version of the same source dependency, both read
    /// under the substitution `pending` that `Σµ` has not taken yet.
    fn find_valid_theta(&self, rule_idx: usize, pending: &SymbolMap) -> Option<SymbolMap> {
        let new_rule = self.rules[rule_idx].dependency();
        let src = self.rules[rule_idx].src?;
        let others = self.versions[src].iter().filter(|&&k| k != rule_idx);
        others.copied().find_map(|k| {
            let other = self.rules[k].dependency();
            let theta = unify_adornments(&self.names, pending, new_rule, other)?;
            // No chained replacements: the range must not intersect the domain.
            let chained = theta
                .values()
                .any(|s| matches!(s, AdSym::F(j) if theta.contains_key(j)));
            // Validity: every fi/fj pair must have definitions for the same Skolem
            // function f^r_z.
            let valid = theta.iter().all(|(i, s)| match s {
                AdSym::F(j) => self.ad.iter().any(|d1| {
                    d1.symbol == *i
                        && self.ad.iter().any(|d2| {
                            d2.symbol == *j && d2.rule == d1.rule && d2.var_index == d1.var_index
                        })
                }),
                AdSym::B => false,
            });
            (!theta.is_empty() && !chained && valid).then_some(theta)
        })
    }

    /// Applies `map` to `Σµ`, then drops the rules it made duplicates. Only the rules
    /// with an atom whose adornment mentions a symbol of `map` are rebuilt; the others
    /// keep their prepared dependency.
    fn rewrite_rules(&mut self, map: &SymbolMap) {
        for rule in &mut self.rules {
            if let Some(dep) = self.names.rewrite(rule.dependency(), map) {
                rule.dep = PreparedDependency::owned(dep);
            }
        }
        let mut seen = HashSet::with_capacity(self.rules.len());
        let first: Vec<bool> = self
            .rules
            .iter()
            .map(|rule| seen.insert((rule.src, rule.dependency())))
            .collect();
        if first.contains(&false) {
            self.rebuilds += 1;
            let mut first = first.into_iter();
            self.rules.retain(|_| first.next() == Some(true));
        }
        self.rules_changed();
    }

    /// Builds Ω(AD): an edge `f_i → f_j` labeled `f^r_z` whenever `f_i = f^r_z(… f_j …)`
    /// and `f_j = f^s_w(…)` are in AD and there is a chain `s < r1 < … < rn < r`
    /// through full dependencies of the original set.
    fn omega_graph(&self) -> Vec<(u32, u32, (usize, usize))> {
        let mut edges = Vec::new();
        for d1 in &self.ad {
            for arg in &d1.args {
                let j = match arg {
                    AdSym::F(j) => *j,
                    AdSym::B => continue,
                };
                let chain_ok = self.ad.iter().any(|d2| {
                    d2.symbol == j && self.original_firing.reaches_via_full(d2.rule, d1.rule)
                });
                if chain_ok {
                    edges.push((d1.symbol, j, (d1.rule, d1.var_index)));
                }
            }
        }
        edges
    }
}

/// Lines 15–16: is the head of the adorned rule `dep` cyclic w.r.t. `AD`, whose Ω
/// graph is `omega`?
fn head_is_cyclic(
    names: &AdornedNames,
    dep: &Dependency,
    omega: &[(u32, u32, (usize, usize))],
) -> bool {
    dep.head_atoms().iter().any(|atom| {
        names
            .adornment(atom.predicate)
            .is_some_and(|(_, adornment)| {
                adornment.iter().any(|s| match s {
                    AdSym::F(i) => symbol_is_cyclic(*i, omega),
                    AdSym::B => false,
                })
            })
    })
}

/// Is the symbol cyclic in Ω(AD): is there a path from it that traverses two edges with
/// the same label?
fn symbol_is_cyclic(start: u32, edges: &[(u32, u32, (usize, usize))]) -> bool {
    // Reachability over symbols.
    let reachable_from = |s: u32| -> BTreeSet<u32> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![s];
        while let Some(cur) = stack.pop() {
            for (f, t, _) in edges {
                if *f == cur && seen.insert(*t) {
                    stack.push(*t);
                }
            }
        }
        seen
    };
    let from_start: BTreeSet<u32> = {
        let mut s = reachable_from(start);
        s.insert(start);
        s
    };
    // A path from `start` uses two same-labelled edges iff there are edges e1 = (a, b, l)
    // and e2 = (c, d, l) (possibly equal only if reachable twice, i.e. on a cycle) with
    // a reachable from start and c reachable from b.
    for (a, b, l1) in edges {
        if !from_start.contains(a) {
            continue;
        }
        let after_e1: BTreeSet<u32> = {
            let mut s = reachable_from(*b);
            s.insert(*b);
            s
        };
        for (c, _, l2) in edges {
            if l1 == l2 && after_e1.contains(c) {
                return true;
            }
        }
    }
    false
}

/// Computes θ such that `new_rule θ = other` for two adorned versions of one
/// dependency, comparing their adornments position by position, both under
/// `pending`; returns `None` if the mapping is inconsistent. The returned map may be
/// empty (the rules are already equal).
fn unify_adornments<'d>(
    names: &AdornedNames,
    pending: &SymbolMap,
    new_rule: &'d Dependency,
    other: &'d Dependency,
) -> Option<SymbolMap> {
    // `mapping` records the image of every free symbol of `new_rule` (including
    // identities); the returned θ keeps only the non-identity pairs.
    let mut mapping = SymbolMap::new();
    let atoms = |dep: &'d Dependency| dep.body().iter().chain(dep.head_atoms());
    let pairs = atoms(new_rule).zip(atoms(other));
    for (a, b) in pairs {
        let ((_, x), (_, y)) = (names.adornment(a.predicate)?, names.adornment(b.predicate)?);
        for (sa, sb) in x.iter().zip(y) {
            match (substitute(*sa, pending), substitute(*sb, pending)) {
                (AdSym::B, AdSym::B) => {}
                (AdSym::F(i), s) => match mapping.get(&i) {
                    Some(existing) if *existing != s => return None,
                    Some(_) => {}
                    None => {
                        mapping.insert(i, s);
                    }
                },
                (AdSym::B, AdSym::F(_)) => return None,
            }
        }
    }
    Some(
        mapping
            .into_iter()
            .filter(|(i, s)| *s != AdSym::F(*i))
            .collect(),
    )
}

/// Enumerates the coherent adorned versions of a body with respect to the available
/// adorned predicates, as per-atom adornments together with the induced variable
/// adornment, in lexicographic order of their per-atom adornments. Only the bodies
/// `revisit` leaves open are returned: those after `revisit.done` and those using an
/// element of `revisit.fed`.
fn coherent_adorned_bodies(
    body: &[Atom],
    ap: &AdornedPredicates,
    revisit: &Revisit,
) -> Vec<(Vec<Adornment>, BTreeMap<Variable, AdSym>)> {
    let no_adornments = BTreeSet::new();
    let mut options = Vec::with_capacity(body.len());
    let mut fed = Vec::with_capacity(body.len());
    for atom in body {
        match ap.get(&atom.predicate) {
            Some(adornments) => options.push(adornments),
            None => return Vec::new(),
        }
        fed.push(revisit.fed.get(&atom.predicate).unwrap_or(&no_adornments));
    }
    // `fed_after[i]`: some atom from `i` on has a fed adornment.
    let mut fed_after = vec![false; body.len() + 1];
    for i in (0..body.len()).rev() {
        fed_after[i] = fed_after[i + 1] || !fed[i].is_empty();
    }
    // The position of the bodies enumerated so far relative to `done`: all after it,
    // tied with its prefix, or all before it.
    let (position, done): (Ordering, &[Adornment]) = match &revisit.done {
        Done::Nothing => (Ordering::Greater, &[]),
        Done::Through(done) => (Ordering::Equal, done),
        Done::Everything => (Ordering::Less, &[]),
    };
    let mut bodies = Bodies {
        body,
        options,
        fed,
        fed_after,
        done,
        assignment: BTreeMap::new(),
        chosen: Vec::with_capacity(body.len()),
        out: Vec::new(),
    };
    bodies.extend(0, position, false);
    bodies.out
}

/// The state of [`coherent_adorned_bodies`]' depth-first enumeration.
struct Bodies<'x> {
    body: &'x [Atom],
    /// Per body atom, the adornments of its predicate in `AP(Σµ)` and the fed ones.
    options: Vec<&'x BTreeSet<Adornment>>,
    fed: Vec<&'x BTreeSet<Adornment>>,
    fed_after: Vec<bool>,
    done: &'x [Adornment],
    assignment: BTreeMap<Variable, AdSym>,
    chosen: Vec<&'x Adornment>,
    out: Vec<(Vec<Adornment>, BTreeMap<Variable, AdSym>)>,
}

impl<'x> Bodies<'x> {
    /// Extends the chosen prefix from atom `idx` on; `position` compares the prefix
    /// with `done`'s, and `fed` tells whether it uses a fed adornment.
    fn extend(&mut self, idx: usize, position: Ordering, fed: bool) {
        if idx == self.body.len() {
            if fed || position == Ordering::Greater {
                let adornments = self.chosen.iter().map(|a| (*a).clone()).collect();
                self.out.push((adornments, self.assignment.clone()));
            }
            return;
        }
        // Before `done` with nothing fed yet, and no fed adornment further right: only
        // this atom's fed adornments can still open a body.
        let only_fed = position == Ordering::Less && !fed && !self.fed_after[idx + 1];
        let options = if only_fed {
            self.fed[idx]
        } else {
            self.options[idx]
        };
        let atom = &self.body[idx];
        for adornment in options {
            let position = match position {
                Ordering::Equal => adornment.cmp(&self.done[idx]),
                other => other,
            };
            let fed = fed || only_fed || self.fed[idx].contains(adornment);
            if position == Ordering::Less && !fed && !self.fed_after[idx + 1] {
                continue;
            }
            let mut newly_bound: Vec<Variable> = Vec::new();
            let coherent = atom.terms.iter().zip(adornment).all(|(t, s)| match t {
                Term::Const(_) => *s == AdSym::B,
                Term::Null(_) => true,
                Term::Var(v) => match self.assignment.get(v) {
                    Some(existing) => existing == s,
                    None => {
                        self.assignment.insert(*v, *s);
                        newly_bound.push(*v);
                        true
                    }
                },
            });
            if coherent {
                self.chosen.push(adornment);
                self.extend(idx + 1, position, fed);
                self.chosen.pop();
            }
            for v in newly_bound {
                self.assignment.remove(&v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;
    use chase_criteria::TerminationCriterion;

    fn is_semi_acyclic(sigma: &DependencySet) -> bool {
        SemiAcyclicity.accepts(sigma)
    }

    #[test]
    fn verdict_carries_the_adornment_trace() {
        use chase_criteria::Witness;
        let verdict = SemiAcyclicity.verdict(&sigma10());
        assert!(!verdict.accepted);
        match verdict.witness {
            Witness::AdornmentTrace {
                adorned_rules,
                iterations,
                fireable_pairs,
                budget_exhausted,
                ..
            } => {
                assert!(adorned_rules >= 3);
                assert!(iterations >= adorned_rules);
                assert!(
                    !fireable_pairs.is_empty(),
                    "Σ10's rules feed each other, the firing relation is non-empty"
                );
                assert!(!budget_exhausted);
            }
            other => panic!("expected AdornmentTrace, got {other:?}"),
        }
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

    fn sigma10() -> DependencySet {
        parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z).
            r2: E(?x, ?y, ?y) -> N(?y).
            r3: E(?x, ?y, ?z) -> ?y = ?z.
            "#,
        )
        .unwrap()
    }

    #[test]
    fn example12_sigma1_is_semi_acyclic() {
        let result = adorn(&sigma1());
        assert!(result.acyclic, "Σ1 must be recognised as semi-acyclic");
        assert!(!result.budget_exhausted);
        // After the EGD substitution f1/b the only adorned predicates are N^b and E^bb.
        let preds: BTreeSet<String> = result
            .adorned
            .predicates()
            .into_iter()
            .map(|p| p.name.as_str())
            .collect();
        assert!(preds.contains("N__b"));
        assert!(preds.contains("E__bb"));
        assert!(
            !preds.iter().any(|p| p.contains("f1")),
            "f1 must have been replaced by b: {preds:?}"
        );
        // AD is empty at the end (the definition of f1 was removed by τ).
        assert!(result.definitions.is_empty());
    }

    #[test]
    fn example13_sigma10_is_not_semi_acyclic() {
        let result = adorn(&sigma10());
        assert!(!result.acyclic, "Σ10 must be rejected (cyclic adornment)");
        assert!(
            !result.budget_exhausted,
            "rejection must come from the cyclicity test"
        );
    }

    #[test]
    fn example11_sigma11_is_semi_acyclic() {
        // Σ11 is semi-stratified, and SAC generalises S-Str (Theorem 9).
        let sigma = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> E(?y, ?x).
            "#,
        )
        .unwrap();
        assert!(is_semi_acyclic(&sigma));
    }

    #[test]
    fn weakly_acyclic_sets_are_semi_acyclic() {
        let sigma = parse_dependencies(
            r#"
            r1: P(?x, ?y) -> exists ?z: E(?x, ?z).
            r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).
            r3: E(?x, ?y) -> M(?x).
            "#,
        )
        .unwrap();
        assert!(is_semi_acyclic(&sigma));
    }

    #[test]
    fn self_feeding_rule_is_not_semi_acyclic() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?y, ?z).").unwrap();
        assert!(!is_semi_acyclic(&sigma));
    }

    #[test]
    fn example6_rule_is_semi_acyclic() {
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?x, ?z).").unwrap();
        assert!(is_semi_acyclic(&sigma));
    }

    #[test]
    fn adorned_set_contains_base_rules_and_adorned_rules() {
        let result = adorn(&sigma1());
        // Base rules: one per predicate (N, E).
        let base: Vec<_> = result
            .adorned
            .iter()
            .filter(|(_, d)| d.label().map(|l| l.starts_with("base_")).unwrap_or(false))
            .collect();
        assert_eq!(base.len(), 2);
        assert!(
            result.adorned_rule_count >= 3,
            "every dependency of Σ1 gets at least one adorned version"
        );
        assert!(result.size_ratio(&sigma1()) >= 1.0);
    }

    #[test]
    fn key_constraints_and_full_tgds_are_semi_acyclic() {
        let sigma = parse_dependencies(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            k: E(?x, ?y), E(?x, ?z) -> ?y = ?z.
            "#,
        )
        .unwrap();
        let result = adorn(&sigma);
        assert!(result.acyclic);
        assert!(result.definitions.is_empty());
    }

    #[test]
    fn adornment_definitions_reference_existential_rules() {
        // For a weakly acyclic set with one existential rule the final AD keeps the
        // definition of its symbol.
        let sigma = parse_dependencies(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y) -> C(?y).
            "#,
        )
        .unwrap();
        let result = adorn(&sigma);
        assert!(result.acyclic);
        assert_eq!(result.definitions.len(), 1);
        assert_eq!(result.definitions[0].rule, 0);
        assert_eq!(result.definitions[0].args, vec![AdSym::B]);
    }

    #[test]
    fn size_ratio_is_moderate_on_paper_examples() {
        for sigma in [sigma1(), sigma10()] {
            let result = adorn(&sigma);
            let ratio = result.size_ratio(&sigma);
            assert!(ratio < 10.0, "|Σµ|/|Σ| unexpectedly large: {ratio}");
        }
    }

    #[test]
    fn a_rejected_candidate_is_retested_against_rules_appended_later() {
        // r0 over B^{f1f1} is first tested when only adn8_of_r0 yields B^{f1f1}, and
        // only on the diagonal, where r0's head already holds: rejected. adn9_of_r2,
        // appended next, yields any B^{f1f1} fact and fires it.
        let sigma = parse_dependencies(
            r#"
            r0: B(?y, ?x), B(?x, ?y) -> B(?y, ?y).
            r1: B(?y, ?y) -> exists ?z: A(?z).
            r2: A(?y), A(?x) -> B(?x, ?y).
            "#,
        )
        .unwrap();
        let result = adorn(&sigma);
        assert_eq!(result.adorned_rule_count, 10);
        let rendered = result.adorned.to_string();
        assert!(
            rendered.contains("adn10_of_r0: B__f1f1(?y, ?x), B__f1f1(?x, ?y) -> B__f1f1(?y, ?y)."),
            "{rendered}"
        );
    }

    #[test]
    fn rewrites_are_counted_as_rebuilds() {
        // Σ1's EGD collapses f1 into b: a τ rewrite.
        assert!(adorn(&sigma1()).rebuilds >= 1);
        // A full TGD alone only appends rules.
        let closure = parse_dependencies("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).").unwrap();
        assert_eq!(adorn(&closure).rebuilds, 0);
    }

    /// Every field of an [`AdnResult`], the rendered `Σµ` as text.
    type Fingerprint = (
        String,
        bool,
        Vec<AdnDefinition>,
        usize,
        usize,
        Vec<(usize, usize)>,
        bool,
        usize,
    );

    fn fingerprint(result: AdnResult) -> Fingerprint {
        (
            result.adorned.to_string(),
            result.acyclic,
            result.definitions,
            result.adorned_rule_count,
            result.iterations,
            result.fireable_pairs,
            result.budget_exhausted,
            result.rebuilds,
        )
    }

    /// Runs `Adn∃` on `sigma` as shipped and as the full rescan of lines 6–12, and
    /// compares every field of the two results.
    fn assert_matches_full_rescan(sigma: &DependencySet, rule_cap: usize, what: &str) {
        let cx = AnalysisContext::new(sigma);
        let semi_naive = Adn::new(&cx, rule_cap).run();
        let mut reference = Adn::new(&cx, rule_cap);
        reference.full_rescan = true;
        let full_rescan = reference.run();
        assert_eq!(
            fingerprint(semi_naive),
            fingerprint(full_rescan),
            "{what}:\n{sigma}"
        );
    }

    /// A seeded program of 3–7 dependencies over `P/1`, `Q/2`, `R/2` and `S/3`: full
    /// and existential TGDs with one or two body atoms and EGDs.
    fn random_program(seed: u64) -> DependencySet {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let predicates = [("P", 1), ("Q", 2), ("R", 2), ("S", 3)];
        let mut text = String::new();
        for i in 0..3 + below(5) {
            let mut body = Vec::new();
            let mut body_vars: Vec<&str> = Vec::new();
            for _ in 0..1 + below(2) {
                let (name, arity) = predicates[below(4)];
                let terms: Vec<&str> = (0..arity).map(|_| ["?x", "?y", "?z"][below(3)]).collect();
                for v in &terms {
                    if !body_vars.contains(v) {
                        body_vars.push(v);
                    }
                }
                body.push(format!("{name}({})", terms.join(", ")));
            }
            let body = body.join(", ");
            let kind = below(10);
            let mut pick = || body_vars[below(body_vars.len())];
            if kind < 2 {
                let (left, right) = (pick(), pick());
                if left != right {
                    text.push_str(&format!("r{i}: {body} -> {left} = {right}.\n"));
                    continue;
                }
            }
            let mut head = Vec::new();
            let mut existential = false;
            for _ in 0..1 + below(4) / 3 {
                let (name, arity) = predicates[below(4)];
                let terms: Vec<&str> = (0..arity)
                    .map(|_| {
                        if kind >= 5 && below(3) == 0 {
                            existential = true;
                            "?w"
                        } else {
                            body_vars[below(body_vars.len())]
                        }
                    })
                    .collect();
                head.push(format!("{name}({})", terms.join(", ")));
            }
            let exists = if existential { "exists ?w: " } else { "" };
            text.push_str(&format!("r{i}: {body} -> {exists}{}.\n", head.join(", ")));
        }
        parse_dependencies(&text).expect("generated programs parse")
    }

    /// The semi-naive main loop (settled dependencies, fed adornments, resumed
    /// enumeration) returns exactly what rescanning every dependency's every body
    /// returns. One test, so that no other test interns symbols while it runs: the
    /// order of `AP(Σµ)` follows the interning order of the predicates.
    #[test]
    fn semi_naive_loop_matches_the_full_rescan() {
        for seed in 800..1000 {
            let sigma = random_program(seed);
            assert_matches_full_rescan(&sigma, 60, &format!("random seed {seed}"));
        }
        for program in chase_ontology::atlas_corpus(&[8], 20160396) {
            let what = format!("atlas {} at size 8", program.family);
            assert_matches_full_rescan(&program.sigma, MAX_ADORNED_RULES, &what);
        }
        for ontology in chase_ontology::scaled_paper_corpus(20160396, 0.55, 0.003) {
            let what = format!("Table 2 class {} at scale 0.003", ontology.class_id);
            assert_matches_full_rescan(&ontology.sigma, MAX_ADORNED_RULES, &what);
        }
    }

    #[test]
    fn display_of_symbols_and_definitions() {
        assert_eq!(AdSym::B.to_string(), "b");
        assert_eq!(AdSym::F(3).to_string(), "f3");
        let def = AdnDefinition {
            symbol: 2,
            rule: 1,
            var_index: 0,
            args: vec![AdSym::B, AdSym::F(1)],
        };
        assert_eq!(def.to_string(), "f2 = f^r1_z0(bf1)");
    }
}
