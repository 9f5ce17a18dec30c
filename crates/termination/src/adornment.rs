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
//! source in Σ, prepared once for the firing test, and the dense id of each atom's
//! adorned predicate. A per-run table numbers the adorned predicates densely in
//! order of first need and maps `(R, α)` to its id, predicate and back. The name
//! (`R`, a separator, then `α`, as in `E__bf1`) is formatted and interned the first
//! time the table needs it, so rendering an atom is one lookup.
//!
//! The separator is the shortest run of two or more `_` that occurs in no predicate
//! name of Σ: `__` unless some name contains it. An input name never contains the
//! separator and an adornment string has no `_`, so an adorned predicate is neither
//! an input predicate nor another adorned one. A fixed `__` would make an input
//! predicate `E__bb` the adorned `E^bb`, and SAC would accept `E(?x, ?y) → ∃z
//! E(?y, ?z)` next to any rule reading `E__bb`.
//!
//! What the loop reads is indexed from the rules by id and rule index in flat
//! lists: `AP(Σµ)` per source predicate in adornment order (the candidate order),
//! the versions of each dependency by body, the writers of each adorned predicate,
//! the adorned EGDs, `Σ∀µ`, and per free symbol the rules that mention it.
//! Candidate bodies are walked one at a time, and the walk stops at the first
//! fireable one.
//!
//! τ and θ rewrite predicates: only the rules whose adornments mention a rewritten
//! symbol are rebuilt, found through the per-symbol postings, and the index is
//! patched for them alone. A rewrite that makes a rule equal to an earlier one drops
//! it by a tombstone, so rule indices stay stable for the whole run. When one
//! iteration finds both, `Σµ` takes τ followed by θ in one pass, so the rewrite names
//! only the predicates of the rewritten rules, in rule order (predicates order by the
//! interned id of their name, and the `Adn∃-C` criteria run on `Σµ`). Rules carry no
//! label while the run is in progress: `base_R` and `adnk_of_rs` are attached by
//! position among the live rules of the final `Σµ`.
//!
//! Line 9's `Dµ(Σµ)` is never built as an instance: the EGD's body is matched on the
//! `AP(Σµ)` entries of its predicates directly (`Adn::dmu_chase_step`).

use crate::firing::{Blockers, Definition2Memo};
use chase_core::hash::FastMap;
use chase_core::{
    Assignment, Atom, Constant, Dependency, DependencySet, Egd, JoinPlan, Predicate, Term, Tgd,
    Variable,
};
use chase_criteria::firing::PreparedDependency;
use chase_criteria::graph::DiGraph;
use chase_criteria::AnalysisContext;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Write as _};
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

/// The dense id of an adorned predicate `R^α` within one run, in order of first need.
type AdId = u32;

/// The id recorded for an atom over a predicate of Σ: a base rule's body atom.
const NOT_ADORNED: AdId = AdId::MAX;

/// The adorned predicates of one run: `R^α` is the fresh predicate named `R`, the
/// separator, then `α`, interned the first time it is needed (see the module
/// documentation), and numbered densely in that order.
struct AdornedNames {
    /// The shortest run of two or more `_` that no predicate name of Σ contains.
    separator: String,
    /// The predicates of Σ, in [`DependencySet::predicates`] order: a source
    /// predicate's position is its dense id.
    sources: Vec<Predicate>,
    source_ids: FastMap<Predicate, usize>,
    /// Per source predicate `R`, `α` to the id of `R^α`.
    by_source: Vec<FastMap<Adornment, AdId>>,
    /// Per adorned predicate: its source, its adornment and its predicate.
    source: Vec<usize>,
    adornment: Vec<Adornment>,
    predicate: Vec<Predicate>,
}

impl AdornedNames {
    fn new(sigma: &DependencySet) -> Self {
        let sources: Vec<Predicate> = sigma.predicates().into_iter().collect();
        let longest_run = sources
            .iter()
            .flat_map(|p| p.name.as_str().split(|c| c != '_').map(str::len).max())
            .max()
            .unwrap_or(0);
        AdornedNames {
            separator: "_".repeat(longest_run.max(1) + 1),
            source_ids: sources.iter().enumerate().map(|(i, &p)| (p, i)).collect(),
            by_source: vec![FastMap::default(); sources.len()],
            sources,
            source: Vec::new(),
            adornment: Vec::new(),
            predicate: Vec::new(),
        }
    }

    /// The dense id of a predicate of Σ.
    fn source_id(&self, predicate: Predicate) -> usize {
        self.source_ids[&predicate]
    }

    /// The id of `R^adornment`, `R` being the source predicate `source`.
    fn id(&mut self, source: usize, adornment: &[AdSym]) -> AdId {
        if let Some(&id) = self.by_source[source].get(adornment) {
            return id;
        }
        let of = self.sources[source];
        let mut name = String::new();
        of.name.push_to(&mut name);
        name.push_str(&self.separator);
        for symbol in adornment {
            write!(name, "{symbol}").expect("writing to a String");
        }
        let id = AdId::try_from(self.predicate.len()).expect("fewer than 2^32 adorned predicates");
        self.by_source[source].insert(adornment.to_vec(), id);
        self.source.push(source);
        self.adornment.push(adornment.to_vec());
        self.predicate.push(Predicate::new(&name, of.arity));
        id
    }

    fn adornment(&self, id: AdId) -> &[AdSym] {
        &self.adornment[id as usize]
    }

    fn source(&self, id: AdId) -> usize {
        self.source[id as usize]
    }

    fn predicate(&self, id: AdId) -> Predicate {
        self.predicate[id as usize]
    }

    /// Does the adornment of `id` mention a symbol that `map` rewrites?
    fn mentions(&self, id: AdId, map: &SymbolMap) -> bool {
        id != NOT_ADORNED
            && self
                .adornment(id)
                .iter()
                .any(|s| matches!(s, AdSym::F(i) if map.contains_key(i)))
    }

    /// The id of `id`'s predicate with `map` applied to its adornment.
    fn substituted(&mut self, id: AdId, map: &SymbolMap) -> AdId {
        if id == NOT_ADORNED {
            return id;
        }
        let adornment: Adornment = self
            .adornment(id)
            .iter()
            .map(|s| substitute(*s, map))
            .collect();
        self.id(self.source(id), &adornment)
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
/// `R(x̄) → R^{b…b}(x̄)`), the dependency over adorned predicates, unlabelled and
/// prepared for the firing test, and the adorned predicate of each of its atoms.
struct AdRule {
    src: Option<usize>,
    dep: PreparedDependency<'static>,
    /// The adorned predicate of each atom, body then head; [`NOT_ADORNED`] for the
    /// body atom of a base rule.
    atoms: Vec<AdId>,
    /// `false` once a deduplicating rewrite has dropped the rule: rule indices stay
    /// stable for the whole run.
    alive: bool,
}

impl AdRule {
    fn dependency(&self) -> &Dependency {
        self.dep.dependency()
    }

    fn body(&self) -> &[AdId] {
        &self.atoms[..self.dependency().body().len()]
    }

    fn head(&self) -> &[AdId] {
        &self.atoms[self.dependency().body().len()..]
    }

    /// The free symbols of the rule's adornments, with repeats.
    fn symbols<'n>(&'n self, names: &'n AdornedNames) -> impl Iterator<Item = u32> + 'n {
        self.atoms
            .iter()
            .filter(|&&id| id != NOT_ADORNED)
            .flat_map(|&id| names.adornment(id))
            .filter_map(|s| match s {
                AdSym::F(i) => Some(*i),
                AdSym::B => None,
            })
    }
}

/// A dependency of Σ as `Adn∃` reads it: each atom's predicate by its dense id and
/// its terms by code, body variables by rank in order of first occurrence.
struct SourceRule {
    body: Vec<(usize, Vec<BodyTerm>)>,
    /// How many distinct variables the body has.
    vars: usize,
    /// A TGD's frontier variables, in [`Tgd::frontier_variables`] order, and its head
    /// atoms.
    frontier: Vec<usize>,
    head: Vec<(usize, Vec<HeadTerm>)>,
    /// An EGD's two sides.
    egd: Option<(usize, usize)>,
}

#[derive(Clone, Copy)]
enum BodyTerm {
    Var(usize),
    Const(Constant),
    Null,
}

#[derive(Clone, Copy)]
enum HeadTerm {
    /// A body variable, by rank.
    Var(usize),
    /// An existential variable, by its position in the TGD's list.
    Existential(usize),
    Ground,
}

impl SourceRule {
    fn compile(dep: &Dependency, names: &AdornedNames) -> Self {
        let mut vars: Vec<Variable> = Vec::new();
        let mut rank = |v: Variable| {
            vars.iter().position(|w| *w == v).unwrap_or_else(|| {
                vars.push(v);
                vars.len() - 1
            })
        };
        let body = dep
            .body()
            .iter()
            .map(|atom| {
                let terms = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => BodyTerm::Var(rank(*v)),
                        Term::Const(c) => BodyTerm::Const(*c),
                        Term::Null(_) => BodyTerm::Null,
                    })
                    .collect();
                (names.source_id(atom.predicate), terms)
            })
            .collect();
        let ranked = |v: &Variable| vars.iter().position(|w| w == v);
        let (mut frontier, mut head) = (Vec::new(), Vec::new());
        if let Some(tgd) = dep.as_tgd() {
            frontier = tgd
                .frontier_variables()
                .iter()
                .map(|v| ranked(v).expect("a frontier variable is a body variable"))
                .collect();
            let existentials = tgd.existential_variables();
            head = tgd
                .head()
                .iter()
                .map(|atom| {
                    let terms = atom
                        .terms
                        .iter()
                        .map(|t| match t {
                            Term::Var(v) => match ranked(v) {
                                Some(r) => HeadTerm::Var(r),
                                None => HeadTerm::Existential(
                                    existentials
                                        .iter()
                                        .position(|z| z == v)
                                        .expect("a head-only variable is existential"),
                                ),
                            },
                            Term::Const(_) | Term::Null(_) => HeadTerm::Ground,
                        })
                        .collect();
                    (names.source_id(atom.predicate), terms)
                })
                .collect();
        }
        let egd = dep.as_egd().map(|e| {
            let side = |v| ranked(&v).expect("an EGD side is a body variable");
            (side(e.left), side(e.right))
        });
        SourceRule {
            vars: vars.len(),
            body,
            frontier,
            head,
            egd,
        }
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
    /// (`AP(Σµ)`, the bodies, writers, EGDs and blockers) is patched for the rules
    /// rewritten or dropped, and every dependency revisited in full. Not part of the
    /// witness.
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
    /// The dependencies of Σ as the algorithm reads them.
    sources: Vec<SourceRule>,
    /// `readers[p]`: the dependencies of the original set whose body mentions the
    /// source predicate `p`.
    readers: Vec<Vec<usize>>,
    names: AdornedNames,
    /// The adorned rules, dropped ones included, and how many are alive.
    rules: Vec<AdRule>,
    live: usize,
    /// The indices in `rules` of the live adorned versions of each original
    /// dependency, ascending.
    versions: Vec<Vec<usize>>,
    /// What is indexed from `rules`, patched as they change.
    derived: Derived,
    /// The walk through one dependency's coherent bodies, reused by every try.
    bodies: CoherentBodies,
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
    /// Test-only: after every rewrite, compare the patched [`Derived`] with one built
    /// from scratch, and every `Dµ(Σµ)` step with its `Instance` reference.
    #[cfg(test)]
    checked: bool,
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

/// The state `Adn∃` indexes from its live adorned rules, keyed by adorned predicate
/// id and rule index. Appending a rule adds to it; a rewrite takes out the rules it
/// changes or drops and puts the changed ones back, so it costs what it rewrites.
///
/// The rules a candidate is tested against are found by index: `writers` maps each
/// adorned predicate to the TGD rules whose head writes it, and `egds` lists the
/// adorned EGDs, both ascending. A TGD rule whose head writes no predicate of the
/// candidate's body fails Definition 2's prefilter, so only an EGD is tried against
/// every candidate.
/// `blockers` is `Σ∀µ`, indexed for the relevant-blocker lookup. The answers of the
/// tests are memoised by pair shape in `Adn::memo`. `postings` finds the rules a
/// rewrite changes.
///
/// `revisit` makes the main loop semi-naive: it records, per source dependency,
/// which of its coherent bodies its next `try_adorn` must look at (see [`Revisit`]).
/// A τ, θ or deduplicating rewrite resets it, and every dependency is revisited in
/// full, as the full rescan does.
struct Derived {
    /// `AP(Σµ)` by source predicate: the adorned predicates of the live rules, in
    /// adornment order (the order in which candidates are enumerated).
    ap: Vec<Vec<AdId>>,
    /// How many atoms of live rules each adorned predicate has.
    uses: Vec<u32>,
    /// Per source dependency, its live adorned versions by body.
    bodies: Vec<FastMap<Box<[AdId]>, Vec<usize>>>,
    /// The live TGD rules by head predicate, and the live EGD rules.
    writers: Vec<Vec<usize>>,
    egds: Vec<usize>,
    blockers: Blockers,
    /// Per free symbol, rules whose adornments mention it: every live one, and
    /// possibly dropped ones or repeats, which a rewrite skips.
    postings: Vec<Vec<usize>>,
    /// Per original dependency, what its next `try_adorn` tests.
    revisit: Vec<Revisit>,
    /// The positions in the scan order of the dependencies that are not settled.
    unsettled: BTreeSet<usize>,
}

/// `v[i]`, growing `v` to hold it.
fn at<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// Inserts `k` into the ascending `list`, unless it is there.
fn insert_sorted(list: &mut Vec<usize>, k: usize) {
    if let Err(at) = list.binary_search(&k) {
        list.insert(at, k);
    }
}

/// Removes `k` from the ascending `list`, if it is there.
fn remove_sorted(list: &mut Vec<usize>, k: usize) {
    if let Ok(at) = list.binary_search(&k) {
        list.remove(at);
    }
}

impl Derived {
    fn new(sources: usize, predicates: usize) -> Self {
        Derived {
            ap: vec![Vec::new(); predicates],
            uses: Vec::new(),
            bodies: vec![FastMap::default(); sources],
            writers: Vec::new(),
            egds: Vec::new(),
            blockers: Blockers::new(),
            postings: Vec::new(),
            revisit: vec![Revisit::default(); sources],
            unsettled: (0..sources).collect(),
        }
    }

    /// Revisits every dependency in full, as after a rewrite.
    fn reset_revisits(&mut self) {
        let sources = self.revisit.len();
        self.revisit.fill(Revisit::default());
        self.unsettled = (0..sources).collect();
    }

    /// Revisits in full the dependencies at `positions` of the scan `order`.
    fn revisit_all(&mut self, positions: std::ops::Range<usize>, order: &[usize]) {
        for k in positions {
            self.revisit[order[k]] = Revisit::default();
            self.unsettled.insert(k);
        }
    }

    /// Accounts for the live rule `rule` at index `k`.
    fn add(&mut self, rule: &AdRule, k: usize, names: &AdornedNames) {
        for &id in &rule.atoms {
            if id == NOT_ADORNED {
                continue;
            }
            let uses = at(&mut self.uses, id as usize);
            *uses += 1;
            if *uses == 1 {
                let known = &mut self.ap[names.source(id)];
                let at = known
                    .binary_search_by(|&other| names.adornment(other).cmp(names.adornment(id)))
                    .expect_err("a predicate enters AP once");
                known.insert(at, id);
            }
        }
        if let Some(src) = rule.src {
            let versions = self.bodies[src].entry(rule.body().into()).or_default();
            insert_sorted(versions, k);
        }
        let dep = rule.dependency();
        if dep.is_egd() {
            insert_sorted(&mut self.egds, k);
        }
        for &id in rule.head() {
            insert_sorted(at(&mut self.writers, id as usize), k);
        }
        if dep.is_full() {
            self.blockers.insert(dep.body()[0].predicate, k);
        }
        for symbol in rule.symbols(names) {
            let posting = at(&mut self.postings, symbol as usize);
            if posting.last() != Some(&k) {
                posting.push(k);
            }
        }
    }

    /// Takes out what [`Derived::add`] put in for `rule` at index `k`, but its
    /// postings: a rewrite skips the rules that no longer mention a symbol.
    fn remove(&mut self, rule: &AdRule, k: usize, names: &AdornedNames) {
        for &id in &rule.atoms {
            if id == NOT_ADORNED {
                continue;
            }
            let uses = &mut self.uses[id as usize];
            *uses -= 1;
            if *uses == 0 {
                let known = &mut self.ap[names.source(id)];
                let at = known.iter().position(|&other| other == id);
                known.remove(at.expect("a used predicate is in AP"));
            }
        }
        if let Some(src) = rule.src {
            let bodies = &mut self.bodies[src];
            let versions = bodies
                .get_mut(rule.body())
                .expect("a live version has a body");
            remove_sorted(versions, k);
            if versions.is_empty() {
                bodies.remove(rule.body());
            }
        }
        let dep = rule.dependency();
        if dep.is_egd() {
            remove_sorted(&mut self.egds, k);
        }
        for &id in rule.head() {
            remove_sorted(&mut self.writers[id as usize], k);
        }
        if dep.is_full() {
            self.blockers.remove(dep.body()[0].predicate, k);
        }
    }

    /// Is the candidate, whose body has the adorned predicates `body`, fireable with
    /// respect to the live `rules`? Only the rules that can fire it are tested: the
    /// TGD rules writing one of its predicates, then every adorned EGD. A candidate
    /// rejected before is tested again against every such rule: a rule that did not
    /// fire it then does not now, as the rules appended since only add blockers, and
    /// the memo usually answers that test.
    fn fires(
        &self,
        rules: &[AdRule],
        memo: &mut Definition2Memo,
        candidate: &PreparedDependency<'static>,
        body: &[AdId],
    ) -> bool {
        let mut sources: Vec<usize> = Vec::new();
        for &id in body {
            if let Some(writers) = self.writers.get(id as usize) {
                sources.extend_from_slice(writers);
            }
        }
        sources.sort_unstable();
        sources.dedup();
        sources.extend_from_slice(&self.egds);
        let target = candidate.dependency();
        sources.into_iter().any(|k| {
            let r1 = &rules[k].dep;
            let relevant = self
                .blockers
                .relevant(r1.dependency(), target, |b| rules[b].dependency());
            memo.answer(r1, candidate, &relevant)
        })
    }
}

/// Which coherent bodies of one source dependency its next `try_adorn` must test.
///
/// Bodies are ordered by their per-atom adornment tuples: the order in which
/// [`CoherentBodies`] walks them, and so the order in which `try_adorn` tests them
/// and picks the first fireable one. The invariant is: **every coherent body that is
/// not after `done` and uses no element of `fed` is already the body of an adorned
/// version of the dependency, or a candidate that the full rescan would test and
/// reject now.** `try_adorn` then tests exactly the bodies after `done` and those
/// using an element of `fed`, in the full order, so it returns what the full rescan
/// returns, and leaves the rest untested.
///
/// `try_adorn` sets `done` to the body it appended (every body before it was tested),
/// or to [`Done::Everything`] when it appends nothing (the dependency is *settled*),
/// and empties `fed`. The rest of the loop keeps the invariant like this:
///
/// 1. An appended TGD rule whose head atom is `p^α` adds `p^α` to `fed` for every
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
/// 4. A τ, θ or deduplicating rewrite revisits every dependency in full; the rest of
///    [`Derived`] is patched, not dropped.
#[derive(Clone, Debug, Default, PartialEq)]
struct Revisit {
    done: Done,
    /// The adorned predicates fed to the dependency's body since `done` was set.
    fed: Vec<AdId>,
}

/// How far through the ordered coherent bodies a dependency's last `try_adorn` got.
#[derive(Clone, Debug, Default, PartialEq)]
enum Done {
    /// Nothing: every body is tested.
    #[default]
    Nothing,
    /// Every body up to this one (by per-atom adorned predicates), included.
    Through(Vec<AdId>),
    /// Every body: the dependency is settled.
    Everything,
}

impl Revisit {
    /// Records that an appended rule feeds the adorned predicate `id` to the body;
    /// nothing to record while every body is to be tested anyway.
    fn feed(&mut self, id: AdId) {
        if self.done != Done::Nothing && !self.fed.contains(&id) {
            self.fed.push(id);
        }
    }
}

impl<'a> Adn<'a> {
    fn new(cx: &AnalysisContext<'a>, rule_cap: usize) -> Self {
        let sigma = cx.sigma();
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
        let mut names = AdornedNames::new(sigma);
        let sources: Vec<SourceRule> = sigma
            .as_slice()
            .iter()
            .map(|dep| SourceRule::compile(dep, &names))
            .collect();
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); names.sources.len()];
        for (i, source) in sources.iter().enumerate() {
            for &(predicate, _) in &source.body {
                if readers[predicate].last() != Some(&i) {
                    readers[predicate].push(i);
                }
            }
        }
        // Base rules: R(x0, …, xn) → R^{b…b}(x0, …, xn) for every predicate of Σ.
        let widest = names.sources.iter().map(|p| p.arity).max().unwrap_or(0);
        let xs: Vec<Term> = (0..widest)
            .map(|i| Term::Var(Variable::new(&format!("x{i}"))))
            .collect();
        let mut derived = Derived::new(sigma.len(), names.sources.len());
        let mut rules = Vec::with_capacity(names.sources.len());
        for source in 0..names.sources.len() {
            let pred = names.sources[source];
            let id = names.id(source, &vec![AdSym::B; pred.arity]);
            let terms = xs[..pred.arity].to_vec();
            let head = Atom {
                predicate: names.predicate(id),
                terms: terms.clone(),
            };
            let body = Atom {
                predicate: pred,
                terms,
            };
            let base = Tgd::new(None, vec![body], vec![head]).expect("base rule is well-formed");
            let rule = AdRule {
                src: None,
                dep: PreparedDependency::owned(Dependency::Tgd(base)),
                atoms: vec![NOT_ADORNED, id],
                alive: true,
            };
            derived.add(&rule, rules.len(), &names);
            rules.push(rule);
        }
        Adn {
            sigma,
            rule_cap,
            original_firing,
            order,
            rank,
            existential,
            sources,
            readers,
            names,
            live: rules.len(),
            rules,
            versions: vec![Vec::new(); sigma.len()],
            derived,
            bodies: CoherentBodies::default(),
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
            #[cfg(test)]
            checked: false,
        }
    }

    fn run(mut self) -> AdnResult {
        loop {
            self.iterations += 1;
            if self.live > self.rule_cap || self.iterations > 4 * self.rule_cap {
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
                    let names = &self.names;
                    if self
                        .rules
                        .iter()
                        .filter(|rule| rule.alive)
                        .any(|rule| head_is_cyclic(names, rule, &omega))
                    {
                        self.acyclic = false;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut position = 0;
        let adorned = self
            .rules
            .into_iter()
            .filter(|rule| rule.alive)
            .map(|rule| {
                let dep = rule.dep.into_dependency();
                let label = match rule.src {
                    None => format!("base_{}", dep.body()[0].predicate.name),
                    Some(s) => format!("adn{position}_of_r{s}"),
                };
                position += 1;
                dep.with_label(&label)
            })
            .collect::<DependencySet>();
        let fireable_pairs: Vec<(usize, usize)> = self
            .original_firing
            .graph
            .edges()
            .map(|(s, r, _)| (s, r))
            .collect();
        AdnResult {
            adorned_rule_count: self.live - self.names.sources.len(),
            adorned,
            acyclic: self.acyclic,
            definitions: self.ad,
            iterations: self.iterations,
            fireable_pairs,
            budget_exhausted: self.budget_exhausted,
            rebuilds: self.rebuilds,
        }
    }

    /// The first position of `order` from `from` on whose dependency is not settled.
    fn next_unsettled(&self, from: usize) -> Option<usize> {
        #[cfg(test)]
        if self.full_rescan {
            return (from < self.order.len()).then_some(from);
        }
        self.derived.unsettled.range(from..).next().copied()
    }

    /// Function 2 (`adorn`): tries to produce a new adorned version of the original
    /// dependency `idx`; on success the rule is appended and its index returned.
    ///
    /// Only the bodies that the dependency's [`Revisit`] leaves open are tested, in the
    /// full enumeration order, so the first fireable one is the full rescan's. They
    /// are walked one at a time, and the walk stops at the first fireable one.
    fn try_adorn(&mut self, idx: usize) -> Option<usize> {
        let revisit = std::mem::take(&mut self.derived.revisit[idx]);
        #[cfg(test)]
        let revisit = if self.full_rescan {
            Revisit::default()
        } else {
            revisit
        };
        let sigma = self.sigma;
        let dep = &sigma.as_slice()[idx];
        let source = &self.sources[idx];
        let mut fresh = Vec::new();
        self.bodies.start(source, &self.names, &revisit);
        while self
            .bodies
            .next(source, &self.names, &self.derived.ap, &revisit)
        {
            let body = &self.bodies.chosen[..];
            if self.derived.bodies[idx].contains_key(body) {
                continue;
            }
            // Compute the adorned head (HeadAdn); its new definitions are committed to
            // AD only if the rule is appended.
            fresh.clear();
            let head_adornment = HeadAdn {
                ad_index: &self.ad_index,
                ad_max: self.ad_max,
                dep,
                idx,
                source,
            };
            let (candidate, atoms) = head_adornment.candidate(
                &mut self.names,
                body,
                &self.bodies.assignment,
                &mut fresh,
            );
            if !self
                .derived
                .fires(&self.rules, &mut self.memo, &candidate, body)
            {
                continue;
            }
            self.derived.revisit[idx] = Revisit {
                done: Done::Through(body.to_vec()),
                fed: Vec::new(),
            };
            let rule = AdRule {
                src: Some(idx),
                dep: candidate,
                atoms,
                alive: true,
            };
            return Some(self.push_rule(rule, &fresh));
        }
        self.derived.revisit[idx] = Revisit {
            done: Done::Everything,
            fed: Vec::new(),
        };
        self.derived.unsettled.remove(&self.rank[idx]);
        None
    }

    /// Appends `rule`, whose head defined the `fresh` symbols, and revisits the
    /// dependencies it can affect (see [`Revisit`]).
    fn push_rule(&mut self, rule: AdRule, fresh: &[AdnDefinition]) -> usize {
        let index = self.rules.len();
        let derived = &mut self.derived;
        derived.add(&rule, index, &self.names);
        if rule.dependency().is_egd() {
            derived.revisit_all(0..self.order.len(), &self.order);
        }
        for &id in rule.head() {
            for &reader in &self.readers[self.names.source(id)] {
                derived.revisit[reader].feed(id);
                derived.unsettled.insert(self.rank[reader]);
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
        self.live += 1;
        index
    }

    /// Line 9 of Algorithm 1: if the original EGD `idx` is violated by `Dµ(Σµ)`, run one
    /// chase step and return the induced symbol substitution `{f_i / s}`.
    ///
    /// `Dµ(Σµ)` has one fact per adorned predicate, with `b` as a constant and each
    /// free symbol as a labeled null that is **unique to its fact**: two occurrences
    /// of `f_i` inside the same fact share a null, occurrences in distinct facts never
    /// do. A free symbol denotes a *family* of nulls — one per Skolem instantiation of
    /// its definitions (and θ-merges can fold several Skolem classes into one symbol)
    /// — so only same-fact occurrences are known to be the same null. A single global
    /// null `η_i` per symbol would let an EGD body join two distinct facts through a
    /// null no real chase step ever equates, firing a spurious τ (the historical
    /// `adorn_with` soundness gap).
    ///
    /// The EGD's body is matched on the `AP(Σµ)` entries of its predicates directly,
    /// as facts in `AP` order, in the join order [`JoinPlan`] gives the body over
    /// those facts; the first violating match is the one the homomorphism search over
    /// the instance `Dµ(Σµ)` would find first.
    ///
    /// A violation only counts when it is realizable in an actual chase: matches that
    /// equate two nulls of the *same* symbol are skipped (the symbol stands for a family
    /// of distinct Skolem values, and τ = {f_i / f_i} would destructively erase the
    /// symbol's definitions while changing nothing). Skipping an unrealizable match is
    /// conservative — it can only bias the criterion toward rejection.
    fn dmu_chase_step(&mut self, idx: usize) -> Option<(u32, AdSym)> {
        let egd = self.sigma.as_slice()[idx].as_egd()?;
        let b = Constant::new("b");
        let dmu = Dmu {
            source: &self.sources[idx],
            ap: &self.derived.ap,
            names: &self.names,
            b,
        };
        // The instance's candidate-count estimate with nothing bound: the smallest
        // bucket over the constant positions, or the predicate's fact count.
        let plan = JoinPlan::new(&egd.body, &Assignment::new(), |i| dmu.estimate(i));
        let mut values = vec![None; dmu.source.vars];
        let tau = dmu.step(plan.order(), &mut values);
        #[cfg(test)]
        if self.checked {
            let egd = &self.sigma.as_slice()[idx];
            assert_eq!(tau, self.reference_dmu_chase_step(idx), "Dµ step of {egd}");
        }
        tau
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
        let new_rule = &self.rules[rule_idx];
        let src = new_rule.src?;
        let others = self.versions[src].iter().filter(|&&k| k != rule_idx);
        others.copied().find_map(|k| {
            let theta = unify_adornments(&self.names, pending, new_rule, &self.rules[k])?;
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

    /// Applies `map` to `Σµ`, then drops the rules it made duplicates of earlier ones.
    /// Only the rules with an atom whose adornment mentions a symbol of `map` are
    /// rebuilt, found through the postings, and [`Derived`] is patched for them and
    /// for the rules dropped; every dependency is then revisited in full.
    fn rewrite_rules(&mut self, map: &SymbolMap) {
        let derived = &mut self.derived;
        let mut touched: Vec<usize> = Vec::new();
        for &i in map.keys() {
            if let Some(posting) = derived.postings.get_mut(i as usize) {
                touched.append(posting);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let names = &mut self.names;
        touched.retain(|&k| {
            let rule = &self.rules[k];
            rule.alive && rule.atoms.iter().any(|&id| names.mentions(id, map))
        });
        for &k in &touched {
            let rule = &mut self.rules[k];
            derived.remove(rule, k, names);
            let atoms: Vec<AdId> = rule
                .atoms
                .iter()
                .map(|&id| names.substituted(id, map))
                .collect();
            let dep = rule.dependency();
            let mut image =
                dep.body()
                    .iter()
                    .chain(dep.head_atoms())
                    .zip(&atoms)
                    .map(|(atom, &id)| Atom {
                        predicate: match id {
                            NOT_ADORNED => atom.predicate,
                            id => names.predicate(id),
                        },
                        terms: atom.terms.clone(),
                    });
            let body = image.by_ref().take(dep.body().len()).collect();
            let head = image.collect();
            rule.dep = PreparedDependency::owned(adorned_version(dep, body, head));
            rule.atoms = atoms;
            derived.add(rule, k, names);
        }
        // A rewritten rule can equal a rule before or after it; the first stays.
        let mut dropped = false;
        for &k in &touched {
            let rule = &self.rules[k];
            let Some(src) = rule.src.filter(|_| rule.alive) else {
                continue;
            };
            let same_body = &derived.bodies[src][rule.body()];
            let equal: Vec<usize> = same_body
                .iter()
                .copied()
                .filter(|&j| self.rules[j].dependency() == rule.dependency())
                .collect();
            for &j in &equal[1..] {
                let duplicate = &mut self.rules[j];
                derived.remove(duplicate, j, names);
                duplicate.alive = false;
                remove_sorted(&mut self.versions[src], j);
                self.live -= 1;
                dropped = true;
            }
        }
        if dropped {
            self.rebuilds += 1;
        }
        derived.reset_revisits();
        #[cfg(test)]
        if self.checked {
            self.check_derived();
        }
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

/// HeadAdn (Section 6) for the dependency `dep` (`idx` in Σ, read as `source`), with
/// `AD` as indexed now.
struct HeadAdn<'x> {
    ad_index: &'x AdIndex,
    ad_max: u32,
    dep: &'x Dependency,
    idx: usize,
    source: &'x SourceRule,
}

impl HeadAdn<'_> {
    /// The candidate adorned version of the dependency over the adorned predicates
    /// `body`, and the adorned predicate of each of its atoms: the body adornments,
    /// whose variables `assignment` adorns by rank, are propagated to the head, and
    /// existential variables get Skolem-style adornment definitions. A definition `AD`
    /// does not hold yet is pushed to `fresh`, with the next symbol after `AD`'s and
    /// `fresh`'s.
    fn candidate(
        &self,
        names: &mut AdornedNames,
        body: &[AdId],
        assignment: &[Option<AdSym>],
        fresh: &mut Vec<AdnDefinition>,
    ) -> (PreparedDependency<'static>, Vec<AdId>) {
        let adorn = |rank: usize| assignment[rank].unwrap_or(AdSym::B);
        let dep = self.dep;
        let body_atoms: Vec<Atom> = dep
            .body()
            .iter()
            .zip(body)
            .map(|(atom, &id)| Atom {
                predicate: names.predicate(id),
                terms: atom.terms.clone(),
            })
            .collect();
        let mut atoms = Vec::with_capacity(body.len() + self.source.head.len());
        atoms.extend_from_slice(body);
        let mut head = Vec::with_capacity(dep.head_atoms().len());
        if let Dependency::Tgd(tgd) = dep {
            let args: Vec<AdSym> = self.source.frontier.iter().map(|&r| adorn(r)).collect();
            let existentials = tgd.existential_variables().len();
            let mut ex_symbols: Vec<AdSym> = Vec::with_capacity(existentials);
            let mut max = self.ad_max;
            for z_idx in 0..existentials {
                let existing = self
                    .ad_index
                    .get(&(self.idx, z_idx))
                    .and_then(|by_args| by_args.get(args.as_slice()));
                ex_symbols.push(match existing {
                    Some(&symbol) => AdSym::F(symbol),
                    None => {
                        let symbol = max + 1;
                        let def = AdnDefinition {
                            symbol,
                            rule: self.idx,
                            var_index: z_idx,
                            args: args.clone(),
                        };
                        max = max.max(def.largest_symbol());
                        fresh.push(def);
                        AdSym::F(symbol)
                    }
                });
            }
            for ((predicate, terms), atom) in self.source.head.iter().zip(tgd.head()) {
                let adornment: Adornment = terms
                    .iter()
                    .map(|t| match *t {
                        HeadTerm::Var(r) => adorn(r),
                        HeadTerm::Existential(z) => ex_symbols[z],
                        HeadTerm::Ground => AdSym::B,
                    })
                    .collect();
                let id = names.id(*predicate, &adornment);
                atoms.push(id);
                head.push(Atom {
                    predicate: names.predicate(id),
                    terms: atom.terms.clone(),
                });
            }
        }
        let candidate = PreparedDependency::owned(adorned_version(dep, body_atoms, head));
        (candidate, atoms)
    }
}

/// A term's value in `Dµ(Σµ)`: `b`, or the null of a free symbol in one fact, the
/// fact being its adorned predicate.
#[derive(Clone, Copy, Debug, PartialEq)]
enum DmuValue {
    B,
    Null(AdId, u32),
}

/// An EGD of Σ matched on `Dµ(Σµ)`'s facts over its predicates ([`Adn::dmu_chase_step`]).
struct Dmu<'x> {
    source: &'x SourceRule,
    ap: &'x [Vec<AdId>],
    names: &'x AdornedNames,
    /// The constant `b`: a body constant matches a `b` position only if it is `b`.
    b: Constant,
}

impl Dmu<'_> {
    fn value(&self, id: AdId, position: usize) -> DmuValue {
        match self.names.adornment(id)[position] {
            AdSym::B => DmuValue::B,
            AdSym::F(i) => DmuValue::Null(id, i),
        }
    }

    /// How many facts body atom `i` can match on its constant positions alone, or its
    /// predicate's fact count if it has none: the homomorphism search's plan-time
    /// estimate.
    fn estimate(&self, i: usize) -> usize {
        let (predicate, terms) = &self.source.body[i];
        let facts = &self.ap[*predicate];
        let mut best: Option<usize> = None;
        for (position, term) in terms.iter().enumerate() {
            let bucket = match *term {
                BodyTerm::Var(_) => continue,
                BodyTerm::Const(c) if c == self.b => facts
                    .iter()
                    .filter(|&&id| self.value(id, position) == DmuValue::B)
                    .count(),
                BodyTerm::Const(_) | BodyTerm::Null => 0,
            };
            best = Some(best.map_or(bucket, |b| b.min(bucket)));
            if bucket == 0 {
                break;
            }
        }
        best.unwrap_or(facts.len())
    }

    /// The first match of the body atoms in `order` (from the first unmatched one on)
    /// that violates the EGD in a realizable way, as its substitution.
    fn step(&self, order: &[usize], values: &mut [Option<DmuValue>]) -> Option<(u32, AdSym)> {
        let Some((&atom, rest)) = order.split_first() else {
            let (left, right) = self.source.egd.expect("an EGD");
            let (left, right) = (values[left].expect("bound"), values[right].expect("bound"));
            // Definition 1(2b): replace a labeled null; both sides being constants is
            // impossible here since the only constant is `b`.
            return match (left, right) {
                (DmuValue::Null(_, sn), DmuValue::Null(_, sm)) if sn != sm => {
                    Some((sn, AdSym::F(sm)))
                }
                (DmuValue::Null(_, s), DmuValue::B) | (DmuValue::B, DmuValue::Null(_, s)) => {
                    Some((s, AdSym::B))
                }
                // Equal values, or two nulls of one symbol: no realizable step.
                _ => None,
            };
        };
        let (predicate, terms) = &self.source.body[atom];
        let mut bound: Vec<usize> = Vec::with_capacity(terms.len());
        for &id in &self.ap[*predicate] {
            let coherent = terms.iter().enumerate().all(|(position, term)| {
                let value = self.value(id, position);
                match *term {
                    BodyTerm::Var(r) => match values[r] {
                        Some(existing) => existing == value,
                        None => {
                            values[r] = Some(value);
                            bound.push(r);
                            true
                        }
                    },
                    BodyTerm::Const(c) => c == self.b && value == DmuValue::B,
                    BodyTerm::Null => false,
                }
            });
            let tau = if coherent {
                self.step(rest, values)
            } else {
                None
            };
            for r in bound.drain(..) {
                values[r] = None;
            }
            if tau.is_some() {
                return tau;
            }
        }
        None
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

/// Lines 15–16: is the head of the adorned rule cyclic w.r.t. `AD`, whose Ω graph is
/// `omega`?
fn head_is_cyclic(
    names: &AdornedNames,
    rule: &AdRule,
    omega: &[(u32, u32, (usize, usize))],
) -> bool {
    rule.head().iter().any(|&id| {
        names.adornment(id).iter().any(|s| match s {
            AdSym::F(i) => symbol_is_cyclic(*i, omega),
            AdSym::B => false,
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
fn unify_adornments(
    names: &AdornedNames,
    pending: &SymbolMap,
    new_rule: &AdRule,
    other: &AdRule,
) -> Option<SymbolMap> {
    // `mapping` records the image of every free symbol of `new_rule` (including
    // identities); the returned θ keeps only the non-identity pairs.
    let mut mapping = SymbolMap::new();
    for (&a, &b) in new_rule.atoms.iter().zip(&other.atoms) {
        if a == NOT_ADORNED || b == NOT_ADORNED {
            return None;
        }
        for (sa, sb) in names.adornment(a).iter().zip(names.adornment(b)) {
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

/// The walk through the coherent adorned versions of one source dependency's body
/// with respect to `AP(Σµ)`, one body at a time, in lexicographic order of their
/// per-atom adornments. Only the bodies its [`Revisit`] leaves open are yielded:
/// those after `done` and those using an element of `fed`. A yielded body is
/// `chosen`, one adorned predicate per atom, and `assignment` adorns its variables
/// by rank.
///
/// The walk is a depth-first search with one frame per atom; its buffers are reused
/// by every walk of the run.
#[derive(Default)]
struct CoherentBodies {
    /// Per atom, the fed adorned predicates of its source predicate, in adornment
    /// order: `fed[spans[i]]`.
    fed: Vec<AdId>,
    spans: Vec<std::ops::Range<usize>>,
    /// `fed_after[i]`: some atom from `i` on has a fed adorned predicate.
    fed_after: Vec<bool>,
    frames: Vec<Frame>,
    chosen: Vec<AdId>,
    assignment: Vec<Option<AdSym>>,
    /// The variable ranks bound, in order, for undoing.
    trail: Vec<usize>,
}

/// One atom's place in the walk: the next option to try, where the prefix before
/// the atom stands relative to `done`'s, whether the prefix uses a fed adorned
/// predicate, whether only fed ones can open a body here, and the trail length
/// before the atom's bindings.
#[derive(Clone, Copy)]
struct Frame {
    next: usize,
    position: Ordering,
    fed: bool,
    only_fed: bool,
    mark: usize,
}

impl CoherentBodies {
    /// Starts the walk over `source`'s body under `revisit`.
    fn start(&mut self, source: &SourceRule, names: &AdornedNames, revisit: &Revisit) {
        let len = source.body.len();
        self.fed.clear();
        self.spans.clear();
        for &(predicate, _) in &source.body {
            let start = self.fed.len();
            let fed = revisit
                .fed
                .iter()
                .filter(|&&id| names.source(id) == predicate);
            self.fed.extend(fed);
            self.fed[start..].sort_unstable_by(|&a, &b| names.adornment(a).cmp(names.adornment(b)));
            self.spans.push(start..self.fed.len());
        }
        self.fed_after.clear();
        self.fed_after.resize(len + 1, false);
        for i in (0..len).rev() {
            self.fed_after[i] = self.fed_after[i + 1] || !self.spans[i].is_empty();
        }
        self.chosen.clear();
        self.assignment.clear();
        self.assignment.resize(source.vars, None);
        self.trail.clear();
        self.frames.clear();
        // The position of the bodies walked so far relative to `done`: all after it,
        // tied with its prefix, or all before it.
        let position = match revisit.done {
            Done::Nothing => Ordering::Greater,
            Done::Through(_) => Ordering::Equal,
            Done::Everything => Ordering::Less,
        };
        self.push_frame(position, false);
    }

    /// Opens the frame of the next atom, after a prefix at `position` that uses a fed
    /// adorned predicate iff `fed`.
    fn push_frame(&mut self, position: Ordering, fed: bool) {
        let atom = self.frames.len();
        // Before `done` with nothing fed yet, and no fed adornment further right: only
        // this atom's fed adornments can still open a body.
        let only_fed = position == Ordering::Less && !fed && !self.fed_after[atom + 1];
        self.frames.push(Frame {
            next: 0,
            position,
            fed,
            only_fed,
            mark: self.trail.len(),
        });
    }

    /// Advances to the next open coherent body; `false` when there is none.
    fn next(
        &mut self,
        source: &SourceRule,
        names: &AdornedNames,
        ap: &[Vec<AdId>],
        revisit: &Revisit,
    ) -> bool {
        let done: &[AdId] = match &revisit.done {
            Done::Through(done) => done,
            Done::Nothing | Done::Everything => &[],
        };
        while let Some(&frame) = self.frames.last() {
            let atom = self.frames.len() - 1;
            // Undo this atom's last choice.
            unwind(&mut self.trail, &mut self.assignment, frame.mark);
            self.chosen.truncate(atom);
            let (predicate, terms) = &source.body[atom];
            let fed_here = &self.fed[self.spans[atom].clone()];
            let options: &[AdId] = if frame.only_fed {
                fed_here
            } else {
                &ap[*predicate]
            };
            let mut next = frame.next;
            let mut found = None;
            while let Some(&id) = options.get(next) {
                next += 1;
                let adornment = names.adornment(id);
                let position = match frame.position {
                    Ordering::Equal => adornment.cmp(names.adornment(done[atom])),
                    other => other,
                };
                let fed = frame.fed || frame.only_fed || fed_here.contains(&id);
                if position == Ordering::Less && !fed && !self.fed_after[atom + 1] {
                    continue;
                }
                let coherent = terms.iter().zip(adornment).all(|(t, &s)| match *t {
                    BodyTerm::Const(_) => s == AdSym::B,
                    BodyTerm::Null => true,
                    BodyTerm::Var(r) => match self.assignment[r] {
                        Some(existing) => existing == s,
                        None => {
                            self.assignment[r] = Some(s);
                            self.trail.push(r);
                            true
                        }
                    },
                });
                if coherent {
                    found = Some((id, position, fed));
                    break;
                }
                unwind(&mut self.trail, &mut self.assignment, frame.mark);
            }
            self.frames[atom].next = next;
            let Some((id, position, fed)) = found else {
                self.frames.pop();
                continue;
            };
            self.chosen.push(id);
            if atom + 1 < source.body.len() {
                self.push_frame(position, fed);
            } else if fed || position == Ordering::Greater {
                return true;
            }
        }
        false
    }
}

/// Undoes the bindings of `assignment` that `trail` recorded after `mark`.
fn unwind(trail: &mut Vec<usize>, assignment: &mut [Option<AdSym>], mark: usize) {
    for rank in trail.drain(mark..) {
        assignment[rank] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;
    use chase_core::{Fact, GroundTerm, Instance, NullValue};
    use chase_criteria::TerminationCriterion;

    /// [`Derived`] with its per-id lists cut after their last non-empty entry, and
    /// each posting list reduced to the live rules that mention its symbol, sorted:
    /// what a patched state and a rebuilt one must agree on.
    #[derive(Debug, PartialEq)]
    struct Normalized {
        ap: Vec<Vec<AdId>>,
        uses: Vec<u32>,
        bodies: Vec<Vec<VersionsByBody>>,
        writers: Vec<Vec<usize>>,
        egds: Vec<usize>,
        postings: Vec<Vec<usize>>,
        revisit: Vec<Revisit>,
        unsettled: BTreeSet<usize>,
    }

    /// A body and the live versions that have it.
    type VersionsByBody = (Box<[AdId]>, Vec<usize>);

    fn trimmed<T: Clone>(list: &[T], empty: impl Fn(&T) -> bool) -> Vec<T> {
        let end = list.iter().rposition(|x| !empty(x)).map_or(0, |i| i + 1);
        list[..end].to_vec()
    }

    impl Derived {
        /// The reference for the patched state: every live rule added in order.
        fn build(rules: &[AdRule], names: &AdornedNames, sources: usize) -> Self {
            let mut derived = Derived::new(sources, names.sources.len());
            for (k, rule) in rules.iter().enumerate() {
                if rule.alive {
                    derived.add(rule, k, names);
                }
            }
            derived
        }

        fn normalized(&self, rules: &[AdRule], names: &AdornedNames) -> Normalized {
            let postings: Vec<Vec<usize>> = self
                .postings
                .iter()
                .enumerate()
                .map(|(symbol, posting)| {
                    let mut live: Vec<usize> = posting
                        .iter()
                        .copied()
                        .filter(|&k| {
                            rules[k].alive && rules[k].symbols(names).any(|s| s as usize == symbol)
                        })
                        .collect();
                    live.sort_unstable();
                    live.dedup();
                    live
                })
                .collect();
            Normalized {
                ap: self.ap.clone(),
                uses: trimmed(&self.uses, |&n| n == 0),
                bodies: self
                    .bodies
                    .iter()
                    .map(|by_body| {
                        let mut entries: Vec<_> = by_body
                            .iter()
                            .map(|(b, v)| (b.clone(), v.clone()))
                            .collect();
                        entries.sort();
                        entries
                    })
                    .collect(),
                writers: trimmed(&self.writers, Vec::is_empty),
                egds: self.egds.clone(),
                postings: trimmed(&postings, Vec::is_empty),
                revisit: self.revisit.clone(),
                unsettled: self.unsettled.clone(),
            }
        }
    }

    impl Adn<'_> {
        /// The patched [`Derived`] equals one built from the live rules from scratch.
        pub(super) fn check_derived(&self) {
            let rebuilt = Derived::build(&self.rules, &self.names, self.sigma.len());
            assert_eq!(
                self.derived.normalized(&self.rules, &self.names),
                rebuilt.normalized(&self.rules, &self.names),
                "patched and rebuilt state differ after a rewrite of\n{}",
                self.sigma
            );
            assert_eq!(self.derived.blockers, rebuilt.blockers);
            let live = self.rules.iter().filter(|rule| rule.alive).count();
            assert_eq!(self.live, live);
            for (src, versions) in self.versions.iter().enumerate() {
                let expected: Vec<usize> = (0..self.rules.len())
                    .filter(|&k| self.rules[k].alive && self.rules[k].src == Some(src))
                    .collect();
                assert_eq!(versions, &expected);
            }
        }

        /// Line 9 as it ran on an `Instance`: `Dµ(Σµ)` over the EGD's predicates,
        /// searched by `homomorphisms`.
        pub(super) fn reference_dmu_chase_step(&self, idx: usize) -> Option<(u32, AdSym)> {
            let egd = self.sigma.as_slice()[idx].as_egd()?;
            let read: BTreeSet<Predicate> = egd.body.iter().map(|a| a.predicate).collect();
            let mut dmu = Instance::new();
            let mut symbol_of: BTreeMap<u64, u32> = BTreeMap::new();
            let mut next_null: u64 = 0;
            let b = GroundTerm::Const(Constant::new("b"));
            for &predicate in &read {
                for &id in &self.derived.ap[self.names.source_id(predicate)] {
                    let mut per_fact: BTreeMap<u32, NullValue> = BTreeMap::new();
                    let terms: Vec<GroundTerm> = self
                        .names
                        .adornment(id)
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
                    dmu.insert(Fact { predicate, terms });
                }
            }
            for h in chase_core::homomorphism::homomorphisms(&egd.body, &dmu) {
                let (left, right) = (h.get(egd.left)?, h.get(egd.right)?);
                if left == right {
                    continue;
                }
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
    }

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

    /// After every τ, θ and deduplicating rewrite, the patched [`Derived`] equals one
    /// rebuilt from scratch, and every `Dµ(Σµ)` step equals the one the homomorphism
    /// search over the instance takes. Seeds 338, 835 and 2307 rewrite `Σµ` by τ and θ
    /// in one iteration.
    #[test]
    fn the_patched_state_equals_a_rebuild_after_every_rewrite() {
        let checked_run = |sigma: &DependencySet, rule_cap: usize| {
            let cx = AnalysisContext::new(sigma);
            let mut adn = Adn::new(&cx, rule_cap);
            adn.checked = true;
            adn.run()
        };
        let mut rewrites = 0;
        for seed in 0..3000 {
            let result = checked_run(&random_program(seed), 60);
            rewrites += result.rebuilds;
            if [338, 835, 2307].contains(&seed) {
                assert!(result.rebuilds >= 2, "seed {seed} rewrites by τ and θ");
            }
        }
        assert!(rewrites > 500, "{rewrites} rewrites");
        for program in chase_ontology::atlas_corpus(&[8], 20160396) {
            checked_run(&program.sigma, MAX_ADORNED_RULES);
        }
    }

    /// On a `Dµ(Σµ)` where the matches disagree, the direct match takes the one the
    /// homomorphism search over the instance finds first (`checked` compares the two
    /// on every call). The loop applies τ as soon as one free symbol can meet `b`, so
    /// such states are set up by hand.
    #[test]
    fn the_dmu_step_takes_the_searchs_first_violating_match() {
        let sigma = parse_dependencies(
            r#"
            r1: A(?x) -> exists ?y: T(?x, ?y).
            e1: T(?x, ?y), T(?x, ?z) -> ?y = ?z.
            e2: T(?x, ?y), U(?x, ?z), T(?z, ?w) -> ?y = ?w.
            "#,
        )
        .unwrap();
        let cx = AnalysisContext::new(&sigma);
        let mut adn = Adn::new(&cx, 60);
        adn.checked = true;
        let (b, f) = (AdSym::B, AdSym::F);
        for (name, adornment) in [
            ("T", [b, f(2)]),
            ("T", [b, f(1)]),
            ("T", [f(2), f(3)]),
            ("U", [b, f(2)]),
            ("U", [f(4), f(4)]),
            ("T", [f(4), f(5)]),
        ] {
            let source = adn.names.source_id(Predicate::new(name, 2));
            let id = adn.names.id(source, &adornment);
            let rule = AdRule {
                src: None,
                dep: PreparedDependency::owned(sigma.as_slice()[0].clone()),
                atoms: vec![id],
                alive: true,
            };
            adn.derived.add(&rule, 100, &adn.names);
        }
        // `T(b, b)` twice agrees; `T(b, b), T(b, η1)` sends `f1` to `b`. In the
        // other order, `T(b, η2), T(b, η1)` would send `f2` to `f1`.
        assert_eq!(adn.dmu_chase_step(1), Some((1, AdSym::B)));
        // The plan joins `U` first, then the first `T`.
        assert_eq!(adn.dmu_chase_step(2), Some((1, AdSym::B)));
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
