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
//! `R0`, and a copy chain `c1`/`c2` enabling the θ-merge) must be rejected under
//! both fireable modes:
//!
//! ```
//! use chase_core::parser::parse_dependencies;
//! use chase_termination::adornment::{adorn_with, AdnConfig, FireableMode};
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
//! for mode in [FireableMode::Exact, FireableMode::PredicateOverlap] {
//!     let cfg = AdnConfig { fireable_mode: mode, ..AdnConfig::default() };
//!     assert!(!adorn_with(&sigma, &cfg).acyclic, "the gadget's cycle must be found");
//! }
//! ```
//!
//! Skipping a match that is only realizable across facts biases the criterion toward
//! *rejection*, which is the sound direction for a sufficient termination condition;
//! genuinely single-fact EGD violations (e.g. Σ1's `E(?x, ?y) -> ?x = ?y`) still fire
//! their τ exactly as the paper prescribes.

use crate::firing::definition2_edge_among;
use chase_core::{
    Atom, Constant, Dependency, DependencySet, Egd, Fact, GroundTerm, Instance, NullValue,
    Predicate, Term, Tgd, Variable,
};
use chase_criteria::firing::{shares_predicate, FiringConfig};
use chase_criteria::AnalysisContext;
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

fn adornment_string(adornment: &Adornment) -> String {
    adornment.iter().map(|s| s.to_string()).collect()
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

/// An atom whose predicate may carry an adornment (`None` = the original, unadorned
/// predicate, used in the bodies of the base rules `R(x̄) → R^{b…b}(x̄)`).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct AdAtom {
    predicate: Predicate,
    adornment: Option<Adornment>,
    terms: Vec<Term>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum AdHead {
    Atoms(Vec<AdAtom>),
    Equality(Variable, Variable),
}

/// An adorned dependency together with the original dependency it was derived from.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct AdRule {
    /// Index of the source dependency in the original set (`None` for base rules).
    src: Option<usize>,
    body: Vec<AdAtom>,
    head: AdHead,
}

impl AdRule {
    fn head_atoms(&self) -> &[AdAtom] {
        match &self.head {
            AdHead::Atoms(atoms) => atoms,
            AdHead::Equality(_, _) => &[],
        }
    }
}

/// How the `fireable` condition of Function 2 is evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FireableMode {
    /// The exact Definition-2 firing test over the current adorned set. Precise but
    /// expensive; suitable for small and medium sets.
    Exact,
    /// A predicate-overlap over-approximation: a rule counts as fireable if some rule
    /// of the adorned set can syntactically feed its body. Sound (it only adorns more
    /// rules, never fewer), and fast enough for large ontologies.
    PredicateOverlap,
    /// Use [`FireableMode::Exact`] below [`AdnConfig::auto_threshold`] dependencies and
    /// [`FireableMode::PredicateOverlap`] above.
    Auto,
}

/// Configuration of the adornment algorithm.
#[derive(Clone, Debug, PartialEq)]
pub struct AdnConfig {
    /// Configuration of the underlying firing tests.
    pub firing: FiringConfig,
    /// How the fireable condition is evaluated.
    pub fireable_mode: FireableMode,
    /// Size (number of dependencies) above which [`FireableMode::Auto`] switches to the
    /// overlap approximation.
    pub auto_threshold: usize,
    /// Hard cap on the number of adorned dependencies; exceeding it aborts with
    /// `Acyc = false` (a conservative rejection).
    pub max_adorned_rules: usize,
}

impl Default for AdnConfig {
    fn default() -> Self {
        AdnConfig {
            firing: FiringConfig::default(),
            fireable_mode: FireableMode::Auto,
            auto_threshold: 40,
            max_adorned_rules: 5_000,
        }
    }
}

/// The result of running `Adn∃` on a dependency set.
#[derive(Clone, Debug)]
pub struct AdnResult {
    /// The adorned dependency set `Σµ = Adn∃(Σ)[1]`, with adorned predicates rendered
    /// as fresh predicates `R__bf1…`. Includes the base rules `R(x̄) → R^{b…b}(x̄)`.
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
    /// cyclicity test: the firing relation of Definition 2 in
    /// [`FireableMode::Exact`], or its predicate-overlap over-approximation.
    pub fireable_pairs: Vec<(usize, usize)>,
    /// `true` iff the rule budget was exhausted (the result is then a conservative
    /// rejection).
    pub budget_exhausted: bool,
    /// Number of τ, θ and deduplicating rewrites of `Σµ`: the only steps that are not
    /// appends, so the only ones after which the incremental state (`AP(Σµ)`, the
    /// rendering and the rejected candidates) is rebuilt. Not part of the witness.
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

/// Runs the adornment algorithm with the default configuration.
pub fn adorn(sigma: &DependencySet) -> AdnResult {
    adorn_with(sigma, &AdnConfig::default())
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
#[derive(Clone, Debug, Default)]
pub struct SemiAcyclicity {
    /// Configuration of the adornment algorithm.
    pub config: AdnConfig,
}

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

    fn verdict(&self, sigma: &DependencySet) -> chase_criteria::Verdict {
        self.verdict_in(&AnalysisContext::new(sigma))
    }

    fn verdict_in(&self, cx: &AnalysisContext) -> chase_criteria::Verdict {
        let result = adorn_in(cx, &self.config);
        chase_criteria::Verdict {
            criterion: self.name(),
            guarantee: chase_criteria::Guarantee::SomeSequence,
            accepted: result.acyclic,
            witness: adornment_witness(&result),
        }
    }
}

/// Runs the adornment algorithm `Adn∃` (Algorithm 1).
pub fn adorn_with(sigma: &DependencySet, config: &AdnConfig) -> AdnResult {
    let result = adorn_in(&AnalysisContext::new(sigma), config);
    Rc::unwrap_or_clone(result)
}

/// `Adn∃` on the context's set: run once per configuration and shared by SAC and
/// every `Adn∃-C` criterion of the analysis.
pub(crate) fn adorn_in(cx: &AnalysisContext, config: &AdnConfig) -> Rc<AdnResult> {
    cx.shared(config.clone(), || Adn::new(cx, config).run())
}

// ---------------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------------

struct Adn<'a> {
    sigma: &'a DependencySet,
    config: &'a AdnConfig,
    exact_fireable: bool,
    /// Firing information over the *original* set, used by the Ω(AD) cyclicity test.
    original_firing: OriginalFiring,
    /// The universally quantified dependencies of the original set, EGDs first (lines
    /// 6–10), and the existential ones (lines 11–12).
    full_first: Vec<usize>,
    existential: Vec<usize>,
    rules: Vec<AdRule>,
    /// What is derived from `rules`: built on first use, extended in place when a
    /// rule is appended, and dropped when a rewrite changes `rules`.
    derived: Option<Derived>,
    ad: Vec<AdnDefinition>,
    acyclic: bool,
    iterations: usize,
    budget_exhausted: bool,
    rebuilds: usize,
}

/// The state `Adn∃` derives from its adorned rules. Appending a rule only adds to it.
///
/// `rejected` makes the fireability test semi-naive: a candidate that no rule fired is
/// stored with the number of rules it was tested against, and a re-test only tries the
/// rules appended since. This is exact while rules are only appended: the old rules
/// are unchanged, and the new full rules only add blockers to Definition 2, which can
/// block more witnesses but never unblock one.
struct Derived {
    /// `AP(Σµ)`.
    ap: BTreeSet<(Predicate, Adornment)>,
    /// The bodies of the adorned versions of each original dependency.
    bodies: Vec<HashSet<Vec<AdAtom>>>,
    /// In exact mode, the rules rendered as dependencies (same order), and their `Σ∀`.
    rendered: Vec<Dependency>,
    full: Vec<Dependency>,
    /// Candidates that no rule fired, with the number of rules they were tested
    /// against.
    rejected: HashMap<AdRule, usize>,
}

impl Derived {
    fn build(rules: &[AdRule], sources: usize, exact: bool) -> Self {
        let mut derived = Derived {
            ap: BTreeSet::new(),
            bodies: vec![HashSet::new(); sources],
            rendered: Vec::new(),
            full: Vec::new(),
            rejected: HashMap::new(),
        };
        for (k, rule) in rules.iter().enumerate() {
            derived.append(rule, k, exact);
        }
        derived
    }

    /// Accounts for `rule`, appended at `index`.
    fn append(&mut self, rule: &AdRule, index: usize, exact: bool) {
        for atom in rule.body.iter().chain(rule.head_atoms()) {
            if let Some(adornment) = &atom.adornment {
                self.ap.insert((atom.predicate, adornment.clone()));
            }
        }
        if let Some(src) = rule.src {
            self.bodies[src].insert(rule.body.clone());
        }
        if exact {
            let dep = ad_rule_to_dependency(rule, index);
            if dep.is_full() {
                self.full.push(dep.clone());
            }
            self.rendered.push(dep);
        }
    }
}

/// Reachability structure over the original dependency set used by the cyclicity
/// condition of Ω(AD): `s ⇝ r` iff `s < r1 < · · · < rn < r` with every `ri ∈ Σ∀`.
struct OriginalFiring {
    /// `edges[s]` = set of direct successors of `s` under the firing relation (or its
    /// overlap over-approximation for large inputs).
    edges: Vec<BTreeSet<usize>>,
    full: Vec<bool>,
}

impl OriginalFiring {
    fn compute(cx: &AnalysisContext, config: &AdnConfig, exact: bool) -> Self {
        let sigma = cx.sigma();
        let n = sigma.len();
        let mut edges = vec![BTreeSet::new(); n];
        if exact {
            let graph = crate::firing::firing_graph_in(cx, &config.firing);
            for (f, t, _) in graph.edges() {
                edges[f].insert(t);
            }
        } else {
            for (i, r1) in sigma.iter() {
                for (j, r2) in sigma.iter() {
                    let feeds = if r1.is_tgd() {
                        r1.head_atoms()
                    } else {
                        r1.body()
                    };
                    if shares_predicate(feeds, r2.body()) {
                        edges[i.0].insert(j.0);
                    }
                }
            }
        }
        let full = sigma.iter().map(|(_, d)| d.is_full()).collect();
        OriginalFiring { edges, full }
    }

    /// Is there a chain `s < r1 < … < rn < r` (n ≥ 0) with every intermediate `ri`
    /// full?
    fn reaches_via_full(&self, s: usize, r: usize) -> bool {
        if self.edges[s].contains(&r) {
            return true;
        }
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut stack: Vec<usize> = self.edges[s]
            .iter()
            .copied()
            .filter(|&m| self.full[m])
            .collect();
        while let Some(m) = stack.pop() {
            if !seen.insert(m) {
                continue;
            }
            if self.edges[m].contains(&r) {
                return true;
            }
            for &next in &self.edges[m] {
                if self.full[next] && !seen.contains(&next) {
                    stack.push(next);
                }
            }
        }
        false
    }
}

impl<'a> Adn<'a> {
    fn new(cx: &AnalysisContext<'a>, config: &'a AdnConfig) -> Self {
        let sigma = cx.sigma();
        let exact = match config.fireable_mode {
            FireableMode::Exact => true,
            FireableMode::PredicateOverlap => false,
            FireableMode::Auto => sigma.len() <= config.auto_threshold,
        };
        let original_firing = OriginalFiring::compute(cx, config, exact);
        // EGDs before full TGDs (the order is immaterial for correctness).
        let mut full_first: Vec<usize> = sigma
            .iter()
            .filter(|(_, d)| d.is_full())
            .map(|(i, _)| i.0)
            .collect();
        full_first.sort_by_key(|&i| if sigma.as_slice()[i].is_egd() { 0 } else { 1 });
        let existential = sigma
            .iter()
            .filter(|(_, d)| d.is_existential())
            .map(|(i, _)| i.0)
            .collect();
        // Base rules: R(x1, …, xn) → R^{b…b}(x1, …, xn) for every predicate of Σ.
        let mut rules = Vec::new();
        for pred in sigma.predicates() {
            let terms: Vec<Term> = (0..pred.arity)
                .map(|i| Term::Var(Variable::new(&format!("x{i}"))))
                .collect();
            rules.push(AdRule {
                src: None,
                body: vec![AdAtom {
                    predicate: pred,
                    adornment: None,
                    terms: terms.clone(),
                }],
                head: AdHead::Atoms(vec![AdAtom {
                    predicate: pred,
                    adornment: Some(vec![AdSym::B; pred.arity]),
                    terms,
                }]),
            });
        }
        Adn {
            sigma,
            config,
            exact_fireable: exact,
            original_firing,
            full_first,
            existential,
            rules,
            derived: None,
            ad: Vec::new(),
            acyclic: true,
            iterations: 0,
            budget_exhausted: false,
            rebuilds: 0,
        }
    }

    fn run(mut self) -> AdnResult {
        loop {
            self.iterations += 1;
            if self.rules.len() > self.config.max_adorned_rules
                || self.iterations > 4 * self.config.max_adorned_rules
            {
                self.budget_exhausted = true;
                self.acyclic = false;
                break;
            }
            let mut changed = false;
            // A pushed rule is never a duplicate; only τ and θ can create one.
            let mut rewritten = false;
            // Lines 6–10: prefer universally quantified dependencies (EGDs and full
            // TGDs).
            let mut newly_added: Option<usize> = None;
            for k in 0..self.full_first.len() {
                let idx = self.full_first[k];
                if let Some(rule_idx) = self.try_adorn(idx) {
                    newly_added = Some(rule_idx);
                    changed = true;
                    // Line 8–10: if the source is an EGD violated by Dµ(Σµ), apply the
                    // chase-step substitution τ.
                    if self.sigma.as_slice()[idx].is_egd() {
                        if let Some((from, to)) = self.dmu_chase_step(idx) {
                            self.apply_tau(from, to);
                            rewritten = true;
                        }
                    }
                    break;
                }
            }
            if newly_added.is_none() {
                // Lines 11–12: existentially quantified dependencies.
                for k in 0..self.existential.len() {
                    let idx = self.existential[k];
                    if let Some(rule_idx) = self.try_adorn(idx) {
                        newly_added = Some(rule_idx);
                        changed = true;
                        break;
                    }
                }
            }
            // Lines 13–16: adornment substitution θ and cyclicity detection.
            if let Some(rule_idx) = newly_added {
                if let Some(theta) = self.find_valid_theta(rule_idx) {
                    let head = self.rules[rule_idx].head.clone();
                    self.apply_theta(&theta);
                    rewritten = true;
                    let substituted_head = apply_theta_to_head(&head, &theta);
                    // `headµθ is cyclic`: the head of the newly adorned dependency may
                    // itself be an equality (when the trigger was an adorned EGD, as in
                    // Example 13); in that case the cyclicity introduced by θ shows up
                    // in the heads that θ rewrote, so we also inspect the whole adorned
                    // set — matching the example's "since Ω(AD) is cyclic, Acyc ≔ false".
                    let omega = self.omega_graph();
                    if std::iter::once(&substituted_head)
                        .chain(self.rules.iter().map(|r| &r.head))
                        .any(|head| head_is_cyclic(head, &omega))
                    {
                        self.acyclic = false;
                    }
                }
                if rewritten {
                    self.dedupe_rules();
                }
            }
            if !changed {
                break;
            }
        }
        let adorned = render(&self.rules);
        let fireable_pairs: Vec<(usize, usize)> = self
            .original_firing
            .edges
            .iter()
            .enumerate()
            .flat_map(|(s, succs)| succs.iter().map(move |&r| (s, r)))
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

    /// The state derived from the current rules, built if a rewrite dropped it.
    fn derived(&mut self) -> &mut Derived {
        let (rules, sources, exact) = (&self.rules, self.sigma.len(), self.exact_fireable);
        self.derived
            .get_or_insert_with(|| Derived::build(rules, sources, exact))
    }

    /// Drops what was derived from `rules`; called on every rewrite of them.
    fn rules_changed(&mut self) {
        self.derived = None;
        self.rebuilds += 1;
    }

    /// Function 2 (`adorn`): tries to produce a new adorned version of the original
    /// dependency `idx`; on success the rule is appended and its index returned.
    fn try_adorn(&mut self, idx: usize) -> Option<usize> {
        let dep = &self.sigma.as_slice()[idx];
        let candidates = coherent_adorned_bodies(dep.body(), &self.derived().ap);
        for (body, var_adornment) in candidates {
            if self.derived().bodies[idx].contains(&body) {
                continue;
            }
            // Tentatively compute the adorned head (HeadAdn); its AD additions are
            // undone if the rule is rejected.
            let committed = self.ad.len();
            let head = Self::head_adorn(dep, idx, &var_adornment, &mut self.ad);
            let candidate = AdRule {
                src: Some(idx),
                body,
                head,
            };
            if !self.is_fireable(&candidate) {
                self.ad.truncate(committed);
                continue;
            }
            let index = self.rules.len();
            let exact = self.exact_fireable;
            self.derived().append(&candidate, index, exact);
            self.rules.push(candidate);
            return Some(index);
        }
        None
    }

    /// HeadAdn (Section 6): propagate body adornments to the head; existential
    /// variables get Skolem-style adornment definitions.
    fn head_adorn(
        dep: &Dependency,
        idx: usize,
        var_adornment: &BTreeMap<Variable, AdSym>,
        ad: &mut Vec<AdnDefinition>,
    ) -> AdHead {
        match dep {
            Dependency::Egd(e) => AdHead::Equality(e.left, e.right),
            Dependency::Tgd(tgd) => {
                let frontier = tgd.frontier_variables();
                let args: Vec<AdSym> = frontier
                    .iter()
                    .map(|v| *var_adornment.get(v).unwrap_or(&AdSym::B))
                    .collect();
                let existential = tgd.existential_variables();
                let mut ex_symbols: BTreeMap<Variable, AdSym> = BTreeMap::new();
                for (z_idx, z) in existential.iter().enumerate() {
                    let existing = ad
                        .iter()
                        .find(|d| d.rule == idx && d.var_index == z_idx && d.args == args);
                    let sym = match existing {
                        Some(d) => AdSym::F(d.symbol),
                        None => {
                            let next = 1 + ad
                                .iter()
                                .flat_map(|d| {
                                    std::iter::once(d.symbol).chain(d.args.iter().filter_map(|s| {
                                        match s {
                                            AdSym::F(i) => Some(*i),
                                            AdSym::B => None,
                                        }
                                    }))
                                })
                                .max()
                                .unwrap_or(0);
                            ad.push(AdnDefinition {
                                symbol: next,
                                rule: idx,
                                var_index: z_idx,
                                args: args.clone(),
                            });
                            AdSym::F(next)
                        }
                    };
                    ex_symbols.insert(*z, sym);
                }
                let atoms = tgd
                    .head()
                    .iter()
                    .map(|atom| {
                        let adornment: Adornment = atom
                            .terms
                            .iter()
                            .map(|t| match t {
                                Term::Const(_) => AdSym::B,
                                Term::Var(v) => *var_adornment
                                    .get(v)
                                    .or_else(|| ex_symbols.get(v))
                                    .unwrap_or(&AdSym::B),
                                Term::Null(_) => AdSym::B,
                            })
                            .collect();
                        AdAtom {
                            predicate: atom.predicate,
                            adornment: Some(adornment),
                            terms: atom.terms.clone(),
                        }
                    })
                    .collect();
                AdHead::Atoms(atoms)
            }
        }
    }

    /// Is the candidate adorned rule fireable with respect to the current adorned set?
    /// A candidate rejected before is only tested against the rules appended since
    /// (see [`Derived`]). In exact mode TGD sources are tried before EGD sources: their
    /// tests are cheaper, and the answer does not depend on the order.
    fn is_fireable(&mut self, candidate: &AdRule) -> bool {
        let (exact, config) = (self.exact_fireable, &self.config.firing);
        let rules = &self.rules;
        let derived = self.derived.as_mut().expect("built by try_adorn");
        let tested = derived.rejected.get(candidate).copied().unwrap_or(0);
        if tested == rules.len() {
            return false;
        }
        let fires = if exact {
            let candidate_dep = ad_rule_to_dependency(candidate, usize::MAX);
            let new = &derived.rendered[tested..];
            let full = &derived.full;
            let fires_it =
                |dep: &Dependency| definition2_edge_among(full, dep, &candidate_dep, config);
            new.iter().filter(|d| d.is_tgd()).any(fires_it)
                || new.iter().filter(|d| d.is_egd()).any(fires_it)
        } else {
            // Overlap approximation: some rule's (adorned) head can syntactically feed
            // the candidate's body.
            rules[tested..].iter().any(|rule| match &rule.head {
                AdHead::Atoms(atoms) => atoms.iter().any(|a| {
                    candidate
                        .body
                        .iter()
                        .any(|b| b.predicate == a.predicate && b.adornment == a.adornment)
                }),
                AdHead::Equality(_, _) => rule
                    .body
                    .iter()
                    .any(|a| candidate.body.iter().any(|b| b.predicate == a.predicate)),
            })
        };
        if !fires {
            derived.rejected.insert(candidate.clone(), rules.len());
        }
        fires
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
    /// Returns the instance together with the adornment symbol of every null.
    fn dmu_instance(&mut self) -> (Instance, BTreeMap<u64, u32>) {
        let mut inst = Instance::new();
        let mut symbol_of: BTreeMap<u64, u32> = BTreeMap::new();
        let mut next_null: u64 = 0;
        for (pred, adornment) in &self.derived().ap {
            let mut per_fact: BTreeMap<u32, NullValue> = BTreeMap::new();
            let terms: Vec<GroundTerm> = adornment
                .iter()
                .map(|s| match s {
                    AdSym::B => GroundTerm::Const(Constant::new("b")),
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
        let (dmu, symbol_of) = self.dmu_instance();
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

    /// Line 10: apply `τ = {f_from / to}` to `Σµ`, delete the definitions of `f_from`
    /// from `AD`, and apply `τ` to the remaining definitions.
    fn apply_tau(&mut self, from: u32, to: AdSym) {
        let map: BTreeMap<u32, AdSym> = [(from, to)].into_iter().collect();
        for rule in &mut self.rules {
            apply_map_to_rule(rule, &map);
        }
        self.rules_changed();
        self.ad.retain(|d| d.symbol != from);
        for def in &mut self.ad {
            for a in &mut def.args {
                if let AdSym::F(i) = a {
                    if *i == from {
                        *a = to;
                    }
                }
            }
        }
        // Rewriting args can make non-adjacent definitions equal; `Vec::dedup` only
        // collapses neighbours, so deduplicate with a seen-set instead.
        let mut seen: BTreeSet<AdnDefinition> = BTreeSet::new();
        self.ad.retain(|d| seen.insert(d.clone()));
    }

    /// Lines 13–14: look for a non-empty valid substitution θ mapping the newly adorned
    /// rule onto an existing adorned version of the same source dependency.
    fn find_valid_theta(&self, rule_idx: usize) -> Option<BTreeMap<u32, AdSym>> {
        let new_rule = &self.rules[rule_idx];
        let src = new_rule.src?;
        for (k, other) in self.rules.iter().enumerate() {
            if k == rule_idx || other.src != Some(src) {
                continue;
            }
            if let Some(theta) = unify_adornments(new_rule, other) {
                if theta.is_empty() {
                    continue;
                }
                // No chained replacements: the range must not intersect the domain.
                let range_symbols: BTreeSet<u32> = theta
                    .values()
                    .filter_map(|s| match s {
                        AdSym::F(i) => Some(*i),
                        AdSym::B => None,
                    })
                    .collect();
                if theta.keys().any(|k| range_symbols.contains(k)) {
                    continue;
                }
                // Validity: every fi/fj pair must have definitions for the same Skolem
                // function f^r_z.
                let valid = theta.iter().all(|(i, s)| match s {
                    AdSym::F(j) => self.ad.iter().any(|d1| {
                        d1.symbol == *i
                            && self.ad.iter().any(|d2| {
                                d2.symbol == *j
                                    && d2.rule == d1.rule
                                    && d2.var_index == d1.var_index
                            })
                    }),
                    AdSym::B => false,
                });
                if valid {
                    return Some(theta);
                }
            }
        }
        None
    }

    /// Line 14: apply θ to `Σµ` and `AD` (including the defined symbols).
    fn apply_theta(&mut self, theta: &BTreeMap<u32, AdSym>) {
        for rule in &mut self.rules {
            apply_map_to_rule(rule, theta);
        }
        self.rules_changed();
        for def in &mut self.ad {
            if let Some(AdSym::F(j)) = theta.get(&def.symbol) {
                def.symbol = *j;
            }
            for a in &mut def.args {
                if let AdSym::F(i) = a {
                    if let Some(s) = theta.get(i) {
                        *a = *s;
                    }
                }
            }
        }
        self.ad.dedup();
        let mut seen = BTreeSet::new();
        self.ad
            .retain(|d| seen.insert((d.symbol, d.rule, d.var_index, d.args.clone())));
    }

    fn dedupe_rules(&mut self) {
        let mut seen: HashSet<&AdRule> = HashSet::with_capacity(self.rules.len());
        let first: Vec<bool> = self.rules.iter().map(|rule| seen.insert(rule)).collect();
        if first.contains(&false) {
            let mut first = first.into_iter();
            self.rules.retain(|_| first.next() == Some(true));
            self.rules_changed();
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

/// Converts adorned rules into a plain dependency set.
fn render(rules: &[AdRule]) -> DependencySet {
    DependencySet::from_vec(
        rules
            .iter()
            .enumerate()
            .map(|(k, r)| ad_rule_to_dependency(r, k))
            .collect(),
    )
}

/// Lines 15–16: is the (θ-substituted) adorned head cyclic w.r.t. `AD`, whose Ω graph
/// is `omega`?
fn head_is_cyclic(head: &AdHead, omega: &[(u32, u32, (usize, usize))]) -> bool {
    let atoms = match head {
        AdHead::Atoms(atoms) => atoms,
        AdHead::Equality(_, _) => return false,
    };
    atoms.iter().any(|atom| {
        atom.adornment
            .as_ref()
            .map(|ad| {
                ad.iter().any(|s| match s {
                    AdSym::F(i) => symbol_is_cyclic(*i, omega),
                    AdSym::B => false,
                })
            })
            .unwrap_or(false)
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

fn apply_theta_to_head(head: &AdHead, theta: &BTreeMap<u32, AdSym>) -> AdHead {
    match head {
        AdHead::Equality(a, b) => AdHead::Equality(*a, *b),
        AdHead::Atoms(atoms) => AdHead::Atoms(
            atoms
                .iter()
                .map(|atom| {
                    let mut atom = atom.clone();
                    if let Some(ad) = &mut atom.adornment {
                        for s in ad.iter_mut() {
                            if let AdSym::F(i) = s {
                                if let Some(to) = theta.get(i) {
                                    *s = *to;
                                }
                            }
                        }
                    }
                    atom
                })
                .collect(),
        ),
    }
}

fn apply_map_to_rule(rule: &mut AdRule, map: &BTreeMap<u32, AdSym>) {
    let fix = |adornment: &mut Option<Adornment>| {
        if let Some(ad) = adornment {
            for s in ad.iter_mut() {
                if let AdSym::F(i) = s {
                    if let Some(to) = map.get(i) {
                        *s = *to;
                    }
                }
            }
        }
    };
    for atom in &mut rule.body {
        fix(&mut atom.adornment);
    }
    if let AdHead::Atoms(atoms) = &mut rule.head {
        for atom in atoms {
            fix(&mut atom.adornment);
        }
    }
}

/// Computes θ such that `new_rule θ = other`, comparing adornments position by
/// position; returns `None` if the rules differ structurally or the mapping is
/// inconsistent. The returned map may be empty (the rules are already equal).
fn unify_adornments(new_rule: &AdRule, other: &AdRule) -> Option<BTreeMap<u32, AdSym>> {
    // `mapping` records the image of every free symbol of `new_rule` (including
    // identities); the returned θ keeps only the non-identity pairs.
    let mut mapping: BTreeMap<u32, AdSym> = BTreeMap::new();
    let pair_atoms = |a: &AdAtom, b: &AdAtom, mapping: &mut BTreeMap<u32, AdSym>| -> bool {
        if a.predicate != b.predicate || a.terms != b.terms {
            return false;
        }
        match (&a.adornment, &b.adornment) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                for (sa, sb) in x.iter().zip(y.iter()) {
                    match (sa, sb) {
                        (AdSym::B, AdSym::B) => {}
                        (AdSym::F(i), s) => match mapping.get(i) {
                            Some(existing) if existing != s => return false,
                            Some(_) => {}
                            None => {
                                mapping.insert(*i, *s);
                            }
                        },
                        (AdSym::B, AdSym::F(_)) => return false,
                    }
                }
                true
            }
            _ => false,
        }
    };
    if new_rule.body.len() != other.body.len() {
        return None;
    }
    for (a, b) in new_rule.body.iter().zip(other.body.iter()) {
        if !pair_atoms(a, b, &mut mapping) {
            return None;
        }
    }
    match (&new_rule.head, &other.head) {
        (AdHead::Equality(a1, a2), AdHead::Equality(b1, b2)) => {
            if a1 != b1 || a2 != b2 {
                return None;
            }
        }
        (AdHead::Atoms(x), AdHead::Atoms(y)) => {
            if x.len() != y.len() {
                return None;
            }
            for (a, b) in x.iter().zip(y.iter()) {
                if !pair_atoms(a, b, &mut mapping) {
                    return None;
                }
            }
        }
        _ => return None,
    }
    Some(
        mapping
            .into_iter()
            .filter(|(i, s)| *s != AdSym::F(*i))
            .collect(),
    )
}

/// Enumerates the coherent adorned versions of a body with respect to the available
/// adorned predicates, together with the induced variable adornment.
fn coherent_adorned_bodies(
    body: &[Atom],
    ap: &BTreeSet<(Predicate, Adornment)>,
) -> Vec<(Vec<AdAtom>, BTreeMap<Variable, AdSym>)> {
    let mut per_atom: Vec<Vec<&Adornment>> = Vec::with_capacity(body.len());
    for atom in body {
        let options: Vec<&Adornment> = ap
            .iter()
            .filter(|(p, _)| *p == atom.predicate)
            .map(|(_, a)| a)
            .collect();
        if options.is_empty() {
            return Vec::new();
        }
        per_atom.push(options);
    }
    let mut out = Vec::new();
    let mut assignment: BTreeMap<Variable, AdSym> = BTreeMap::new();
    let mut chosen: Vec<&Adornment> = Vec::with_capacity(body.len());
    fn recurse2<'x>(
        body: &[Atom],
        per_atom: &[Vec<&'x Adornment>],
        idx: usize,
        assignment: &mut BTreeMap<Variable, AdSym>,
        chosen: &mut Vec<&'x Adornment>,
        out: &mut Vec<(Vec<AdAtom>, BTreeMap<Variable, AdSym>)>,
    ) {
        if idx == body.len() {
            let atoms = body
                .iter()
                .zip(chosen.iter())
                .map(|(atom, adornment)| AdAtom {
                    predicate: atom.predicate,
                    adornment: Some((*adornment).clone()),
                    terms: atom.terms.clone(),
                })
                .collect();
            out.push((atoms, assignment.clone()));
            return;
        }
        let atom = &body[idx];
        'options: for adornment in &per_atom[idx] {
            let mut newly_bound: Vec<Variable> = Vec::new();
            for (t, s) in atom.terms.iter().zip(adornment.iter()) {
                match t {
                    Term::Const(_) => {
                        if *s != AdSym::B {
                            for v in newly_bound.drain(..) {
                                assignment.remove(&v);
                            }
                            continue 'options;
                        }
                    }
                    Term::Null(_) => {}
                    Term::Var(v) => match assignment.get(v) {
                        Some(existing) => {
                            if existing != s {
                                for v in newly_bound.drain(..) {
                                    assignment.remove(&v);
                                }
                                continue 'options;
                            }
                        }
                        None => {
                            assignment.insert(*v, *s);
                            newly_bound.push(*v);
                        }
                    },
                }
            }
            chosen.push(adornment);
            recurse2(body, per_atom, idx + 1, assignment, chosen, out);
            chosen.pop();
            for v in newly_bound {
                assignment.remove(&v);
            }
        }
    }
    recurse2(body, &per_atom, 0, &mut assignment, &mut chosen, &mut out);
    out
}

/// Renders an adorned rule as an ordinary dependency with mangled predicate names.
fn ad_rule_to_dependency(rule: &AdRule, index: usize) -> Dependency {
    let convert = |atom: &AdAtom| -> Atom {
        match &atom.adornment {
            None => Atom {
                predicate: atom.predicate,
                terms: atom.terms.clone(),
            },
            Some(adornment) => Atom {
                predicate: Predicate::new(
                    &format!("{}__{}", atom.predicate.name, adornment_string(adornment)),
                    atom.predicate.arity,
                ),
                terms: atom.terms.clone(),
            },
        }
    };
    let body: Vec<Atom> = rule.body.iter().map(convert).collect();
    let label = match rule.src {
        None => format!("base_{}", rule.body[0].predicate.name),
        Some(s) => format!("adn{index}_of_r{s}"),
    };
    match &rule.head {
        AdHead::Equality(a, b) => Dependency::Egd(
            Egd::new(Some(label), body, *a, *b).expect("adorned EGD is well-formed"),
        ),
        AdHead::Atoms(atoms) => {
            let head: Vec<Atom> = atoms.iter().map(convert).collect();
            Dependency::Tgd(Tgd::new(Some(label), body, head).expect("adorned TGD is well-formed"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;
    use chase_criteria::TerminationCriterion;

    fn is_semi_acyclic(sigma: &DependencySet) -> bool {
        SemiAcyclicity::default().accepts(sigma)
    }

    #[test]
    fn verdict_carries_the_adornment_trace() {
        use chase_criteria::Witness;
        let verdict = SemiAcyclicity::default().verdict(&sigma10());
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
    fn fireable_modes_agree_on_small_paper_examples() {
        for sigma in [sigma1(), sigma10()] {
            let exact = adorn_with(
                &sigma,
                &AdnConfig {
                    fireable_mode: FireableMode::Exact,
                    ..AdnConfig::default()
                },
            );
            let overlap = adorn_with(
                &sigma,
                &AdnConfig {
                    fireable_mode: FireableMode::PredicateOverlap,
                    ..AdnConfig::default()
                },
            );
            assert_eq!(exact.acyclic, overlap.acyclic);
        }
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
        let config = AdnConfig {
            fireable_mode: FireableMode::Exact,
            ..AdnConfig::default()
        };
        let result = adorn_with(&sigma, &config);
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
