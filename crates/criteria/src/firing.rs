//! The firing test between dependencies: given `r1, r2 ∈ Σ`, can enforcing `r1` cause
//! `r2` to become violated?
//!
//! This is the relation `r1 ≺ r2` underlying stratification (Deutsch–Nash–Remmel) and,
//! with an extra side condition, the relation `r1 < r2` of the paper's Definition 2
//! (implemented in `chase-termination` on top of the witness enumeration exposed here).
//!
//! Deciding `≺` quantifies over all instances `K`; following the bounded-witness
//! characterisation used by the research prototypes, it suffices to consider candidate
//! instances assembled from the two rule bodies under every identification of their
//! variables. Concretely we enumerate:
//!
//! 1. every partition of `Vars(Body(r1)) ⊎ Vars(Body(r2))` (renaming `r2`'s variables
//!    apart so that self-pairs `r ≺ r` are handled);
//! 2. a small set of constant/null labellings of the blocks: all nulls, all
//!    constants and, for an EGD `r1`, a constant first or second block with nulls
//!    elsewhere. The labelling only matters for EGD steps, which fail on two
//!    distinct constants and otherwise replace a null: `r1`'s own step, and the EGD
//!    blockers of Definition 2;
//! 3. every subset `S ⊆ θ(Body(r2))`, taking `K = θ(Body(r1)) ∪ S`.
//!
//! For each candidate we simulate one chase step of `r1` on `K` and report every
//! homomorphism `h2 : Body(r2) → J` with `K ⊨ h2(r2)` and `J ⊭ h2(r2)` to the caller.
//!
//! Each distinct candidate `(h1, K)` is evaluated once per pair, on its plain list of
//! facts: `K` is deduplicated, and a `(h1, K)` met again under another partition,
//! labelling or subset is skipped. The step is simulated on the list (fresh nulls are
//! numbered from `K`'s largest null + 1, as
//! [`Instance::fresh_null`](chase_core::Instance::fresh_null) does), and `h2` is
//! enumerated over `J` by a small backtracking matcher. The candidate reports `h2`
//! iff `h2(Body(r2)) ⊄ K` and `J ⊭ h2(r2)`, which is the condition above:
//!
//! * if `h2(Body(r2)) ⊆ K`, then `K ⊨ h2(r2)` iff `J ⊨ h2(r2)`. For a TGD `r1`,
//!   `K ⊆ J`. For an EGD `r1` with substitution γ, `h2` maps into `J = γ(K)`, so it
//!   avoids the replaced null, and γ maps a head extension in `K` into `J`;
//! * otherwise `K ⊨ h2(r2)` holds vacuously.
//!
//! A witness is a view of the candidate that reports it ([`FiringWitness`]): `K`'s
//! facts, `h1` and `h2`. Its two checks run on the candidate itself, through the
//! same step simulator and matcher, and build no instance:
//! [`is_standard_step`](FiringWitness::is_standard_step), used by the chase graphs
//! below, and [`is_blocked_by`](FiringWitness::is_blocked_by), the blocking
//! condition of Definition 2 (`chase_termination::firing`), which simulates the
//! standard step of each full blocker `r3` on `K`.
//!
//! Two cheap tests decide before anything is built. A TGD `r1` whose head shares no
//! predicate with `Body(r2)` fires nothing. An EGD step is settled per partition and
//! labelling, before step 3's subsets are built: `h1` is fixed by them, and the step
//! exists iff the EGD's two sides lie in different blocks that are not both labelled
//! constant. The partitions skipped are exactly those on which no subset has a step,
//! so the witnesses reported, and their order, do not change.
//!
//! When the combined variable count exceeds 10, or `Body(r2)` has more than 20 atoms
//! (step 3 numbers its subsets by 20 mask bits), the test falls back to a
//! conservative answer (an edge is assumed), which keeps every criterion built on top
//! of it sound.
//!
//! Both chase graphs come from one enumeration per pair ([`chase_graphs`]). The
//! standard and the oblivious step of `r1` build the same `K`, `h1` and `J`; they
//! differ only in that a standard TGD step needs `h1` not to extend to `r1`'s head in
//! `K`. So the standard witnesses are exactly the oblivious witnesses for which `r1`
//! is an EGD or its head does not extend `h1` into `K`, reported in the same order,
//! and the two searches share the prefilter and the [`FiringAnswer::Unknown`] cap.
//! One oblivious enumeration, run until its first standard witness, therefore
//! decides both edges, and the standard chase graph `G(Σ)` is a subgraph of the
//! oblivious one `Gc(Σ)`, edge by edge.
//!
//! # The kernel: codes, not facts
//!
//! The enumeration runs on a *compiled pair* and builds no [`Fact`] or
//! [`Assignment`] until it reports a witness.
//!
//! * **Per pair.** Every atom of `Body(r1)`, `Head(r1)`, `Body(r2)` and `Head(r2)` is
//!   compiled from the dependencies' shape templates (below) into a predicate,
//!   numbered by first occurrence in the pair, and term codes. A term code is a
//!   *slot* of a rank-indexed assignment (a body variable's rank in the enumeration's
//!   order, or an existential variable) or a value. A value is a null's label or a
//!   constant: block `i`'s constant, or one of the pair's rule constants. Block
//!   constants are fresh: they never equal a rule constant (the parser admits no
//!   `@` in a name, so no parsed constant can be the `@c{i}` a report renders).
//! * **Per partition and labelling.** The blocks' values fill the first slots. The
//!   grounded body facts are rows of codes in a pool kept for the pair; a fact's
//!   pool id is the order of its first grounding, and `K` is the sorted list of its
//!   facts' ids. The candidates evaluated are a set of rows `h1 ++ K`, looked up by
//!   hash.
//! * **Per candidate.** `K`'s rows, the step's result `J` and the matches of
//!   `Body(r2)` and of the heads live in buffers reused by the whole enumeration;
//!   bindings are undone through a trail.
//! * **Per report.** A witness is a view of the candidate's codes. Its facts `K`,
//!   `h1` and `h2` are written out as [`Fact`]s and [`Assignment`]s only when a
//!   caller reads them ([`FiringWitness::k`], [`FiringWitness::h1`],
//!   [`FiringWitness::h2`]); the graph builders never do. The witness's two checks
//!   run on the codes: the standard-step test once per candidate, and the blocking
//!   test on the blockers compiled into the pair's codes once per pair, on the
//!   pair's first blocking test (a blocker reading a predicate the pair lacks
//!   matches nothing and is left out).
//! * **Per workspace.** The buffers of all of the above, the compiled pair and the
//!   block constants `@c{i}` included, live in a [`FiringWorkspace`] that a graph
//!   build or an `Adn∃` run reuses for every enumeration through its
//!   [`ShapeMemo`]. An enumeration allocates only where a buffer must grow.
//!
//! # Pairs by index, answers by shape
//!
//! A graph build visits fewer pairs and enumerates fewer of them. It prepares each
//! dependency once ([`PreparedDependency`]): its body variables as `r1`, and its body
//! variables renamed apart as `r2`, each role with its shape template. A TGD row
//! visits only the dependencies whose body reads a predicate of its head, through a
//! predicate → readers index: the other pairs fail the prefilter. An EGD row visits
//! every dependency.
//!
//! Each visited pair is keyed by its *shape* ([`shape_key`]), and one enumeration
//! answers every pair of a shape ([`ShapeMemo`]). The memo lives for one build. The
//! key holds:
//!
//! * the [`Applicability`] and the kinds of both dependencies;
//! * every atom of `r1` and `r2` in order, body then head. Predicates are numbered
//!   by first occurrence in the pair (a `Predicate` includes its arity), and
//!   constants stand for themselves;
//! * each body variable by its rank in the enumeration's order: `Vars(Body(r1))`,
//!   then the renamed `Vars(Body(r2))`. Each existential variable by its position
//!   in its TGD's list;
//! * for Definition 2 into an existential `r2`, the pair's relevant blockers
//!   (`chase_termination::firing`). They form a sorted set without duplicates, each
//!   under the pair's predicate numbering. A head predicate that the pair does not
//!   mention is one wildcard. Variables are numbered by first occurrence.
//!
//! Equal keys mean isomorphic enumerations. Two pairs with one key differ only by a
//! bijection of predicates and a renaming of variables that keeps their ranks. The
//! kernel is compiled from the key's own tokens and reads a variable only through
//! its rank: the rank fixes its block in every partition. So the labelling profiles,
//! which depend on blocks 0 and 1, coincide. The candidates `K`, the steps and the
//! matches correspond fact for fact and in the same order. Every test they run
//! compares only predicates, terms and positions. A blocker reads `K` alone, so a
//! blocker whose body reads another predicate matches nothing and is left out. A
//! wildcard head atom can neither extend into `K` nor meet an atom of `r2`, so the
//! predicate behind it does not matter. Both pairs then get the same answer,
//! `Unknown` included.
//!
//! A memo builds each key into a reused buffer and looks it up by slice; the keys
//! it keeps are stored end to end in one buffer.
//!
//! [`for_each_firing_witness`] and [`chase_graph_edge`] stay single-pair entry
//! points without a memo. They are the oracle for the builders.

use crate::graph::DiGraph;
use chase_core::hash::{FastMap, WordHasher};
use chase_core::homomorphism::Assignment;
use chase_core::{
    Atom, Constant, Dependency, DependencySet, Fact, GroundTerm, NullValue, Predicate, Term, Tgd,
    Variable,
};
use std::borrow::{Borrow, Cow};
use std::cell::{OnceCell, RefCell};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{ControlFlow, Range};

/// Which notion of chase-step applicability the witness search uses for `r1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applicability {
    /// Standard chase: a TGD step requires that `h1` does not extend to the head.
    Standard,
    /// Oblivious chase: a TGD step is applicable regardless of the head (used by
    /// c-stratification).
    Oblivious,
}

/// The most combined body variables of a pair that the firing test enumerates the
/// partitions of; a pair with more answers [`FiringAnswer::Unknown`].
const MAX_VARIABLES: usize = 10;

/// A witness that enforcing `r1` can make `r2` violated: a view of the candidate
/// that reports it. Its facts and homomorphisms are written out only when read.
#[derive(Clone, Copy)]
pub struct FiringWitness<'a> {
    standard: bool,
    candidate: Candidate<'a>,
}

/// The codes behind a reported witness.
#[derive(Clone, Copy)]
struct Candidate<'a> {
    kernel: &'a Kernel<'a>,
    /// `K`'s rows.
    k: &'a Rows,
    /// The slots: `h1`, `h2` and nothing else bound.
    vals: &'a [Code],
    blocking: &'a RefCell<BlockerBuffers>,
    blocks: &'a BlockConstants,
}

impl FiringWitness<'_> {
    /// The facts of `K`, the instance before the step, each once.
    pub fn k(&self) -> Vec<Fact> {
        let Candidate { kernel, k, .. } = self.candidate;
        k.iter()
            .map(|row| Fact {
                predicate: kernel.predicates[row[0] as usize],
                terms: row[1..].iter().map(|&c| self.value(c)).collect(),
            })
            .collect()
    }

    /// The homomorphism used to fire `r1`.
    pub fn h1(&self) -> Assignment {
        let kernel = self.candidate.kernel;
        self.assignment(kernel.vars1, 0)
    }

    /// The homomorphism under which `r2` is satisfied in `K` but violated in `J`.
    pub fn h2(&self) -> Assignment {
        let kernel = self.candidate.kernel;
        self.assignment(kernel.vars2, kernel.vars1.len())
    }

    /// `vars` bound to the values of the slots from `first` on.
    fn assignment(&self, vars: &[Variable], first: usize) -> Assignment {
        let codes = &self.candidate.vals[first..first + vars.len()];
        Assignment::from_pairs(vars.iter().zip(codes).map(|(v, &c)| (*v, self.value(c))))
    }

    fn value(&self, code: Code) -> GroundTerm {
        self.candidate.kernel.value(code, self.candidate.blocks)
    }

    /// Is `r1`'s step a standard one: is `r1` an EGD, or does its head not extend
    /// `h1` into `K`?
    pub fn is_standard_step(&self) -> bool {
        self.standard
    }

    /// The blocking condition of Definition 2: does some `r3` of the full
    /// dependencies `full_deps` have a standard step on `K` whose result `J'`
    /// satisfies `h2(r2)`? As `K ⊨ h2(r2)` does, `J' ⊨ h2(r2)` also holds vacuously
    /// when `h2` does not map `Body(r2)` into `J'`. `r2` is the pair's `r2`.
    /// `full_deps` is compiled on every call; [`is_blocked`](Self::is_blocked)
    /// compiles the enumeration's blockers once.
    pub fn is_blocked_by<D: Borrow<Dependency>>(&self, full_deps: &[D], r2: &Dependency) -> bool {
        debug_assert!(r2 == self.candidate.kernel.r2, "r2 is the pair's r2");
        let mut blocking = self.candidate.blocking.borrow_mut();
        let BlockerBuffers {
            passed, scratch, ..
        } = &mut *blocking;
        passed.compile(self.candidate.kernel, full_deps);
        scratch.blocked(passed, &self.candidate)
    }

    /// [`is_blocked_by`](Self::is_blocked_by) the blockers given to the
    /// enumeration ([`FiringWorkspace::for_each_witness`]), compiled on the pair's
    /// first test.
    pub fn is_blocked(&self) -> bool {
        let mut blocking = self.candidate.blocking.borrow_mut();
        let BlockerBuffers {
            given,
            compiled,
            scratch,
            ..
        } = &mut *blocking;
        if !*compiled {
            given.compile(self.candidate.kernel, self.candidate.kernel.blockers);
            *compiled = true;
        }
        scratch.blocked(given, &self.candidate)
    }
}

impl fmt::Debug for FiringWitness<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FiringWitness")
            .field("k", &self.k())
            .field("h1", &self.h1())
            .field("h2", &self.h2())
            .finish_non_exhaustive()
    }
}

/// Result of a firing test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FiringAnswer {
    /// A witness was found (or the caller's callback accepted one).
    Fires,
    /// No witness exists within the bounded search space.
    DoesNotFire,
    /// The search space was too large; callers must treat this as "may fire".
    Unknown,
}

impl FiringAnswer {
    /// Conservative boolean interpretation: `Unknown` counts as firing.
    pub fn may_fire(&self) -> bool {
        !matches!(self, FiringAnswer::DoesNotFire)
    }
}

/// The widest `Body(r2)` whose subsets the firing test enumerates (`2^20` candidate
/// instances per partition); a wider body answers [`FiringAnswer::Unknown`].
const MAX_BODY2_ATOMS: usize = 20;

/// Enumerates firing witnesses for the ordered pair `(r1, r2)`, invoking `on_witness`
/// for each; the callback may stop the search by returning `ControlFlow::Break`.
///
/// Each distinct witness is reported once, in a deterministic first-visit order
/// (partitions, then labellings, then subsets of `Body(r2)`, then the `h2` of one
/// candidate).
///
/// Returns [`FiringAnswer::Fires`] iff the callback broke out (accepted a witness),
/// [`FiringAnswer::DoesNotFire`] if the enumeration completed without acceptance, and
/// [`FiringAnswer::Unknown`] if the pair was too large to enumerate.
pub fn for_each_firing_witness(
    r1: &Dependency,
    r2: &Dependency,
    applicability: Applicability,
    on_witness: &mut dyn FnMut(&FiringWitness<'_>) -> ControlFlow<()>,
) -> FiringAnswer {
    let (r1, r2) = (PreparedDependency::new(r1), PreparedDependency::new(r2));
    FiringWorkspace::default().for_each_witness(&r1, &r2, applicability, &[], on_witness)
}

/// The buffers of the firing kernel, reused by every enumeration run through them:
/// the compiled pair, the pools, bindings and step results, the blocking test's
/// buffers and the block constants `@c{i}`. A graph build or an `Adn∃` run keeps
/// one in its [`ShapeMemo`], so an enumeration allocates only where a buffer grows.
#[derive(Default)]
pub struct FiringWorkspace {
    code: KernelCode,
    state: State,
    blocks: BlockConstants,
}

/// Block `i`'s constant `@c{i}`, interned when a report first writes it out.
type BlockConstants = [OnceCell<Constant>; MAX_VARIABLES];

impl FiringWorkspace {
    /// [`for_each_firing_witness`] on prepared dependencies, for callers testing many
    /// pairs of one set: the same witnesses, in the same order. `blockers` are the
    /// full dependencies [`FiringWitness::is_blocked`] tests.
    pub fn for_each_witness(
        &mut self,
        r1: &PreparedDependency<'_>,
        r2: &PreparedDependency<'_>,
        applicability: Applicability,
        blockers: &[&Dependency],
        on_witness: &mut dyn FnMut(&FiringWitness<'_>) -> ControlFlow<()>,
    ) -> FiringAnswer {
        let (r1_dep, r2_dep) = (r1.dependency(), r2.dependency());
        // Cheap pruning: a TGD can only newly violate r2 through facts it adds, so its
        // head must share a predicate with Body(r2). (EGD steps change facts by merging
        // nulls, so no such pruning applies.)
        if r1_dep.is_tgd() && !shares_predicate(r1_dep.head_atoms(), r2_dep.body()) {
            return FiringAnswer::DoesNotFire;
        }
        // r2's variables are renamed apart, so that r1 == r2 is handled uniformly.
        let (side1, side2) = (r1.as_r1(), r2.as_r2());
        if side1.vars.len() + side2.vars.len() > MAX_VARIABLES
            || r2_dep.body().len() > MAX_BODY2_ATOMS
        {
            return FiringAnswer::Unknown;
        }
        let kernel = Kernel::compile(
            &mut self.code,
            [(r1_dep, side1), (r2_dep, side2)],
            applicability,
            blockers,
        );
        self.state.reset(&kernel);
        match kernel.run(&mut self.state, &self.blocks, on_witness) {
            ControlFlow::Break(()) => FiringAnswer::Fires,
            ControlFlow::Continue(()) => FiringAnswer::DoesNotFire,
        }
    }
}

/// A dependency prepared for the firing tests of many pairs: what the enumeration
/// derives from the dependency alone, computed on first use in each role, once
/// instead of once per pair.
#[derive(Clone, Debug)]
pub struct PreparedDependency<'a> {
    dep: Cow<'a, Dependency>,
    as_r1: OnceCell<Side>,
    /// The side as `r2`, with `Vars(Body(dep))` renamed apart.
    as_r2: OnceCell<Side>,
}

/// One dependency in one role of a pair.
#[derive(Clone, Debug)]
struct Side {
    /// The variables of the body in the enumeration's order: `Vars(Body(r1))`, the
    /// domain of `h1`, or `Vars(Body(r2))` in the order of their renamed versions.
    vars: Vec<Variable>,
    /// The dependency's [`ShapeKey`] tokens, with raw predicates, and its variables
    /// ranked in `vars`. The kernel is compiled from them.
    shape: Vec<Token>,
}

impl<'a> PreparedDependency<'a> {
    /// Prepares a borrowed dependency.
    pub fn new(dep: &'a Dependency) -> Self {
        Self::prepare(Cow::Borrowed(dep))
    }

    /// Prepares an owned dependency.
    pub fn owned(dep: Dependency) -> Self {
        Self::prepare(Cow::Owned(dep))
    }

    fn prepare(dep: Cow<'a, Dependency>) -> Self {
        PreparedDependency {
            dep,
            as_r1: OnceCell::new(),
            as_r2: OnceCell::new(),
        }
    }

    /// The dependency.
    pub fn dependency(&self) -> &Dependency {
        &self.dep
    }

    /// The dependency, moved out (cloned if borrowed).
    pub fn into_dependency(self) -> Dependency {
        self.dep.into_owned()
    }

    fn as_r1(&self) -> &Side {
        self.as_r1.get_or_init(|| {
            let mut vars = body_variables(&self.dep);
            vars.sort_unstable();
            let shape = shape_template(&self.dep, |v| vars.iter().position(|w| *w == v));
            Side { vars, shape }
        })
    }

    fn as_r2(&self) -> &Side {
        self.as_r2.get_or_init(|| {
            // `x` is renamed `@r2_x`, interned in order of occurrence, and the
            // variables are ranked in the order of their renamed symbols.
            let mut name = String::new();
            let mut renamed: Vec<(Variable, Variable)> = body_variables(&self.dep)
                .into_iter()
                .map(|v| {
                    name.clear();
                    name.push_str("@r2_");
                    name.push_str(&v.name());
                    (Variable::new(&name), v)
                })
                .collect();
            renamed.sort_unstable();
            let vars: Vec<Variable> = renamed.into_iter().map(|(_, v)| v).collect();
            let shape = shape_template(&self.dep, |v| vars.iter().position(|w| *w == v));
            Side { vars, shape }
        })
    }
}

/// The distinct variables of `dep`'s body, in order of occurrence.
fn body_variables(dep: &Dependency) -> Vec<Variable> {
    let mut vars: Vec<Variable> =
        Vec::with_capacity(dep.body().iter().map(|a| a.terms.len()).sum());
    for term in dep.body().iter().flat_map(|a| &a.terms) {
        if let Term::Var(v) = term {
            if !vars.contains(v) {
                vars.push(*v);
            }
        }
    }
    vars
}

/// The shape of a firing pair: equal keys mean isomorphic witness enumerations, so
/// one answer serves every pair of a shape (see the module documentation).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ShapeKey(Vec<Token>);

/// One token of a [`ShapeKey`] or of a dependency's shape template.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Token {
    /// The applicability: `true` for oblivious.
    Oblivious(bool),
    /// The kind of the dependency that follows.
    Tgd,
    Egd,
    /// Ends a body.
    Head,
    /// Starts a blocker.
    Blocker,
    /// A predicate as written: templates only.
    Predicate(Predicate),
    /// A predicate by its first occurrence in the pair.
    Numbered(u32),
    /// A blocker's head predicate that the pair does not mention.
    Wildcard,
    /// A variable by its rank in the enumeration's order (or, in a blocker, by its
    /// first occurrence there).
    Var(u32),
    /// An existential variable by its position in its TGD's list.
    Existential(u32),
    Const(Constant),
}

/// `dep` as [`Token`]s: its kind, body, [`Token::Head`], then its head atoms or the
/// two sides of its equality. `rank` places the body variables, called in order of
/// occurrence; the others are existential.
fn shape_template(dep: &Dependency, rank: impl FnMut(Variable) -> Option<usize>) -> Vec<Token> {
    let atoms = dep.body().iter().chain(dep.head_atoms());
    let mut out = Vec::with_capacity(4 + atoms.map(|a| 1 + a.terms.len()).sum::<usize>());
    push_template(&mut out, dep, rank);
    out
}

/// Appends [`shape_template`]`(dep, rank)` to `out`.
fn push_template(
    out: &mut Vec<Token>,
    dep: &Dependency,
    mut rank: impl FnMut(Variable) -> Option<usize>,
) {
    let existentials = dep.as_tgd().map_or(&[][..], Tgd::existential_variables);
    let mut term = |t: &Term| match t {
        Term::Var(v) => match rank(*v) {
            Some(r) => Token::Var(r as u32),
            None => {
                let position = existentials.iter().position(|w| w == v);
                Token::Existential(position.expect("a head-only variable is existential") as u32)
            }
        },
        Term::Const(c) => Token::Const(*c),
        Term::Null(_) => unreachable!("dependencies hold no nulls"),
    };
    out.push(if dep.is_tgd() { Token::Tgd } else { Token::Egd });
    let (body, head) = (dep.body(), dep.head_atoms());
    for (k, atom) in body.iter().chain(head).enumerate() {
        if k == body.len() {
            out.push(Token::Head);
        }
        out.push(Token::Predicate(atom.predicate));
        out.extend(atom.terms.iter().map(&mut term));
    }
    if let Some(egd) = dep.as_egd() {
        out.push(Token::Head);
        out.extend([term(&Term::Var(egd.left)), term(&Term::Var(egd.right))]);
    }
}

/// The shape of the pair `(r1, r2)` under `applicability`, with the blockers of Definition 2
/// that can match in its candidates (none for the chase graphs, or when `r2` is
/// full). Every blocker must read only predicates of `Body(r1)` and `Body(r2)`.
pub fn shape_key(
    r1: &PreparedDependency<'_>,
    r2: &PreparedDependency<'_>,
    applicability: Applicability,
    blockers: &[&Dependency],
) -> ShapeKey {
    let mut builder = KeyBuilder::default();
    ShapeKey(builder.build(r1, r2, applicability, blockers).to_vec())
}

/// Answers by [`shape_key`], for one graph build or one `Adn∃` run: each shape is
/// answered once, by one enumeration in the memo's [`FiringWorkspace`]. A key is
/// built into a reused buffer and stored end to end with the others, so a new
/// shape allocates only where a buffer grows.
pub struct ShapeMemo<V> {
    /// The keys seen; a key's id indexes `answers`.
    keys: RowSet<Token>,
    answers: Vec<V>,
    builder: KeyBuilder,
    workspace: FiringWorkspace,
}

impl<V> Default for ShapeMemo<V> {
    fn default() -> Self {
        ShapeMemo {
            keys: RowSet::default(),
            answers: Vec::new(),
            builder: KeyBuilder::default(),
            workspace: FiringWorkspace::default(),
        }
    }
}

impl<V: Copy> ShapeMemo<V> {
    /// The answer for the shape of `(r1, r2)` under `applicability` with `blockers`
    /// (as for [`shape_key`]), from `compute` in the memo's workspace if the shape
    /// is new.
    pub fn get_or_insert_with(
        &mut self,
        r1: &PreparedDependency<'_>,
        r2: &PreparedDependency<'_>,
        applicability: Applicability,
        blockers: &[&Dependency],
        compute: impl FnOnce(&mut FiringWorkspace) -> V,
    ) -> V {
        let key = self.builder.build(r1, r2, applicability, blockers);
        let (id, new) = self.keys.insert(key);
        if !new {
            return self.answers[id as usize];
        }
        let answer = compute(&mut self.workspace);
        self.answers.push(answer);
        answer
    }
}

/// The buffers a [`ShapeKey`] is built in.
#[derive(Default)]
struct KeyBuilder {
    key: Vec<Token>,
    /// The pair's predicates, in order of first occurrence.
    predicates: Vec<Predicate>,
    /// Every blocker's tokens, end to end, and the span of each.
    blockers: Vec<Token>,
    spans: Vec<Range<usize>>,
    /// One blocker's variables, in order of first occurrence.
    vars: Vec<Variable>,
}

impl KeyBuilder {
    fn build(
        &mut self,
        r1: &PreparedDependency<'_>,
        r2: &PreparedDependency<'_>,
        applicability: Applicability,
        blockers: &[&Dependency],
    ) -> &[Token] {
        debug_assert!(
            blockers.iter().all(|b| b.body().iter().all(|a| {
                let mut bodies = r1.dependency().body().iter().chain(r2.dependency().body());
                bodies.any(|c| c.predicate == a.predicate)
            })),
            "a blocker reads a predicate outside the pair's bodies"
        );
        let (side1, side2) = (r1.as_r1(), r2.as_r2());
        let KeyBuilder {
            key,
            predicates,
            blockers: tokens,
            spans,
            vars,
        } = self;
        key.clear();
        predicates.clear();
        key.push(Token::Oblivious(applicability == Applicability::Oblivious));
        let offset = side1.vars.len() as u32;
        for (shape, offset) in [(&side1.shape, 0), (&side2.shape, offset)] {
            key.extend(shape.iter().map(|&t| match t {
                Token::Predicate(p) => Token::Numbered(number(predicates, p)),
                Token::Var(r) => Token::Var(r + offset),
                other => other,
            }));
        }
        // Each blocker under the pair's predicate numbering: a head predicate the
        // pair does not mention is a wildcard (no candidate fact and no atom of `r2`
        // can use it), and variables are numbered by first occurrence.
        tokens.clear();
        spans.clear();
        for blocker in blockers {
            let start = tokens.len();
            vars.clear();
            push_template(tokens, blocker, |v| {
                Some(vars.iter().position(|w| *w == v).unwrap_or_else(|| {
                    vars.push(v);
                    vars.len() - 1
                }))
            });
            for token in &mut tokens[start..] {
                if let Token::Predicate(p) = *token {
                    *token = predicates
                        .iter()
                        .position(|q| *q == p)
                        .map_or(Token::Wildcard, |n| Token::Numbered(n as u32));
                }
            }
            spans.push(start..tokens.len());
        }
        spans.sort_unstable_by(|a, b| tokens[a.clone()].cmp(&tokens[b.clone()]));
        spans.dedup_by(|a, b| tokens[a.clone()] == tokens[b.clone()]);
        for span in spans.iter() {
            key.push(Token::Blocker);
            key.extend_from_slice(&tokens[span.clone()]);
        }
        key
    }
}

/// `p`'s number in `predicates`, appending it if it is new.
fn number(predicates: &mut Vec<Predicate>, p: Predicate) -> u32 {
    let n = predicates.iter().position(|q| *q == p).unwrap_or_else(|| {
        predicates.push(p);
        predicates.len() - 1
    });
    n as u32
}

/// Does some atom of `a` share its predicate with some atom of `b`?
pub fn shares_predicate(a: &[Atom], b: &[Atom]) -> bool {
    a.iter()
        .any(|x| b.iter().any(|y| x.predicate == y.predicate))
}

/// Returns `true` iff `r1 ≺ r2` may hold (conservatively), i.e. the chase-graph edge of
/// stratification.
pub fn chase_graph_edge(r1: &Dependency, r2: &Dependency, applicability: Applicability) -> bool {
    for_each_firing_witness(r1, r2, applicability, &mut |_| ControlFlow::Break(())).may_fire()
}

/// Both chase-graph edges of the pair, `(standard, oblivious)`, from one oblivious
/// enumeration (see the module documentation): a witness counts for the standard
/// edge iff `r1` is an EGD or its head does not extend `h1` into `K`.
fn chase_graph_edges(
    workspace: &mut FiringWorkspace,
    r1: &PreparedDependency<'_>,
    r2: &PreparedDependency<'_>,
) -> (bool, bool) {
    let mut oblivious = false;
    let oblivious_step = Applicability::Oblivious;
    let answer = workspace.for_each_witness(r1, r2, oblivious_step, &[], &mut |w| {
        oblivious = true;
        if w.is_standard_step() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    match answer {
        FiringAnswer::DoesNotFire => (false, oblivious),
        FiringAnswer::Fires | FiringAnswer::Unknown => (true, true),
    }
}

/// The chase graphs of stratification and c-stratification: nodes are dependencies,
/// with an edge `(r1, r2)` iff `r1 ≺ r2` (conservatively) under standard and under
/// oblivious applicability respectively.
#[derive(Clone, Debug)]
pub struct ChaseGraphs {
    /// `G(Σ)`, the graph of stratification.
    pub standard: DiGraph,
    /// `Gc(Σ)`, the graph of c-stratification; a supergraph of `standard`.
    pub oblivious: DiGraph,
}

/// Builds both chase graphs with one oblivious witness enumeration per pair shape
/// (see the module documentation). A TGD `r1` is paired only with the dependencies
/// whose body reads a predicate of its head; an EGD with every dependency.
pub fn chase_graphs(sigma: &DependencySet) -> ChaseGraphs {
    let mut standard = DiGraph::new();
    for id in sigma.ids() {
        standard.add_node(id.0);
    }
    let mut oblivious = standard.clone();
    let deps: Vec<PreparedDependency> = sigma
        .as_slice()
        .iter()
        .map(PreparedDependency::new)
        .collect();
    let mut readers: FastMap<Predicate, Vec<usize>> = FastMap::default();
    for (j, dep) in sigma.iter() {
        for atom in dep.body() {
            let list = readers.entry(atom.predicate).or_default();
            if list.last() != Some(&j.0) {
                list.push(j.0);
            }
        }
    }
    let mut memo: ShapeMemo<(bool, bool)> = ShapeMemo::default();
    // `row[j] == i` once `r2 = j` is among row `i`'s targets.
    let mut row = vec![usize::MAX; deps.len()];
    let mut targets: Vec<usize> = Vec::new();
    for (i, r1) in deps.iter().enumerate() {
        targets.clear();
        if r1.dependency().is_tgd() {
            for atom in r1.dependency().head_atoms() {
                for &j in readers.get(&atom.predicate).into_iter().flatten() {
                    if row[j] != i {
                        row[j] = i;
                        targets.push(j);
                    }
                }
            }
        } else {
            targets.extend(0..deps.len());
        }
        for &j in &targets {
            let r2 = &deps[j];
            let (std_edge, obl_edge) =
                memo.get_or_insert_with(r1, r2, Applicability::Oblivious, &[], |workspace| {
                    chase_graph_edges(workspace, r1, r2)
                });
            if std_edge {
                standard.add_edge(i, j, false);
            }
            if obl_edge {
                oblivious.add_edge(i, j, false);
            }
        }
    }
    ChaseGraphs {
        standard,
        oblivious,
    }
}

/// A value, or in a compiled atom a term. A value is a null's label, or a constant
/// when [`CONST`] is set: block `i`'s constant is `CONST | i`, the pair's `j`-th
/// rule constant `CONST | (MAX_VARIABLES + j)`. In a compiled atom a code without
/// [`CONST`] is a slot of the assignment.
type Code = u32;

const CONST: Code = 1 << 31;

/// An unbound slot: no value has every bit set.
const UNBOUND: Code = Code::MAX;

/// The predicate of a blocker's head atom that the pair does not mention: no row
/// has it.
const NO_PREDICATE: u32 = u32::MAX;

/// An atom compiled into the pair's codes: a predicate number and the span of its
/// terms.
#[derive(Clone, Copy, Debug)]
struct CAtom {
    predicate: u32,
    start: u32,
    end: u32,
}

impl CAtom {
    fn terms<'t>(&self, terms: &'t [Code]) -> &'t [Code] {
        &terms[self.start as usize..self.end as usize]
    }
}

/// The codes of one compiled pair, in buffers a workspace reuses across pairs.
#[derive(Default)]
struct KernelCode {
    predicates: Vec<Predicate>,
    constants: Vec<Constant>,
    atoms: Vec<CAtom>,
    terms: Vec<Code>,
}

/// One pair compiled for the kernel (see the module documentation).
struct Kernel<'a> {
    r2: &'a Dependency,
    applicability: Applicability,
    /// The pair's predicates and rule constants, by number.
    predicates: &'a [Predicate],
    constants: &'a [Constant],
    /// `Body(r1)`, `Head(r1)`, `Body(r2)` and `Head(r2)`, in these ranges.
    atoms: &'a [CAtom],
    terms: &'a [Code],
    body1: Range<usize>,
    head1: Range<usize>,
    body2: Range<usize>,
    head2: Range<usize>,
    /// The slots of the two sides of an EGD `r1` or `r2`.
    egd1: Option<(usize, usize)>,
    egd2: Option<(usize, usize)>,
    /// `Vars(Body(r1))` and `Vars(Body(r2))` in rank order: slots `0..n`.
    vars1: &'a [Variable],
    vars2: &'a [Variable],
    /// How many existential variables `r1` has: slots `n..n + existentials1`. Those
    /// of `r2` follow, up to `slots`.
    existentials1: usize,
    slots: usize,
    /// The full dependencies [`FiringWitness::is_blocked`] tests.
    blockers: &'a [&'a Dependency],
}

impl<'a> Kernel<'a> {
    /// Compiles the pair `[(r1, side1), (r2, side2)]` into `code`.
    fn compile(
        code: &'a mut KernelCode,
        [(r1, side1), (r2, side2)]: [(&'a Dependency, &'a Side); 2],
        applicability: Applicability,
        blockers: &'a [&'a Dependency],
    ) -> Self {
        let existentials =
            |dep: &Dependency| dep.as_tgd().map_or(0, |t| t.existential_variables().len());
        let (e1, e2) = (existentials(r1), existentials(r2));
        let (v1, n) = (side1.vars.len(), side1.vars.len() + side2.vars.len());
        code.predicates.clear();
        code.constants.clear();
        code.atoms.clear();
        code.atoms.reserve(
            r1.body().len() + r1.head_atoms().len() + r2.body().len() + r2.head_atoms().len(),
        );
        code.terms.clear();
        code.terms.reserve(side1.shape.len() + side2.shape.len());
        let (body1, head1, egd1) = code.compile_side(&side1.shape, 0, n);
        let (body2, head2, egd2) = code.compile_side(&side2.shape, v1, n + e1);
        let code = &*code;
        Kernel {
            r2,
            applicability,
            predicates: &code.predicates,
            constants: &code.constants,
            atoms: &code.atoms,
            terms: &code.terms,
            body1,
            head1,
            body2,
            head2,
            egd1,
            egd2,
            vars1: &side1.vars,
            vars2: &side2.vars,
            existentials1: e1,
            slots: n + e1 + e2,
            blockers,
        }
    }

    fn n(&self) -> usize {
        self.vars1.len() + self.vars2.len()
    }

    /// Runs the enumeration in `state`, reset for this pair; breaks iff
    /// `on_witness` did.
    fn run(
        &self,
        state: &mut State,
        blocks: &BlockConstants,
        on_witness: &mut dyn FnMut(&FiringWitness<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut partitions = Partitions::new(self.n());
        loop {
            let (labellings, count) = labellings(self.egd1.is_some(), partitions.block_count());
            for &nulls in &labellings[..count] {
                // An EGD step exists iff `h1` maps the two sides to distinct values
                // that are not both constants (see `gamma`). `h1` depends only on the
                // partition and the labelling, so this settles every subset of step 3.
                if let Some((left, right)) = self.egd1 {
                    let (a, b) = (partitions.blocks[left], partitions.blocks[right]);
                    if a == b || nulls & ((1 << a) | (1 << b)) == 0 {
                        continue;
                    }
                }
                state.try_partition(self, &partitions, nulls, blocks, on_witness)?;
            }
            if !partitions.advance() {
                return ControlFlow::Continue(());
            }
        }
    }

    /// The value a code stands for.
    fn value(&self, code: Code, blocks: &BlockConstants) -> GroundTerm {
        if code & CONST == 0 {
            return GroundTerm::Null(NullValue(u64::from(code)));
        }
        let i = (code & !CONST) as usize;
        GroundTerm::Const(match i.checked_sub(MAX_VARIABLES) {
            Some(j) => self.constants[j],
            None => *blocks[i].get_or_init(|| Constant::new(&format!("@c{i}"))),
        })
    }

    /// `facts ⊨ h(r2)`, for bindings `b` that map `Body(r2)` into `facts`.
    fn r2_satisfied(&self, facts: &Rows, b: &mut Bindings) -> bool {
        match self.egd2 {
            Some((left, right)) => b.vals[left] == b.vals[right],
            None => extends(&self.atoms[self.head2.clone()], self.terms, facts, b),
        }
    }
}

impl KernelCode {
    /// Compiles one side's shape template, its body variables at slots `vars..` and
    /// its existential variables at `existentials..`: the ranges of its body and head
    /// atoms, and the slots of an EGD's sides.
    fn compile_side(
        &mut self,
        shape: &[Token],
        vars: usize,
        existentials: usize,
    ) -> (Range<usize>, Range<usize>, Option<(usize, usize)>) {
        let slot = |t: Token| match t {
            Token::Var(r) => vars + r as usize,
            Token::Existential(p) => existentials + p as usize,
            other => unreachable!("{other:?} is not a variable"),
        };
        let start = self.atoms.len();
        let mut head = None;
        let mut egd = None;
        let mut tokens = shape.iter().copied();
        let is_egd = tokens.next() == Some(Token::Egd);
        while let Some(token) = tokens.next() {
            match token {
                Token::Head => {
                    head = Some(self.atoms.len());
                    if is_egd {
                        let (left, right) = (tokens.next(), tokens.next());
                        egd = Some((slot(left.expect("a side")), slot(right.expect("a side"))));
                    }
                }
                Token::Predicate(p) => {
                    let predicate = number(&mut self.predicates, p);
                    let start = self.terms.len() as u32;
                    for _ in 0..p.arity {
                        let code = match tokens.next().expect("one token per term") {
                            Token::Const(c) => {
                                let j = self.constants.iter().position(|d| *d == c);
                                let j = j.unwrap_or_else(|| {
                                    self.constants.push(c);
                                    self.constants.len() - 1
                                });
                                CONST | (MAX_VARIABLES + j) as Code
                            }
                            variable => slot(variable) as Code,
                        };
                        self.terms.push(code);
                    }
                    let end = self.terms.len() as u32;
                    self.atoms.push(CAtom {
                        predicate,
                        start,
                        end,
                    });
                }
                other => unreachable!("{other:?} in a template"),
            }
        }
        let head = head.expect("a template has a head");
        (start..head, head..self.atoms.len(), egd)
    }
}

/// The labellings worth trying for `blocks` blocks (see the module documentation),
/// as masks of the blocks labelled null, and how many there are: all nulls, all
/// constants and, for an EGD `r1`, a constant first or second block.
fn labellings(egd: bool, blocks: usize) -> ([u16; 4], usize) {
    let all_nulls = ((1u32 << blocks) - 1) as u16;
    match blocks {
        0 => ([0; 4], 1),
        1 => ([all_nulls, 0, 0, 0], 2),
        _ if egd => ([all_nulls, 0, all_nulls & !1, all_nulls & !2], 4),
        _ => ([all_nulls, 0, 0, 0], 2),
    }
}

/// The set partitions of `n` variables in restricted-growth order: variable `i` is
/// in block `blocks[i]`, and `prefix_max[i]` is the largest of `blocks[..=i]`.
struct Partitions {
    n: usize,
    blocks: [usize; MAX_VARIABLES],
    prefix_max: [usize; MAX_VARIABLES],
}

impl Partitions {
    /// The partition with a single block.
    fn new(n: usize) -> Self {
        Partitions {
            n,
            blocks: [0; MAX_VARIABLES],
            prefix_max: [0; MAX_VARIABLES],
        }
    }

    fn block_count(&self) -> usize {
        self.n
            .checked_sub(1)
            .map_or(0, |last| self.prefix_max[last] + 1)
    }

    /// Advances to the next partition; returns `false` when the enumeration is
    /// exhausted. The rightmost variable whose block is at most the largest block
    /// before it moves to the next block, and the variables after it go back to
    /// block 0.
    fn advance(&mut self) -> bool {
        for i in (1..self.n).rev() {
            if self.blocks[i] <= self.prefix_max[i - 1] {
                self.blocks[i] += 1;
                self.prefix_max[i] = self.prefix_max[i - 1].max(self.blocks[i]);
                for j in i + 1..self.n {
                    self.blocks[j] = 0;
                    self.prefix_max[j] = self.prefix_max[i];
                }
                return true;
            }
        }
        false
    }
}

/// Rows stored end to end: facts as rows of codes `[predicate, terms…]`, or
/// shape keys as rows of tokens.
struct Rows<T = Code> {
    data: Vec<T>,
    ends: Vec<u32>,
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Rows {
            data: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<T: Copy + PartialEq> Rows<T> {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn row(&self, i: usize) -> &[T] {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.data[start..self.ends[i] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &[T]> {
        (0..self.len()).map(|i| self.row(i))
    }

    fn contains(&self, row: &[T]) -> bool {
        self.iter().any(|r| r == row)
    }

    fn push(&mut self, row: &[T]) {
        self.data.extend_from_slice(row);
        let end = u32::try_from(self.data.len()).expect("fewer than 2^32 codes in a row list");
        self.ends.push(end);
    }

    fn clear(&mut self) {
        self.data.clear();
        self.ends.clear();
    }

    /// Room for `rows` more rows of about four codes.
    fn reserve(&mut self, rows: usize) {
        self.data.reserve(4 * rows);
        self.ends.reserve(rows);
    }
}

/// Rows stored once each and found by hash (open addressing): a row's id is the
/// order of its first insertion.
struct RowSet<T = Code> {
    rows: Rows<T>,
    /// A row's id + 1, or 0 for an empty slot; a power of two long, or empty before
    /// the first insertion.
    slots: Vec<u32>,
}

impl<T> Default for RowSet<T> {
    fn default() -> Self {
        RowSet {
            rows: Rows::default(),
            slots: Vec::new(),
        }
    }
}

/// The most slots [`RowSet::reset`] keeps: a larger table is dropped rather than
/// zeroed for every later enumeration.
const ROW_SET_SLOTS_KEPT: usize = 1 << 12;

impl<T: Copy + Eq + Hash> RowSet<T> {
    /// Empties the set, keeping its buffers (the slot table up to
    /// [`ROW_SET_SLOTS_KEPT`]), with room for `rows` rows.
    fn reset(&mut self, rows: usize) {
        self.rows.clear();
        self.rows.reserve(rows);
        let slots = (2 * rows).next_power_of_two();
        if self.slots.len() < slots || self.slots.len() > ROW_SET_SLOTS_KEPT {
            self.slots = vec![0; slots];
        } else {
            self.slots.fill(0);
        }
    }

    /// `row`'s id, and whether it was inserted now.
    fn insert(&mut self, row: &[T]) -> (u32, bool) {
        if 2 * (self.rows.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = row_hash(row) as usize & mask;
        loop {
            match self.slots[i] {
                0 => {
                    let id = u32::try_from(self.rows.len()).expect("fewer than 2^32 rows");
                    self.rows.push(row);
                    self.slots[i] = id + 1;
                    return (id, true);
                }
                slot if self.rows.row(slot as usize - 1) == row => return (slot - 1, false),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(64)];
        let mask = self.slots.len() - 1;
        for id in 0..self.rows.len() {
            let mut i = row_hash(self.rows.row(id)) as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as u32 + 1;
        }
    }
}

fn row_hash<T: Hash>(row: &[T]) -> u64 {
    let mut h = WordHasher::default();
    for item in row {
        item.hash(&mut h);
    }
    h.finish()
}

/// A rank-indexed assignment with a trail of the slots bound since a mark, and the
/// stack of the facts matched by the searches in progress.
#[derive(Default)]
struct Bindings {
    vals: Vec<Code>,
    trail: Vec<usize>,
    matched: Vec<usize>,
}

impl Bindings {
    /// Extends the bindings so that the compiled terms `pattern` map onto `row`'s
    /// terms, if they can.
    fn unify(&mut self, pattern: &[Code], row: &[Code]) -> bool {
        pattern.iter().zip(row).all(|(&t, &g)| {
            if t & CONST != 0 {
                return t == g;
            }
            let slot = &mut self.vals[t as usize];
            if *slot == UNBOUND {
                *slot = g;
                self.trail.push(t as usize);
                true
            } else {
                *slot == g
            }
        })
    }

    fn unwind(&mut self, mark: usize) {
        for slot in self.trail.drain(mark..) {
            self.vals[slot] = UNBOUND;
        }
    }

    /// The row `atom` grounds to, into `out`.
    fn ground(&self, atom: CAtom, terms: &[Code], out: &mut Vec<Code>) {
        out.clear();
        out.push(atom.predicate);
        out.extend(atom.terms(terms).iter().map(|&t| {
            let value = if t & CONST != 0 {
                t
            } else {
                self.vals[t as usize]
            };
            debug_assert_ne!(value, UNBOUND, "a grounded term is bound");
            value
        }));
    }
}

/// Calls `on_match` with every extension of `b` that maps `atoms` into `facts`,
/// atoms in order and facts in order; the matched facts' indices are
/// `b.matched[mark..]`, `mark` being the callback's second argument.
fn search(
    atoms: &[CAtom],
    terms: &[Code],
    facts: &Rows,
    b: &mut Bindings,
    on_match: &mut dyn FnMut(&mut Bindings, usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mark = b.matched.len();
    search_from(atoms, terms, facts, b, mark, on_match)
}

fn search_from(
    atoms: &[CAtom],
    terms: &[Code],
    facts: &Rows,
    b: &mut Bindings,
    mark: usize,
    on_match: &mut dyn FnMut(&mut Bindings, usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some(&atom) = atoms.get(b.matched.len() - mark) else {
        return on_match(b, mark);
    };
    let pattern = atom.terms(terms);
    for (i, row) in facts.iter().enumerate() {
        if row[0] != atom.predicate {
            continue;
        }
        let trail = b.trail.len();
        let flow = if b.unify(pattern, &row[1..]) {
            b.matched.push(i);
            let flow = search_from(atoms, terms, facts, b, mark, on_match);
            b.matched.pop();
            flow
        } else {
            ControlFlow::Continue(())
        };
        b.unwind(trail);
        flow?;
    }
    ControlFlow::Continue(())
}

/// Do the bindings extend to a homomorphism from `atoms` into `facts`?
fn extends(atoms: &[CAtom], terms: &[Code], facts: &Rows, b: &mut Bindings) -> bool {
    search(atoms, terms, facts, b, &mut |_, _| ControlFlow::Break(())).is_break()
}

/// The substitution of an EGD step whose sides have the values `a` and `b`: the
/// null replaced and its replacement, or `None` if there is no step (the sides are
/// equal, or both are constants, a failing step).
fn gamma(a: Code, b: Code) -> Option<(Code, Code)> {
    if a == b {
        None
    } else if a & CONST == 0 {
        Some((a, b))
    } else if b & CONST == 0 {
        Some((b, a))
    } else {
        None
    }
}

/// The result `J` of a step, as a duplicate-free list of rows, each with whether it
/// is in `K`.
#[derive(Default)]
struct StepResult {
    facts: Rows,
    in_k: Vec<bool>,
}

impl StepResult {
    fn push_distinct(&mut self, row: &[Code], in_k: bool) {
        if !self.facts.contains(row) {
            self.facts.push(row);
            self.in_k.push(in_k);
        }
    }

    /// `K` followed by the rows `head` grounds to under `b`, for a TGD step.
    fn tgd_step(
        &mut self,
        k: &Rows,
        head: &[CAtom],
        terms: &[Code],
        b: &Bindings,
        row: &mut Vec<Code>,
    ) {
        self.facts.clear();
        self.in_k.clear();
        for fact in k.iter() {
            self.facts.push(fact);
            self.in_k.push(true);
        }
        for &atom in head {
            b.ground(atom, terms, row);
            self.push_distinct(row, false);
        }
    }

    /// `K` with the null `null` replaced by `by`, for an EGD step.
    fn egd_step(&mut self, k: &Rows, (null, by): (Code, Code), row: &mut Vec<Code>) {
        self.facts.clear();
        self.in_k.clear();
        for fact in k.iter() {
            if fact[1..].contains(&null) {
                row.clear();
                row.extend(
                    fact.iter()
                        .enumerate()
                        .map(|(p, &c)| if p > 0 && c == null { by } else { c }),
                );
                let in_k = k.contains(row);
                self.push_distinct(row, in_k);
            } else {
                self.push_distinct(fact, true);
            }
        }
    }
}

/// The buffers of an enumeration, reused by all its partitions and candidates,
/// and by a workspace's later pairs.
#[derive(Default)]
struct State {
    /// The grounded body facts of every partition so far.
    pool: RowSet,
    /// The candidates evaluated so far, as rows `h1 ++ K`.
    seen: RowSet,
    b: Bindings,
    /// The pool ids of `θ(Body(r1))` and `θ(Body(r2))`, and of one candidate `K`.
    facts1: Vec<u32>,
    facts2: Vec<u32>,
    k_ids: Vec<u32>,
    /// `K`'s rows, and `J`.
    k: Rows,
    j: StepResult,
    /// A row or key being built.
    row: Vec<Code>,
    blocking: RefCell<BlockerBuffers>,
}

impl State {
    /// Readies the buffers for `kernel`'s pair, with room for a small pair's
    /// enumeration.
    fn reset(&mut self, kernel: &Kernel<'_>) {
        let bodies = kernel.body1.len() + kernel.body2.len();
        self.pool.reset(64);
        self.seen.reset(256);
        self.b.vals.clear();
        self.b.vals.resize(kernel.slots, UNBOUND);
        self.b.trail.clear();
        self.b.trail.reserve(kernel.slots);
        self.b.matched.clear();
        self.b.matched.reserve(16);
        self.facts1.reserve(kernel.body1.len());
        self.facts2.reserve(kernel.body2.len());
        self.k_ids.reserve(bodies);
        self.k.reserve(bodies);
        self.j.facts.reserve(bodies + kernel.head1.len());
        self.j.in_k.reserve(bodies + kernel.head1.len());
        self.row.reserve(16);
        self.blocking.get_mut().compiled = false;
    }

    /// Evaluates every distinct candidate `(h1, K)` of one partition and labelling
    /// (`nulls`, the blocks labelled null) that `seen` does not hold yet, and
    /// records it there.
    fn try_partition(
        &mut self,
        kernel: &Kernel<'_>,
        partitions: &Partitions,
        nulls: u16,
        blocks: &BlockConstants,
        on_witness: &mut dyn FnMut(&FiringWitness<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Block i -> null i or block constant i.
        for (slot, &block) in self.b.vals.iter_mut().zip(&partitions.blocks[..kernel.n()]) {
            *slot = if nulls & (1 << block) != 0 {
                block as Code
            } else {
                CONST | block as Code
            };
        }
        for (ids, range) in [
            (&mut self.facts1, kernel.body1.clone()),
            (&mut self.facts2, kernel.body2.clone()),
        ] {
            ids.clear();
            for &atom in &kernel.atoms[range] {
                self.b.ground(atom, kernel.terms, &mut self.row);
                ids.push(self.pool.insert(&self.row).0);
            }
        }
        // `r2`'s slots are free again for the matches of `h2`.
        let h1 = kernel.vars1.len();
        self.b.vals[h1..kernel.n()].fill(UNBOUND);
        for mask in 0..(1u32 << self.facts2.len()) {
            self.k_ids.clear();
            self.k_ids.extend_from_slice(&self.facts1);
            let masked = self.facts2.iter().enumerate();
            self.k_ids.extend(
                masked
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &id)| id),
            );
            self.k_ids.sort_unstable();
            self.k_ids.dedup();
            self.row.clear();
            self.row.extend_from_slice(&self.b.vals[..h1]);
            self.row.extend_from_slice(&self.k_ids);
            if self.seen.insert(&self.row).1 {
                self.evaluate(kernel, blocks, on_witness)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Simulates `r1`'s step under `h1` on the facts of `K` and reports every
    /// `h2 : Body(r2) → J` with `h2(Body(r2)) ⊄ K` and `J ⊭ h2(r2)`.
    fn evaluate(
        &mut self,
        kernel: &Kernel<'_>,
        blocks: &BlockConstants,
        on_witness: &mut dyn FnMut(&FiringWitness<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let State {
            pool,
            b,
            k_ids,
            k,
            j,
            row,
            blocking,
            ..
        } = self;
        k.clear();
        for &id in k_ids.iter() {
            k.push(pool.rows.row(id as usize));
        }
        let head1 = &kernel.atoms[kernel.head1.clone()];
        // The step is a standard one for an EGD and, under standard applicability,
        // for every TGD step taken; an oblivious TGD step is tested on its first report.
        let mut standard = None;
        match kernel.egd1 {
            None => {
                if kernel.applicability == Applicability::Standard {
                    if extends(head1, kernel.terms, k, b) {
                        return ControlFlow::Continue(());
                    }
                    standard = Some(true);
                }
                // Fresh nulls from K's largest null + 1, as `Instance::fresh_null`.
                let next = k
                    .iter()
                    .flat_map(|fact| &fact[1..])
                    .filter(|&&c| c & CONST == 0)
                    .max()
                    .map_or(0, |&c| c + 1);
                let fresh = kernel.n()..kernel.n() + kernel.existentials1;
                for (slot, null) in fresh.clone().zip(next..) {
                    b.vals[slot] = null;
                }
                j.tgd_step(k, head1, kernel.terms, b, row);
                b.vals[fresh].fill(UNBOUND);
            }
            Some((left, right)) => {
                let Some(substitution) = gamma(b.vals[left], b.vals[right]) else {
                    return ControlFlow::Continue(());
                };
                j.egd_step(k, substitution, row);
                standard = Some(true);
            }
        }
        let (k, j) = (&*k, &*j);
        let body2 = &kernel.atoms[kernel.body2.clone()];
        search(body2, kernel.terms, &j.facts, b, &mut |b, mark| {
            // A match inside `K` is no witness: `K ⊨ h2(r2)` iff `J ⊨ h2(r2)` then.
            if b.matched[mark..].iter().all(|&i| j.in_k[i]) || kernel.r2_satisfied(&j.facts, b) {
                return ControlFlow::Continue(());
            }
            let standard = *standard.get_or_insert_with(|| !extends(head1, kernel.terms, k, b));
            on_witness(&FiringWitness {
                standard,
                candidate: Candidate {
                    kernel,
                    k,
                    vals: &b.vals,
                    blocking,
                    blocks,
                },
            })
        })
    }
}

/// The buffers of the blocking test of Definition 2, reused by every witness of
/// an enumeration and by a workspace's later pairs.
#[derive(Default)]
struct BlockerBuffers {
    /// The blockers given to the enumeration, compiled on its first blocking test
    /// (`compiled`).
    given: CompiledBlockers,
    compiled: bool,
    /// The blockers of the last [`FiringWitness::is_blocked_by`] call.
    passed: CompiledBlockers,
    scratch: BlockingScratch,
}

/// Full dependencies compiled into one pair's codes. A blocker's variables take
/// the slots after the pair's, numbered by first occurrence in the blocker, and its
/// constants that the pair lacks are numbered after the pair's.
#[derive(Default)]
struct CompiledBlockers {
    atoms: Vec<CAtom>,
    terms: Vec<Code>,
    blockers: Vec<CompiledBlocker>,
    constants: Vec<Constant>,
    /// The variables of the blocker being compiled.
    vars: Vec<Variable>,
}

/// One compiled blocker: its atoms, body then head, the slots of an EGD's sides,
/// and how many variables it has.
struct CompiledBlocker {
    atoms: Range<usize>,
    body: usize,
    egd: Option<(usize, usize)>,
    vars: usize,
}

impl CompiledBlockers {
    /// Compiles `deps` into `kernel`'s codes. A blocker whose body reads a
    /// predicate the pair lacks matches nothing in `K`, and is left out.
    fn compile<D: Borrow<Dependency>>(&mut self, kernel: &Kernel<'_>, deps: &[D]) {
        self.atoms.clear();
        self.terms.clear();
        self.blockers.clear();
        self.constants.clear();
        for r3 in deps {
            let r3 = r3.borrow();
            debug_assert!(r3.is_full(), "a blocker is a full dependency");
            self.push(kernel, r3);
        }
    }

    fn push(&mut self, kernel: &Kernel<'_>, r3: &Dependency) {
        let (first_atom, first_term) = (self.atoms.len(), self.terms.len());
        self.vars.clear();
        let body = r3.body().len();
        for (i, atom) in r3.body().iter().chain(r3.head_atoms()).enumerate() {
            let predicate = match kernel.predicates.iter().position(|p| *p == atom.predicate) {
                Some(p) => p as u32,
                None if i < body => {
                    self.atoms.truncate(first_atom);
                    self.terms.truncate(first_term);
                    return;
                }
                None => NO_PREDICATE,
            };
            let start = self.terms.len() as u32;
            for term in &atom.terms {
                let code = self.code(kernel, term);
                self.terms.push(code);
            }
            let end = self.terms.len() as u32;
            self.atoms.push(CAtom {
                predicate,
                start,
                end,
            });
        }
        let egd = r3.as_egd().map(|egd| {
            let slot = |v| {
                kernel.slots
                    + self
                        .vars
                        .iter()
                        .position(|w| *w == v)
                        .expect("a body variable")
            };
            (slot(egd.left), slot(egd.right))
        });
        self.blockers.push(CompiledBlocker {
            atoms: first_atom..self.atoms.len(),
            body,
            egd,
            vars: self.vars.len(),
        });
    }

    fn code(&mut self, kernel: &Kernel<'_>, term: &Term) -> Code {
        match term {
            Term::Var(v) => {
                let i = self.vars.iter().position(|w| w == v).unwrap_or_else(|| {
                    self.vars.push(*v);
                    self.vars.len() - 1
                });
                (kernel.slots + i) as Code
            }
            Term::Const(c) => {
                let j = kernel
                    .constants
                    .iter()
                    .position(|d| d == c)
                    .unwrap_or_else(|| {
                        let extra =
                            self.constants
                                .iter()
                                .position(|d| d == c)
                                .unwrap_or_else(|| {
                                    self.constants.push(*c);
                                    self.constants.len() - 1
                                });
                        kernel.constants.len() + extra
                    });
                CONST | (MAX_VARIABLES + j) as Code
            }
            Term::Null(_) => unreachable!("dependencies hold no nulls"),
        }
    }
}

/// The bindings and step results of the blocking test.
#[derive(Default)]
struct BlockingScratch {
    b: Bindings,
    /// `h2(Body(r2))`, and the result `J'` of a blocker's step.
    image: Rows,
    j: StepResult,
    row: Vec<Code>,
}

impl BlockingScratch {
    /// Does some blocker of `set` have a standard step on the candidate's `K` whose
    /// result satisfies `h2(r2)`?
    fn blocked(&mut self, set: &CompiledBlockers, candidate: &Candidate<'_>) -> bool {
        let kernel = candidate.kernel;
        self.b.vals.clear();
        self.b.vals.extend_from_slice(candidate.vals);
        self.image.clear();
        for &atom in &kernel.atoms[kernel.body2.clone()] {
            self.b.ground(atom, kernel.terms, &mut self.row);
            self.image.push(&self.row);
        }
        set.blockers.iter().any(|blocker| {
            self.b.vals.truncate(kernel.slots);
            self.b.vals.resize(kernel.slots + blocker.vars, UNBOUND);
            self.blocks(set, blocker, candidate)
        })
    }

    /// Does the compiled `blocker` have a standard step on `K` whose result
    /// satisfies `h2(r2)`?
    fn blocks(
        &mut self,
        set: &CompiledBlockers,
        blocker: &CompiledBlocker,
        candidate: &Candidate<'_>,
    ) -> bool {
        let kernel = candidate.kernel;
        let BlockingScratch { b, image, j, row } = self;
        let (body, head) = set.atoms[blocker.atoms.clone()].split_at(blocker.body);
        let terms = &set.terms[..];
        search(body, terms, candidate.k, b, &mut |b, _| {
            match blocker.egd {
                Some((left, right)) => {
                    let Some(substitution) = gamma(b.vals[left], b.vals[right]) else {
                        return ControlFlow::Continue(());
                    };
                    j.egd_step(candidate.k, substitution, row);
                }
                // A full TGD: its step is a standard one iff some head fact is new.
                None => {
                    let new = head.iter().any(|&atom| {
                        b.ground(atom, terms, row);
                        !candidate.k.contains(row)
                    });
                    if !new {
                        return ControlFlow::Continue(());
                    }
                    j.tgd_step(candidate.k, head, terms, b, row);
                }
            }
            if !image.iter().all(|fact| j.facts.contains(fact)) || kernel.r2_satisfied(&j.facts, b)
            {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;
    use chase_core::DepId;

    const STD: Applicability = Applicability::Standard;
    const OBL: Applicability = Applicability::Oblivious;

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

    #[test]
    fn partition_enumeration_counts_bell_numbers() {
        // Bell numbers: 1, 1, 2, 5, 15, 52.
        for (n, bell) in [(0usize, 1usize), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)] {
            let mut partitions = Partitions::new(n);
            let mut count = 1;
            while partitions.advance() {
                count += 1;
            }
            if n == 0 {
                // The empty partition is counted once by convention.
                assert_eq!(count, bell);
            } else {
                assert_eq!(count, bell, "Bell({n})");
            }
        }
    }

    #[test]
    fn example1_chase_graph_edges() {
        let sigma = sigma1();
        let r1 = sigma.get(DepId(0));
        let r2 = sigma.get(DepId(1));
        let r3 = sigma.get(DepId(2));
        // r1 adds E(x, η), which can violate r2 and r3.
        assert!(chase_graph_edge(r1, r2, STD));
        assert!(chase_graph_edge(r1, r3, STD));
        // r2 adds N(y), which can make r1 violated.
        assert!(chase_graph_edge(r2, r1, STD));
        // r2 cannot violate r3 (it does not touch E), nor r2 itself.
        assert!(!chase_graph_edge(r2, r3, STD));
        assert!(!chase_graph_edge(r2, r2, STD));
        // r3 merges the two columns of E; this can re-violate r2 … no: merging nulls
        // only collapses facts, every new body match of N-free r2 must use an E fact
        // that existed before up to renaming. The interesting edge is r3 -> r1? r1's
        // body is N(x), untouched by r3. So r3 has no outgoing edges to r1.
        assert!(!chase_graph_edge(r3, r1, STD));
    }

    #[test]
    fn full_tgd_chain_has_expected_edges() {
        let sigma = parse_dependencies(
            r#"
            a: A(?x) -> B(?x).
            b: B(?x) -> C(?x).
            "#,
        )
        .unwrap();
        let a = sigma.get(DepId(0));
        let b = sigma.get(DepId(1));
        assert!(chase_graph_edge(a, b, STD));
        assert!(!chase_graph_edge(b, a, STD));
        assert!(!chase_graph_edge(a, a, STD));
    }

    #[test]
    fn self_edge_for_self_feeding_existential_rule() {
        // r: E(x,y) -> ∃z E(y,z): firing it creates a new E fact whose second column is
        // a fresh null, which yields a new active trigger of r itself.
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?y, ?z).").unwrap();
        let r = sigma.get(DepId(0));
        assert!(chase_graph_edge(r, r, STD));
    }

    #[test]
    fn example6_rule_has_no_standard_self_edge() {
        // r: E(x,y) -> ∃z E(x,z): the new fact E(x, η) never enables a *new standard*
        // trigger (the head is already satisfied for x), so there is no edge r ≺ r.
        let sigma = parse_dependencies("r: E(?x, ?y) -> exists ?z: E(?x, ?z).").unwrap();
        let r = sigma.get(DepId(0));
        assert!(!chase_graph_edge(r, r, STD));
        // Under oblivious applicability the edge is also absent for the *violation*
        // notion used here (the head being satisfied means r2 is never violated), which
        // matches c-stratification treating this set as terminating.
        assert!(!chase_graph_edge(r, r, OBL));
    }

    #[test]
    fn egd_can_fire_a_tgd_by_merging_nulls() {
        // merging the two arguments of P can create a match of the body P(x, x).
        let sigma = parse_dependencies(
            r#"
            e: P(?x, ?y) -> ?x = ?y.
            t: P(?x, ?x) -> exists ?z: Q(?x, ?z).
            "#,
        )
        .unwrap();
        let e = sigma.get(DepId(0));
        let t = sigma.get(DepId(1));
        assert!(chase_graph_edge(e, t, STD));
        assert!(!chase_graph_edge(t, e, STD));
    }

    #[test]
    fn unknown_answer_for_oversized_pairs() {
        // 12 distinct variables exceed the bound of 10.
        let sigma = parse_dependencies(
            r#"
            big1: R(?a, ?b, ?c, ?d, ?e, ?f) -> S(?a).
            big2: S(?x), T(?p, ?q, ?r, ?s, ?t) -> U(?x).
            "#,
        )
        .unwrap();
        let b1 = sigma.get(DepId(0));
        let b2 = sigma.get(DepId(1));
        let ans = for_each_firing_witness(b1, b2, STD, &mut |_| ControlFlow::Break(()));
        assert_eq!(ans, FiringAnswer::Unknown);
        assert!(ans.may_fire());
    }

    /// `a: A(x) -> P0(x)` and `b: P0(x), …, P{atoms-1}(x) -> B(x)`.
    fn wide_body_pair(atoms: usize) -> DependencySet {
        let body: Vec<String> = (0..atoms).map(|i| format!("P{i}(?x)")).collect();
        parse_dependencies(&format!(
            "a: A(?x) -> P0(?x). b: {} -> B(?x).",
            body.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn a_body_wider_than_twenty_atoms_answers_unknown() {
        // With 21 atoms the pair fires (K = {A(c), P1(c), …, P20(c)}), but only 20
        // subset bits exist; with 33 the bit shift would overflow.
        for atoms in [21, 33] {
            let sigma = wide_body_pair(atoms);
            let (a, b) = (sigma.get(DepId(0)), sigma.get(DepId(1)));
            for applicability in [STD, OBL] {
                let ans =
                    for_each_firing_witness(a, b, applicability, &mut |_| ControlFlow::Break(()));
                assert_eq!(
                    ans,
                    FiringAnswer::Unknown,
                    "{atoms} atoms, {applicability:?}"
                );
            }
            assert!(chase_graph_edge(a, b, STD));
        }
        // A narrower body is still enumerated exactly.
        let sigma = wide_body_pair(3);
        let (a, b) = (sigma.get(DepId(0)), sigma.get(DepId(1)));
        let ans = for_each_firing_witness(a, b, STD, &mut |_| ControlFlow::Break(()));
        assert_eq!(ans, FiringAnswer::Fires);
    }

    #[test]
    fn chase_graph_of_example1_has_five_edges() {
        let sigma = sigma1();
        let g = chase_graphs(&sigma).standard;
        // Edges: r1->r2, r1->r3, r2->r1, r3->r2, r3->r3.
        //  * r3->r2 arises from K = {E(η1, η2)}: enforcing r3 produces J = {E(η2, η2)},
        //    and the homomorphism x, y ↦ η2 maps Body(r2) into J but not into K, with
        //    N(η2) ∉ J.
        //  * r3->r3 arises from K = {E(η1, η2), E(η3, η1)}: merging η1 into η2 yields
        //    E(η3, η2), a fresh violation of r3 that did not exist in K.
        assert_eq!(g.edge_count(), 5);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 1));
        assert!(g.has_edge(2, 2));
    }

    #[test]
    fn an_egd_target_can_have_an_oblivious_edge_but_no_standard_one() {
        // K = {A(a), B(a, b)} already satisfies r1's head, so only the oblivious step
        // adds B(a, η), which violates the key r2 together with B(a, b).
        let sigma = parse_dependencies(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y), B(?x, ?z) -> ?y = ?z.
            "#,
        )
        .unwrap();
        let (r1, r2) = (sigma.get(DepId(0)), sigma.get(DepId(1)));
        assert!(!chase_graph_edge(r1, r2, STD));
        assert!(chase_graph_edge(r1, r2, OBL));
        assert_eq!(
            chase_graph_edges(
                &mut FiringWorkspace::default(),
                &PreparedDependency::new(r1),
                &PreparedDependency::new(r2)
            ),
            (false, true)
        );
        let graphs = chase_graphs(&sigma);
        assert!(!graphs.standard.has_edge(0, 1));
        assert!(graphs.oblivious.has_edge(0, 1));
    }
}
