//! The delta-driven trigger engine.
//!
//! [`TriggerEngine`] replaces per-step full re-scans of the instance with
//! incremental trigger discovery:
//!
//! * when facts are added ([`TriggerEngine::push_facts`]) or rewritten by an EGD
//!   substitution ([`TriggerEngine::apply_substitution`]), homomorphism search is
//!   seeded *only* from body atoms unifiable with the delta (semi-naive
//!   evaluation);
//! * discovered candidate triggers wait in per-dependency FIFO queues;
//!   [`TriggerEngine::next_trigger_where`] pops them in the caller's dependency
//!   order under the caller's acceptance test — for the standard chase,
//!   [`is_standard_active`] re-checked at pop time — so every trigger-selection
//!   policy (`StepOrder`-style nondeterminism) behaves exactly as with naive
//!   re-scanning;
//! * an EGD substitution `γ = {η/t}` costs what mentions `η`: the dedup keys
//!   are rewritten through a per-null index ([`KeySets`]), and the pending
//!   triggers are left as discovered and resolved through the substituted
//!   nulls when popped (`h ↦ γ∘h`), so no discovered work is discarded.
//!
//! ## Pending triggers carry their body image
//!
//! Discovery tests a found assignment against the dedup keys ([`KeySets`],
//! one probe) before it keeps anything, and a new one is queued as a flat
//! row: its terms in variable order, beside its *body image*, the fact id the
//! seeded search matched each body atom to. Both sit in per-dependency rings
//! popped in lockstep, so a discovered trigger allocates nothing of its own;
//! only a popped trigger the caller accepts is built as an [`Assignment`].
//! [`TriggerEngine::apply_trigger_logged`] logs the popped trigger's body
//! image as it was found instead of looking each body fact up again. A
//! trigger whose terms a substitution rewrote between discovery and pop names
//! rewritten facts, so its image is looked up from its resolved assignment.
//!
//! Dropping a trigger that is found inactive is sound for the standard chase:
//! instances only grow or get substituted, both of which preserve TGD head
//! witnesses (as `γ∘h'`) and EGD equalities, so an inactive trigger can never
//! become active again.

use crate::delta::DeltaQueue;
use crate::keys::KeySets;
use crate::parallel::{discover_from, SeedAtoms};
use chase_core::hash::{FastMap, FastSet};
use chase_core::substitution::NullSubstitution;
use chase_core::{
    Assignment, Atom, DepId, Dependency, DependencySet, Fact, FactId, GroundTerm,
    HomomorphismSearch, IndexedInstance, Instance, NullValue, Term, Tgd, Variable,
};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// A trigger: a dependency together with a homomorphism from its body into the
/// current instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trigger {
    /// The dependency being enforced.
    pub dep: DepId,
    /// The homomorphism from the dependency's body into the instance.
    pub assignment: Assignment,
}

/// The effect of applying a chase step `K --r,h,γ--> J` (Definition 1 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepEffect {
    /// A TGD step: the listed facts were added (`J = K ∪ h'(ψ)`), with `γ = ∅`.
    /// The facts may already be present in `K` for oblivious-style applications.
    AddedFacts {
        /// Facts added by the step.
        facts: Vec<Fact>,
        /// Number of fresh nulls invented for the existential variables.
        fresh_nulls: usize,
    },
    /// An EGD step that replaced a labeled null: `J = K γ`.
    Substituted {
        /// The substitution `γ` (maps a null to a constant or another null).
        gamma: NullSubstitution,
    },
    /// An EGD step on two distinct constants: `J = ⊥`.
    Failure,
    /// The EGD is already satisfied under the homomorphism (`h(x1) = h(x2)`), so no
    /// chase step exists for this trigger.
    NotApplicable,
}

/// Counters describing the engine's work (for benchmarks and diagnostics).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Facts inserted into the index (new facts only).
    pub facts_inserted: usize,
    /// Facts removed from the index by [`TriggerEngine::retract_ids`].
    pub facts_retracted: usize,
    /// Delta facts drained through seeded discovery.
    pub deltas_processed: usize,
    /// Candidate triggers discovered (after dedup).
    pub triggers_discovered: usize,
    /// Triggers dropped because they were no longer active at pop time.
    pub triggers_dropped: usize,
    /// EGD substitutions applied to the engine state.
    pub substitutions: usize,
    /// Dedup keys rewritten by EGD substitutions (only the keys that mention
    /// the replaced null are visited).
    pub keys_rewritten: usize,
}

/// Fact-id level record of one applied chase step, produced by
/// [`TriggerEngine::apply_trigger_logged`] for support-ledger consumers
/// (`chase_ivm`).
///
/// The body image is the one discovery found (or, for a trigger rewritten
/// since, looked up) **before** the step mutates anything, so for an EGD
/// substitution step the recorded ids are the pre-rewrite ids; `rewrites`
/// maps them (and every other rewritten fact) forward into the post-step
/// instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepLog {
    /// The image of the body under the trigger's homomorphism: one interned id
    /// per body atom, in body-atom order.
    pub body: Vec<FactId>,
    /// For a TGD step: the interned ids of **all** head facts in head-atom
    /// order — including facts that already existed (contrast
    /// [`StepEffect::AddedFacts`], which lists only the new ones). A support
    /// ledger needs the pre-existing heads too: they gain an extra derivation.
    pub heads: Vec<FactId>,
    /// For an EGD substitution step: the `(old, new)` id pairs of the rewrite.
    pub rewrites: Vec<(FactId, FactId)>,
}

/// Delta-driven incremental trigger discovery over an owned, indexed instance.
#[derive(Clone)]
pub struct TriggerEngine<'a> {
    sigma: &'a DependencySet,
    index: IndexedInstance,
    deltas: DeltaQueue,
    /// For each predicate, the body-atom positions that can unify with a fact of
    /// that predicate: `(dependency, body atom index)`. Built once so that a delta
    /// fact visits only the matching seed atoms instead of scanning all of `Σ`.
    seed_atoms: SeedAtoms,
    /// Per-dependency FIFO of discovered candidate triggers, holding the terms
    /// they were discovered with and their body images; [`Replaced`] resolves
    /// the terms when popped.
    pending: Pending,
    /// The trigger popped last, and its body image while that is still good.
    popped: Popped,
    /// The assignment every seeded discovery search binds into.
    search: Assignment,
    /// Every null an EGD substitution replaced, with its replacement.
    replaced: Replaced,
    /// Per-dependency dedup keys of every assignment ever discovered,
    /// rewritten in lockstep with EGD substitutions.
    seen: KeySets,
    stats: EngineStats,
}

impl<'a> TriggerEngine<'a> {
    /// Creates an engine for `sigma` over an empty instance.
    pub fn new(sigma: &'a DependencySet) -> Self {
        let pending = Pending::new(sigma);
        // A dedup key is an assignment's terms: one per body variable.
        let seen = KeySets::new(pending.queues.iter().map(|queue| queue.vars.len()));
        TriggerEngine {
            sigma,
            index: IndexedInstance::new(),
            deltas: DeltaQueue::new(),
            seed_atoms: SeedAtoms::new(sigma),
            pending,
            popped: Popped::default(),
            search: Assignment::new(),
            replaced: Replaced::default(),
            seen,
            stats: EngineStats::default(),
        }
    }

    /// Creates an engine and loads the database (every database fact is a delta).
    ///
    /// Facts are seeded in [`Instance::fact_ids`] order, the order in which the
    /// database first interned them. So the same database, built the same way,
    /// discovers and fires its triggers in the same order in every process,
    /// whatever order other threads intern predicate and constant names in.
    /// The facts are re-interned into the engine's own arena directly from the
    /// database's term slices; no `Fact` values are materialised.
    pub fn with_database(sigma: &'a DependencySet, database: &Instance) -> Self {
        let mut engine = TriggerEngine::new(sigma);
        for id in engine.index.insert_database(database) {
            record_insert(&mut engine.stats, &mut engine.deltas, id, true);
        }
        engine
    }

    /// The dependency set the engine discovers triggers for.
    pub fn sigma(&self) -> &'a DependencySet {
        self.sigma
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        self.index.instance()
    }

    /// The engine's indexed instance (read-only; exposes index diagnostics such
    /// as [`IndexedInstance::probe_count`]).
    pub fn indexed(&self) -> &IndexedInstance {
        &self.index
    }

    /// Consumes the engine, returning the final instance.
    pub fn into_instance(self) -> Instance {
        self.index.into_instance()
    }

    /// The engine's work counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Adds facts to the instance. New facts become deltas; duplicates are ignored.
    pub fn push_facts<I: IntoIterator<Item = Fact>>(&mut self, facts: I) {
        for fact in facts {
            self.push_fact_full(fact);
        }
    }

    /// Adds one fact, returning its interned id and whether it was new (new
    /// facts become deltas). The id-reporting flavour of
    /// [`TriggerEngine::push_facts`], for callers that track facts by id — a
    /// previously retracted fact comes back under its original id.
    pub fn push_fact_full(&mut self, fact: Fact) -> (FactId, bool) {
        if fact.terms.iter().any(|&t| self.replaced.is_replaced(t)) {
            self.revive_replaced_nulls();
        }
        let (id, new) = self.index.insert_full(fact);
        record_insert(&mut self.stats, &mut self.deltas, id, new);
        (id, new)
    }

    /// Number of discovered-but-unpopped candidate triggers across all
    /// dependencies (diagnostics; a quiesced engine has zero pending and an
    /// empty delta worklist).
    pub fn pending_len(&self) -> usize {
        self.pending.lens.iter().sum()
    }

    /// Returns `true` iff no delta is waiting and no candidate is pending — the
    /// engine will discover nothing new until facts are pushed or retracted.
    pub fn is_quiescent(&self) -> bool {
        self.deltas.is_empty() && self.pending_len() == 0
    }

    /// A caller pushed a fact naming a null an EGD substitution replaced, so
    /// that null is live again and pending triggers that name it as
    /// discovered must no longer resolve past it. Resolves every pending
    /// trigger in place and forgets the replacements — O(pending), but only
    /// reached when a replaced null is re-inserted from outside the chase.
    /// Every pending body image is then looked up when popped.
    fn revive_replaced_nulls(&mut self) {
        let pending = &mut self.pending;
        for (queue, &len) in pending.queues.iter_mut().zip(&pending.lens) {
            for t in queue.terms.iter_mut() {
                *t = self.replaced.resolve(*t);
            }
            queue.stale = len;
        }
        self.replaced.0.clear();
    }

    /// Applies an EGD substitution `γ = {η/t}`: rewrites the instance in
    /// place, rewrites the dedup keys that mention `η` (through a per-null
    /// index, so the cost is what mentions `η`, not everything discovered),
    /// records `η ↦ t` so pending triggers resolve to `γ∘h` when popped, and
    /// re-seeds discovery from the rewritten facts (substitution can *create*
    /// triggers, e.g. a body atom `E(x, x)` matching a fact only after two
    /// nulls collapse). Returns the rewritten `(old, new)` id pairs — the same
    /// delta the index reported — so id-tracking callers (the `chase_ivm`
    /// support ledger) can map their records forward.
    pub fn apply_substitution(&mut self, gamma: &NullSubstitution) -> Vec<(FactId, FactId)> {
        let Some((null, target)) = gamma.mapping() else {
            return Vec::new();
        };
        self.stats.substitutions += 1;
        self.popped.dep = None;
        let delta = self.index.substitute_in_place(gamma);
        // Facts still waiting in the worklist must be rewritten too: they were
        // enqueued as members of `K` and only their images exist in `K γ`. The id
        // delta maps each rewritten fact's old id onto its image's id.
        self.deltas.apply_rewrites(&delta);
        self.replaced.0.insert(null, target);
        self.stats.keys_rewritten += self.seen.apply_gamma(gamma);
        for &(_, new) in &delta {
            self.deltas.push(new);
        }
        delta
    }

    /// Drains the delta worklist, seeding homomorphism search from every (body
    /// atom, delta fact) pair and queueing each newly discovered assignment with
    /// its body image. The `seed_atoms` map keyed by predicate means a delta
    /// fact visits only the body atoms it can actually unify with, not all of
    /// `Σ`.
    ///
    /// An assignment's dedup key is its terms in variable order: every
    /// assignment discovered for one dependency binds exactly its body
    /// variables, so the terms alone identify it. The key is tested and
    /// recorded with one probe, and a known one is dropped before anything is
    /// copied.
    pub fn drain_deltas(&mut self) {
        while let Some(fact_id) = self.deltas.pop() {
            self.stats.deltas_processed += 1;
            let (seen, pending, stats) = (&mut self.seen, &mut self.pending, &mut self.stats);
            discover_from(
                self.sigma,
                &self.seed_atoms,
                &self.index,
                fact_id,
                &mut self.search,
                &mut |dep, h, body| {
                    if seen.insert_iter(dep, h.iter().map(|(_, t)| t)).is_some() {
                        stats.triggers_discovered += 1;
                        pending.push(dep, h, body);
                    }
                },
            );
        }
    }

    /// Pops the first discovered trigger accepted by `accept`, trying the
    /// dependencies in the given order (the trigger-selection policy). `accept`
    /// sees the current indexed instance, the dependency and the resolved
    /// assignment. Rejected triggers are dropped permanently: the standard
    /// chase passes [`is_standard_active`] (see the module docs for why
    /// dropping an inactive trigger is sound), oblivious-style consumers a
    /// fired-key test, saturation procedures `|_, _, _| true`.
    pub fn next_trigger_where(
        &mut self,
        order: &[DepId],
        mut accept: impl FnMut(&IndexedInstance, DepId, &Assignment) -> bool,
    ) -> Option<Trigger> {
        self.drain_deltas();
        let popped = &mut self.popped;
        popped.dep = None;
        for &id in order {
            // Most queues are empty: test the dense length before the queue.
            while self.pending.lens[id.0] > 0 {
                let fresh = self
                    .pending
                    .pop_into(id, &mut popped.assignment, &mut popped.body);
                let moved = self.replaced.resolve_all(&mut popped.assignment);
                if accept(&self.index, id, &popped.assignment) {
                    if fresh && !moved {
                        popped.dep = Some(id);
                    }
                    return Some(Trigger {
                        dep: id,
                        assignment: popped.assignment.clone(),
                    });
                }
                self.stats.triggers_dropped += 1;
            }
        }
        None
    }

    /// Applies the chase step for `(dep, h)` natively on the engine's instance
    /// (Definition 1), updating the index, the delta worklist and the pending
    /// queues, and returns the effect. Unlike the naive path there is no full
    /// instance clone per step.
    pub fn apply_trigger(&mut self, dep_id: DepId, h: &Assignment) -> StepEffect {
        self.apply_trigger_inner(dep_id, h, None)
    }

    /// [`TriggerEngine::apply_trigger`] plus a [`StepLog`]: the step's body
    /// image, head ids and rewrite pairs at the [`FactId`] level, for support
    /// ledgers. The effect and every state change are identical to the
    /// unlogged call.
    ///
    /// For the trigger [`TriggerEngine::next_trigger_where`] returned last,
    /// with nothing applied, substituted or retracted since, the body image is
    /// the one discovery found. A trigger whose assignment a substitution
    /// rewrote between discovery and pop, or one the engine did not pop, has
    /// its image looked up from `h`. Either way it is taken before the step
    /// runs (see [`StepLog`] for the EGD id-space caveat).
    pub fn apply_trigger_logged(&mut self, dep_id: DepId, h: &Assignment) -> (StepEffect, StepLog) {
        let mut log = StepLog {
            body: Vec::with_capacity(self.pending.queues[dep_id.0].atoms),
            ..StepLog::default()
        };
        if self.popped.dep == Some(dep_id) && self.popped.assignment == *h {
            log.body.extend_from_slice(&self.popped.body);
        } else {
            log.body = self.look_up_body(dep_id, h);
        }
        let effect = self.apply_trigger_inner(dep_id, h, Some(&mut log));
        (effect, log)
    }

    /// The ids of the facts `h` maps `dep_id`'s body atoms to, in body order.
    fn look_up_body(&self, dep_id: DepId, h: &Assignment) -> Vec<FactId> {
        let body = self.sigma.get(dep_id).body();
        let mut terms: Vec<GroundTerm> = Vec::with_capacity(max_arity(body));
        body.iter()
            .map(|atom| {
                terms.clear();
                terms.extend(atom.terms.iter().map(|t| match *t {
                    Term::Var(v) => h.get(v).expect("body variables are bound"),
                    _ => t.as_ground().expect("a non-variable term is ground"),
                }));
                self.index
                    .instance()
                    .id_of_parts(atom.predicate, &terms)
                    .expect("a trigger's body maps into the live instance")
            })
            .collect()
    }

    fn apply_trigger_inner(
        &mut self,
        dep_id: DepId,
        h: &Assignment,
        mut log: Option<&mut StepLog>,
    ) -> StepEffect {
        self.popped.dep = None;
        match self.sigma.get(dep_id) {
            Dependency::Tgd(tgd) => {
                if let Some(log) = log.as_deref_mut() {
                    log.heads.reserve_exact(tgd.head().len());
                }
                let (stats, deltas) = (&mut self.stats, &mut self.deltas);
                apply_tgd(&mut self.index, tgd, h, |id, new| {
                    record_insert(stats, deltas, id, new);
                    if let Some(log) = log.as_deref_mut() {
                        log.heads.push(id);
                    }
                })
            }
            Dependency::Egd(egd) => {
                let left = h.get(egd.left).expect("EGD body variables must be bound");
                let right = h.get(egd.right).expect("EGD body variables must be bound");
                if left == right {
                    return StepEffect::NotApplicable;
                }
                match (left, right) {
                    (GroundTerm::Const(_), GroundTerm::Const(_)) => StepEffect::Failure,
                    (GroundTerm::Null(n), other) | (other, GroundTerm::Null(n)) => {
                        let gamma = NullSubstitution::single(n, other);
                        let rewrites = self.apply_substitution(&gamma);
                        if let Some(log) = log {
                            log.rewrites = rewrites;
                        }
                        StepEffect::Substituted { gamma }
                    }
                }
            }
        }
    }

    /// Retracts facts by id: forgets every discovered assignment whose body
    /// image touches one of them, purges them from the delta worklist, then
    /// removes them from the instance and its indexes. Returns the number of
    /// facts actually removed (dead or unknown ids are skipped).
    ///
    /// Forgetting runs **before** removal, because the seeded joins that locate
    /// the affected assignments must still resolve through the departing facts.
    /// And it must drop the `seen` entries, not just the pending ones: a
    /// retracted fact that is later rederived or re-inserted comes back under
    /// its original id (the arena keeps the interning) and re-enters discovery
    /// as a fresh delta — a stale dedup entry would silently suppress its
    /// triggers forever.
    pub fn retract_ids(&mut self, ids: &[FactId]) -> usize {
        self.popped.dep = None;
        let mut key = Vec::new();
        let (seen, pending, replaced) = (&mut self.seen, &mut self.pending, &mut self.replaced);
        for &id in ids {
            if !self.index.instance().contains_id(id) {
                continue;
            }
            discover_from(
                self.sigma,
                &self.seed_atoms,
                &self.index,
                id,
                &mut self.search,
                &mut |dep, h, _| {
                    key.clear();
                    key.extend(h.iter().map(|(_, t)| t));
                    if seen.remove(dep, &key) {
                        pending.retain(dep, |p| !replaced.resolves_to(p, h));
                    }
                },
            );
        }
        let dead: FastSet<FactId> = ids.iter().copied().collect();
        self.deltas.retain(|id| !dead.contains(&id));
        let removed = self.index.remove_ids(ids);
        self.stats.facts_retracted += removed;
        removed
    }
}

/// Counts a new fact and queues it as a delta.
fn record_insert(stats: &mut EngineStats, deltas: &mut DeltaQueue, id: FactId, new: bool) {
    if new {
        stats.facts_inserted += 1;
        deltas.push(id);
    }
}

/// Applies the TGD step of Definition 1(1) for `h` in place on `index`: every
/// existential variable is bound to a fresh null, and each head fact is
/// inserted and handed to `inserted` with its id and whether it is new. The
/// one TGD application of the engine and of `chase_engine`'s round runner.
///
/// One term buffer serves the whole step: it holds the fresh nulls, then each
/// head atom's image in turn, which is interned from the buffer. Only a new
/// fact is built as a [`Fact`], for [`StepEffect::AddedFacts`].
pub fn apply_tgd(
    index: &mut IndexedInstance,
    tgd: &Tgd,
    h: &Assignment,
    mut inserted: impl FnMut(FactId, bool),
) -> StepEffect {
    let ex = tgd.existential_variables();
    let fresh_nulls = ex.len();
    let mut buf: Vec<GroundTerm> = Vec::with_capacity(fresh_nulls + max_arity(tgd.head()));
    buf.extend((0..fresh_nulls).map(|_| GroundTerm::Null(index.fresh_null())));
    let mut facts = Vec::new();
    for atom in tgd.head() {
        buf.truncate(fresh_nulls);
        for t in &atom.terms {
            let g = match *t {
                Term::Var(v) => match ex.iter().position(|&z| z == v) {
                    Some(i) => buf[i],
                    None => h
                        .get(v)
                        .expect("all head variables are bound after extension"),
                },
                _ => t.as_ground().expect("a non-variable term is ground"),
            };
            buf.push(g);
        }
        let terms = &buf[fresh_nulls..];
        let (id, new) = index.insert_parts(atom.predicate, terms);
        inserted(id, new);
        if new {
            facts.push(Fact {
                predicate: atom.predicate,
                terms: terms.to_vec(),
            });
        }
    }
    StepEffect::AddedFacts { facts, fresh_nulls }
}

/// The largest arity among `atoms` (0 for none).
fn max_arity(atoms: &[Atom]) -> usize {
    atoms.iter().map(|a| a.terms.len()).max().unwrap_or(0)
}

/// Returns `true` iff `(dep, h)` is active in the standard-chase sense over
/// `index`: for a TGD, `h` does not extend to a homomorphism of the head into
/// the instance; for an EGD, `h` maps the equated variables to distinct terms.
pub fn is_standard_active(index: &IndexedInstance, dep: &Dependency, h: &Assignment) -> bool {
    match dep {
        Dependency::Tgd(tgd) => HomomorphismSearch::over_index(tgd.head(), index)
            .for_each_extending(h, &mut |_| ControlFlow::Break(()))
            .is_none(),
        Dependency::Egd(egd) => h.get(egd.left) != h.get(egd.right),
    }
}

/// Every null an EGD substitution replaced, mapped to its replacement.
///
/// A replacement was live when it was recorded, so following the map from a
/// term walks the substitutions in the order they were applied
/// (`η1 ↦ η2 ↦ c`) and ends at the term's current image. Walks are
/// path-compressed. A caller pushing a fact that names a replaced null
/// revives it ([`TriggerEngine::revive_replaced_nulls`]), which empties the
/// map.
#[derive(Clone, Debug, Default)]
struct Replaced(FastMap<NullValue, GroundTerm>);

impl Replaced {
    /// `true` iff `t` is a null some substitution replaced.
    fn is_replaced(&self, t: GroundTerm) -> bool {
        t.as_null().is_some_and(|n| self.0.contains_key(&n))
    }

    /// The current image of `t` under every substitution applied so far.
    fn resolve(&mut self, t: GroundTerm) -> GroundTerm {
        let mut root = t;
        while let Some(&next) = root.as_null().and_then(|n| self.0.get(&n)) {
            root = next;
        }
        // Point every null on the walk straight at the root.
        let mut cur = t;
        while cur != root {
            let null = cur.as_null().expect("only nulls are replaced");
            cur = std::mem::replace(self.0.get_mut(&null).expect("on the walk"), root);
        }
        root
    }

    /// Resolves every term of `h` in place; `true` iff one of them changed.
    fn resolve_all(&mut self, h: &mut Assignment) -> bool {
        let mut moved = false;
        if !self.0.is_empty() {
            h.rewrite_terms(|t| {
                let root = self.resolve(t);
                moved |= root != t;
                root
            });
        }
        moved
    }

    /// `true` iff the pending terms `p` (in variable order) resolve to `h`'s.
    fn resolves_to(&mut self, p: &[GroundTerm], h: &Assignment) -> bool {
        p.len() == h.len()
            && p.iter()
                .zip(h.iter())
                .all(|(&t, (_, u))| self.resolve(t) == u)
    }
}

/// Every dependency's discovered-but-unpopped triggers. The queue lengths
/// sit apart from the queues, in one dense array, so that a pop walking the
/// dependency order past empty queues reads a word per dependency.
#[derive(Clone, Debug)]
struct Pending {
    lens: Vec<usize>,
    queues: Vec<PendingQueue>,
}

impl Pending {
    fn new(sigma: &DependencySet) -> Self {
        Pending {
            lens: vec![0; sigma.len()],
            queues: sigma
                .iter()
                .map(|(_, dep)| PendingQueue::new(dep))
                .collect(),
        }
    }

    fn push(&mut self, dep: DepId, h: &Assignment, body: &[FactId]) {
        self.queues[dep.0].push(h, body);
        self.lens[dep.0] += 1;
    }

    /// Pops the oldest trigger of `dep`'s non-empty queue: its assignment into
    /// `h` and its body image into `body`. `false` if that image may be stale.
    fn pop_into(&mut self, dep: DepId, h: &mut Assignment, body: &mut Vec<FactId>) -> bool {
        self.lens[dep.0] -= 1;
        self.queues[dep.0].pop_into(h, body)
    }

    /// Keeps `dep`'s triggers whose terms `keep` accepts, in order.
    fn retain(&mut self, dep: DepId, keep: impl FnMut(&[GroundTerm]) -> bool) {
        let len = &mut self.lens[dep.0];
        *len = self.queues[dep.0].retain(*len, keep);
    }
}

/// One dependency's queued triggers, oldest first, on flat rows: each
/// trigger's terms (one per body variable, in variable order) and its body
/// image (one fact id per body atom), in two rings popped in lockstep. Its
/// length is kept in [`Pending`].
#[derive(Clone, Debug)]
struct PendingQueue {
    /// The dependency's body variables, ascending: what every discovered
    /// assignment binds.
    vars: Box<[Variable]>,
    /// The dependency's body atoms.
    atoms: usize,
    terms: VecDeque<GroundTerm>,
    body: VecDeque<FactId>,
    /// How many of the oldest triggers have a body image that may name
    /// rewritten facts (set when replaced nulls are revived).
    stale: usize,
}

impl PendingQueue {
    fn new(dep: &Dependency) -> Self {
        PendingQueue {
            vars: dep.body_variables().into_iter().collect(),
            atoms: dep.body().len(),
            terms: VecDeque::new(),
            body: VecDeque::new(),
            stale: 0,
        }
    }

    fn push(&mut self, h: &Assignment, body: &[FactId]) {
        debug_assert!(h.iter().map(|(v, _)| v).eq(self.vars.iter().copied()));
        debug_assert_eq!(body.len(), self.atoms);
        self.terms.extend(h.iter().map(|(_, t)| t));
        self.body.extend(body);
    }

    /// Pops the oldest trigger of a non-empty queue; `false` if its image
    /// may be stale.
    fn pop_into(&mut self, h: &mut Assignment, body: &mut Vec<FactId>) -> bool {
        h.rebind(&self.vars, self.terms.drain(..self.vars.len()));
        body.clear();
        body.extend(self.body.drain(..self.atoms));
        let fresh = self.stale == 0;
        self.stale = self.stale.saturating_sub(1);
        fresh
    }

    /// Keeps the first `len` triggers whose terms `keep` accepts, in order;
    /// returns how many it kept.
    fn retain(&mut self, len: usize, mut keep: impl FnMut(&[GroundTerm]) -> bool) -> usize {
        let (n, m) = (self.vars.len(), self.atoms);
        let terms = self.terms.make_contiguous();
        let body = self.body.make_contiguous();
        let (mut kept, mut stale) = (0, 0);
        for i in 0..len {
            if keep(&terms[i * n..(i + 1) * n]) {
                terms.copy_within(i * n..(i + 1) * n, kept * n);
                body.copy_within(i * m..(i + 1) * m, kept * m);
                stale += usize::from(i < self.stale);
                kept += 1;
            }
        }
        self.terms.truncate(kept * n);
        self.body.truncate(kept * m);
        self.stale = stale;
        kept
    }
}

/// The trigger [`TriggerEngine::next_trigger_where`] popped last: pending
/// triggers are popped into `assignment` and `body`, and `dep` is set when an
/// accepted trigger's body image is good (its terms were not rewritten since
/// discovery) until the engine next changes its instance.
#[derive(Clone, Debug, Default)]
struct Popped {
    dep: Option<DepId>,
    assignment: Assignment,
    body: Vec<FactId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;
    use chase_core::term::{Constant, NullValue};
    use chase_core::Variable;

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }

    fn fact(name: &str, arity: usize, terms: Vec<GroundTerm>) -> Fact {
        Fact {
            predicate: chase_core::Predicate::new(name, arity),
            terms,
        }
    }

    /// Pops the next standard-active trigger: the standard chase's pop.
    fn next_active(engine: &mut TriggerEngine<'_>, order: &[DepId]) -> Option<Trigger> {
        let sigma = engine.sigma;
        engine.next_trigger_where(order, |index, dep, h| {
            is_standard_active(index, sigma.get(dep), h)
        })
    }

    fn sigma1() -> (DependencySet, Instance) {
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            N(a).
            "#,
        )
        .unwrap();
        (p.dependencies, p.database)
    }

    #[test]
    fn apply_tgd_interns_an_existing_head_atom_without_listing_it() {
        let p = parse_program(
            r#"
            r: A(?x) -> exists ?z, ?w: R(?x, ?x), S(?x, ?z, ?w), T(?w, ?z, c).
            A(a). R(a, a).
            "#,
        )
        .unwrap();
        let tgd = p.dependencies.get(DepId(0)).as_tgd().unwrap();
        let mut db = p.database;
        db.insert(fact("A", 1, vec![GroundTerm::Null(NullValue(7))]));
        // The nulls a step must invent, in the order it must invent them.
        let (z, w) = {
            let mut probe = db.clone();
            (probe.fresh_null(), probe.fresh_null())
        };
        let existing = db.id_of(&fact("R", 2, vec![gc("a"), gc("a")]));
        let mut index = IndexedInstance::from_instance(db);
        let h = Assignment::from_pairs([(Variable::new("x"), gc("a"))]);
        let mut interned = Vec::new();
        let effect = apply_tgd(&mut index, tgd, &h, |id, new| interned.push((id, new)));

        let (z, w) = (GroundTerm::Null(z), GroundTerm::Null(w));
        let s_fact = fact("S", 3, vec![gc("a"), z, w]);
        let t_fact = fact("T", 3, vec![w, z, gc("c")]);
        assert_eq!(
            effect,
            StepEffect::AddedFacts {
                facts: vec![s_fact.clone(), t_fact.clone()],
                fresh_nulls: 2,
            }
        );
        let ids = |f: &Fact| index.instance().id_of(f);
        assert_eq!(interned[0], (existing.unwrap(), false));
        assert_eq!(
            interned[1..],
            [(ids(&s_fact).unwrap(), true), (ids(&t_fact).unwrap(), true)]
        );
    }

    #[test]
    fn initial_database_seeds_triggers() {
        let (sigma, db) = sigma1();
        let order: Vec<DepId> = sigma.ids().collect();
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        let t = next_active(&mut engine, &order).unwrap();
        // Only r1 is active on {N(a)}.
        assert_eq!(t.dep, DepId(0));
        assert_eq!(t.assignment.get(Variable::new("x")), Some(gc("a")));
    }

    #[test]
    fn applying_a_tgd_discovers_downstream_triggers() {
        let (sigma, db) = sigma1();
        let order: Vec<DepId> = sigma.ids().collect();
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        let t = next_active(&mut engine, &order).unwrap();
        let effect = engine.apply_trigger(t.dep, &t.assignment);
        match effect {
            StepEffect::AddedFacts { facts, fresh_nulls } => {
                assert_eq!(facts.len(), 1);
                assert_eq!(fresh_nulls, 1);
            }
            other => panic!("expected AddedFacts, got {other:?}"),
        }
        // Now r2 (textual order) is active through the new E fact.
        let t2 = next_active(&mut engine, &order).unwrap();
        assert_eq!(t2.dep, DepId(1));
    }

    #[test]
    fn egd_priority_reproduces_example_1() {
        let (sigma, db) = sigma1();
        // EGDs first: r3, then r1, r2.
        let order = vec![DepId(2), DepId(0), DepId(1)];
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        let mut steps = Vec::new();
        while let Some(t) = next_active(&mut engine, &order) {
            steps.push(t.dep);
            let effect = engine.apply_trigger(t.dep, &t.assignment);
            assert_ne!(effect, StepEffect::Failure, "Σ1 on {{N(a)}} must not fail");
            assert!(steps.len() < 10, "diverged");
        }
        assert_eq!(steps, vec![DepId(0), DepId(2)]);
        let j = engine.into_instance();
        assert_eq!(j.len(), 2);
        assert!(j.contains(&Fact::from_parts("N", vec![gc("a")])));
        assert!(j.contains(&Fact::from_parts("E", vec![gc("a"), gc("a")])));
    }

    #[test]
    fn substitution_rewrites_pending_triggers() {
        let (sigma, _) = sigma1();
        let mut engine = TriggerEngine::new(&sigma);
        engine.push_facts(vec![
            Fact::from_parts("N", vec![gc("a")]),
            Fact::from_parts("E", vec![gc("a"), GroundTerm::Null(NullValue(7))]),
        ]);
        engine.drain_deltas();
        // γ = {η7/a}: the pending r2 trigger must now bind y to a — making it
        // inactive, since N(a) already holds.
        engine.apply_substitution(&NullSubstitution::single(NullValue(7), gc("a")));
        let order: Vec<DepId> = sigma.ids().collect();
        let t = next_active(&mut engine, &order);
        // r1 is satisfied (E(a,a) witnesses), r2 is satisfied (N(a)), r3 is
        // satisfied (x = y = a): nothing is active.
        assert!(t.is_none(), "got {t:?}");
        assert_eq!(engine.instance().len(), 2);
    }

    #[test]
    fn substitution_can_create_triggers() {
        // Body E(x, x) matches only after the two nulls collapse.
        let p = parse_program("r: E(?x, ?x) -> Loop(?x).").unwrap();
        let mut engine = TriggerEngine::new(&p.dependencies);
        engine.push_facts(vec![Fact::from_parts(
            "E",
            vec![
                GroundTerm::Null(NullValue(1)),
                GroundTerm::Null(NullValue(2)),
            ],
        )]);
        let order: Vec<DepId> = p.dependencies.ids().collect();
        assert!(next_active(&mut engine, &order).is_none());
        engine.apply_substitution(&NullSubstitution::single(
            NullValue(1),
            GroundTerm::Null(NullValue(2)),
        ));
        let t = next_active(&mut engine, &order).expect("collapsed fact must trigger the rule");
        assert_eq!(
            t.assignment.get(Variable::new("x")),
            Some(GroundTerm::Null(NullValue(2)))
        );
    }

    #[test]
    fn substitution_before_drain_rewrites_queued_deltas() {
        // Push a fact mentioning η1, substitute η1 away *before* discovery runs:
        // the derived fact must use the rewritten term, never the dead null.
        let p = parse_program("r: E(?x, ?y) -> N(?y).").unwrap();
        let mut engine = TriggerEngine::new(&p.dependencies);
        engine.push_facts(vec![Fact::from_parts(
            "E",
            vec![gc("a"), GroundTerm::Null(NullValue(1))],
        )]);
        engine.apply_substitution(&NullSubstitution::single(NullValue(1), gc("b")));
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let t = next_active(&mut engine, &order).unwrap();
        let effect = engine.apply_trigger(t.dep, &t.assignment);
        match effect {
            StepEffect::AddedFacts { facts, .. } => {
                assert_eq!(facts, vec![Fact::from_parts("N", vec![gc("b")])]);
            }
            other => panic!("expected AddedFacts, got {other:?}"),
        }
        assert!(engine.instance().nulls().is_empty());
    }

    fn gn(n: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(n))
    }

    fn subst(n: u64, t: GroundTerm) -> NullSubstitution {
        NullSubstitution::single(NullValue(n), t)
    }

    #[test]
    fn a_key_over_two_nulls_stays_deduplicated_through_substitution_chains() {
        let p = parse_program("r: P(?x, ?y) -> Q(?x).").unwrap();
        let mut engine = TriggerEngine::new(&p.dependencies);
        engine.push_facts(vec![
            Fact::from_parts("P", vec![gn(1), gn(2)]),
            Fact::from_parts("P", vec![gn(3), gn(4)]),
        ]);
        engine.drain_deltas();
        assert_eq!(engine.stats().triggers_discovered, 2);
        // η1 → η2 → c, and η3 → d then η4 → e: the second chain only finds
        // the key if its rewrite was re-posted under η4, a null γ left alone.
        for gamma in [
            subst(1, gn(2)),
            subst(2, gc("c")),
            subst(3, gc("d")),
            subst(4, gc("e")),
        ] {
            engine.apply_substitution(&gamma);
            engine.drain_deltas();
        }
        // Every rewritten fact was rediscovered, and every rediscovery was
        // recognised as the key discovered before.
        assert_eq!(engine.stats().triggers_discovered, 2);
        assert_eq!(engine.stats().keys_rewritten, 4);
    }

    #[test]
    fn a_pending_trigger_pops_resolved_through_a_substitution_chain() {
        let p = parse_program("r: P(?x, ?y) -> Q(?x).").unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::new(&p.dependencies);
        engine.push_facts(vec![Fact::from_parts("P", vec![gc("a"), gn(1)])]);
        engine.drain_deltas();
        assert_eq!(engine.pending_len(), 1);
        engine.apply_substitution(&subst(1, gn(2)));
        engine.apply_substitution(&subst(2, gc("c")));
        let t = engine.next_trigger_where(&order, |_, _, _| true).unwrap();
        assert_eq!(
            t.assignment,
            Assignment::from_pairs([(Variable::new("x"), gc("a")), (Variable::new("y"), gc("c"))])
        );
        assert!(engine.next_trigger_where(&order, |_, _, _| true).is_none());
    }

    #[test]
    fn retract_after_a_substitution_removes_the_pending_trigger() {
        let p = parse_program("r: P(?x, ?y) -> Q(?x).").unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::new(&p.dependencies);
        engine.push_facts(vec![Fact::from_parts("P", vec![gc("a"), gn(1)])]);
        engine.drain_deltas();
        engine.apply_substitution(&subst(1, gc("b")));
        let p_ab = Fact::from_parts("P", vec![gc("a"), gc("b")]);
        let id = engine.instance().id_of(&p_ab).unwrap();
        assert_eq!(engine.retract_ids(&[id]), 1);
        assert!(engine.is_quiescent(), "the rewritten trigger was retracted");
        engine.push_facts(vec![p_ab]);
        let t = engine
            .next_trigger_where(&order, |_, _, _| true)
            .expect("the forgotten trigger is rediscovered");
        assert_eq!(t.assignment.get(Variable::new("y")), Some(gc("b")));
    }

    #[test]
    fn a_replaced_null_pushed_again_is_live_for_its_triggers() {
        let p = parse_program("r: P(?x, ?y) -> Q(?x, ?y).").unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::new(&p.dependencies);
        engine.push_facts(vec![Fact::from_parts("P", vec![gc("a"), gn(1)])]);
        engine.drain_deltas();
        engine.apply_substitution(&subst(1, gc("b")));
        // η1 comes back from outside the chase: its trigger must pop with η1,
        // while the one discovered before γ still pops resolved to `b`.
        engine.push_facts(vec![Fact::from_parts("P", vec![gc("a"), gn(1)])]);
        let mut popped = Vec::new();
        while let Some(t) = next_active(&mut engine, &order) {
            popped.push(t.assignment.get(Variable::new("y")).unwrap());
            assert!(matches!(
                engine.apply_trigger(t.dep, &t.assignment),
                StepEffect::AddedFacts { .. }
            ));
        }
        assert_eq!(popped, vec![gc("b"), gn(1)]);
        assert!(engine
            .instance()
            .contains(&Fact::from_parts("Q", vec![gc("a"), gn(1)])));
    }

    /// `keys_rewritten` after a standard chase, EGDs first, of the
    /// `DeptOf`-key data-exchange mapping over `companies` companies with
    /// three employees each.
    fn exchange_keys_rewritten(companies: usize) -> usize {
        let p = parse_program(
            r#"
            emp: works_for(?p, ?c) -> exists ?d: Emp(?p, ?d), DeptOf(?d, ?c).
            dept: company(?c, ?city) -> exists ?d: DeptOf(?d, ?c), Loc(?d, ?city).
            key: DeptOf(?d1, ?c), DeptOf(?d2, ?c) -> ?d1 = ?d2.
            works_in: Emp(?p, ?d), Loc(?d, ?city) -> WorksIn(?p, ?city).
            "#,
        )
        .unwrap();
        let sigma = p.dependencies;
        let mut order: Vec<DepId> = sigma.ids().collect();
        order.sort_by_key(|&id| {
            let dep = sigma.get(id);
            (!dep.is_egd(), !dep.is_full())
        });
        let mut engine = TriggerEngine::new(&sigma);
        for c in 0..companies {
            let company = gc(&format!("c{c}"));
            engine.push_facts(
                (0..3).map(|e| {
                    Fact::from_parts("works_for", vec![gc(&format!("p{c}_{e}")), company])
                }),
            );
            engine.push_facts([Fact::from_parts(
                "company",
                vec![company, gc(&format!("city{c}"))],
            )]);
        }
        while let Some(t) = next_active(&mut engine, &order) {
            assert_ne!(
                engine.apply_trigger(t.dep, &t.assignment),
                StepEffect::Failure
            );
        }
        assert_eq!(engine.stats().substitutions, 3 * companies);
        engine.stats().keys_rewritten
    }

    #[test]
    fn keys_rewritten_grows_linearly_with_the_source() {
        let small = exchange_keys_rewritten(20);
        let large = exchange_keys_rewritten(80);
        assert!(small > 0);
        // Rewriting every discovered key per substitution grows
        // quadratically (about 16x here); the per-null index stays linear.
        assert!(
            large <= 5 * small,
            "keys_rewritten {small} at 20 companies, {large} at 80"
        );
    }

    #[test]
    fn database_seeding_is_deterministic() {
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            E(a, b). E(b, c). E(c, d). E(d, e). E(e, f).
            "#,
        )
        .unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let run = || {
            let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
            let mut picked = Vec::new();
            while let Some(t) = next_active(&mut engine, &order) {
                picked.push(t.assignment.canonical());
                engine.apply_trigger(t.dep, &t.assignment);
                assert!(picked.len() < 100, "diverged");
            }
            picked
        };
        assert_eq!(run(), run(), "trigger order must not depend on hash state");
    }

    #[test]
    fn failing_egd_is_reported() {
        let p = parse_program(
            r#"
            k: P(?x, ?y), P(?x, ?z) -> ?y = ?z.
            P(a, b). P(a, c).
            "#,
        )
        .unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let t = next_active(&mut engine, &order).unwrap();
        let effect = engine.apply_trigger(t.dep, &t.assignment);
        assert_eq!(effect, StepEffect::Failure);
    }

    #[test]
    fn next_trigger_where_skips_rejected_keys() {
        let p = parse_program("r: E(?x, ?y) -> exists ?z: E(?x, ?z). E(a, b).").unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        // Accept everything: the initial fact yields exactly one candidate.
        let t = engine
            .next_trigger_where(&order, |_, _, _| true)
            .expect("one candidate");
        assert_eq!(t.assignment.get(Variable::new("x")), Some(gc("a")));
        // Reject everything afterwards: no candidate survives.
        assert!(engine.next_trigger_where(&order, |_, _, _| false).is_none());
    }

    #[test]
    fn duplicate_discovery_is_suppressed() {
        // Both body atoms match the same delta fact: the join must be discovered
        // once, not twice.
        let p = parse_program("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, a).").unwrap();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        engine.drain_deltas();
        assert_eq!(engine.stats().triggers_discovered, 1);
    }

    #[test]
    fn tgd_activity_checks_route_through_the_maintained_index() {
        // The standard-activity test for a TGD head must consult the engine's
        // per-(predicate, position) indexes, not a scan: the probe counter of the
        // maintained `IndexedInstance` has to advance across the check.
        let (sigma, db) = sigma1();
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        engine.drain_deltas();
        let h = Assignment::from_pairs([(Variable::new("x"), gc("a"))]);
        let before = engine.indexed().probe_count();
        // r1 is a TGD with head E(x, y): activity extends h over the head.
        let active = is_standard_active(engine.indexed(), sigma.get(DepId(0)), &h);
        assert!(active, "no E(a, _) fact exists yet, the trigger is active");
        let after = engine.indexed().probe_count();
        assert!(
            after > before,
            "TGD-activity check did not touch the position index ({before} -> {after})"
        );
    }

    #[test]
    fn logged_tgd_step_records_body_and_all_heads() {
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z), N(?x).
            E(a, b). E(b, c). N(a).
            "#,
        )
        .unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let t = next_active(&mut engine, &order).unwrap();
        let (effect, log) = engine.apply_trigger_logged(t.dep, &t.assignment);
        let id = |pred: &str, a: &str, b: &str| {
            engine
                .instance()
                .id_of(&Fact::from_parts(pred, vec![gc(a), gc(b)]))
                .unwrap()
        };
        assert_eq!(log.body, vec![id("E", "a", "b"), id("E", "b", "c")]);
        // Both heads are logged — E(a, c) is new, N(a) already existed.
        let n_a = engine
            .instance()
            .id_of(&Fact::from_parts("N", vec![gc("a")]))
            .unwrap();
        assert_eq!(log.heads, vec![id("E", "a", "c"), n_a]);
        assert!(log.rewrites.is_empty());
        match effect {
            StepEffect::AddedFacts { facts, .. } => {
                assert_eq!(facts, vec![Fact::from_parts("E", vec![gc("a"), gc("c")])]);
            }
            other => panic!("expected AddedFacts, got {other:?}"),
        }
    }

    #[test]
    fn logged_egd_step_records_prerewrite_body_and_the_rewrites() {
        let p = parse_program(
            r#"
            k: P(?x, ?y), P(?x, ?z) -> ?y = ?z.
            "#,
        )
        .unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::new(&p.dependencies);
        let (null_fact_id, _) = engine.push_fact_full(Fact::from_parts(
            "P",
            vec![gc("a"), GroundTerm::Null(NullValue(1))],
        ));
        let (ground_id, _) = engine.push_fact_full(Fact::from_parts("P", vec![gc("a"), gc("b")]));
        let t = engine
            .next_trigger_where(&order, |_, _, h| {
                h.get(Variable::new("y")) != h.get(Variable::new("z"))
            })
            .unwrap();
        let (effect, log) = engine.apply_trigger_logged(t.dep, &t.assignment);
        assert!(matches!(effect, StepEffect::Substituted { .. }));
        // The body image is in pre-rewrite id space; the rewrite pairs map the
        // collapsed fact onto its ground image.
        assert_eq!(log.body.len(), 2);
        assert!(log.body.contains(&null_fact_id));
        assert!(log.body.contains(&ground_id));
        assert_eq!(log.rewrites, vec![(null_fact_id, ground_id)]);
        assert!(log.heads.is_empty());
    }

    #[test]
    fn logged_bodies_of_rewritten_triggers_are_looked_up() {
        let p = parse_program("r: P(?x, ?y) -> Q(?x, ?y).").unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let p_ab = Fact::from_parts("P", vec![gc("a"), gc("b")]);
        for revive in [false, true] {
            let mut engine = TriggerEngine::new(&p.dependencies);
            let (stale, _) = engine.push_fact_full(Fact::from_parts("P", vec![gc("a"), gn(1)]));
            engine.drain_deltas();
            // The pending trigger's image names P(a, η1), which γ rewrites.
            engine.apply_substitution(&subst(1, gc("b")));
            if revive {
                // η1 comes back: the pending trigger is resolved in place and
                // the substitutions are forgotten before it pops.
                engine.push_facts([Fact::from_parts("P", vec![gc("c"), gn(1)])]);
            }
            let t = engine.next_trigger_where(&order, |_, _, _| true).unwrap();
            assert_eq!(t.assignment.get(Variable::new("y")), Some(gc("b")));
            let (_, log) = engine.apply_trigger_logged(t.dep, &t.assignment);
            let fresh = engine.instance().id_of(&p_ab).unwrap();
            assert_ne!(fresh, stale);
            assert_eq!(log.body, vec![fresh], "revive {revive}");
        }
    }

    #[test]
    fn retract_forgets_seen_so_rederivation_can_refire() {
        // Derive N(b) from E(a, b), retract E(a, b), push it back: the trigger
        // must be discovered and applicable again — a stale `seen` entry would
        // suppress it forever.
        let p = parse_program("r: E(?x, ?y) -> N(?y). E(a, b).").unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let t = engine.next_trigger_where(&order, |_, _, _| true).unwrap();
        engine.apply_trigger(t.dep, &t.assignment);
        assert!(engine.next_trigger_where(&order, |_, _, _| true).is_none());
        let e_ab = engine
            .instance()
            .id_of(&Fact::from_parts("E", vec![gc("a"), gc("b")]))
            .unwrap();
        assert_eq!(engine.retract_ids(&[e_ab]), 1);
        assert_eq!(engine.stats().facts_retracted, 1);
        assert_eq!(engine.instance().len(), 1, "N(b) survives, E(a, b) is gone");
        // Re-insert: same id, and the trigger fires again.
        let (again, new) = engine.push_fact_full(Fact::from_parts("E", vec![gc("a"), gc("b")]));
        assert!(new);
        assert_eq!(again, e_ab);
        let t = engine
            .next_trigger_where(&order, |_, _, _| true)
            .expect("the forgotten trigger must be rediscovered");
        assert_eq!(t.dep, DepId(0));
    }

    #[test]
    fn retract_purges_pending_and_queued_deltas() {
        // Retract a fact whose trigger is still pending and whose id is still
        // in the delta worklist: neither may survive.
        let p = parse_program("r: E(?x, ?y) -> N(?y).").unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::new(&p.dependencies);
        let (id, _) = engine.push_fact_full(Fact::from_parts("E", vec![gc("a"), gc("b")]));
        // Drain: discovery has run, the r-trigger is pending.
        engine.drain_deltas();
        assert_eq!(engine.pending_len(), 1);
        // Push a second copy path: enqueue the id again via retraction of a
        // still-queued fact — first check the queued-delta purge.
        let (id2, _) = engine.push_fact_full(Fact::from_parts("E", vec![gc("c"), gc("d")]));
        assert_eq!(engine.retract_ids(&[id, id2]), 2);
        assert!(engine.is_quiescent(), "no pending trigger, no queued delta");
        assert!(
            engine.next_trigger_where(&order, |_, _, _| true).is_none(),
            "retracted facts must not fire triggers"
        );
        assert!(engine.instance().is_empty());
    }

    #[test]
    fn retracting_a_dead_or_unknown_id_is_a_noop() {
        let p = parse_program("r: E(?x, ?y) -> N(?y). E(a, b).").unwrap();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let e_ab = engine
            .instance()
            .id_of(&Fact::from_parts("E", vec![gc("a"), gc("b")]))
            .unwrap();
        assert_eq!(engine.retract_ids(&[e_ab, e_ab]), 1, "duplicates collapse");
        assert_eq!(engine.retract_ids(&[e_ab]), 0, "already dead");
        assert_eq!(engine.stats().facts_retracted, 1);
    }

    #[test]
    fn transitive_closure_via_engine() {
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            E(a, b). E(b, c). E(c, d).
            "#,
        )
        .unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let mut steps = 0;
        while let Some(t) = next_active(&mut engine, &order) {
            engine.apply_trigger(t.dep, &t.assignment);
            steps += 1;
            assert!(steps < 100, "diverged");
        }
        // Closure of a 4-chain has 6 edges.
        assert_eq!(engine.instance().len(), 6);
    }
}
