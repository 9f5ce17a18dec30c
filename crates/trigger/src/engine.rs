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
//!   [`TriggerEngine::next_active_trigger`] pops them in the caller's dependency
//!   order, re-checking standard activity at pop time, so every trigger-selection
//!   policy (`StepOrder`-style nondeterminism) behaves exactly as with naive
//!   re-scanning;
//! * EGD substitutions rewrite the pending queues and the dedup set in place
//!   (`h ↦ γ∘h`), invalidating stale bindings without discarding discovered work.
//!
//! Dropping a trigger that is found inactive is sound for the standard chase:
//! instances only grow or get substituted, both of which preserve TGD head
//! witnesses (as `γ∘h'`) and EGD equalities, so an inactive trigger can never
//! become active again.

use crate::delta::DeltaQueue;
use crate::index::FactIndex;
use crate::parallel::SeedAtoms;
use crate::search::{exists_indexed_extension, for_each_seeded_id};
use chase_core::substitution::NullSubstitution;
use chase_core::{
    Assignment, DepId, Dependency, DependencySet, Fact, FactId, GroundTerm, Instance, Variable,
};
use std::collections::{HashSet, VecDeque};
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
}

/// Fact-id level record of one applied chase step, produced by
/// [`TriggerEngine::apply_trigger_logged`] for support-ledger consumers
/// (`chase_ivm`).
///
/// The body image is resolved **before** the step mutates anything, so for an
/// EGD substitution step the recorded ids are the pre-rewrite ids; `rewrites`
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
    index: FactIndex,
    deltas: DeltaQueue,
    /// For each predicate, the body-atom positions that can unify with a fact of
    /// that predicate: `(dependency, body atom index)`. Built once so that a delta
    /// fact visits only the matching seed atoms instead of scanning all of `Σ`.
    seed_atoms: SeedAtoms,
    /// Per-dependency FIFO of discovered candidate triggers.
    pending: Vec<VecDeque<Assignment>>,
    /// Per-dependency set of every assignment ever discovered (canonical form),
    /// rewritten in lockstep with EGD substitutions.
    seen: Vec<HashSet<Vec<(Variable, GroundTerm)>>>,
    stats: EngineStats,
}

impl<'a> TriggerEngine<'a> {
    /// Creates an engine for `sigma` over an empty instance.
    pub fn new(sigma: &'a DependencySet) -> Self {
        TriggerEngine {
            sigma,
            index: FactIndex::new(),
            deltas: DeltaQueue::new(),
            seed_atoms: SeedAtoms::new(sigma),
            pending: vec![VecDeque::new(); sigma.len()],
            seen: vec![HashSet::new(); sigma.len()],
            stats: EngineStats::default(),
        }
    }

    /// Creates an engine and loads the database (every database fact is a delta).
    ///
    /// Facts are seeded in sorted order so that discovery — and hence the chase
    /// sequence built on it — is reproducible across process runs (the database's
    /// own fact set iterates in hash order). The facts are re-interned into the
    /// engine's own arena directly from the database's term slices; no `Fact`
    /// values are materialised.
    pub fn with_database(sigma: &'a DependencySet, database: &Instance) -> Self {
        let mut engine = TriggerEngine::new(sigma);
        for id in engine.index.insert_database(database) {
            engine.record_insert(id, true);
        }
        engine
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        self.index.instance()
    }

    /// The engine's indexed fact storage (read-only; exposes index diagnostics such
    /// as [`chase_core::IndexedInstance::probe_count`]).
    pub fn fact_index(&self) -> &FactIndex {
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
            self.insert_fact(fact);
        }
    }

    /// Adds one fact, returning its interned id and whether it was new (new
    /// facts become deltas). The id-reporting flavour of
    /// [`TriggerEngine::push_facts`], for callers that track facts by id — a
    /// previously retracted fact comes back under its original id.
    pub fn push_fact_full(&mut self, fact: Fact) -> (FactId, bool) {
        let (id, new) = self.index.insert_full(fact);
        self.record_insert(id, new);
        (id, new)
    }

    /// Number of discovered-but-unpopped candidate triggers across all
    /// dependencies (diagnostics; a quiesced engine has zero pending and an
    /// empty delta worklist).
    pub fn pending_len(&self) -> usize {
        self.pending.iter().map(|q| q.len()).sum()
    }

    /// Returns `true` iff no delta is waiting and no candidate is pending — the
    /// engine will discover nothing new until facts are pushed or retracted.
    pub fn is_quiescent(&self) -> bool {
        self.deltas.is_empty() && self.pending_len() == 0
    }

    fn insert_fact(&mut self, fact: Fact) -> bool {
        let (id, new) = self.index.insert_full(fact);
        self.record_insert(id, new)
    }

    fn record_insert(&mut self, id: FactId, new: bool) -> bool {
        if new {
            self.stats.facts_inserted += 1;
            self.deltas.push(id);
        }
        new
    }

    /// Applies an EGD substitution `γ`: rewrites the instance in place, rewrites
    /// every pending trigger and dedup key (`h ↦ γ∘h`), and re-seeds discovery
    /// from the rewritten facts (substitution can *create* triggers, e.g. a body
    /// atom `E(x, x)` matching a fact only after two nulls collapse). Returns
    /// the rewritten `(old, new)` id pairs — the same delta the index reported
    /// — so id-tracking callers (the `chase_ivm` support ledger) can map their
    /// records forward.
    pub fn apply_substitution(&mut self, gamma: &NullSubstitution) -> Vec<(FactId, FactId)> {
        if gamma.is_empty() {
            return Vec::new();
        }
        self.stats.substitutions += 1;
        let delta = self.index.substitute(gamma);
        // Facts still waiting in the worklist must be rewritten too: they were
        // enqueued as members of `K` and only their images exist in `K γ`. The id
        // delta maps each rewritten fact's old id onto its image's id.
        self.deltas.apply_rewrites(&delta);
        for queue in &mut self.pending {
            for h in queue.iter_mut() {
                *h = rewrite_assignment(h, gamma);
            }
        }
        for set in &mut self.seen {
            *set = set
                .drain()
                .map(|mut key| {
                    for (_, t) in key.iter_mut() {
                        *t = gamma.apply_ground(*t);
                    }
                    key
                })
                .collect();
        }
        for &(_, new) in &delta {
            self.deltas.push(new);
        }
        delta
    }

    /// Drains the delta worklist, seeding homomorphism search from every (body
    /// atom, delta fact) pair and queueing each newly discovered assignment. The
    /// `seed_atoms` map keyed by predicate means a delta fact visits only the body
    /// atoms it can actually unify with, not all of `Σ`.
    pub fn drain_deltas(&mut self) {
        while let Some(fact_id) = self.deltas.pop() {
            self.stats.deltas_processed += 1;
            let predicate = self.index.store().predicate_of(fact_id);
            for &(id, seed_index) in self.seed_atoms.seeds_for(predicate) {
                let body = self.sigma.get(id).body();
                // Borrow dance: collect first, then dedup against `seen`.
                let mut found: Vec<Assignment> = Vec::new();
                for_each_seeded_id::<()>(body, &self.index, seed_index, fact_id, &mut |h| {
                    found.push(h.clone());
                    ControlFlow::Continue(())
                });
                for h in found {
                    if self.seen[id.0].insert(h.canonical()) {
                        self.stats.triggers_discovered += 1;
                        self.pending[id.0].push_back(h);
                    }
                }
            }
        }
    }

    /// Pops the first *standard-active* trigger, trying the dependencies in the
    /// order given (the trigger-selection policy). Triggers that are no longer
    /// active are dropped permanently — see the module docs for why that is sound.
    pub fn next_active_trigger(&mut self, order: &[DepId]) -> Option<Trigger> {
        self.drain_deltas();
        for &id in order {
            let dep = self.sigma.get(id);
            while let Some(h) = self.pending[id.0].pop_front() {
                if self.is_standard_active(dep, &h) {
                    return Some(Trigger {
                        dep: id,
                        assignment: h,
                    });
                }
                self.stats.triggers_dropped += 1;
            }
        }
        None
    }

    /// Pops the first discovered trigger accepted by `accept`, trying the
    /// dependencies in the given order. Rejected triggers are dropped permanently;
    /// no activity check is performed. This is the entry point for oblivious-style
    /// consumers (fired-key dedup) and saturation procedures (accept everything).
    pub fn next_trigger_where(
        &mut self,
        order: &[DepId],
        mut accept: impl FnMut(DepId, &Assignment) -> bool,
    ) -> Option<Trigger> {
        self.drain_deltas();
        for &id in order {
            while let Some(h) = self.pending[id.0].pop_front() {
                if accept(id, &h) {
                    return Some(Trigger {
                        dep: id,
                        assignment: h,
                    });
                }
                self.stats.triggers_dropped += 1;
            }
        }
        None
    }

    /// Returns `true` iff `(dep, h)` is active in the standard-chase sense: for a
    /// TGD, `h` does not extend to a homomorphism of the head into the instance;
    /// for an EGD, `h` maps the equated variables to distinct terms.
    pub fn is_standard_active(&self, dep: &Dependency, h: &Assignment) -> bool {
        match dep {
            Dependency::Tgd(tgd) => !exists_indexed_extension(&tgd.head, &self.index, h),
            Dependency::Egd(egd) => h.get(egd.left) != h.get(egd.right),
        }
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
    /// ledgers. The body image is resolved before the step runs (see
    /// [`StepLog`] for the EGD id-space caveat); the effect and every state
    /// change are identical to the unlogged call.
    pub fn apply_trigger_logged(&mut self, dep_id: DepId, h: &Assignment) -> (StepEffect, StepLog) {
        let mut log = StepLog::default();
        for atom in self.sigma.get(dep_id).body() {
            let fact = h.apply_atom(atom).expect("body variables are bound");
            let id = self
                .index
                .id_of(&fact)
                .expect("a trigger's body maps into the live instance");
            log.body.push(id);
        }
        let effect = self.apply_trigger_inner(dep_id, h, Some(&mut log));
        (effect, log)
    }

    fn apply_trigger_inner(
        &mut self,
        dep_id: DepId,
        h: &Assignment,
        mut log: Option<&mut StepLog>,
    ) -> StepEffect {
        match self.sigma.get(dep_id) {
            Dependency::Tgd(tgd) => {
                let mut extended = h.clone();
                let ex = tgd.existential_variables();
                let fresh_nulls = ex.len();
                for v in ex {
                    let n = self.index.fresh_null();
                    extended.bind(v, GroundTerm::Null(n));
                }
                let mut added = Vec::new();
                for atom in &tgd.head {
                    let fact = extended
                        .apply_atom(atom)
                        .expect("all head variables are bound after extension");
                    let (id, new) = self.index.insert_full(fact.clone());
                    self.record_insert(id, new);
                    if let Some(log) = log.as_deref_mut() {
                        log.heads.push(id);
                    }
                    if new {
                        added.push(fact);
                    }
                }
                StepEffect::AddedFacts {
                    facts: added,
                    fresh_nulls,
                }
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
        for &id in ids {
            if !self.index.instance().contains_id(id) {
                continue;
            }
            let predicate = self.index.store().predicate_of(id);
            for &(dep, seed_index) in self.seed_atoms.seeds_for(predicate) {
                let body = self.sigma.get(dep).body();
                let mut found: Vec<Assignment> = Vec::new();
                for_each_seeded_id::<()>(body, &self.index, seed_index, id, &mut |h| {
                    found.push(h.clone());
                    ControlFlow::Continue(())
                });
                for h in found {
                    if self.seen[dep.0].remove(&h.canonical()) {
                        self.pending[dep.0].retain(|p| p != &h);
                    }
                }
            }
        }
        let dead: HashSet<FactId> = ids.iter().copied().collect();
        self.deltas.retain(|id| !dead.contains(&id));
        let removed = self.index.remove_ids(ids);
        self.stats.facts_retracted += removed;
        removed
    }
}

fn rewrite_assignment(h: &Assignment, gamma: &NullSubstitution) -> Assignment {
    Assignment::from_pairs(h.iter().map(|(v, t)| (v, gamma.apply_ground(t))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;
    use chase_core::term::{Constant, NullValue};

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
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
    fn initial_database_seeds_triggers() {
        let (sigma, db) = sigma1();
        let order: Vec<DepId> = sigma.ids().collect();
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        let t = engine.next_active_trigger(&order).unwrap();
        // Only r1 is active on {N(a)}.
        assert_eq!(t.dep, DepId(0));
        assert_eq!(t.assignment.get(Variable::new("x")), Some(gc("a")));
    }

    #[test]
    fn applying_a_tgd_discovers_downstream_triggers() {
        let (sigma, db) = sigma1();
        let order: Vec<DepId> = sigma.ids().collect();
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        let t = engine.next_active_trigger(&order).unwrap();
        let effect = engine.apply_trigger(t.dep, &t.assignment);
        match effect {
            StepEffect::AddedFacts { facts, fresh_nulls } => {
                assert_eq!(facts.len(), 1);
                assert_eq!(fresh_nulls, 1);
            }
            other => panic!("expected AddedFacts, got {other:?}"),
        }
        // Now r2 (textual order) is active through the new E fact.
        let t2 = engine.next_active_trigger(&order).unwrap();
        assert_eq!(t2.dep, DepId(1));
    }

    #[test]
    fn egd_priority_reproduces_example_1() {
        let (sigma, db) = sigma1();
        // EGDs first: r3, then r1, r2.
        let order = vec![DepId(2), DepId(0), DepId(1)];
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        let mut steps = Vec::new();
        while let Some(t) = engine.next_active_trigger(&order) {
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
        let t = engine.next_active_trigger(&order);
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
        assert!(engine.next_active_trigger(&order).is_none());
        engine.apply_substitution(&NullSubstitution::single(
            NullValue(1),
            GroundTerm::Null(NullValue(2)),
        ));
        let t = engine
            .next_active_trigger(&order)
            .expect("collapsed fact must trigger the rule");
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
        let t = engine.next_active_trigger(&order).unwrap();
        let effect = engine.apply_trigger(t.dep, &t.assignment);
        match effect {
            StepEffect::AddedFacts { facts, .. } => {
                assert_eq!(facts, vec![Fact::from_parts("N", vec![gc("b")])]);
            }
            other => panic!("expected AddedFacts, got {other:?}"),
        }
        assert!(engine.instance().nulls().is_empty());
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
            while let Some(t) = engine.next_active_trigger(&order) {
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
        let t = engine.next_active_trigger(&order).unwrap();
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
            .next_trigger_where(&order, |_, _| true)
            .expect("one candidate");
        assert_eq!(t.assignment.get(Variable::new("x")), Some(gc("a")));
        // Reject everything afterwards: no candidate survives.
        assert!(engine.next_trigger_where(&order, |_, _| false).is_none());
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
        let before = engine.fact_index().indexed().probe_count();
        // r1 is a TGD with head E(x, y): activity extends h over the head.
        let active = engine.is_standard_active(sigma.get(DepId(0)), &h);
        assert!(active, "no E(a, _) fact exists yet, the trigger is active");
        let after = engine.fact_index().indexed().probe_count();
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
        let t = engine.next_active_trigger(&order).unwrap();
        let (effect, log) = engine.apply_trigger_logged(t.dep, &t.assignment);
        let id = |pred: &str, a: &str, b: &str| {
            engine
                .fact_index()
                .id_of(&Fact::from_parts(pred, vec![gc(a), gc(b)]))
                .unwrap()
        };
        assert_eq!(log.body, vec![id("E", "a", "b"), id("E", "b", "c")]);
        // Both heads are logged — E(a, c) is new, N(a) already existed.
        let n_a = engine
            .fact_index()
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
            .next_trigger_where(&order, |_, h| {
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
    fn retract_forgets_seen_so_rederivation_can_refire() {
        // Derive N(b) from E(a, b), retract E(a, b), push it back: the trigger
        // must be discovered and applicable again — a stale `seen` entry would
        // suppress it forever.
        let p = parse_program("r: E(?x, ?y) -> N(?y). E(a, b).").unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let t = engine.next_trigger_where(&order, |_, _| true).unwrap();
        engine.apply_trigger(t.dep, &t.assignment);
        assert!(engine.next_trigger_where(&order, |_, _| true).is_none());
        let e_ab = engine
            .fact_index()
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
            .next_trigger_where(&order, |_, _| true)
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
            engine.next_trigger_where(&order, |_, _| true).is_none(),
            "retracted facts must not fire triggers"
        );
        assert!(engine.instance().is_empty());
    }

    #[test]
    fn retracting_a_dead_or_unknown_id_is_a_noop() {
        let p = parse_program("r: E(?x, ?y) -> N(?y). E(a, b).").unwrap();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let e_ab = engine
            .fact_index()
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
        while let Some(t) = engine.next_active_trigger(&order) {
            engine.apply_trigger(t.dep, &t.assignment);
            steps += 1;
            assert!(steps < 100, "diverged");
        }
        // Closure of a 4-chain has 6 edges.
        assert_eq!(engine.instance().len(), 6);
    }
}
