//! [`ChaseMaterialization`]: a chased model kept live under base updates.
//!
//! ## Repair strategy
//!
//! The materialization keeps the engine and fired keys that
//! [`Chase::materialize`] handed over, and every forward chase it runs is
//! [`chase_steps`], the per-step loop that produced the run. Each drain's step
//! log is folded into the support ledger by the same function that folds the
//! run's log in [`ChaseMaterialization::from_run`].
//!
//! **Inserts** ride the engine's semi-naive path unchanged: new base facts
//! become deltas, trigger discovery is seeded only from them, and the
//! fired-key filter guarantees no key fires twice — exactly the tail of a
//! longer from-scratch run, so the maintained instance equals (up to null
//! renaming) a re-chase of the enlarged base.
//!
//! **Retractions** are DRed (delete-and-rederive) on the support ledger:
//!
//! 1. *Overdelete*: kill every record whose body touches a deleted fact and
//!    propagate to the records' heads (base facts are never overdeleted —
//!    they are their own derivation). This over-approximates on purpose:
//!    it is what makes cyclic derivations (`A ⊢ B ⊢ A`) come out right.
//! 2. *Prune*: a fact with a surviving alive record (or base membership) is
//!    not dead after all.
//! 3. *Rederive*: each dead record searches for a fresh body witness **bound
//!    to its fired key** — the Skolem semantics of the (semi-)oblivious chase
//!    mean the same key always produces the same heads, so a witness lets the
//!    record resurrect its original heads (original nulls included) instead
//!    of inventing new ones. The record is revived in place under the new
//!    body: same key, kind and heads, no second record. Runs to a fixpoint
//!    because resurrections can feed each other.
//! 4. Keys of unrederivable records are *un-fired* so a future insert can
//!    legitimately fire them again, and the records are reclaimed: their
//!    index entries go and their slots are reused. Between steps 2 and 3 the
//!    dead facts are removed and the engine forgets their discovery dedup
//!    entries ([`TriggerEngine::retract_ids`]).
//!
//! After a batch every record the ledger holds is alive, one per fired key,
//! so the ledger is as large as the model, not its history.
//! [`BatchStats`] times each step (`overdelete`, `prune`, `removal`,
//! `rederive` with the un-firing, and `drain` for the forward chase).
//!
//! **EGD caveat**: a dead `EgdSubst` record means a null-collapsing rewrite
//! may no longer be justified, and undoing a substitution is global (it was
//! applied to the whole instance, the fired-key sets and the ledger). The
//! repair falls back to replaying the materialization from the current base,
//! under the budget of the run it was built from — correct, observable via
//! [`BatchStats::egd_replay`], and honest about the cost. EGD triggers whose
//! images were equal (`EgdNoop`) carry no rewrite and repair locally like
//! TGDs.

use crate::ledger::{RecordKind, SupportLedger, SupportRecord};
use crate::{BatchStats, IvmError};
use chase_core::{
    Assignment, Dependency, DependencySet, Fact, FactId, FactIdSet, HomomorphismSearch, Instance,
};
use chase_engine::{
    chase_steps, Chase, ChaseBudget, ChaseStats, EgdViolation, FiredKeys, MaterializeEvent,
    MaterializedRun, NoopObserver, ObliviousVariant, StepHalt,
};
use chase_trigger::TriggerEngine;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// The time since `*mark`, restarting the mark: one phase's wall-clock.
fn lap(mark: &mut Instant) -> Duration {
    let now = Instant::now();
    let time = now - *mark;
    *mark = now;
    time
}

/// A materialized (semi-)oblivious chase model, maintained incrementally
/// under base-fact [`insert`](ChaseMaterialization::insert) /
/// [`retract`](ChaseMaterialization::retract) batches.
///
/// Built from a completed [`MaterializedRun`] via
/// [`ChaseMaterialization::from_run`]; the maintained instance is guaranteed
/// isomorphic (up to null renaming) to a from-scratch re-chase of the current
/// base — the invariant the `ivm_differential` suite pins.
///
/// After an error that leaves the model unrepairable (an EGD violation, a
/// failed replay) the materialization is *poisoned* and every further call
/// returns [`IvmError::Poisoned`].
pub struct ChaseMaterialization<'a> {
    sigma: &'a DependencySet,
    variant: ObliviousVariant,
    budget: ChaseBudget,
    engine: TriggerEngine<'a>,
    fired: FiredKeys,
    ledger: SupportLedger,
    base: FactIdSet,
    poisoned: bool,
}

impl<'a> ChaseMaterialization<'a> {
    /// Takes over a completed run: its quiescent engine and fired keys as
    /// they are, and its derivation log folded into the support ledger and
    /// the base set, as a repair's drain folds its own steps. Nothing is
    /// re-chased or re-interned.
    ///
    /// `sigma` must be the dependency set the run was chased with; any other
    /// set is refused with [`IvmError::Reconstruction`]. The run's budget
    /// bounds the re-chase of an EGD replay (see the module docs).
    pub fn from_run(sigma: &'a DependencySet, run: MaterializedRun<'a>) -> Result<Self, IvmError> {
        if sigma.as_slice() != run.engine.sigma().as_slice() {
            return Err(IvmError::Reconstruction(
                "the run was chased with a different dependency set",
            ));
        }
        let mut this = ChaseMaterialization {
            sigma,
            variant: run.variant,
            budget: run.budget,
            engine: run.engine,
            fired: run.fired,
            ledger: SupportLedger::default(),
            base: run.base,
            poisoned: false,
        };
        this.fold(run.log);
        Ok(this)
    }

    /// The maintained instance (always a model of the dependencies).
    pub fn instance(&self) -> &Instance {
        self.engine.instance()
    }

    /// The maintained dependency set.
    pub fn sigma(&self) -> &'a DependencySet {
        self.sigma
    }

    /// Which oblivious variant's fired-key discipline is maintained.
    pub fn variant(&self) -> ObliviousVariant {
        self.variant
    }

    /// Number of live base facts.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// The current base as a standalone instance (what a from-scratch
    /// re-chase would start from).
    pub fn base_instance(&self) -> Instance {
        let store = self.engine.instance().store();
        Instance::from_facts(self.base.iter().map(|id| store.fact(id)))
    }

    /// The support ledger (diagnostics).
    pub fn ledger(&self) -> &SupportLedger {
        &self.ledger
    }

    /// The fired-key state (diagnostics).
    pub fn fired_keys(&self) -> &FiredKeys {
        &self.fired
    }

    /// `true` once an unrepairable error occurred; every further batch
    /// returns [`IvmError::Poisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Adds a batch of base facts and repairs the model by running the chase
    /// forward from the new deltas only.
    ///
    /// Facts already present (base or derived) gain base status but add
    /// nothing; an EGD violation caused by the new facts poisons the
    /// materialization (the model is `⊥`, there is nothing left to maintain).
    pub fn insert<I: IntoIterator<Item = Fact>>(
        &mut self,
        facts: I,
    ) -> Result<BatchStats, IvmError> {
        self.guard()?;
        let start = Instant::now();
        let mut stats = BatchStats::default();
        for fact in facts {
            let (id, new) = self.engine.push_fact_full(fact);
            self.base.insert(id);
            if new {
                stats.inserted += 1;
            }
        }
        let drain = Instant::now();
        let drained = self.drain();
        stats.drain = drain.elapsed();
        match drained {
            Ok(fires) => stats.triggers_fired = fires,
            Err(violation) => {
                self.poisoned = true;
                return Err(IvmError::Violation(violation));
            }
        }
        self.finish(stats, start)
    }

    /// Removes a batch of base facts and repairs the model by DRed
    /// overdelete/rederive on the support ledger (see the module docs).
    ///
    /// Only base facts are retractable: requests naming derived-only or
    /// unknown facts are ignored (and not counted in
    /// [`BatchStats::retracted`]).
    pub fn retract<I: IntoIterator<Item = Fact>>(
        &mut self,
        facts: I,
    ) -> Result<BatchStats, IvmError> {
        self.guard()?;
        let start = Instant::now();
        let mut stats = BatchStats::default();
        let mut requested: Vec<FactId> = Vec::new();
        for fact in facts {
            if let Some(id) = self.engine.instance().id_of(&fact) {
                if self.base.remove(id) {
                    requested.push(id);
                    stats.retracted += 1;
                }
            }
        }
        if requested.is_empty() {
            return self.finish(stats, start);
        }

        // Overdelete: kill every record leaning on a dead fact; heads of
        // killed records die too unless they are base facts. Deliberately
        // ignores alternative derivations (that is what makes cycles work) —
        // the prune and rederive passes below bring survivors back. `dead`
        // lists each overdeleted fact once, in discovery order, and the walk
        // runs over it as a queue.
        let mut phase = Instant::now();
        let mut seen = FactIdSet::new();
        let mut dead: Vec<FactId> = Vec::new();
        for id in requested {
            if seen.insert(id) {
                dead.push(id);
            }
        }
        let mut dirty: Vec<usize> = Vec::new();
        let mut next = 0;
        while let Some(&id) = dead.get(next) {
            next += 1;
            let base = &self.base;
            self.ledger.kill_consumers(id, &mut dirty, |h| {
                if !base.contains(h) && seen.insert(h) {
                    dead.push(h);
                }
            });
        }
        stats.overdelete = lap(&mut phase);
        // Prune: a fact some alive record still derives is not dead.
        dead.retain(|&id| !self.ledger.has_alive_support(id));
        stats.overdeleted = dead.len();
        stats.prune = lap(&mut phase);

        // A dead EgdSubst record would require undoing a global rewrite:
        // replay from the surviving base instead.
        if dirty
            .iter()
            .any(|&i| self.ledger.record(i).kind == RecordKind::EgdSubst)
        {
            return self.replay_from_base(stats, start);
        }

        // Physically remove the dead facts; the engine forgets the matching
        // discovery-dedup entries and purges queued work.
        self.engine.retract_ids(&dead);
        stats.removal = lap(&mut phase);

        // Rederive to a fixpoint: resurrections re-insert facts, which can
        // make further records rederivable.
        let mut remaining = dirty;
        loop {
            let before = remaining.len();
            let mut kept = Vec::with_capacity(remaining.len());
            for idx in remaining {
                if !self.try_rederive(idx, &mut stats) {
                    kept.push(idx);
                }
            }
            remaining = kept;
            if remaining.len() == before {
                break;
            }
        }
        // Un-fire the keys of records that stayed dead, so a future insert
        // completing their body fires them again (with fresh nulls — the
        // differential invariant is up to null renaming), and reclaim the
        // records: a re-firing writes a new one.
        for idx in remaining {
            let rec = self.ledger.record(idx);
            self.fired.unfire(rec.dep, &rec.key);
            self.ledger.reclaim(idx);
        }
        stats.rederive = lap(&mut phase);
        // Resurrected facts are deltas: let any downstream repair run out.
        let drained = self.drain();
        stats.drain = lap(&mut phase);
        match drained {
            Ok(fires) => stats.triggers_fired += fires,
            Err(violation) => {
                self.poisoned = true;
                return Err(IvmError::Violation(violation));
            }
        }
        self.finish(stats, start)
    }

    /// A mixed batch: retractions first, then insertions. Runs as two repair
    /// passes; the returned [`BatchStats`] are the combined totals.
    pub fn update(
        &mut self,
        inserts: Vec<Fact>,
        retracts: Vec<Fact>,
    ) -> Result<BatchStats, IvmError> {
        let mut stats = self.retract(retracts)?;
        let ins = self.insert(inserts)?;
        stats.absorb(&ins);
        Ok(stats)
    }

    fn guard(&self) -> Result<(), IvmError> {
        if self.poisoned {
            Err(IvmError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Chases the engine's queued work to quiescence on the chase's own
    /// per-step loop and folds the steps into the ledger and the base set.
    /// Returns the number of applied steps (EGD triggers with equal images
    /// consume their key but do not count).
    fn drain(&mut self) -> Result<usize, EgdViolation> {
        let mut stats = ChaseStats::default();
        let mut log = Vec::new();
        let halt = chase_steps(
            &mut self.engine,
            &mut self.fired,
            &ChaseBudget::unlimited(),
            &mut stats,
            &mut NoopObserver,
            Some(&mut log),
        );
        match halt {
            Ok(()) => {
                self.fold(log);
                Ok(stats.steps)
            }
            Err(StepHalt::Violation(violation)) => Err(violation),
            Err(StepHalt::Budget(_)) => unreachable!("an unlimited budget never trips"),
        }
    }

    /// Folds a step log into the support ledger (one record per fired key)
    /// and maps every EGD rewrite forward over the ledger and the base set.
    fn fold(&mut self, log: Vec<MaterializeEvent>) {
        let mut events = log.into_iter().peekable();
        while let Some(event) = events.next() {
            match event {
                MaterializeEvent::Fired {
                    dep,
                    key,
                    body,
                    heads,
                } => {
                    // A substitution step's `Rewritten` follows its `Fired`.
                    let kind = match self.sigma.get(dep) {
                        Dependency::Tgd(_) => RecordKind::Tgd,
                        Dependency::Egd(_)
                            if matches!(
                                events.peek(),
                                Some(MaterializeEvent::Rewritten { .. })
                            ) =>
                        {
                            RecordKind::EgdSubst
                        }
                        Dependency::Egd(_) => RecordKind::EgdNoop,
                    };
                    self.ledger.push(SupportRecord {
                        dep,
                        key,
                        body,
                        heads,
                        kind,
                        alive: true,
                    });
                }
                MaterializeEvent::Rewritten { gamma, delta } => {
                    for &(old, new) in &delta {
                        if self.base.remove(old) {
                            self.base.insert(new);
                        }
                    }
                    self.ledger.rewrite(&gamma, &delta);
                }
            }
        }
    }

    /// Tries to resurrect a dead record: searches for a body witness bound to
    /// the record's fired key and, if found, re-inserts the record's original
    /// heads (same facts, same arena ids) and revives the record in place
    /// under the new body.
    fn try_rederive(&mut self, idx: usize, stats: &mut BatchStats) -> bool {
        let rec = self.ledger.record(idx);
        let dep = self.sigma.get(rec.dep);
        let seed = self.fired.seed(rec.dep, &rec.key);
        let witness = HomomorphismSearch::over_index(dep.body(), self.engine.indexed())
            .for_each_extending(&seed, &mut |h: &Assignment| ControlFlow::Break(h.clone()));
        let Some(h) = witness else { return false };
        let instance = self.engine.instance();
        let body: Vec<FactId> = dep
            .body()
            .iter()
            .map(|atom| {
                let fact = h.apply_atom(atom).expect("body variables are bound");
                instance.id_of(&fact).expect("witness facts are live")
            })
            .collect();
        // Same key ⇒ same Skolem heads: bring back the original facts (arena
        // interning returns their original ids, so sibling records that also
        // reference them stay valid).
        let store = instance.store();
        let head_facts: Vec<Fact> = rec.heads.iter().map(|&id| store.fact(id)).collect();
        for fact in head_facts {
            let (_, new) = self.engine.push_fact_full(fact);
            if new {
                stats.rederived += 1;
            }
        }
        self.ledger.revive(idx, body);
        true
    }

    /// The EGD fallback: re-chases the surviving base from scratch, under the
    /// budget of the run the materialization was built from, and takes the
    /// new run over.
    fn replay_from_base(
        &mut self,
        mut stats: BatchStats,
        start: Instant,
    ) -> Result<BatchStats, IvmError> {
        stats.egd_replay = true;
        let run = Chase::oblivious(self.sigma, self.variant)
            .with_budget(self.budget)
            .materialize(&self.base_instance());
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                self.poisoned = true;
                return Err(IvmError::Replay(e));
            }
        };
        stats.triggers_fired += run.stats.steps;
        *self = Self::from_run(self.sigma, run).expect("the run chased this materialization's set");
        self.finish(stats, start)
    }

    fn finish(&mut self, mut stats: BatchStats, start: Instant) -> Result<BatchStats, IvmError> {
        stats.facts_after = self.engine.instance().len();
        stats.ledger_len = self.ledger.len();
        stats.elapsed = start.elapsed();
        Ok(stats)
    }
}
