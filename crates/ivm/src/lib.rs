//! # chase_ivm
//!
//! Incremental view maintenance for chased models: keep the result of a
//! (semi-)oblivious chase **live** under a stream of base-fact inserts and
//! retracts, without re-running the chase from scratch on every change.
//!
//! ```
//! use chase_core::parser::parse_program;
//! use chase_core::{Constant, Fact, GroundTerm};
//! use chase_engine::Chase;
//! use chase_ivm::ChaseMaterialization;
//!
//! fn edge(x: &str, y: &str) -> Fact {
//!     let c = |s| GroundTerm::Const(Constant::new(s));
//!     Fact::from_parts("E", vec![c(x), c(y)])
//! }
//!
//! let p = parse_program(
//!     "t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, b). E(b, c).",
//! )
//! .unwrap();
//! // One full chase up front...
//! let run = Chase::semi_oblivious(&p.dependencies)
//!     .materialize(&p.database)
//!     .unwrap();
//! let mut live = ChaseMaterialization::from_run(&p.dependencies, run).unwrap();
//! // ...then cheap repairs as the base changes.
//! let stats = live.insert([edge("c", "d")]).unwrap();
//! assert!(stats.triggers_fired >= 2);
//! let stats = live.retract([edge("a", "b")]).unwrap();
//! assert!(stats.retracted == 1 && stats.overdeleted >= 1);
//! ```
//!
//! ## Why the (semi-)oblivious chase — and only it — is maintainable
//!
//! Maintenance needs step semantics *monotone in the base*: growing the base
//! may only fire more triggers, never un-justify an old one. The oblivious
//! variants have exactly that shape — a trigger fires iff its key has not
//! fired — so an insert batch is literally the tail of a longer run, and a
//! retract batch can be repaired by deciding, per fired key, whether a body
//! witness still exists. The standard chase's activity check and the core
//! chase's folding are non-monotone; [`chase_engine::Chase::materialize`]
//! rejects them up front.
//!
//! The maintained invariant, pinned by the differential suite: after any
//! sequence of batches, the live instance is isomorphic up to null renaming
//! ([`chase_core::isomorphic_up_to_null_renaming`]) to a from-scratch chase
//! of the current base.
//!
//! See [`maintain`] for the repair algorithms (semi-naive forward deltas for
//! inserts, DRed overdelete/rederive on the [`ledger`] for retracts, full
//! replay when a retraction invalidates an EGD rewrite) and [`ledger`] for
//! the support structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod maintain;

pub use ledger::{RecordKind, SupportLedger, SupportRecord};
pub use maintain::ChaseMaterialization;

use chase_engine::{EgdViolation, MaterializeError};
use chase_obs::RunReport;
use std::fmt;
use std::time::Duration;

/// Why a maintenance call failed.
#[derive(Clone, Debug)]
pub enum IvmError {
    /// A previous batch left the model unrepairable; the materialization
    /// rejects all further work (rebuild it with
    /// [`ChaseMaterialization::from_run`]).
    Poisoned,
    /// The repair chase hit a hard EGD violation: the updated base has no
    /// model (`⊥`). The materialization is poisoned.
    Violation(EgdViolation),
    /// The EGD replay fallback could not re-materialize the surviving base.
    /// The materialization is poisoned.
    Replay(MaterializeError),
    /// [`ChaseMaterialization::from_run`] was given a dependency set other
    /// than the one the run was chased with.
    Reconstruction(&'static str),
}

impl fmt::Display for IvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IvmError::Poisoned => write!(
                f,
                "the materialization is poisoned by an earlier failure; rebuild it from a fresh run"
            ),
            IvmError::Violation(v) => write!(f, "the updated base has no model: {v}"),
            IvmError::Replay(e) => write!(f, "EGD replay fallback failed: {e}"),
            IvmError::Reconstruction(why) => write!(f, "run reconstruction failed: {why}"),
        }
    }
}

impl std::error::Error for IvmError {}

/// What one [`insert`](ChaseMaterialization::insert) /
/// [`retract`](ChaseMaterialization::retract) batch did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// New facts added to the instance by the batch itself.
    pub inserted: usize,
    /// Base facts actually removed from the base (requests naming unknown or
    /// derived-only facts are ignored).
    pub retracted: usize,
    /// Chase steps applied during repair (the honest cost of the batch; a
    /// from-scratch re-chase would pay its full step count instead).
    pub triggers_fired: usize,
    /// Facts removed by the DRed overdelete pass (after pruning facts with
    /// surviving derivations).
    pub overdeleted: usize,
    /// Facts brought back by the rederive pass.
    pub rederived: usize,
    /// `true` iff the batch invalidated an EGD rewrite and fell back to
    /// replaying the materialization from the surviving base.
    pub egd_replay: bool,
    /// Instance size after the repair.
    pub facts_after: usize,
    /// Records the support ledger holds after the repair.
    pub ledger_len: usize,
    /// Wall-clock spent in the batch.
    pub elapsed: Duration,
    /// Wall-clock spent killing the records that lean on retracted facts.
    pub overdelete: Duration,
    /// Wall-clock spent sparing overdeleted facts that kept a derivation.
    pub prune: Duration,
    /// Wall-clock spent removing the dead facts from the engine.
    pub removal: Duration,
    /// Wall-clock spent reviving dead records, then un-firing and reclaiming
    /// the ones that stayed dead.
    pub rederive: Duration,
    /// Wall-clock spent chasing the batch's deltas (inserts and resurrected
    /// facts).
    pub drain: Duration,
}

impl BatchStats {
    /// Folds another batch's numbers into this one (`facts_after` and
    /// `ledger_len` are taken from `other`, the later batch).
    pub fn absorb(&mut self, other: &BatchStats) {
        self.inserted += other.inserted;
        self.retracted += other.retracted;
        self.triggers_fired += other.triggers_fired;
        self.overdeleted += other.overdeleted;
        self.rederived += other.rederived;
        self.egd_replay |= other.egd_replay;
        self.facts_after = other.facts_after;
        self.ledger_len = other.ledger_len;
        self.elapsed += other.elapsed;
        self.overdelete += other.overdelete;
        self.prune += other.prune;
        self.removal += other.removal;
        self.rederive += other.rederive;
        self.drain += other.drain;
    }

    /// The named repair phases in batch order, with their wall-clock times.
    /// They never sum to more than `elapsed`; an EGD replay's re-chase is in
    /// no phase.
    pub fn phases(&self) -> [(&'static str, Duration); 5] {
        [
            ("overdelete", self.overdelete),
            ("prune", self.prune),
            ("removal", self.removal),
            ("rederive", self.rederive),
            ("drain", self.drain),
        ]
    }

    /// Appends the batch's numbers to a report's annotations, under an
    /// `ivm.` prefix (`prefix` distinguishes multiple batches per report).
    pub fn annotate(&self, report: &mut RunReport, prefix: &str) {
        let mut push = |k: &str, v: String| {
            report.annotate(format!("ivm.{prefix}{k}"), v);
        };
        push("inserted", self.inserted.to_string());
        push("retracted", self.retracted.to_string());
        push("triggers_fired", self.triggers_fired.to_string());
        push("overdeleted", self.overdeleted.to_string());
        push("rederived", self.rederived.to_string());
        push("egd_replay", self.egd_replay.to_string());
        push("facts_after", self.facts_after.to_string());
        push("ledger_len", self.ledger_len.to_string());
        push("elapsed_ns", self.elapsed.as_nanos().to_string());
        for (phase, time) in self.phases() {
            push(&format!("{phase}_ns"), time.as_nanos().to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;
    use chase_core::{isomorphic_up_to_null_renaming, Constant, Fact, GroundTerm, Program};
    use chase_engine::Chase;

    fn fact(p: &str, terms: &[&str]) -> Fact {
        Fact::from_parts(
            p,
            terms
                .iter()
                .map(|&t| GroundTerm::Const(Constant::new(t)))
                .collect(),
        )
    }

    fn materialize(p: &Program) -> ChaseMaterialization<'_> {
        let run = Chase::semi_oblivious(&p.dependencies)
            .materialize(&p.database)
            .unwrap();
        ChaseMaterialization::from_run(&p.dependencies, run).unwrap()
    }

    /// The pinned invariant: the live instance matches a from-scratch chase
    /// of the live base, up to null renaming.
    fn assert_matches_rechase(live: &ChaseMaterialization<'_>) {
        let base = live.base_instance();
        let fresh = Chase::oblivious(live.sigma(), live.variant())
            .run(&base)
            .into_instance()
            .expect("the maintained base must still have a model");
        assert!(
            isomorphic_up_to_null_renaming(live.instance(), &fresh),
            "live instance diverged from re-chase:\nlive = {:?}\nfresh = {:?}",
            live.instance().sorted_facts(),
            fresh.sorted_facts()
        );
    }

    #[test]
    fn from_run_reconstructs_the_recorded_instance() {
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            g: N(?x) -> exists ?y: E(?x, ?y).
            E(a, b). E(b, c). N(d).
            "#,
        )
        .unwrap();
        let run = Chase::semi_oblivious(&p.dependencies)
            .materialize(&p.database)
            .unwrap();
        let expected = run.instance().clone();
        let live = ChaseMaterialization::from_run(&p.dependencies, run).unwrap();
        assert_eq!(live.instance(), &expected);
        assert_eq!(live.base_len(), 3);
        assert!(live.ledger().len() >= 2);
    }

    #[test]
    fn inserts_ride_the_delta_path_and_match_a_rechase() {
        let p = parse_program("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, b). E(b, c).").unwrap();
        let mut live = materialize(&p);
        let stats = live.insert([fact("E", &["c", "d"])]).unwrap();
        assert_eq!(stats.inserted, 1);
        // b→d and a→d close (the two derivations of a→d share one
        // semi-oblivious key, so they count as a single step).
        assert_eq!(stats.triggers_fired, 2);
        assert_matches_rechase(&live);
        // Re-inserting an existing fact is a no-op batch.
        let stats = live.insert([fact("E", &["a", "b"])]).unwrap();
        assert_eq!((stats.inserted, stats.triggers_fired), (0, 0));
    }

    #[test]
    fn retraction_overdeletes_the_derived_cone() {
        let p = parse_program("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, b). E(b, c). E(c, d).")
            .unwrap();
        let mut live = materialize(&p);
        assert_eq!(live.instance().len(), 6);
        let stats = live.retract([fact("E", &["a", "b"])]).unwrap();
        assert_eq!(stats.retracted, 1);
        // E(a,b), E(a,c), E(a,d) all die; nothing rederives.
        assert_eq!(stats.overdeleted, 3);
        assert_eq!(stats.rederived, 0);
        assert_eq!(live.instance().len(), 3);
        assert_matches_rechase(&live);
    }

    #[test]
    fn retraction_keeps_facts_with_alternative_derivations() {
        // D(a,c) is derived both through b and directly as base; dropping the
        // base copy keeps it; dropping E(a,b) afterwards keeps it via base?
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> D(?x, ?z).
            E(a, b). E(b, c). E(a, d). E(d, c).
            "#,
        )
        .unwrap();
        let mut live = materialize(&p);
        // D(a,c) has two derivations (via b and via d).
        let stats = live.retract([fact("E", &["a", "b"])]).unwrap();
        assert_eq!(stats.retracted, 1);
        assert!(live.instance().contains(&fact("D", &["a", "c"])));
        assert_matches_rechase(&live);
        // Now drop the second path too: D(a,c) must finally die.
        live.retract([fact("E", &["a", "d"])]).unwrap();
        assert!(!live.instance().contains(&fact("D", &["a", "c"])));
        assert_matches_rechase(&live);
    }

    #[test]
    fn retraction_rederives_through_the_ledger_key() {
        // The rederive pass must find the alternative body witness for the
        // same fired key (same frontier image x=a, z=c through y=d).
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> D(?x, ?z).
            E(a, b). E(b, c). E(a, d). E(d, c).
            "#,
        )
        .unwrap();
        let mut live = materialize(&p);
        let stats = live.retract([fact("E", &["a", "b"])]).unwrap();
        // Only one record exists for D(a,c) — the via-d derivation has the
        // same frontier key and never fired separately — so the fact is
        // overdeleted, then the rederive pass finds the via-d witness for the
        // same key and brings it back.
        assert_eq!(stats.overdeleted, 2, "E(a,b) and D(a,c)");
        assert_eq!(stats.rederived, 1, "D(a,c) resurrects through y=d");
        assert!(live.instance().contains(&fact("D", &["a", "c"])));
        assert_matches_rechase(&live);
    }

    #[test]
    fn cyclic_derivations_die_together() {
        // A(x) and B(x) support each other; only the base seed keeps the
        // cycle alive. Naive counting would leave the cycle dangling.
        let p = parse_program(
            r#"
            ab: A(?x) -> B(?x).
            ba: B(?x) -> A(?x).
            seed: S(?x) -> A(?x).
            S(a).
            "#,
        )
        .unwrap();
        let mut live = materialize(&p);
        assert_eq!(live.instance().len(), 3);
        let stats = live.retract([fact("S", &["a"])]).unwrap();
        assert_eq!(stats.retracted, 1);
        assert_eq!(live.instance().len(), 0, "the unsupported cycle must die");
        assert_matches_rechase(&live);
    }

    #[test]
    fn retract_then_reinsert_refires_the_unfired_keys() {
        let p = parse_program("g: N(?x) -> exists ?y: E(?x, ?y). N(a). N(b).").unwrap();
        let mut live = materialize(&p);
        assert_eq!(live.instance().len(), 4);
        live.retract([fact("N", &["a"])]).unwrap();
        assert_eq!(live.instance().len(), 2);
        // The key for N(a) was un-fired: re-inserting must re-derive a
        // successor (a fresh null — isomorphic, not identical).
        let stats = live.insert([fact("N", &["a"])]).unwrap();
        assert_eq!(stats.triggers_fired, 1);
        assert_eq!(live.instance().len(), 4);
        assert_matches_rechase(&live);
    }

    #[test]
    fn egd_bearing_retraction_falls_back_to_replay() {
        let p = parse_program(
            r#"
            g: Emp(?x) -> exists ?d: Works(?x, ?d).
            k: Works(?x, ?d1), Works(?x, ?d2) -> ?d1 = ?d2.
            Emp(e). Works(e, hq).
            "#,
        )
        .unwrap();
        let mut live = materialize(&p);
        // The invented department null collapsed onto hq; retracting the base
        // Works fact invalidates that rewrite.
        let stats = live.retract([fact("Works", &["e", "hq"])]).unwrap();
        assert!(stats.egd_replay, "a dead EgdSubst record must force replay");
        assert!(stats.triggers_fired > 0, "the replay re-chased the base");
        assert_matches_rechase(&live);
        // The replayed model re-invents the null successor for Emp(e).
        assert_eq!(live.instance().len(), 2);
    }

    #[test]
    fn egd_noop_records_repair_locally() {
        // The EGD only ever fires on equal images (d = d): retraction must
        // not trip the replay fallback.
        let p = parse_program(
            r#"
            k: Works(?x, ?d1), Works(?x, ?d2) -> ?d1 = ?d2.
            t: Works(?x, ?d) -> InDept(?d).
            Works(e, hq). Works(f, hq).
            "#,
        )
        .unwrap();
        let mut live = materialize(&p);
        let stats = live.retract([fact("Works", &["f", "hq"])]).unwrap();
        assert!(!stats.egd_replay);
        assert!(live.instance().contains(&fact("InDept", &["hq"])));
        assert_matches_rechase(&live);
    }

    #[test]
    fn violating_insert_poisons_the_materialization() {
        let p = parse_program("k: P(?x, ?y), P(?x, ?z) -> ?y = ?z. P(a, b).").unwrap();
        let mut live = materialize(&p);
        let err = live.insert([fact("P", &["a", "c"])]).unwrap_err();
        assert!(matches!(err, IvmError::Violation(_)));
        assert!(live.is_poisoned());
        let err = live.insert([fact("P", &["d", "e"])]).unwrap_err();
        assert!(matches!(err, IvmError::Poisoned));
        let err = live.retract([fact("P", &["a", "b"])]).unwrap_err();
        assert!(matches!(err, IvmError::Poisoned));
    }

    #[test]
    fn derived_and_unknown_facts_are_not_retractable() {
        let p = parse_program("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, b). E(b, c).").unwrap();
        let mut live = materialize(&p);
        let stats = live
            .retract([fact("E", &["a", "c"]), fact("E", &["z", "z"])])
            .unwrap();
        assert_eq!(stats.retracted, 0);
        assert_eq!(live.instance().len(), 3);
        assert_matches_rechase(&live);
    }

    #[test]
    fn mixed_update_batches_accumulate_their_two_passes() {
        let p = parse_program("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, b). E(b, c).").unwrap();
        let mut live = materialize(&p);
        let stats = live
            .update(vec![fact("E", &["c", "d"])], vec![fact("E", &["a", "b"])])
            .unwrap();
        assert_eq!((stats.retracted, stats.inserted), (1, 1));
        assert_matches_rechase(&live);
        // An update is a retract pass then an insert pass: its stats are the
        // second absorbed into the first.
        let mut passes = materialize(&p);
        let mut absorbed = passes.retract([fact("E", &["a", "b"])]).unwrap();
        absorbed.absorb(&passes.insert([fact("E", &["c", "d"])]).unwrap());
        let counts = |s: &BatchStats| {
            (
                s.retracted,
                s.inserted,
                s.triggers_fired,
                s.overdeleted,
                s.rederived,
            )
        };
        assert_eq!(counts(&stats), counts(&absorbed));
        assert_eq!(stats.facts_after, absorbed.facts_after);
        let mut report = chase_obs::RunReport::new("ivm-smoke");
        stats.annotate(&mut report, "update.");
        assert!(report
            .annotations
            .iter()
            .any(|(k, v)| k == "ivm.update.retracted" && v == "1"));
    }

    #[test]
    fn repair_phases_sum_to_at_most_the_batch_time() {
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> D(?x, ?z).
            k: W(?x, ?d1), W(?x, ?d2) -> ?d1 = ?d2.
            g: M(?x) -> exists ?d: W(?x, ?d).
            E(a, b). E(b, c). E(a, d). E(d, c). M(e). W(e, hq).
            "#,
        )
        .unwrap();
        let mut live = materialize(&p);
        let within = |stats: &BatchStats| {
            let phases: Duration = stats.phases().iter().map(|&(_, t)| t).sum();
            assert!(phases <= stats.elapsed, "{phases:?} > {:?}", stats.elapsed);
        };
        // A retraction with a revival, an insert, a mixed batch, and a
        // retraction that falls back to replay.
        let retract = live.retract([fact("E", &["a", "b"])]).unwrap();
        assert_eq!(retract.rederived, 1);
        within(&retract);
        let insert = live.insert([fact("E", &["a", "b"])]).unwrap();
        within(&insert);
        let mut both = live
            .update(vec![fact("E", &["c", "f"])], vec![fact("E", &["d", "c"])])
            .unwrap();
        within(&both);
        assert_eq!(both.ledger_len, live.ledger().len());
        let replay = live.retract([fact("W", &["e", "hq"])]).unwrap();
        assert!(replay.egd_replay);
        within(&replay);
        assert_eq!(live.ledger().len(), live.ledger().alive_len());

        both.absorb(&replay);
        within(&both);
        let mut report = chase_obs::RunReport::new("ivm-phases");
        both.annotate(&mut report, "");
        for key in ["ivm.drain_ns", "ivm.rederive_ns", "ivm.ledger_len"] {
            assert!(report.annotations.iter().any(|(k, _)| k == key), "{key}");
        }
    }

    #[test]
    fn oblivious_variant_is_maintained_too() {
        use chase_engine::ObliviousVariant;
        let q = parse_program("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, b). E(b, a).").unwrap();
        let run = Chase::oblivious(&q.dependencies, ObliviousVariant::Oblivious)
            .materialize(&q.database)
            .unwrap();
        let mut live = ChaseMaterialization::from_run(&q.dependencies, run).unwrap();
        assert_eq!(live.variant(), ObliviousVariant::Oblivious);
        live.insert([fact("E", &["b", "c"])]).unwrap();
        live.retract([fact("E", &["a", "b"])]).unwrap();
        assert_matches_rechase(&live);
    }
}
