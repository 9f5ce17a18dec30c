//! Read-only, `Send + Sync` snapshots of indexed instances for parallel readers.
//!
//! A [`Snapshot`] freezes an [`IndexedInstance`] behind a shared borrow so that any
//! number of worker threads can run joins against it concurrently — the substrate of
//! round-parallel trigger discovery in `chase_trigger`/`chase_engine`. It is a pure
//! view: it owns nothing, costs nothing to copy, and exposes only the read side of
//! the instance (arena term slices, candidate buckets, the join engine).
//!
//! ## Why this is sound
//!
//! * The [`FactStore`] arena is **append-only** and has no interior mutability on
//!   its read path: every `&self` method reads plain `Vec`/`HashMap` state, so
//!   sharing `&FactStore` across threads is data-race-free by construction (the
//!   open-addressing dedup table is probed read-only by `lookup`; only `&mut self`
//!   interning mutates it).
//! * The [`IndexedInstance`] position/null indexes are likewise only mutated
//!   through `&mut self`; its one piece of interior mutability — the `probe_count`
//!   diagnostics counter — is an `AtomicU64` precisely so the type stays `Sync`.
//! * The snapshot holds a shared borrow for its whole lifetime, so the borrow
//!   checker rules out *any* concurrent mutation, including
//!   [`Instance::compact`](crate::Instance::compact), which re-issues every
//!   [`FactId`] and would otherwise dangle ids captured by the snapshot:
//!
//! ```compile_fail
//! use chase_core::snapshot::Snapshot;
//! use chase_core::{Fact, GroundTerm, IndexedInstance, Instance, NullValue};
//!
//! let mut indexed = IndexedInstance::new();
//! indexed.insert(Fact::from_parts(
//!     "E",
//!     vec![GroundTerm::Null(NullValue(0)), GroundTerm::Null(NullValue(1))],
//! ));
//! let ids: Vec<_> = indexed.instance().fact_ids().collect();
//! let snapshot = Snapshot::new(&indexed);
//! // `compact()` needs the owned instance back, which moves `indexed` while the
//! // snapshot still borrows it: rejected at compile time (E0505). A snapshot taken
//! // before a compaction can therefore never observe re-issued (dangling) ids.
//! let mut instance = indexed.into_instance();
//! instance.compact();
//! let _ = snapshot.terms(ids[0]);
//! ```
//!
//! On top of the compile-time guarantee, every id-keyed accessor also carries a
//! runtime assert against the snapshot's interning horizon (the store length at
//! snapshot time), so an id fabricated out of thin air — or smuggled in from a
//! *different* store — fails loudly instead of reading someone else's span.

use std::time::Duration;

use crate::atom::{Atom, Predicate};
use crate::fact_store::{FactId, FactStore, FactTerms};
use crate::homomorphism::{Assignment, HomomorphismSearch};
use crate::index::IndexedInstance;
use crate::instance::Instance;

/// Work done by one worker over its shard of a snapshot during a single
/// discovery batch: how many interned fact ids it scanned as seeds, how many
/// triggers its joins produced, and how long the shard took wall-clock.
///
/// Shard stats are the raw material for attributing parallel-discovery cost:
/// a balanced round has near-equal `elapsed` across workers, while a skewed
/// predicate distribution shows up as one hot shard. They are collected by
/// `chase_trigger::parallel::discover_batch` (when asked for stats) and surfaced
/// through the `ChaseObserver::discovery_completed` phase event.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Index of the worker that processed the shard (0-based; sequential
    /// discovery reports a single shard for worker 0).
    pub worker: usize,
    /// Seed fact ids scanned by this shard.
    pub facts_scanned: usize,
    /// Triggers the shard's joins produced that the caller's filter kept
    /// (before cross-shard dedup).
    pub triggers_found: usize,
    /// Wall-clock time of the shard, measured inside the worker.
    pub elapsed: Duration,
}

/// One discovery batch: the per-worker [`ShardStats`] plus the wall-clock of
/// the whole batch as seen by the coordinating thread (spawn + join overhead
/// included, which is why `elapsed` can exceed the max shard time).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiscoveryStats {
    /// Per-worker shard statistics, in worker order.
    pub shards: Vec<ShardStats>,
    /// End-to-end batch wall-clock (coordinator view).
    pub elapsed: Duration,
}

impl DiscoveryStats {
    /// Total seed fact ids scanned across all shards.
    pub fn facts_scanned(&self) -> usize {
        self.shards.iter().map(|s| s.facts_scanned).sum()
    }

    /// Total triggers produced across all shards (before dedup).
    pub fn triggers_found(&self) -> usize {
        self.shards.iter().map(|s| s.triggers_found).sum()
    }
}

/// A read-only view of an [`IndexedInstance`] frozen at construction time.
///
/// `Snapshot` is `Copy` (it is two words plus two counters) and `Send + Sync`, so
/// every job handed to the persistent worker pool ([`crate::pool`]) can carry its
/// own copy. See the [module docs](self) for the soundness argument and the
/// compile-time `compact()` guarantee.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot<'a> {
    indexed: &'a IndexedInstance,
    /// Live fact count at snapshot time.
    live: usize,
    /// Interned fact count at snapshot time — the id horizon: every `FactId` below
    /// it is valid for the whole lifetime of the snapshot (the store is
    /// append-only), everything at or above it is rejected.
    horizon: usize,
}

impl<'a> Snapshot<'a> {
    /// Freezes `indexed` into a shareable read-only view.
    pub fn new(indexed: &'a IndexedInstance) -> Self {
        Snapshot {
            indexed,
            live: indexed.len(),
            horizon: indexed.store().len(),
        }
    }

    /// The underlying indexed instance (for the join engine's
    /// [`HomomorphismSearch::over_index`]).
    pub fn indexed(&self) -> &'a IndexedInstance {
        self.indexed
    }

    /// The underlying instance.
    pub fn instance(&self) -> &'a Instance {
        self.indexed.instance()
    }

    /// The arena-interned fact store behind the snapshot.
    pub fn store(&self) -> &'a FactStore {
        self.indexed.store()
    }

    /// Number of live facts at snapshot time.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` iff the snapshot saw no live facts.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The id horizon: the number of interned facts at snapshot time. Every
    /// [`FactId`] strictly below the horizon is resolvable through this snapshot.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    #[track_caller]
    fn check(&self, id: FactId) {
        assert!(
            (id.0 as usize) < self.horizon,
            "FactId({}) is beyond this snapshot's interning horizon ({}); \
             it was not interned in the snapshotted store",
            id.0,
            self.horizon
        );
    }

    /// The argument terms of an interned fact (runtime-checked against the
    /// horizon), as a [`FactTerms`] view over the store's column strips.
    #[track_caller]
    pub fn terms(&self, id: FactId) -> FactTerms<'a> {
        self.check(id);
        self.store().terms(id)
    }

    /// The predicate of an interned fact (runtime-checked against the horizon).
    #[track_caller]
    pub fn predicate_of(&self, id: FactId) -> Predicate {
        self.check(id);
        self.store().predicate_of(id)
    }

    /// Returns `true` iff the interned fact was live at snapshot time.
    #[track_caller]
    pub fn contains_id(&self, id: FactId) -> bool {
        self.check(id);
        self.indexed.instance().contains_id(id)
    }

    /// A join over the snapshot: homomorphism search from `atoms` through the
    /// maintained indexes. Workers call this concurrently; the search itself only
    /// reads.
    pub fn search(&self, atoms: &'a [Atom]) -> HomomorphismSearch<'a> {
        HomomorphismSearch::over_index(atoms, self.indexed)
    }

    /// The candidate fact ids for `atom` under `assignment` — see
    /// [`IndexedInstance::candidates_for`].
    pub fn candidates_for(&self, atom: &Atom, assignment: &Assignment) -> &'a [FactId] {
        self.indexed.candidates_for(atom, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Fact;
    use crate::term::{Constant, GroundTerm, NullValue};
    use std::ops::ControlFlow;

    fn cst(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }

    /// The tentpole contract: snapshots (and the store/index they view) cross
    /// thread boundaries. A compile-time assertion, not a runtime test.
    #[test]
    fn snapshot_store_and_index_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot<'_>>();
        assert_send_sync::<FactStore>();
        assert_send_sync::<IndexedInstance>();
        assert_send_sync::<Instance>();
    }

    #[test]
    fn snapshot_reads_match_the_instance() {
        let mut indexed = IndexedInstance::new();
        let (id, _) = indexed.insert_full(Fact::from_parts("E", vec![cst("a"), cst("b")]));
        indexed.insert(Fact::from_parts("N", vec![cst("a")]));
        let snap = Snapshot::new(&indexed);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.horizon(), 2);
        assert!(snap.contains_id(id));
        assert_eq!(snap.terms(id), &[cst("a"), cst("b")]);
        assert_eq!(snap.predicate_of(id), Predicate::new("E", 2));
    }

    #[test]
    fn concurrent_readers_share_one_snapshot() {
        let mut indexed = IndexedInstance::new();
        for i in 0..64 {
            indexed.insert(Fact::from_parts(
                "E",
                vec![cst(&format!("v{i}")), cst(&format!("v{}", i + 1))],
            ));
        }
        let snap = Snapshot::new(&indexed);
        let atoms = vec![crate::builder::atom(
            "E",
            vec![crate::builder::var("x"), crate::builder::var("y")],
        )];
        let atoms = &atoms;
        let counts: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        let mut n = 0usize;
                        snap.search(atoms).for_each_extending::<()>(
                            &Assignment::new(),
                            &mut |_| {
                                n += 1;
                                ControlFlow::Continue(())
                            },
                        );
                        n
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts, vec![64; 4]);
    }

    /// Satellite regression: the *runtime* half of the dangling-id protection. The
    /// compile-time half (a snapshot taken before `compact()` cannot be used after
    /// it) is pinned by the `compile_fail` doctest in the module docs.
    #[test]
    #[should_panic(expected = "beyond this snapshot's interning horizon")]
    fn ids_beyond_the_horizon_are_rejected() {
        let mut indexed = IndexedInstance::new();
        indexed.insert(Fact::from_parts("N", vec![cst("a")]));
        let snap = Snapshot::new(&indexed);
        // FactId(1) was never interned here: a compacted-elsewhere or foreign id.
        let _ = snap.terms(FactId(1));
    }

    #[test]
    #[should_panic(expected = "beyond this snapshot's interning horizon")]
    fn nulls_do_not_widen_the_horizon() {
        let mut indexed = IndexedInstance::new();
        indexed.insert(Fact::from_parts(
            "E",
            vec![GroundTerm::Null(NullValue(3)), cst("a")],
        ));
        let snap = Snapshot::new(&indexed);
        let _ = snap.predicate_of(FactId(7));
    }
}
