//! Shard-partitioned parallel trigger discovery over a shared indexed instance.
//!
//! Trigger discovery — seeding the join engine from every delta fact — is
//! embarrassingly parallel: it only *reads* the instance. This module runs the
//! semi-naive search of [`TriggerEngine`](crate::TriggerEngine) across worker
//! threads:
//!
//! 1. the delta batch (one round's worth of new facts, in FIFO = ascending
//!    [`FactId`] order) is split into contiguous chunks — disjoint `FactId`
//!    ranges — one per worker;
//! 2. each chunk becomes a job on the persistent process-wide worker pool
//!    ([`chase_core::pool`]) — long-lived threads fed by channels, so the
//!    per-round `thread::scope` spawn cost of the first parallel cut is gone —
//!    and every job walks its chunk in order against a shared borrow of the
//!    [`IndexedInstance`], collecting the candidate triggers its seeds discover that
//!    pass the caller's filter;
//! 3. the per-worker results are concatenated **in chunk order**, which
//!    reconstructs exactly the order a single-threaded drain would have produced
//!    — so the merged candidate list is independent of the worker count.
//!
//! The round-batching caller (the oblivious runner in `chase_engine`) dedups the
//! merged list and applies the survivors in that same order. See the "Parallel
//! execution" section of `crates/README.md` for the determinism contract.

use crate::engine::Trigger;
use chase_core::hash::FastMap;
use chase_core::pool::{self, ScopedJob};
use chase_core::{
    Assignment, DepId, DependencySet, DiscoveryStats, FactId, HomomorphismSearch, IndexedInstance,
    Predicate, ShardStats,
};
use std::ops::ControlFlow;
use std::time::Instant;

/// Below this many delta facts a batch is discovered inline: spawning workers
/// would cost more than the joins. Purely a latency knob — discovery order (and
/// therefore every chase result) is identical either way.
const MIN_PARALLEL_BATCH: usize = 16;

/// For each predicate, the body-atom positions that can unify with a fact of that
/// predicate: `(dependency, body atom index)` pairs, in dependency-set order.
///
/// Built once per dependency set so a delta fact visits only the seed atoms it can
/// actually match (shared by the sequential [`TriggerEngine`](crate::TriggerEngine)
/// drain and the parallel workers here).
#[derive(Clone, Debug, Default)]
pub struct SeedAtoms {
    by_predicate: FastMap<Predicate, Vec<(DepId, usize)>>,
}

impl SeedAtoms {
    /// Indexes the body atoms of `sigma` by predicate.
    pub fn new(sigma: &DependencySet) -> Self {
        let mut by_predicate: FastMap<Predicate, Vec<(DepId, usize)>> = FastMap::default();
        for (id, dep) in sigma.iter() {
            for (atom_index, atom) in dep.body().iter().enumerate() {
                by_predicate
                    .entry(atom.predicate)
                    .or_default()
                    .push((id, atom_index));
            }
        }
        SeedAtoms { by_predicate }
    }

    /// The `(dependency, body atom index)` seeds unifiable with a fact of
    /// `predicate` (empty if no body mentions it).
    pub fn seeds_for(&self, predicate: Predicate) -> &[(DepId, usize)] {
        self.by_predicate
            .get(&predicate)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// Visits every candidate trigger seeded from `fact`, with its body image
/// (one fact id per body atom, in body order), in the deterministic order of
/// the sequential drain: seed atoms in dependency-set order, join enumeration
/// order within each seed. Shared by the shard jobs here and the
/// [`TriggerEngine`](crate::TriggerEngine)'s drain and retraction. The
/// searches bind into `scratch`.
pub(crate) fn discover_from(
    sigma: &DependencySet,
    seeds: &SeedAtoms,
    index: &IndexedInstance,
    fact: FactId,
    scratch: &mut Assignment,
    visit: &mut impl FnMut(DepId, &Assignment, &[FactId]),
) {
    let predicate = index.store().predicate_of(fact);
    for &(dep, seed_index) in seeds.seeds_for(predicate) {
        let body = sigma.get(dep).body();
        HomomorphismSearch::over_index(body, index).for_each_seeded_id::<()>(
            seed_index,
            fact,
            scratch,
            &mut |h, image| {
                visit(dep, h, image);
                ControlFlow::Continue(())
            },
        );
    }
}

/// Discovers the candidate triggers of a whole delta batch against `index`,
/// sharding the batch across up to `workers` pool workers.
///
/// The returned list is in **batch order** regardless of the worker count: worker
/// `w` processes the `w`-th contiguous chunk (a disjoint `FactId` range when the
/// batch is in insertion order) and the chunks are concatenated in order.
///
/// `keep` runs on the workers, so a rejected candidate is never cloned or
/// handed back (the round runner passes a read-only fired-key test). No dedup
/// is performed — callers dedup the list in this order, so that cross-shard
/// duplicates resolve exactly as in a sequential drain.
///
/// With `stats`, the call also records per-shard accounting — fact ids
/// scanned, triggers found and wall-clock per worker (measured inside the
/// worker) — and the end-to-end batch wall-clock. The candidate list is the
/// same either way; the extra cost is a few `Instant::now()` calls, which is
/// why the chase runners only pass `stats` when an observer asks for phase
/// events.
pub fn discover_batch(
    sigma: &DependencySet,
    seeds: &SeedAtoms,
    index: &IndexedInstance,
    batch: &[FactId],
    workers: usize,
    keep: &(impl Fn(DepId, &Assignment) -> bool + Sync),
    mut stats: Option<&mut DiscoveryStats>,
) -> Vec<Trigger> {
    let started = stats.is_some().then(Instant::now);
    // One shard's discoveries, its actual length (`facts_scanned` — recomputing
    // it from the chunk arithmetic breaks silently under non-uniform
    // chunking), and its wall-clock when instrumented.
    let discover_shard = |shard: &[FactId]| {
        let shard_start = started.map(|_| Instant::now());
        let mut out = Vec::new();
        let mut scratch = Assignment::new();
        for &fact in shard {
            discover_from(sigma, seeds, index, fact, &mut scratch, &mut |dep, h, _| {
                if keep(dep, h) {
                    out.push(Trigger {
                        dep,
                        assignment: h.clone(),
                    });
                }
            });
        }
        (out, shard.len(), shard_start.map(|s| s.elapsed()))
    };
    // `workers(0)` is defined to mean sequential execution, the same as 1 —
    // normalized here (not left to the `<= 1` guard) so the invariant holds
    // even if the guard's threshold ever changes.
    let workers = workers.max(1);
    let results = if workers == 1 || batch.len() < MIN_PARALLEL_BATCH.max(workers) {
        vec![discover_shard(batch)]
    } else {
        let discover_shard = &discover_shard;
        let jobs: Vec<ScopedJob<'_, _>> = batch
            .chunks(batch.len().div_ceil(workers))
            .map(|shard| Box::new(move || discover_shard(shard)) as ScopedJob<'_, _>)
            .collect();
        pool::with_workers(workers).run_jobs(jobs)
    };
    let mut merged = Vec::new();
    for (worker, (out, scanned, elapsed)) in results.into_iter().enumerate() {
        if let Some(stats) = stats.as_deref_mut() {
            stats.shards.push(ShardStats {
                worker,
                facts_scanned: scanned,
                triggers_found: out.len(),
                elapsed: elapsed.unwrap_or_default(),
            });
        }
        merged.extend(out);
    }
    if let (Some(stats), Some(started)) = (stats, started) {
        stats.elapsed = started.elapsed();
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;
    use chase_core::term::Constant;
    use chase_core::{Fact, GroundTerm};

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }

    fn keep_all(_: DepId, _: &Assignment) -> bool {
        true
    }

    fn edge(a: &str, b: &str) -> Fact {
        Fact::from_parts("E", vec![gc(a), gc(b)])
    }

    /// A 40-edge chain, and its fact ids in insertion order.
    fn chain_batch() -> (IndexedInstance, Vec<FactId>) {
        let mut index = IndexedInstance::new();
        let batch = (0..40)
            .map(|i| {
                index
                    .insert_full(edge(&format!("v{i}"), &format!("v{}", i + 1)))
                    .0
            })
            .collect();
        (index, batch)
    }

    #[test]
    fn seed_atoms_index_bodies_by_predicate() {
        let sigma =
            parse_dependencies("r1: E(?x, ?y), N(?y) -> N(?x). r2: N(?x) -> M(?x).").unwrap();
        let seeds = SeedAtoms::new(&sigma);
        assert_eq!(
            seeds.seeds_for(chase_core::Predicate::new("E", 2)),
            &[(DepId(0), 0)]
        );
        assert_eq!(
            seeds.seeds_for(chase_core::Predicate::new("N", 1)),
            &[(DepId(0), 1), (DepId(1), 0)]
        );
        assert!(seeds
            .seeds_for(chase_core::Predicate::new("Missing", 1))
            .is_empty());
    }

    #[test]
    fn batch_order_is_independent_of_worker_count() {
        let sigma = parse_dependencies("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).").unwrap();
        let seeds = SeedAtoms::new(&sigma);
        let (index, batch) = chain_batch();
        let discover =
            |workers| discover_batch(&sigma, &seeds, &index, &batch, workers, &keep_all, None);
        let sequential = discover(1);
        assert!(!sequential.is_empty());
        // A filter drops candidates in place: the survivors keep batch order.
        let y = chase_core::Variable::new("y");
        let keep = |_, h: &Assignment| h.get(y) != Some(gc("v7"));
        let mut kept = sequential.clone();
        kept.retain(|t| keep(t.dep, &t.assignment));
        assert!(kept.len() < sequential.len());
        // `workers(0)` is defined as sequential execution (normalized to 1).
        for workers in [0, 2, 3, 4, 8] {
            assert_eq!(
                sequential,
                discover(workers),
                "merged discovery order diverged at {workers} workers"
            );
            let filtered = discover_batch(&sigma, &seeds, &index, &batch, workers, &keep, None);
            assert_eq!(
                kept, filtered,
                "filtered order diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn instrumented_discovery_matches_and_accounts_for_every_seed() {
        let sigma = parse_dependencies("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).").unwrap();
        let (index, batch) = chain_batch();
        let seeds = SeedAtoms::new(&sigma);
        let plain = discover_batch(&sigma, &seeds, &index, &batch, 1, &keep_all, None);
        for workers in [1, 4] {
            let mut stats = DiscoveryStats::default();
            let found = discover_batch(
                &sigma,
                &seeds,
                &index,
                &batch,
                workers,
                &keep_all,
                Some(&mut stats),
            );
            assert_eq!(found, plain, "instrumentation changed discovery output");
            assert_eq!(stats.shards.len(), workers);
            assert_eq!(stats.facts_scanned(), batch.len());
            assert_eq!(stats.triggers_found(), found.len());
            let shard_total: usize = stats.shards.iter().map(|s| s.triggers_found).sum();
            assert_eq!(shard_total, found.len());
            assert_eq!(
                stats.shards.iter().map(|s| s.worker).collect::<Vec<_>>(),
                (0..workers).collect::<Vec<_>>()
            );
        }
    }
}
