//! The delta worklist: facts added or rewritten since trigger discovery last ran.

use chase_core::FactId;
use std::collections::{HashMap, VecDeque};

/// FIFO worklist of fact ids whose trigger contributions are still undiscovered.
///
/// Facts are enqueued (by their arena [`FactId`]) when a TGD step inserts them or
/// an EGD substitution rewrites them, and drained by
/// [`TriggerEngine::drain_deltas`](crate::TriggerEngine) which seeds homomorphism
/// search from each fact in turn (semi-naive evaluation). Carrying ids instead of
/// fact values means enqueueing is a 4-byte copy and the queue never clones terms.
#[derive(Clone, Debug, Default)]
pub struct DeltaQueue {
    queue: VecDeque<FactId>,
    enqueued_total: usize,
}

impl DeltaQueue {
    /// Creates an empty worklist.
    pub fn new() -> Self {
        DeltaQueue::default()
    }

    /// Enqueues a fact id.
    pub fn push(&mut self, id: FactId) {
        self.enqueued_total += 1;
        self.queue.push_back(id);
    }

    /// Dequeues the oldest fact id, if any.
    pub fn pop(&mut self) -> Option<FactId> {
        self.queue.pop_front()
    }

    /// Number of facts currently waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` iff no fact is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total number of facts ever enqueued (for diagnostics).
    pub fn enqueued_total(&self) -> usize {
        self.enqueued_total
    }

    /// Keeps only the waiting fact ids accepted by `keep`, preserving FIFO
    /// order. Retraction support: a fact removed from the instance must not be
    /// re-seeded into discovery, so
    /// [`TriggerEngine::retract_ids`](crate::TriggerEngine) purges it from the
    /// worklist. `enqueued_total` is a lifetime counter and is not rewound.
    pub fn retain(&mut self, mut keep: impl FnMut(FactId) -> bool) {
        self.queue.retain(|&id| keep(id));
    }

    /// Applies an EGD substitution's id delta to every waiting fact, keeping the
    /// worklist in lockstep with the instance: a queued fact that mentioned the
    /// substituted null no longer exists in `K γ`; its rewrite (the `new` of its
    /// `(old, new)` pair) does.
    pub fn apply_rewrites(&mut self, delta: &[(FactId, FactId)]) {
        if delta.is_empty() || self.queue.is_empty() {
            return;
        }
        let map: HashMap<FactId, FactId> = delta.iter().copied().collect();
        for id in &mut self.queue {
            if let Some(&new) = map.get(id) {
                *id = new;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_counters() {
        let mut q = DeltaQueue::new();
        q.push(FactId(0));
        q.push(FactId(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(FactId(0)));
        assert_eq!(q.pop(), Some(FactId(1)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.enqueued_total(), 2);
    }

    fn drain(q: &mut DeltaQueue) -> Vec<FactId> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn duplicate_ids_drain_in_fifo_order() {
        // The queue does not dedup: the same id pushed twice (e.g. a fact
        // rewritten onto an existing fact by two EGD substitutions) drains
        // twice, in push order. Dedup happens downstream, against the engine's
        // `seen` set — never here, so the drain order stays a pure FIFO record.
        let mut q = DeltaQueue::new();
        q.push(FactId(5));
        q.push(FactId(9));
        q.push(FactId(5));
        assert_eq!(drain(&mut q), vec![FactId(5), FactId(9), FactId(5)]);
        assert_eq!(q.enqueued_total(), 3);
    }

    #[test]
    fn retain_drops_matching_ids_preserving_order() {
        let mut q = DeltaQueue::new();
        q.push(FactId(1));
        q.push(FactId(2));
        q.push(FactId(3));
        q.push(FactId(2));
        q.retain(|id| id != FactId(2));
        assert_eq!(drain(&mut q), vec![FactId(1), FactId(3)]);
        assert_eq!(q.enqueued_total(), 4, "lifetime counter is not rewound");
    }

    #[test]
    fn rewrites_map_queued_ids() {
        let mut q = DeltaQueue::new();
        q.push(FactId(0));
        q.push(FactId(1));
        q.push(FactId(2));
        q.apply_rewrites(&[(FactId(1), FactId(7)), (FactId(2), FactId(7))]);
        assert_eq!(q.pop(), Some(FactId(0)));
        assert_eq!(q.pop(), Some(FactId(7)));
        assert_eq!(q.pop(), Some(FactId(7)));
    }
}
