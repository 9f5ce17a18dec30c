//! Materialising a closure allocates a few times per chase step, not per key,
//! per discovered trigger or per body lookup.
//!
//! The base is 800 disjoint chains of 15 edges under the right-linear closure
//! `copy: E(x, y) → R(x, y)`, `step: R(x, y), E(y, z) → R(x, z)`: 96,000
//! semi-oblivious steps, each logged with its key, body image and heads. A
//! logged step needs its own log entry (the event's key, body and head
//! vectors), the popped trigger's assignment, and the step effect's new fact
//! with its place in the store: about eight allocations. The fired keys, the
//! discovery dedup, the pending triggers and the discovery searches' bindings
//! sit in buffers whose growth is amortised over the run; with one key vector
//! per discovered trigger and per fired key, a binding vector per search and
//! a lookup per body fact, the same run made 12.9 allocations per step.
//!
//! This file is its own test binary with a single test, so the counting
//! allocator below sees only that test's thread (the harness's own threads are
//! filtered out by the thread-local switch).

use chase_core::parser::parse_program;
use chase_engine::Chase;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made by this thread while `COUNTING` is on.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

const CHAINS: usize = 800;
const CHAIN_EDGES: usize = 15;

/// Allocations a logged step may make, on average over the run.
const PER_STEP: f64 = 10.0;

#[test]
fn a_materialised_closure_allocates_per_step_not_per_key() {
    let mut text =
        String::from("copy: E(?x, ?y) -> R(?x, ?y).\nstep: R(?x, ?y), E(?y, ?z) -> R(?x, ?z).\n");
    for c in 0..CHAINS {
        for i in 0..CHAIN_EDGES {
            text.push_str(&format!("E(v{c}_{i}, v{c}_{}).\n", i + 1));
        }
    }
    let p = parse_program(&text).unwrap();
    let session = Chase::semi_oblivious(&p.dependencies);
    let (run, allocations) = allocations_of(|| session.materialize(&p.database).unwrap());
    let edges = CHAIN_EDGES * (CHAIN_EDGES + 1) / 2;
    assert_eq!(run.stats.steps, CHAINS * edges, "one step per closure edge");
    assert_eq!(run.log.len(), run.stats.steps);
    let per_step = allocations as f64 / run.stats.steps as f64;
    assert!(
        per_step <= PER_STEP,
        "{allocations} allocations for {} steps: {per_step:.2} per step (bound {PER_STEP})",
        run.stats.steps
    );
}
