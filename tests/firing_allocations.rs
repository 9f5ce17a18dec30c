//! The firing kernel allocates per pair, not per partition or candidate: a pair
//! with no witness, whose enumeration visits 406 partition-and-labelling
//! combinations and 694 candidates, answers within a small fixed number of heap
//! allocations.
//!
//! This file is its own test binary with a single test, so the counting allocator
//! below sees only that test's thread (the harness's own threads are filtered
//! out by the thread-local switch).

use chase_core::parser::parse_dependencies;
use chase_core::DepId;
use chase_criteria::{chase_graph_edge, Applicability};
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

#[test]
fn a_pair_without_a_witness_allocates_per_pair_not_per_candidate() {
    let sigma = parse_dependencies(
        r#"
        r1: A(?x, ?y), B(?y, ?z) -> exists ?w: C(?x, ?w).
        r2: C(?u, ?v), D(?v, ?t) -> E(?u, ?t).
        "#,
    )
    .unwrap();
    let (r1, r2) = (sigma.get(DepId(0)), sigma.get(DepId(1)));
    // Warm up once, so that the symbols the enumeration interns exist already.
    assert!(!chase_graph_edge(r1, r2, Applicability::Oblivious));
    let (edge, allocations) = allocations_of(|| chase_graph_edge(r1, r2, Applicability::Oblivious));
    assert!(!edge, "r1 never writes a D fact, so r2 gains no match");
    assert!(
        allocations <= 64,
        "{allocations} allocations for one no-witness pair"
    );
}
