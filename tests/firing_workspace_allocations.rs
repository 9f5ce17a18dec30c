//! A chase-graph build reuses one firing workspace for all its enumerations: its
//! heap allocations grow with the number of dependencies, not with the number of
//! pairs it enumerates.
//!
//! The sets pair `n` writers `w_i: A(x) → B(x, c_i)` with `n` readers
//! `s_j: B(x, c_j), C(x) → D(x)`. Every writer's head feeds every reader's body,
//! and the constants make each of the `n²` pairs a shape of its own, so the build
//! runs `n²` enumerations. Only `w_i → s_i` is an edge.
//!
//! This file is its own test binary with a single test, so the counting allocator
//! below sees only that test's thread (the harness's own threads are filtered
//! out by the thread-local switch).

use chase_core::parser::parse_dependencies;
use chase_core::DependencySet;
use chase_criteria::chase_graphs;
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

/// `n` writers and `n` readers, each pair a shape of its own.
fn writers_and_readers(n: usize) -> DependencySet {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!("w{i}: A(?x) -> B(?x, c{i}).\n"));
    }
    for j in 0..n {
        text.push_str(&format!("s{j}: B(?x, c{j}), C(?x) -> D(?x).\n"));
    }
    parse_dependencies(&text).unwrap()
}

/// Allocations a build may make per dependency, and once.
const PER_DEPENDENCY: usize = 16;
const ONCE: usize = 256;

#[test]
fn a_graph_build_allocates_per_dependency_not_per_enumeration() {
    for n in [8, 16, 32] {
        let sigma = writers_and_readers(n);
        // Warm up once, so that the symbols the enumeration interns exist already.
        chase_graphs(&sigma);
        let (graphs, allocations) = allocations_of(|| chase_graphs(&sigma));
        assert_eq!(graphs.standard.edge_count(), n, "w_i -> s_i only");
        let bound = PER_DEPENDENCY * sigma.len() + ONCE;
        assert!(
            allocations <= bound,
            "{allocations} allocations for {} dependencies and {} enumerations (bound {bound})",
            sigma.len(),
            n * n
        );
    }
}
