//! Two-worker speedup gate for the semi-oblivious round runner.
//!
//! Times the transitive-closure case (a chain of n = 60 edges under
//! `E(x, y), E(y, z) → E(x, z)`) at 1 and 2 workers: one warm-up run each,
//! then the minimum of 7 interleaved runs each. Both sides run the same round
//! runner — `workers` is only the shard width of its trigger discovery, inline
//! at 1 and on the persistent worker pool (`chase_core::pool`) at 2 — so the
//! ratio measures the pool alone.
//!
//! On a host with ≥ 2 detected cores the gate is armed: a speedup below 0.9×
//! exits 1. The floor stays clear of shared-host noise around 1.0× and still
//! catches a serial merge bottleneck (a global per-round sort measured
//! 0.64–0.66×). On a single core the row is printed and the gate passes.
//!
//! ```text
//! cargo run --release -p chase_bench --bin parallel_gate
//! ```

use chase_core::{Constant, DependencySet, Fact, GroundTerm, Instance};
use chase_engine::{Chase, ChaseBudget};
use chase_obs::duration_ns;
use std::time::{Duration, Instant};

/// Edges in the closure chain.
const CHAIN_LEN: usize = 60;

/// Timed runs per worker count.
const RUNS: usize = 7;

/// The floor for the 2-worker speedup.
const MIN_SPEEDUP: f64 = 0.9;

fn chain_database(n: usize) -> (DependencySet, Instance) {
    let sigma =
        chase_core::parser::parse_dependencies("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).").unwrap();
    let db = Instance::from_facts((0..n).map(|i| {
        Fact::from_parts(
            "E",
            vec![
                GroundTerm::Const(Constant::new(&format!("v{i}"))),
                GroundTerm::Const(Constant::new(&format!("v{}", i + 1))),
            ],
        )
    }));
    (sigma, db)
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (sigma, db) = chain_database(CHAIN_LEN);
    let budget = ChaseBudget::unlimited().with_max_steps(500_000);
    let sessions = [1, 2].map(|workers| {
        Chase::semi_oblivious(&sigma)
            .workers(workers)
            .with_budget(budget)
    });
    // Warm-up run per session: pre-spawns the pool threads and warms the
    // allocator, so the timed runs see the steady state.
    for session in &sessions {
        assert!(session.run(&db).is_terminating());
    }
    // Interleaved timing: a burst of load from other tenants hits both worker
    // counts alike, and the minimum filters it out.
    let mut best = [Duration::MAX; 2];
    for _ in 0..RUNS {
        for (best, session) in best.iter_mut().zip(&sessions) {
            let t = Instant::now();
            assert!(session.run(&db).is_terminating());
            *best = (*best).min(t.elapsed());
        }
    }
    let [seq, par] = best;
    let speedup = seq.as_secs_f64() / par.as_secs_f64().max(f64::EPSILON);
    println!(
        "parallel_gate = {{ \"case\": \"closure n={CHAIN_LEN}\", \"cores\": {cores}, \
         \"seq_ns\": {}, \"par2_ns\": {}, \"speedup\": {speedup:.2} }}",
        duration_ns(seq),
        duration_ns(par),
    );
    if cores < 2 {
        println!("parallel gate: host has 1 core — recording the row, gate not armed");
    } else if speedup >= MIN_SPEEDUP {
        println!(
            "parallel gate: PASSED ({speedup:.2}x >= {MIN_SPEEDUP}x at 2 workers on {cores} cores)"
        );
    } else {
        eprintln!(
            "parallel gate: FAILED ({speedup:.2}x < {MIN_SPEEDUP}x at 2 workers on {cores} cores)"
        );
        std::process::exit(1);
    }
}
