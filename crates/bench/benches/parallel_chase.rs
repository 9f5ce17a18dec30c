//! Parallel chase benchmarks: the semi-oblivious runner at 1/2/4/8 workers on a
//! large EGD-free ontology workload and a transitive-closure stress case. (The
//! standard and core chases run sequentially at every worker count, so they
//! have no rows here.)
//!
//! `workers = 1` is the sequential runner; `workers > 1` feeds
//! shard-partitioned trigger discovery over a read-only snapshot to the
//! persistent worker pool (`chase_core::pool`) with the deterministic
//! `(DepId, body FactIds)` merge, so every configuration computes the same
//! model up to null renaming (proven by `tests/property_tests.rs`). Measured
//! numbers are recorded in `BENCH_parallel_chase.json` at the repository root,
//! together with the host's CPU count.
//!
//! With `CHASE_PARALLEL_GATE=1` the binary runs as a pass/fail **gate** instead
//! of a criterion sweep: it detects the core count at runtime, measures the
//! closure case at 1 and 4 workers, and — only when the host has ≥ 4 cores —
//! fails (non-zero exit) unless the speedup reaches 2×. On smaller hosts it
//! prints the honest overhead row and passes; CI's `parallel-tests` job runs
//! this mode unconditionally, so the gate arms itself exactly on capable
//! runners.
//!
//! After the timing groups, a **phase-attribution pass** re-runs every
//! configuration once with a [`MetricsObserver`] attached and prints a JSON
//! breakdown of the run's wall-clock into the named phases `discovery`, `merge`
//! and `apply` (the parallel path's overhead — snapshot construction, the
//! canonical merge sort — lands in `discovery`/`merge` by construction, so the
//! overhead of the determinism machinery is attributed, not lost). The rows are
//! recorded in `BENCH_parallel_chase.json` under `"phases"`.

use chase_engine::{Chase, ChaseBudget, MetricsObserver};
use chase_obs::{duration_ns, JsonValue};
use chase_ontology::generator::{generate, generate_database, OntologyProfile};
use criterion::{criterion_group, BenchmarkId, Criterion};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A large EGD-free ontology workload (the round-parallel runner's home turf).
fn ontology_workload(
    size: usize,
    facts: usize,
) -> (chase_core::DependencySet, chase_core::Instance) {
    let sigma = generate(&OntologyProfile {
        existential: size / 4,
        full: size - size / 4,
        egds: 0,
        cyclic: false,
        seed: 13,
    });
    let db = generate_database(&sigma, facts, 17);
    (sigma, db)
}

fn chain_database(n: usize) -> (chase_core::DependencySet, chase_core::Instance) {
    let sigma =
        chase_core::parser::parse_dependencies("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).").unwrap();
    let db = chase_core::Instance::from_facts((0..n).map(|i| {
        chase_core::Fact::from_parts(
            "E",
            vec![
                chase_core::GroundTerm::Const(chase_core::Constant::new(&format!("v{i}"))),
                chase_core::GroundTerm::Const(chase_core::Constant::new(&format!("v{}", i + 1))),
            ],
        )
    }));
    (sigma, db)
}

fn bench_ontology(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_chase/ontology");
    group.sample_size(10);
    for &(size, facts) in &[(60usize, 60usize), (120, 120)] {
        let (sigma, db) = ontology_workload(size, facts);
        let label = format!("{size}x{facts}");
        for workers in WORKER_COUNTS {
            group.bench_with_input(
                BenchmarkId::new(&format!("workers{workers}"), &label),
                &(),
                |b, _| {
                    b.iter(|| {
                        Chase::semi_oblivious(&sigma)
                            .workers(workers)
                            .with_budget(ChaseBudget::unlimited().with_max_steps(200_000))
                            .run(&db)
                            .is_terminating()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_chase/closure");
    group.sample_size(10);
    for &n in &[24usize, 40] {
        let (sigma, db) = chain_database(n);
        for workers in WORKER_COUNTS {
            group.bench_with_input(
                BenchmarkId::new(&format!("workers{workers}"), n),
                &(),
                |b, _| {
                    b.iter(|| {
                        Chase::semi_oblivious(&sigma)
                            .workers(workers)
                            .with_budget(ChaseBudget::unlimited().with_max_steps(500_000))
                            .run(&db)
                            .is_terminating()
                    })
                },
            );
        }
    }
    group.finish();
}

/// One phase-attribution row: a single instrumented run of `sigma` on `db`.
fn phase_row(
    group: &str,
    case: &str,
    workers: usize,
    sigma: &chase_core::DependencySet,
    db: &chase_core::Instance,
    max_steps: usize,
) -> JsonValue {
    let mut metrics = MetricsObserver::new();
    let outcome = Chase::semi_oblivious(sigma)
        .workers(workers)
        .with_budget(ChaseBudget::unlimited().with_max_steps(max_steps))
        .run_observed(db, &mut metrics);
    let elapsed_ns = duration_ns(outcome.stats().elapsed).max(1);
    let phase_ns = |name: &str| {
        metrics
            .phases()
            .get(name)
            .map(|acc| duration_ns(acc.total()))
            .unwrap_or(0)
    };
    let attributed_ns: u64 = metrics
        .phases()
        .iter()
        .map(|(_, acc)| duration_ns(acc.total()))
        .sum();
    // The observer's attribution clock starts at construction, a hair before
    // the session clock: clamp so rounding can't report > 100%.
    let attribution = (attributed_ns.min(elapsed_ns) as f64) / (elapsed_ns as f64);
    JsonValue::Object(vec![
        ("group".to_string(), JsonValue::Str(group.to_string())),
        ("case".to_string(), JsonValue::Str(case.to_string())),
        ("workers".to_string(), JsonValue::Int(workers as i64)),
        (
            "discovery_ns".to_string(),
            JsonValue::Int(phase_ns("discovery") as i64),
        ),
        (
            "merge_ns".to_string(),
            JsonValue::Int(phase_ns("merge") as i64),
        ),
        (
            "apply_ns".to_string(),
            JsonValue::Int(phase_ns("apply") as i64),
        ),
        (
            "attributed_ns".to_string(),
            JsonValue::Int(attributed_ns as i64),
        ),
        ("elapsed_ns".to_string(), JsonValue::Int(elapsed_ns as i64)),
        (
            "attribution".to_string(),
            JsonValue::Float((attribution * 1000.0).round() / 1000.0),
        ),
    ])
}

/// Prints the per-phase wall-clock breakdown of every benchmarked configuration.
fn phase_breakdown() {
    let mut rows = Vec::new();
    for &(size, facts) in &[(60usize, 60usize), (120, 120)] {
        let (sigma, db) = ontology_workload(size, facts);
        let case = format!("{size}x{facts}");
        for workers in WORKER_COUNTS {
            rows.push(phase_row("ontology", &case, workers, &sigma, &db, 200_000));
        }
    }
    for &n in &[24usize, 40] {
        let (sigma, db) = chain_database(n);
        let case = format!("n={n}");
        for workers in WORKER_COUNTS {
            rows.push(phase_row("closure", &case, workers, &sigma, &db, 500_000));
        }
    }
    println!(
        "phase_breakdown = {}",
        JsonValue::Array(rows).to_pretty_string()
    );
}

criterion_group!(benches, bench_ontology, bench_closure);

/// `CHASE_PARALLEL_GATE=1` mode: measure the closure case at 1 vs. 4 workers
/// and enforce the ≥ 2× speedup target — but only when the host actually has
/// ≥ 4 cores. On smaller hosts the honest answer is an overhead row, not a
/// failure. Returns the process exit code.
fn parallel_gate() -> i32 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (sigma, db) = chain_database(40);
    let budget = ChaseBudget::unlimited().with_max_steps(500_000);
    let measure = |workers: usize| {
        let session = Chase::semi_oblivious(&sigma)
            .workers(workers)
            .with_budget(budget);
        // Warm-up run: pre-spawns the pool threads and warms the allocator, so
        // the measured runs see the steady state CI cares about.
        assert!(session.run(&db).is_terminating());
        (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                assert!(session.run(&db).is_terminating());
                t.elapsed()
            })
            .min()
            .expect("five timed runs")
    };
    let seq = measure(1);
    let par = measure(4);
    let speedup = seq.as_secs_f64() / par.as_secs_f64().max(f64::EPSILON);
    println!(
        "parallel_gate = {{ \"case\": \"closure n=40\", \"cores\": {cores}, \
         \"seq_ns\": {}, \"par4_ns\": {}, \"speedup\": {speedup:.2} }}",
        duration_ns(seq),
        duration_ns(par),
    );
    if cores < 4 {
        println!(
            "parallel gate: host has {cores} core(s) < 4 — recording the overhead row, gate not armed"
        );
        return 0;
    }
    if speedup >= 2.0 {
        println!("parallel gate: PASSED ({speedup:.2}x >= 2x at 4 workers on {cores} cores)");
        0
    } else {
        eprintln!("parallel gate: FAILED ({speedup:.2}x < 2x at 4 workers on {cores} cores)");
        1
    }
}

fn main() {
    if std::env::var("CHASE_PARALLEL_GATE").as_deref() == Ok("1") {
        std::process::exit(parallel_gate());
    }
    let mut c = Criterion::default();
    benches(&mut c);
    phase_breakdown();
}
