//! Columnar fact-store benchmark: intern/probe/scan latency flatness from
//! 100k to 10M facts, dictionary-compression footprint, pre-sizing vs.
//! growth-doubling, and snapshot save/load — the measurement half of the
//! columnar-store tentpole.
//!
//! Workload: the `data-exchange` scale family from `chase_ontology::scale`
//! (person/company/works_for, average arity ≈ 2.4, heavily repeated constant
//! universe). For every size the harness materializes the fact stream once
//! (so generation cost is excluded from interning), then measures:
//!
//! - **intern** — ns/fact to build a pre-sized [`Instance`] from flat term
//!   slices;
//! - **probe** — ns/op for 100k random exact-fact lookups through the
//!   open-addressing dedup table, issued through the bulk
//!   `FactStore::lookup_batch` path (every query hashed first, then the term
//!   table, the dedup table and the strips each swept in address order). The
//!   one-at-a-time `FactStore::lookup` latency is reported alongside as
//!   `lookup1` but not gated;
//! - **scan** — ns/fact to sweep every column strip (the cache-linear path
//!   joins take per position);
//! - **footprint** — bytes/fact of the columnar layout vs. the row-major
//!   equivalent (`footprint().row_equivalent_bytes`).
//!
//! At the 1M size it additionally compares the pre-sized build against a
//! growth-doubling build (`Instance::new`), and round-trips the instance
//! through `Instance::save`/`Instance::load`, checking sorted ids, sampled
//! fact display, and a two-atom join through all three engine paths (scan
//! search, indexed search, naive search) against the pre-save instance.
//!
//! Four gates make this an experiment, and any failing gate exits non-zero:
//!
//! 1. per-fact intern latency at the largest size ≤ 2× the 100k latency,
//! 2. per-op probe latency at the largest size ≤ 2× the 100k latency,
//! 3. columnar bytes/fact ≤ row-equivalent bytes/fact at every size,
//! 4. loading the 1M snapshot is faster than regenerating + re-interning it.
//!
//! Output: a text table plus a `chase_fact_store/v1` JSON document written to
//! `--out` (default `BENCH_fact_store.json`). `--sizes smoke` runs 100k and
//! 1M (the CI configuration); `--sizes full` adds the 10M row.

use chase_core::builder::{atom, cst, var};
use chase_core::homomorphism::{naive_homomorphisms_extending, HomomorphismSearch};
use chase_core::{Assignment, GroundTerm, IndexedInstance, Instance, Predicate};
use chase_obs::JsonValue;
use chase_ontology::{for_each_scale_fact, ScaleProfile};
use std::ops::ControlFlow;
use std::time::Instant;

struct Options {
    smoke: bool,
    out: String,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        smoke: false,
        out: "BENCH_fact_store.json".to_string(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("smoke") => opts.smoke = true,
                    Some("full") => opts.smoke = false,
                    other => {
                        eprintln!("--sizes expects smoke|full, got {other:?}");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                };
                opts.out = path.clone();
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other} (flags: --sizes smoke|full, --out PATH)");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// The scale-family fact stream, materialized flat: per-fact predicate plus a
/// prefix-offset view into one contiguous term buffer. Keeps 10M facts to two
/// large allocations so interning is measured against in-memory slices, not
/// against `format!`/RNG generation cost.
struct FlatFacts {
    preds: Vec<Predicate>,
    starts: Vec<u32>,
    terms: Vec<GroundTerm>,
}

impl FlatFacts {
    fn generate(profile: &ScaleProfile) -> Self {
        let mut flat = FlatFacts {
            preds: Vec::with_capacity(profile.facts),
            starts: Vec::with_capacity(profile.facts + 1),
            terms: Vec::with_capacity(profile.facts * 3),
        };
        flat.starts.push(0);
        for_each_scale_fact(profile, |p, terms| {
            flat.preds.push(p);
            flat.terms.extend_from_slice(terms);
            flat.starts.push(flat.terms.len() as u32);
        });
        flat
    }

    fn len(&self) -> usize {
        self.preds.len()
    }

    fn fact(&self, i: usize) -> (Predicate, &[GroundTerm]) {
        let (a, b) = (self.starts[i] as usize, self.starts[i + 1] as usize);
        (self.preds[i], &self.terms[a..b])
    }
}

/// Deterministic 64-bit mixer (splitmix64) for probe sampling — the bench
/// crate deliberately has no RNG dependency in its binaries.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Row {
    facts: usize,
    gen_ns: u128,
    intern_ns: u128,
    probe_ops: usize,
    probe_ns: u128,
    lookup1_ns: u128,
    scan_ns: u128,
    distinct_terms: usize,
    columnar_bytes: usize,
    row_equivalent_bytes: usize,
    /// 1M-only extras (0 when not measured).
    growth_ns: u128,
    save_ns: u128,
    load_ns: u128,
    snapshot_bytes: u64,
}

impl Row {
    fn intern_ns_per_fact(&self) -> f64 {
        self.intern_ns as f64 / self.facts as f64
    }
    fn probe_ns_per_op(&self) -> f64 {
        self.probe_ns as f64 / self.probe_ops as f64
    }
    fn lookup1_ns_per_op(&self) -> f64 {
        self.lookup1_ns as f64 / self.probe_ops as f64
    }
    fn scan_ns_per_fact(&self) -> f64 {
        self.scan_ns as f64 / self.facts as f64
    }
    fn columnar_bytes_per_fact(&self) -> f64 {
        self.columnar_bytes as f64 / self.facts as f64
    }
    fn row_bytes_per_fact(&self) -> f64 {
        self.row_equivalent_bytes as f64 / self.facts as f64
    }
}

/// Feeds `flat` into `instance` through the bulk `extend_parts` path in
/// 1M-fact batches, so the borrowed batch stays bounded at 10M facts.
fn load_bulk(instance: &mut Instance, flat: &FlatFacts) {
    let mut buf: Vec<(Predicate, &[GroundTerm])> = Vec::with_capacity(flat.len().min(1 << 20));
    let mut i = 0;
    while i < flat.len() {
        buf.clear();
        let end = (i + (1 << 20)).min(flat.len());
        for k in i..end {
            buf.push(flat.fact(k));
        }
        instance.extend_parts(&buf);
        i = end;
    }
}

fn build_presized(profile: &ScaleProfile, flat: &FlatFacts) -> Instance {
    let mut instance = Instance::with_capacity(
        profile.predicate_estimate(),
        profile.facts,
        profile.term_estimate(),
    );
    load_bulk(&mut instance, flat);
    instance
}

/// Counts the homomorphisms of a two-atom join through each engine path; the
/// three counts must agree.
fn join_counts(instance: &Instance, indexed: &IndexedInstance) -> [usize; 3] {
    let atoms = vec![
        atom("works_for", vec![cst("p0"), var("co")]),
        atom("company", vec![var("co"), var("city")]),
    ];
    let root = Assignment::new();
    let mut scan = 0usize;
    HomomorphismSearch::new(&atoms, instance).for_each_extending::<()>(&root, &mut |_| {
        scan += 1;
        ControlFlow::Continue(())
    });
    let mut over_index = 0usize;
    HomomorphismSearch::over_index(&atoms, indexed).for_each_extending::<()>(&root, &mut |_| {
        over_index += 1;
        ControlFlow::Continue(())
    });
    let naive = naive_homomorphisms_extending(&atoms, instance, &root).len();
    [scan, over_index, naive]
}

/// Per-size measurement state. Generation happens once; the intern and probe
/// timings are filled in by interleaved rounds driven from `main` — every
/// round measures *all* sizes back to back, so a noisy stretch on the shared
/// single-core box hits the 100k baseline and the large sizes alike instead
/// of skewing the flatness ratio, and the per-size minimum over rounds
/// discards one-off costs (page faults on fresh allocations, scheduler
/// preemption).
struct SizeState {
    facts: usize,
    profile: ScaleProfile,
    flat: FlatFacts,
    gen_ns: u128,
    intern_ns: u128,
    instance: Option<Instance>,
    probe_ops: usize,
    probe_ns: u128,
    lookup1_ns: u128,
}

impl SizeState {
    fn generate(facts: usize) -> Self {
        let profile = ScaleProfile::new(facts);
        let t = Instant::now();
        let flat = FlatFacts::generate(&profile);
        let gen_ns = t.elapsed().as_nanos();
        assert_eq!(
            flat.len(),
            facts,
            "scale family emits exactly `facts` facts"
        );
        SizeState {
            facts,
            profile,
            flat,
            gen_ns,
            intern_ns: u128::MAX,
            instance: None,
            probe_ops: 100_000usize.min(facts),
            probe_ns: u128::MAX,
            lookup1_ns: u128::MAX,
        }
    }

    fn intern_round(&mut self) {
        // Drop the previous round's instance first, so that no two instances
        // of the size are held at once.
        self.instance = None;
        let t = Instant::now();
        let instance = build_presized(&self.profile, &self.flat);
        self.intern_ns = self.intern_ns.min(t.elapsed().as_nanos());
        assert_eq!(instance.len(), self.facts, "every generated fact is unique");
        self.instance = Some(instance);
    }

    fn probe_round(&mut self, round: u64) {
        let store = self.instance.as_ref().expect("interned").store();
        // Sampling happens outside the timed region: the timer sees only the
        // store's own work.
        let mut rng = (0x5eed_0000_0000_0000u64 ^ self.facts as u64).wrapping_add(round);
        let queries: Vec<(Predicate, &[GroundTerm])> = (0..self.probe_ops)
            .map(|_| {
                self.flat
                    .fact((splitmix64(&mut rng) % self.facts as u64) as usize)
            })
            .collect();

        let t = Instant::now();
        let found = store.lookup_batch(&queries);
        let probe_ns = t.elapsed().as_nanos();
        let hits = found.iter().filter(|r| r.is_some()).count();
        assert_eq!(hits, self.probe_ops, "every probe targets an interned fact");

        let t = Instant::now();
        let mut hits1 = 0usize;
        for &(p, terms) in &queries {
            if store.lookup(p, terms).is_some() {
                hits1 += 1;
            }
        }
        let lookup1_ns = t.elapsed().as_nanos();
        assert_eq!(hits1, self.probe_ops);
        self.probe_ns = self.probe_ns.min(probe_ns);
        self.lookup1_ns = self.lookup1_ns.min(lookup1_ns);
    }
}

fn finish_size(state: &SizeState, deep_checks: bool, failures: &mut Vec<String>) -> Row {
    let facts = state.facts;
    let flat = &state.flat;
    let (gen_ns, intern_ns) = (state.gen_ns, state.intern_ns);
    let (probe_ops, probe_ns, lookup1_ns) = (state.probe_ops, state.probe_ns, state.lookup1_ns);
    let instance = state.instance.as_ref().expect("interned");
    let store = instance.store();

    let t = Instant::now();
    let mut checksum = 0u64;
    for p in [
        Predicate::new("person", 3),
        Predicate::new("company", 2),
        Predicate::new("works_for", 2),
    ] {
        let pid = store.lookup_predicate(p).expect("schema predicate");
        for pos in 0..p.arity {
            for cell in store.column(pid, pos) {
                checksum = checksum.wrapping_add(cell.0 as u64);
            }
        }
    }
    let scan_ns = t.elapsed().as_nanos();
    assert!(checksum > 0, "column sweep touched every cell");

    let fp = store.footprint();
    let mut row = Row {
        facts,
        gen_ns,
        intern_ns,
        probe_ops,
        probe_ns,
        lookup1_ns,
        scan_ns,
        distinct_terms: store.term_count(),
        columnar_bytes: fp.columnar_bytes(),
        row_equivalent_bytes: fp.row_equivalent_bytes,
        growth_ns: 0,
        save_ns: 0,
        load_ns: 0,
        snapshot_bytes: 0,
    };

    if deep_checks {
        // Pre-sizing vs. growth-doubling: same inserts, default-capacity start,
        // min-of-2 so both contenders get a page-warmed allocator.
        let mut growth_ns = u128::MAX;
        for _ in 0..2 {
            let t = Instant::now();
            let grown = {
                let mut g = Instance::new();
                load_bulk(&mut g, flat);
                g
            };
            growth_ns = growth_ns.min(t.elapsed().as_nanos());
            assert_eq!(grown.len(), instance.len());
        }
        row.growth_ns = growth_ns;

        // Snapshot round-trip + invariants. Save and load take the min of
        // three passes each, like the interleaved latency rounds: a single
        // timing on a shared box can swing ±40% and flip the load-vs-regen
        // gate on machine noise alone.
        let path = std::env::temp_dir().join(format!(
            "fact_store_bench_{}_{}.chasefs",
            std::process::id(),
            facts
        ));
        let mut save_ns = u128::MAX;
        let mut load_ns = u128::MAX;
        let mut loaded = None;
        for _ in 0..3 {
            let t = Instant::now();
            instance.save(&path).expect("save succeeds");
            save_ns = save_ns.min(t.elapsed().as_nanos());
            let t = Instant::now();
            loaded = Some(Instance::load(&path).expect("load succeeds"));
            load_ns = load_ns.min(t.elapsed().as_nanos());
        }
        row.save_ns = save_ns;
        row.load_ns = load_ns;
        row.snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let loaded = loaded.expect("three round trips ran");
        let _ = std::fs::remove_file(&path);

        let ids = instance.sorted_fact_ids();
        if loaded.sorted_fact_ids() != ids {
            failures.push(format!("{facts}: loaded snapshot changed the fact-id set"));
        }
        for &id in ids.iter().take(3).chain(ids.iter().rev().take(3)) {
            let (a, b) = (instance.store().fact(id), loaded.store().fact(id));
            if format!("{a}") != format!("{b}") {
                failures.push(format!(
                    "{facts}: fact {} displays differently after load",
                    id.0
                ));
            }
        }
        let indexed = IndexedInstance::from_instance(loaded.clone());
        let before = join_counts(instance, &IndexedInstance::from_instance(instance.clone()));
        let after = join_counts(&loaded, &indexed);
        if before != after || after[0] != after[1] || after[1] != after[2] || after[0] == 0 {
            failures.push(format!(
                "{facts}: join disagreement across engine paths or save/load \
                 (before {before:?}, after {after:?})"
            ));
        }

        if row.load_ns >= gen_ns + intern_ns {
            failures.push(format!(
                "{facts}: loading the snapshot ({:.0}ms) is not faster than \
                 regenerating + interning ({:.0}ms)",
                row.load_ns as f64 / 1e6,
                (gen_ns + intern_ns) as f64 / 1e6
            ));
        }
    }

    if row.columnar_bytes > row.row_equivalent_bytes {
        failures.push(format!(
            "{facts}: columnar layout ({:.1} B/fact) exceeds the row-major \
             equivalent ({:.1} B/fact)",
            row.columnar_bytes_per_fact(),
            row.row_bytes_per_fact()
        ));
    }

    row
}

fn main() {
    let opts = parse_args();
    let sizes: &[usize] = if opts.smoke {
        &[100_000, 1_000_000]
    } else {
        &[100_000, 1_000_000, 10_000_000]
    };

    let mut failures = Vec::new();

    let mut states: Vec<SizeState> = sizes.iter().map(|&f| SizeState::generate(f)).collect();
    // Interleaved measurement rounds: see the `SizeState` docs for why every
    // round covers all sizes back to back.
    const ROUNDS: u64 = 3;
    for _ in 0..ROUNDS {
        for s in states.iter_mut() {
            s.intern_round();
        }
    }
    for round in 0..ROUNDS {
        for s in states.iter_mut() {
            s.probe_round(round);
        }
    }

    let mut rows = Vec::new();
    for state in &states {
        let facts = state.facts;
        let row = finish_size(state, facts == 1_000_000, &mut failures);
        println!(
            "{:>9} facts  gen={:>8.1}ms  intern={:>7.1}ns/fact  probe={:>6.1}ns/op  \
             lookup1={:>6.1}ns/op  scan={:>5.2}ns/fact  dict={:>7}  \
             columnar={:>5.1}B/fact  row-equiv={:>5.1}B/fact",
            row.facts,
            row.gen_ns as f64 / 1e6,
            row.intern_ns_per_fact(),
            row.probe_ns_per_op(),
            row.lookup1_ns_per_op(),
            row.scan_ns_per_fact(),
            row.distinct_terms,
            row.columnar_bytes_per_fact(),
            row.row_bytes_per_fact(),
        );
        if row.growth_ns > 0 {
            println!(
                "           pre-sized build {:.1}ms vs growth-doubling {:.1}ms ({:.2}x); \
                 save={:.1}ms load={:.1}ms snapshot={:.1}MB (regen+intern={:.1}ms)",
                row.intern_ns as f64 / 1e6,
                row.growth_ns as f64 / 1e6,
                row.growth_ns as f64 / row.intern_ns as f64,
                row.save_ns as f64 / 1e6,
                row.load_ns as f64 / 1e6,
                row.snapshot_bytes as f64 / 1e6,
                (row.gen_ns + row.intern_ns) as f64 / 1e6,
            );
        }
        rows.push(row);
    }

    // Flat-latency gates: the largest size against the 100k baseline.
    let base = &rows[0];
    let top = rows.last().expect("at least one size");
    if top.intern_ns_per_fact() > 2.0 * base.intern_ns_per_fact() {
        failures.push(format!(
            "intern latency is not flat: {:.1}ns/fact at {} vs {:.1}ns/fact at {}",
            top.intern_ns_per_fact(),
            top.facts,
            base.intern_ns_per_fact(),
            base.facts
        ));
    }
    if top.probe_ns_per_op() > 2.0 * base.probe_ns_per_op() {
        failures.push(format!(
            "probe latency is not flat: {:.1}ns/op at {} vs {:.1}ns/op at {}",
            top.probe_ns_per_op(),
            top.facts,
            base.probe_ns_per_op(),
            base.facts
        ));
    }

    let intern_flat = top.intern_ns_per_fact() <= 2.0 * base.intern_ns_per_fact();
    let probe_flat = top.probe_ns_per_op() <= 2.0 * base.probe_ns_per_op();
    let columnar_wins = rows
        .iter()
        .all(|r| r.columnar_bytes <= r.row_equivalent_bytes);
    let load_beats_regen = rows
        .iter()
        .filter(|r| r.load_ns > 0)
        .all(|r| r.load_ns < r.gen_ns + r.intern_ns);

    let json = JsonValue::Object(vec![
        (
            "schema".into(),
            JsonValue::Str("chase_fact_store/v1".into()),
        ),
        (
            "size".into(),
            JsonValue::Str(if opts.smoke { "smoke" } else { "full" }.into()),
        ),
        (
            "rows".into(),
            JsonValue::Array(
                rows.iter()
                    .map(|r| {
                        let mut fields = vec![
                            ("facts".into(), JsonValue::Int(r.facts as i64)),
                            ("gen_ns".into(), JsonValue::Int(r.gen_ns as i64)),
                            ("intern_ns".into(), JsonValue::Int(r.intern_ns as i64)),
                            (
                                "intern_ns_per_fact".into(),
                                JsonValue::Float(r.intern_ns_per_fact()),
                            ),
                            ("probe_ops".into(), JsonValue::Int(r.probe_ops as i64)),
                            (
                                "probe_ns_per_op".into(),
                                JsonValue::Float(r.probe_ns_per_op()),
                            ),
                            (
                                "lookup1_ns_per_op".into(),
                                JsonValue::Float(r.lookup1_ns_per_op()),
                            ),
                            (
                                "scan_ns_per_fact".into(),
                                JsonValue::Float(r.scan_ns_per_fact()),
                            ),
                            (
                                "distinct_terms".into(),
                                JsonValue::Int(r.distinct_terms as i64),
                            ),
                            (
                                "columnar_bytes_per_fact".into(),
                                JsonValue::Float(r.columnar_bytes_per_fact()),
                            ),
                            (
                                "row_equivalent_bytes_per_fact".into(),
                                JsonValue::Float(r.row_bytes_per_fact()),
                            ),
                        ];
                        if r.growth_ns > 0 {
                            fields.push(("growth_ns".into(), JsonValue::Int(r.growth_ns as i64)));
                            fields.push((
                                "presize_speedup".into(),
                                JsonValue::Float(r.growth_ns as f64 / r.intern_ns as f64),
                            ));
                            fields.push(("save_ns".into(), JsonValue::Int(r.save_ns as i64)));
                            fields.push(("load_ns".into(), JsonValue::Int(r.load_ns as i64)));
                            fields.push((
                                "snapshot_bytes".into(),
                                JsonValue::Int(r.snapshot_bytes as i64),
                            ));
                        }
                        JsonValue::Object(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "gates".into(),
            JsonValue::Object(vec![
                ("intern_flat_2x".into(), JsonValue::Bool(intern_flat)),
                ("probe_flat_2x".into(), JsonValue::Bool(probe_flat)),
                (
                    "columnar_beats_row_major".into(),
                    JsonValue::Bool(columnar_wins),
                ),
                (
                    "load_beats_regenerate".into(),
                    JsonValue::Bool(load_beats_regen),
                ),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&opts.out, json.to_pretty_string()) {
        eprintln!("failed to write {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("wrote {}", opts.out);

    if !failures.is_empty() {
        eprintln!("fact-store gates FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!("all fact-store gates passed");
}
