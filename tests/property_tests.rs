//! Property-based tests (proptest) over the core data structures and the chase:
//! invariants that must hold for arbitrary small inputs.

use chase_core::builder::{atom, var};
use chase_core::homomorphism::{homomorphisms_extending, naive_homomorphisms_extending};
use chase_core::parser::{parse_program, to_source};
use chase_core::satisfaction::satisfies_all;
use chase_core::substitution::NullSubstitution;
use chase_core::{
    isomorphic_up_to_null_renaming, Assignment, Atom, Constant, Dependency, DependencySet, Egd,
    Fact, GroundTerm, HomomorphismSearch, IndexedInstance, Instance, NullValue, Term, Tgd,
    Variable,
};
use chase_engine::{
    core_of, is_core, Chase, ChaseBudget, ChaseEvent, ChaseOutcome, EventObserver,
    ObliviousVariant, StepOrder, TraceObserver,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::time::Duration;

// ---------------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------------

/// A ground term over a small domain of constants and nulls.
fn ground_term() -> impl Strategy<Value = GroundTerm> {
    prop_oneof![
        (0..6u8).prop_map(|i| GroundTerm::Const(Constant::new(&format!("c{i}")))),
        (0..4u64).prop_map(|i| GroundTerm::Null(NullValue(i))),
    ]
}

/// A fact over a small schema of unary and binary predicates.
fn fact() -> impl Strategy<Value = Fact> {
    prop_oneof![
        ((0..3u8), ground_term()).prop_map(|(p, t)| Fact::from_parts(&format!("U{p}"), vec![t])),
        ((0..3u8), ground_term(), ground_term())
            .prop_map(|(p, a, b)| Fact::from_parts(&format!("B{p}"), vec![a, b])),
    ]
}

fn instance(max_facts: usize) -> impl Strategy<Value = Instance> {
    prop::collection::vec(fact(), 0..max_facts).prop_map(Instance::from_facts)
}

/// A small "forward-flowing" dependency set: guaranteed to have terminating chases, so
/// we can assert strong postconditions.
fn terminating_dependency_set() -> impl Strategy<Value = DependencySet> {
    // Rules over unary predicates U0..U3 and binary B0..B2, always moving from lower to
    // higher predicate index, plus optional functional EGDs.
    let inclusion = (0..3u8, 0..3u8).prop_map(|(i, d)| {
        let j = i + d.min(3 - i).max(1).min(3 - i);
        let j = j.min(3);
        Dependency::Tgd(
            Tgd::new(
                None,
                vec![atom(&format!("U{i}"), vec![var("x")])],
                vec![atom(&format!("U{}", j.max(i)), vec![var("x")])],
            )
            .unwrap(),
        )
    });
    let existential = (0..2u8, 0..3u8).prop_map(|(i, r)| {
        Dependency::Tgd(
            Tgd::new(
                None,
                vec![atom(&format!("U{i}"), vec![var("x")])],
                vec![atom(&format!("B{r}"), vec![var("x"), var("y")])],
            )
            .unwrap(),
        )
    });
    let range = (0..3u8, 2..4u8).prop_map(|(r, c)| {
        Dependency::Tgd(
            Tgd::new(
                None,
                vec![atom(&format!("B{r}"), vec![var("x"), var("y")])],
                vec![atom(&format!("U{c}"), vec![var("y")])],
            )
            .unwrap(),
        )
    });
    let functional = (0..3u8).prop_map(|r| {
        Dependency::Egd(
            Egd::new(
                None,
                vec![
                    atom(&format!("B{r}"), vec![var("x"), var("y")]),
                    atom(&format!("B{r}"), vec![var("x"), var("z")]),
                ],
                Variable::new("y"),
                Variable::new("z"),
            )
            .unwrap(),
        )
    });
    prop::collection::vec(prop_oneof![inclusion, existential, range, functional], 1..8)
        .prop_map(DependencySet::from_vec)
}

/// A query term over a small pool: 4 variables (so repetition across atoms is
/// common), 3 constants, 3 nulls.
fn query_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..4u8).prop_map(|i| Term::Var(Variable::new(&format!("v{i}")))),
        (0..3u8).prop_map(|i| Term::Const(Constant::new(&format!("c{i}")))),
        (0..3u64).prop_map(|i| Term::Null(NullValue(i))),
    ]
}

/// A query atom over the same schema as [`fact`], plus a 0-ary predicate `Z`.
fn query_atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        Just(Atom::from_parts("Z", vec![])),
        ((0..3u8), query_term()).prop_map(|(p, t)| Atom::from_parts(&format!("U{p}"), vec![t])),
        ((0..3u8), query_term(), query_term())
            .prop_map(|(p, a, b)| Atom::from_parts(&format!("B{p}"), vec![a, b])),
    ]
}

/// A conjunctive query body: 0..4 atoms, so empty bodies, unbound variables
/// (variables occurring in a single position), repeated variables, constants and
/// nulls all arise.
fn query_body() -> impl Strategy<Value = Vec<Atom>> {
    prop::collection::vec(query_atom(), 0..4)
}

/// An instance over the query schema, including 0-ary facts.
fn query_instance() -> impl Strategy<Value = Instance> {
    let z = prop_oneof![Just(Vec::new()), Just(vec![Fact::from_parts("Z", vec![])])];
    (prop::collection::vec(fact(), 0..12), z).prop_map(|(mut facts, z)| {
        facts.extend(z);
        Instance::from_facts(facts)
    })
}

fn canonical_set(homs: &[Assignment]) -> BTreeSet<Vec<(Variable, GroundTerm)>> {
    homs.iter().map(|h| h.canonical()).collect()
}

// ---------------------------------------------------------------------------------
// Parallel-runner differential harness helpers
// ---------------------------------------------------------------------------------

/// The worker counts the differential suite exercises: the even splits 2, 4
/// and 8 plus the uneven 3 and 7 (ragged shards — the last pool job gets a
/// shorter chunk), plus whatever `CHASE_TEST_WORKERS` asks for (the CI
/// parallel job runs the suite once at the canonical 4 — guarding the env
/// plumbing — and once at 7).
fn test_worker_counts() -> Vec<usize> {
    let mut counts = vec![2usize, 3, 4, 7, 8];
    if let Ok(value) = std::env::var("CHASE_TEST_WORKERS") {
        if let Ok(n) = value.parse::<usize>() {
            if n > 1 && !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

/// Runs `session` under an [`EventObserver`] and returns the full event stream
/// with every wall-clock duration zeroed, so that two runs compare event for
/// event — including each discovery event's `facts_scanned` and
/// `triggers_found`.
fn timeless_events(session: &Chase<'_>, db: &Instance) -> Vec<ChaseEvent> {
    let mut events = Vec::new();
    session.run_observed(db, &mut EventObserver(|e| events.push(e)));
    for event in &mut events {
        match event {
            ChaseEvent::DiscoveryCompleted { stats } => {
                stats.elapsed = Duration::ZERO;
                for shard in &mut stats.shards {
                    shard.elapsed = Duration::ZERO;
                }
            }
            ChaseEvent::MergeCompleted { elapsed, .. } => *elapsed = Duration::ZERO,
            _ => {}
        }
    }
    events
}

// The null-bijection checker lives in chase_core (`isomorphic_up_to_null_renaming`)
// since the incremental-maintenance work: the differential suites there and here
// share one implementation.

/// Order-invariant digest of a trace: how many times each `(dependency, effect
/// kind)` pair was observed. (Per-step added-fact counts are deliberately *not*
/// part of the key: when two steps' head facts overlap, the split of "who added
/// the shared fact" depends on the step order, while the pair counts do not.)
fn event_multiset(
    trace: &TraceObserver,
) -> std::collections::BTreeMap<(usize, &'static str), usize> {
    let mut out = std::collections::BTreeMap::new();
    for (trigger, effect) in &trace.steps {
        let kind = match effect {
            chase_engine::StepEffect::AddedFacts { .. } => "tgd",
            chase_engine::StepEffect::Substituted { .. } => "egd",
            chase_engine::StepEffect::Failure => "failure",
            chase_engine::StepEffect::NotApplicable => "noop",
        };
        *out.entry((trigger.dep.0, kind)).or_insert(0) += 1;
    }
    out
}

#[test]
fn null_renaming_check_accepts_renamings_and_rejects_collapses() {
    // Sanity of the harness itself: renaming is accepted, collapsing is not.
    let gc = |s: &str| GroundTerm::Const(Constant::new(s));
    let gn = |i: u64| GroundTerm::Null(NullValue(i));
    let a = Instance::from_facts(vec![
        Fact::from_parts("R", vec![gc("a"), gn(1)]),
        Fact::from_parts("R", vec![gc("a"), gn(2)]),
        Fact::from_parts("S", vec![gn(2), gn(1)]),
    ]);
    let renamed = Instance::from_facts(vec![
        Fact::from_parts("R", vec![gc("a"), gn(9)]),
        Fact::from_parts("R", vec![gc("a"), gn(7)]),
        Fact::from_parts("S", vec![gn(7), gn(9)]),
    ]);
    assert!(isomorphic_up_to_null_renaming(&a, &renamed));
    assert!(isomorphic_up_to_null_renaming(&renamed, &a));
    // Homomorphically equivalent-looking but collapsed: not isomorphic.
    let collapsed = Instance::from_facts(vec![
        Fact::from_parts("R", vec![gc("a"), gn(3)]),
        Fact::from_parts("S", vec![gn(3), gn(3)]),
    ]);
    assert!(!isomorphic_up_to_null_renaming(&a, &collapsed));
    // Same sizes, different shape: S relates the two nulls in the wrong order.
    let twisted = Instance::from_facts(vec![
        Fact::from_parts("R", vec![gc("a"), gn(1)]),
        Fact::from_parts("R", vec![gc("a"), gn(2)]),
        Fact::from_parts("S", vec![gc("a"), gn(1)]),
    ]);
    assert!(!isomorphic_up_to_null_renaming(&a, &twisted));
}

/// Satellite: metamorphic determinism. Two runs of the parallel runner on the
/// same input at *different* worker counts yield byte-identical
/// `sorted_facts()` output (same facts, same null labels, same order) and
/// identical statistics — parallelism changes wall-clock time, never the answer.
#[test]
fn parallel_worker_count_never_changes_the_output_bytes() {
    use chase_ontology::generator::{generate, generate_database, OntologyProfile};
    for seed in [3u64, 11, 42] {
        let sigma = generate(&OntologyProfile {
            existential: 3,
            full: 6,
            egds: 0,
            cyclic: false,
            seed,
        });
        let db = generate_database(&sigma, 10, seed);
        for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
            let mut reference: Option<(Vec<Fact>, chase_engine::ChaseStats)> = None;
            for workers in test_worker_counts() {
                let out = Chase::oblivious(&sigma, variant)
                    .workers(workers)
                    .with_budget(ChaseBudget::unlimited().with_max_steps(5_000))
                    .run(&db);
                assert!(out.is_terminating(), "seed {seed} {variant:?} diverged");
                let fingerprint = (out.instance().unwrap().sorted_facts(), out.stats().clone());
                match &reference {
                    None => reference = Some(fingerprint),
                    Some(r) => assert_eq!(
                        r, &fingerprint,
                        "worker count {workers} changed the output (seed {seed}, {variant:?})"
                    ),
                }
            }
        }
    }
}

/// Satellite: pool reuse. Worker threads are persistent — a second run on the
/// very same `Chase` session reuses the already-spawned pool threads instead of
/// spawning fresh ones — and must be byte-identical to the first: no state
/// (queued jobs, stale results, panic residue) leaks from one run into the
/// next. Exercised on every variant: the (semi-)oblivious chases run their
/// rounds on the pool, while the standard and core chases ignore `workers`
/// and must repeat themselves exactly as well.
#[test]
fn pool_reuse_across_consecutive_runs_is_byte_identical() {
    use chase_ontology::generator::{generate, generate_database, OntologyProfile};
    let sigma = generate(&OntologyProfile {
        existential: 2,
        full: 5,
        egds: 0,
        cyclic: false,
        seed: 17,
    });
    let db = generate_database(&sigma, 12, 17);
    let budget = ChaseBudget::unlimited().with_max_steps(5_000);
    let sessions = vec![
        ("standard", Chase::standard(&sigma).with_budget(budget)),
        (
            "oblivious",
            Chase::oblivious(&sigma, ObliviousVariant::Oblivious).with_budget(budget),
        ),
        (
            "semi-oblivious",
            Chase::semi_oblivious(&sigma).with_budget(budget),
        ),
        ("core", Chase::core(&sigma).with_budget(budget)),
    ];
    for (name, session) in sessions {
        let session = session.workers(4);
        let first = session.run(&db);
        let second = session.run(&db);
        assert_eq!(
            first, second,
            "{name}: second run on the same session (reusing the pool) diverged"
        );
        assert!(first.is_terminating(), "{name}: fixture must terminate");
    }
}

// ---------------------------------------------------------------------------------
// Value-based shadow model of the pre-refactor `Instance`
// ---------------------------------------------------------------------------------

/// The legacy value-based instance semantics, re-implemented verbatim as an
/// executable specification: a `HashSet<Fact>` plus the scan-sort-rewrite
/// substitution. The arena-interned, `FactId`-backed [`Instance`] must be
/// observationally identical to this model on every operation sequence.
#[derive(Default)]
struct ValueInstance {
    facts: std::collections::HashSet<Fact>,
}

impl ValueInstance {
    fn insert(&mut self, fact: Fact) -> bool {
        self.facts.insert(fact)
    }

    fn remove(&mut self, fact: &Fact) -> bool {
        self.facts.remove(fact)
    }

    fn contains(&self, fact: &Fact) -> bool {
        self.facts.contains(fact)
    }

    fn len(&self) -> usize {
        self.facts.len()
    }

    /// The pre-refactor `Instance::substitute_in_place`: find the facts mentioning
    /// the null by scanning, rewrite them in sorted order, report the images.
    fn substitute_in_place(&mut self, gamma: &NullSubstitution) -> Vec<Fact> {
        let Some((null, _)) = gamma.mapping() else {
            return Vec::new();
        };
        let mut changed: Vec<Fact> = self
            .facts
            .iter()
            .filter(|f| f.nulls().contains(&null))
            .cloned()
            .collect();
        changed.sort();
        let mut rewritten = Vec::with_capacity(changed.len());
        for f in changed {
            self.facts.remove(&f);
            let g = f.apply(gamma);
            self.facts.insert(g.clone());
            rewritten.push(g);
        }
        rewritten
    }

    fn sorted_facts(&self) -> Vec<Fact> {
        let mut v: Vec<Fact> = self.facts.iter().cloned().collect();
        v.sort();
        v
    }

    /// The pre-refactor `Display` rendering.
    fn render(&self) -> String {
        let body: Vec<String> = self.sorted_facts().iter().map(|f| f.to_string()).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// One mutation of the differential store test.
#[derive(Clone, Debug)]
enum StoreOp {
    Insert(Fact),
    Remove(Fact),
    Substitute(u64, GroundTerm),
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        // Two insert arms keep the op mix insert-heavy (the stand-in proptest
        // has no weighted unions), so instances actually grow before they churn.
        fact().prop_map(StoreOp::Insert),
        fact().prop_map(StoreOp::Insert),
        fact().prop_map(StoreOp::Remove),
        ((0..4u64), ground_term()).prop_map(|(n, to)| StoreOp::Substitute(n, to)),
    ]
}

fn small_database() -> impl Strategy<Value = Instance> {
    prop::collection::vec(
        prop_oneof![
            ((0..2u8), (0..4u8)).prop_map(|(p, c)| Fact::from_parts(
                &format!("U{p}"),
                vec![GroundTerm::Const(Constant::new(&format!("c{c}")))]
            )),
            ((0..3u8), (0..4u8), (0..4u8)).prop_map(|(p, a, b)| Fact::from_parts(
                &format!("B{p}"),
                vec![
                    GroundTerm::Const(Constant::new(&format!("c{a}"))),
                    GroundTerm::Const(Constant::new(&format!("c{b}"))),
                ]
            )),
        ],
        0..6,
    )
    .prop_map(Instance::from_facts)
}

// ---------------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Applying a null substitution never increases the number of facts and removes the
    /// substituted null entirely.
    #[test]
    fn substitution_shrinks_or_preserves_instances(inst in instance(12), to in ground_term()) {
        let target = NullValue(0);
        prop_assume!(GroundTerm::Null(target) != to);
        let gamma = NullSubstitution::single(target, to);
        let after = inst.apply_substitution(&gamma);
        prop_assert!(after.len() <= inst.len());
        prop_assert!(!after.nulls().contains(&target));
    }

    /// The core of an instance is a sub-instance, is itself a core, and the original
    /// instance maps homomorphically into it.
    #[test]
    fn core_is_a_homomorphically_equivalent_subinstance(inst in instance(8)) {
        let core = core_of(&inst);
        prop_assert!(core.is_subinstance_of(&inst));
        prop_assert!(is_core(&core));
        prop_assert!(chase_engine::homomorphically_equivalent(&core, &inst));
        // Idempotence.
        prop_assert_eq!(core_of(&core), core);
    }

    /// Instances round-trip through the textual format.
    #[test]
    fn database_round_trips_through_parser(db in small_database()) {
        let src = to_source(&DependencySet::new(), &db);
        let parsed = parse_program(&src).unwrap();
        prop_assert_eq!(parsed.database, db);
        prop_assert!(parsed.dependencies.is_empty());
    }

    /// On forward-flowing dependency sets the standard chase terminates and, when it
    /// does not fail, its result is a model of the input.
    #[test]
    fn chase_result_is_a_model(sigma in terminating_dependency_set(), db in small_database()) {
        let out = Chase::standard(&sigma)
            .with_order(StepOrder::EgdsFirst)
            .with_budget(ChaseBudget::unlimited().with_max_steps(50_000))
            .run(&db);
        prop_assert!(!out.is_budget_exhausted(), "forward-flowing set diverged");
        if let Some(model) = out.instance() {
            prop_assert!(db.is_subinstance_of(model));
            prop_assert!(satisfies_all(model, &sigma));
        }
    }

    /// The core chase agrees with the standard chase about satisfiability and produces
    /// a model that maps into the standard-chase model.
    #[test]
    fn core_chase_agrees_with_standard_chase(sigma in terminating_dependency_set(), db in small_database()) {
        let std_out = Chase::standard(&sigma)
            .with_order(StepOrder::EgdsFirst)
            .with_budget(ChaseBudget::unlimited().with_max_steps(50_000))
            .run(&db);
        let core_out = Chase::core(&sigma)
            .with_budget(ChaseBudget::unlimited().with_max_rounds(200))
            .run(&db);
        prop_assert!(!std_out.is_budget_exhausted());
        prop_assert!(!core_out.is_budget_exhausted());
        prop_assert_eq!(std_out.is_failing(), core_out.is_failing());
        if let (Some(std_model), Some(core_model)) = (std_out.instance(), core_out.instance()) {
            prop_assert!(satisfies_all(core_model, &sigma));
            prop_assert!(chase_engine::universal::maps_into(core_model, std_model));
        }
    }

    /// Criteria are sound on the generated sets: if weak acyclicity (an all-sequences
    /// criterion) accepts, then every policy of the standard chase halts.
    #[test]
    fn weak_acyclicity_soundness(sigma in terminating_dependency_set(), db in small_database()) {
        use chase_criteria::prelude::*;
        if WeakAcyclicity.accepts(&sigma) {
            for order in [StepOrder::Textual, StepOrder::EgdsFirst, StepOrder::FullFirst] {
                let out = Chase::standard(&sigma)
                    .with_order(order)
                    .with_budget(ChaseBudget::unlimited().with_max_steps(50_000))
                    .run(&db);
                prop_assert!(!out.is_budget_exhausted());
            }
            // And the paper's criteria accept at least everything weak acyclicity
            // accepts.
            prop_assert!(chase_termination::SemiAcyclicity::default().accepts(&sigma));
        }
    }

    /// Differential test of the unified join engine: on random conjunctive bodies —
    /// with repeated variables, constants, nulls, unbound (single-occurrence)
    /// variables, empty bodies and 0-ary atoms — the indexed join (both the
    /// transient per-query index over a plain `Instance` and the maintained indexes
    /// of an `IndexedInstance`) and the retained naive full-scan reference return
    /// exactly the same set of homomorphisms, as canonicalized assignments.
    /// (The chase-level counterpart under all four `StepOrder` policies is
    /// `trigger_engine_matches_naive_rescan` below.)
    #[test]
    fn indexed_join_matches_naive_scan_reference(
        body in query_body(),
        inst in query_instance(),
        bind in 0..3usize,
    ) {
        // Optionally pre-bind v0, to exercise partial-assignment seeding: to a
        // constant present in the schema (bind = 1) or to a null (bind = 2).
        let partial = match bind {
            1 => Assignment::from_pairs([(
                Variable::new("v0"),
                GroundTerm::Const(Constant::new("c0")),
            )]),
            2 => Assignment::from_pairs([(Variable::new("v0"), GroundTerm::Null(NullValue(0)))]),
            _ => Assignment::new(),
        };
        let reference = canonical_set(&naive_homomorphisms_extending(&body, &inst, &partial));
        let via_transient = canonical_set(&homomorphisms_extending(&body, &inst, &partial));
        prop_assert_eq!(
            &reference,
            &via_transient,
            "transient-index join disagrees with the naive scan on body {:?} over {}",
            &body,
            &inst
        );
        let indexed = IndexedInstance::from_instance(inst.clone());
        let mut via_maintained = Vec::new();
        HomomorphismSearch::over_index(&body, &indexed).for_each_extending::<()>(
            &partial,
            &mut |h| {
                via_maintained.push(h.clone());
                ControlFlow::Continue(())
            },
        );
        // The engine must also visit each homomorphism exactly once.
        prop_assert_eq!(via_maintained.len(), canonical_set(&via_maintained).len());
        prop_assert_eq!(
            &reference,
            &canonical_set(&via_maintained),
            "maintained-index join disagrees with the naive scan on body {:?} over {}",
            &body,
            &inst
        );
    }

    /// The delta-driven trigger engine and the naive full re-scan are equivalent:
    /// on random ontology-style programs they agree, under every trigger-selection
    /// policy, on the chase outcome, and when both terminate their results are
    /// homomorphically equivalent models with identical null-free parts.
    #[test]
    fn trigger_engine_matches_naive_rescan(seed in 0..1000u64, facts in 1..10usize) {
        use chase_engine::TriggerDiscovery;
        use chase_ontology::generator::{generate, generate_database, OntologyProfile};
        let profile = OntologyProfile {
            existential: (seed % 4) as usize + 1,
            full: (seed % 7) as usize + 2,
            egds: (seed % 3) as usize,
            cyclic: false,
            seed,
        };
        let sigma = generate(&profile);
        let db = generate_database(&sigma, facts, seed ^ 0x00ab_cdef);
        for order in [
            StepOrder::Textual,
            StepOrder::EgdsFirst,
            StepOrder::FullFirst,
            StepOrder::Shuffled(seed),
        ] {
            let runner = Chase::standard(&sigma)
                .with_order(order)
                .with_budget(ChaseBudget::unlimited().with_max_steps(20_000));
            let naive = runner
                .clone()
                .with_discovery(TriggerDiscovery::NaiveRescan)
                .run(&db);
            let incremental = runner
                .clone()
                .with_discovery(TriggerDiscovery::Incremental)
                .run(&db);
            prop_assert_eq!(
                naive.is_terminating(),
                incremental.is_terminating(),
                "termination disagrees under {:?} (seed {})",
                order,
                seed
            );
            prop_assert_eq!(
                naive.is_failing(),
                incremental.is_failing(),
                "failure disagrees under {:?} (seed {})",
                order,
                seed
            );
            if let (Some(a), Some(b)) = (naive.instance(), incremental.instance()) {
                prop_assert_eq!(a.null_free_part(), b.null_free_part());
                prop_assert!(
                    chase_engine::homomorphically_equivalent(a, b),
                    "results differ under {:?} (seed {}):\n  naive: {}\n  incr:  {}",
                    order,
                    seed,
                    a,
                    b
                );
                prop_assert!(satisfies_all(a, &sigma));
                prop_assert!(satisfies_all(b, &sigma));
            }
        }
    }

    /// Differential test of the arena-interned fact store: a store-backed
    /// [`Instance`] driven through an arbitrary sequence of inserts, removes and
    /// EGD substitutions is observationally identical to the pre-refactor
    /// value-based semantics (re-implemented as [`ValueInstance`]) — same
    /// insert/dedup booleans, same substitution deltas in the same order, same
    /// membership answers, same sorted fact order, same `Display` rendering — and
    /// the mutated instance answers joins identically through all three engine
    /// paths (transient per-query index, maintained `IndexedInstance` indexes,
    /// naive full scan).
    #[test]
    fn store_backed_instance_matches_value_semantics(
        ops in prop::collection::vec(store_op(), 0..40),
        body in query_body(),
        probe in fact(),
    ) {
        let mut inst = Instance::new();
        let mut shadow = ValueInstance::default();
        for op in ops {
            match op {
                StoreOp::Insert(f) => {
                    prop_assert_eq!(inst.insert(f.clone()), shadow.insert(f));
                }
                StoreOp::Remove(f) => {
                    prop_assert_eq!(inst.remove(&f), shadow.remove(&f));
                }
                StoreOp::Substitute(n, to) => {
                    let target = NullValue(n);
                    if GroundTerm::Null(target) == to {
                        continue;
                    }
                    let gamma = NullSubstitution::single(target, to);
                    let delta = inst.substitute_in_place(&gamma);
                    let shadow_delta = shadow.substitute_in_place(&gamma);
                    prop_assert_eq!(delta, shadow_delta, "substitution deltas diverged");
                }
            }
            prop_assert_eq!(inst.len(), shadow.len());
            prop_assert_eq!(inst.contains(&probe), shadow.contains(&probe));
        }
        prop_assert_eq!(inst.sorted_facts(), shadow.sorted_facts());
        prop_assert_eq!(inst.to_string(), shadow.render());
        // The churned, store-backed instance must answer joins exactly like the
        // value model — through every engine path.
        let reference_inst = Instance::from_facts(shadow.sorted_facts());
        let reference = canonical_set(&naive_homomorphisms_extending(
            &body,
            &reference_inst,
            &Assignment::new(),
        ));
        let via_naive = canonical_set(&naive_homomorphisms_extending(
            &body,
            &inst,
            &Assignment::new(),
        ));
        let via_transient = canonical_set(&homomorphisms_extending(&body, &inst, &Assignment::new()));
        let indexed = IndexedInstance::from_instance(inst.clone());
        let mut via_maintained = Vec::new();
        HomomorphismSearch::over_index(&body, &indexed).for_each_extending::<()>(
            &Assignment::new(),
            &mut |h| {
                via_maintained.push(h.clone());
                ControlFlow::Continue(())
            },
        );
        prop_assert_eq!(&reference, &via_naive, "naive scan over the store diverged");
        prop_assert_eq!(&reference, &via_transient, "transient-index join diverged");
        prop_assert_eq!(
            &reference,
            &canonical_set(&via_maintained),
            "maintained-index join diverged"
        );
    }

    /// Differential test of the round-parallel chase runner (satellite of the
    /// parallel-execution tentpole): on random `OntologyProfile` corpora — with
    /// and without EGDs, terminating and diverging — the parallel runner at 2,
    /// 3, 4, 7 and 8 workers (plus `CHASE_TEST_WORKERS`, if set) agrees with
    /// the sequential runner:
    ///
    /// * the **standard** chase ignores `workers`, so it is *bitwise identical*
    ///   to `workers(1)`: outcome, stats and the full observer event stream
    ///   (phase events included, durations excluded);
    /// * the **(semi-)oblivious** chases produce instances isomorphic to the
    ///   sequential result — equal up to a renaming of labeled nulls, verified by
    ///   an exact bijection search — with identical `ChaseOutcome` kind, tripped
    ///   `BudgetLimit`, `ChaseStats`, and per-`(dep, effect)` observer event
    ///   multisets;
    /// * all parallel worker counts are *byte-identical* to each other
    ///   (instances, stats, full observer streams — the metamorphic determinism
    ///   contract).
    #[test]
    fn parallel_runner_matches_sequential_runner(seed in 0..200u64, facts in 2..8usize) {
        use chase_ontology::generator::{generate, generate_database, OntologyProfile};
        let profile = OntologyProfile {
            existential: (seed % 4) as usize + 1,
            full: (seed % 6) as usize + 2,
            egds: if seed % 3 == 0 { 1 } else { 0 },
            cyclic: seed % 5 == 0,
            seed,
        };
        let sigma = generate(&profile);
        let db = generate_database(&sigma, facts, seed ^ 0x00c0_ffee);
        let budget = ChaseBudget::unlimited().with_max_steps(300);
        let sessions = vec![
            ("standard", Chase::standard(&sigma).with_budget(budget)),
            (
                "oblivious",
                Chase::oblivious(&sigma, ObliviousVariant::Oblivious).with_budget(budget),
            ),
            (
                "semi-oblivious",
                Chase::semi_oblivious(&sigma).with_budget(budget),
            ),
        ];
        for (name, session) in sessions {
            let mut seq_trace = TraceObserver::new();
            let sequential = session.clone().run_observed(&db, &mut seq_trace);
            let seq_events = (name == "standard").then(|| timeless_events(&session, &db));
            let mut previous: Option<(ChaseOutcome, TraceObserver)> = None;
            for workers in test_worker_counts() {
                let mut trace = TraceObserver::new();
                let parallel = session.clone().workers(workers).run_observed(&db, &mut trace);
                // Outcome kind, tripped limit and step count match the
                // sequential runner exactly.
                prop_assert_eq!(
                    std::mem::discriminant(&sequential),
                    std::mem::discriminant(&parallel),
                    "{} outcome kind diverged at {} workers (seed {})",
                    name, workers, seed
                );
                prop_assert_eq!(
                    sequential.exhausted_limit(),
                    parallel.exhausted_limit(),
                    "{} tripped limit diverged at {} workers (seed {})",
                    name, workers, seed
                );
                prop_assert_eq!(
                    sequential.stats().steps,
                    parallel.stats().steps,
                    "{} step count diverged at {} workers (seed {})",
                    name, workers, seed
                );
                if let Some(seq_events) = &seq_events {
                    // The standard chase runs sequentially at every worker
                    // count: bitwise identity, not mere isomorphism.
                    prop_assert_eq!(
                        &sequential,
                        &parallel,
                        "standard chase must be bitwise identical at {} workers (seed {})",
                        workers,
                        seed
                    );
                    prop_assert_eq!(&seq_trace.steps, &trace.steps);
                    prop_assert_eq!(
                        seq_events,
                        &timeless_events(&session.clone().workers(workers), &db),
                        "standard chase event stream diverged at {} workers (seed {})",
                        workers,
                        seed
                    );
                } else {
                    if sequential.is_terminating() {
                        prop_assert_eq!(sequential.stats(), parallel.stats());
                        prop_assert!(
                            isomorphic_up_to_null_renaming(
                                sequential.instance().unwrap(),
                                parallel.instance().unwrap()
                            ),
                            "{} results not isomorphic at {} workers (seed {}):\n  seq: {}\n  par: {}",
                            name, workers, seed,
                            sequential.instance().unwrap(),
                            parallel.instance().unwrap()
                        );
                        prop_assert_eq!(
                            event_multiset(&seq_trace),
                            event_multiset(&trace),
                            "{} observer event multisets diverged at {} workers (seed {})",
                            name, workers, seed
                        );
                    }
                }
                // Metamorphic determinism: every parallel worker count is
                // byte-identical to every other (instances, stats, full traces).
                if let Some((prev_out, prev_trace)) = &previous {
                    prop_assert_eq!(prev_out, &parallel);
                    prop_assert_eq!(&prev_trace.steps, &trace.steps);
                    prop_assert_eq!(&prev_trace.rounds, &trace.rounds);
                    prop_assert_eq!(&prev_trace.round_null_counts, &trace.round_null_counts);
                    prop_assert_eq!(prev_trace.nulls, trace.nulls);
                }
                previous = Some((parallel, trace));
            }
        }
    }

    /// Dependency sets round-trip through the textual format.
    #[test]
    fn dependency_sets_round_trip_through_parser(sigma in terminating_dependency_set()) {
        let src = to_source(&sigma, &Instance::new());
        let parsed = chase_core::parser::parse_dependencies(&src).unwrap();
        prop_assert_eq!(parsed.len(), sigma.len());
        for (a, b) in sigma.as_slice().iter().zip(parsed.as_slice()) {
            prop_assert_eq!(a.body().len(), b.body().len());
            prop_assert_eq!(a.is_egd(), b.is_egd());
            prop_assert_eq!(a.is_full(), b.is_full());
        }
    }
}
