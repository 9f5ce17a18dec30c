//! Integration tests for the unified `Chase` session API and the witness-producing
//! `TerminationAnalyzer`:
//!
//! * every registered criterion's verdict agrees with the standalone criterion
//!   struct's `accepts` across seeded `OntologyProfile` outputs — these tests pin
//!   that the analyzer's registry delegates faithfully;
//! * budget enforcement: no variant ever exceeds `max_steps`, fresh-null overshoot
//!   is bounded by a single step's worth, and exhausted runs report the tripped
//!   limit;
//! * `ChaseOutcome::Failed` carries full EGD diagnostics in every variant.

use chase_ontology::generator::{generate, generate_database, OntologyProfile};
use egd_chase::prelude::*;
use std::time::Duration;

fn seeded_corpus() -> Vec<DependencySet> {
    let mut sets = Vec::new();
    for seed in 0..10u64 {
        sets.push(generate(&OntologyProfile {
            existential: (seed % 3) as usize + 1,
            full: (seed % 5) as usize + 3,
            egds: (seed % 3) as usize,
            cyclic: seed % 2 == 0,
            seed,
        }));
    }
    sets
}

#[test]
fn every_criterion_verdict_agrees_with_its_legacy_boolean() {
    type StandaloneCheck = (&'static str, fn(&DependencySet) -> bool);
    let standalone: Vec<StandaloneCheck> = vec![
        ("WA", |s| WeakAcyclicity.accepts(s)),
        ("SC", |s| Safety.accepts(s)),
        ("SwA", |s| SuperWeakAcyclicity.accepts(s)),
        ("Str", |s| Stratification.accepts(s)),
        ("CStr", |s| CStratification.accepts(s)),
        ("MFA", |s| ModelFaithfulAcyclicity.accepts(s)),
        ("S-Str", |s| SemiStratification.accepts(s)),
        ("SAC", |s| SemiAcyclicity.accepts(s)),
        ("Adn-WA", |s| AdnCombined::weak_acyclicity().accepts(s)),
        ("Adn-SC", |s| AdnCombined::safety().accepts(s)),
        ("Adn-SwA", |s| {
            AdnCombined::super_weak_acyclicity().accepts(s)
        }),
    ];
    let criteria = all_criteria();
    assert_eq!(
        criteria.len(),
        standalone.len(),
        "a registered criterion is missing from the standalone table"
    );
    for (i, sigma) in seeded_corpus().into_iter().enumerate() {
        for (name, check) in &standalone {
            let criterion = criteria
                .iter()
                .find(|c| c.name() == *name)
                .unwrap_or_else(|| panic!("criterion {name} not registered"));
            let verdict = criterion.verdict(&sigma);
            assert_eq!(
                verdict.accepted,
                check(&sigma),
                "registry verdict and standalone criterion disagree for {name} on seeded set #{i}:\n{sigma}"
            );
            assert_eq!(verdict.criterion, *name);
        }
    }
}

#[test]
fn wa_sc_swa_verdicts_match_the_independent_graph_predicates() {
    // The registry delegates to the verdict implementations, so the agreement
    // test above cannot catch a bug in the cycle *extraction* (both sides would
    // flip together). These oracles are independent: the original SCC-based boolean
    // predicates over the same graphs, untouched by the redesign.
    use chase_criteria::safety::propagation_graph;
    use chase_criteria::super_weak::trigger_graph;
    use chase_criteria::weak_acyclicity::dependency_graph;
    for (i, sigma) in seeded_corpus().into_iter().enumerate() {
        let (wa_graph, _) = dependency_graph(&sigma);
        assert_eq!(
            WeakAcyclicity.accepts(&sigma),
            !wa_graph.has_cycle_through_marked_edge(),
            "WA verdict disagrees with the boolean graph predicate on set #{i}"
        );
        let (sc_graph, _) = propagation_graph(&sigma);
        assert_eq!(
            Safety.accepts(&sigma),
            !sc_graph.has_cycle_through_marked_edge(),
            "SC verdict disagrees with the boolean graph predicate on set #{i}"
        );
        let analysed = if sigma.egd_ids().is_empty() {
            sigma.clone()
        } else {
            substitution_free_simulation(&sigma)
        };
        assert_eq!(
            SuperWeakAcyclicity.accepts(&sigma),
            !trigger_graph(&analysed).has_cycle(),
            "SwA verdict disagrees with the boolean trigger-graph predicate on set #{i}"
        );
    }
}

#[test]
fn analyzer_conclusion_matches_the_legacy_portfolio() {
    for sigma in seeded_corpus() {
        let report = TerminationAnalyzer::new().analyze(&sigma);
        let legacy_any = all_criteria().iter().any(|c| c.accepts(&sigma));
        assert_eq!(report.is_terminating(), legacy_any, "on\n{sigma}");
    }
}

fn diverging_program() -> (DependencySet, Instance) {
    // Σ10: no terminating sequence under any policy — ideal for budget tests.
    let p = parse_program(
        r#"
        r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z).
        r2: E(?x, ?y, ?y) -> N(?y).
        r3: E(?x, ?y, ?z) -> ?y = ?z.
        N(a).
        "#,
    )
    .unwrap();
    (p.dependencies, p.database)
}

/// The largest number of existential variables in a single rule: the per-step bound
/// on fresh-null overshoot.
fn max_existentials(sigma: &DependencySet) -> usize {
    sigma
        .iter()
        .filter_map(|(_, d)| d.as_tgd().map(|t| t.existential_variables().len()))
        .max()
        .unwrap_or(0)
}

#[test]
fn no_variant_ever_exceeds_max_steps() {
    let (sigma10, db10) = diverging_program();
    for max_steps in [1usize, 7, 50] {
        let budget = ChaseBudget::unlimited().with_max_steps(max_steps);
        for order in [
            StepOrder::Textual,
            StepOrder::EgdsFirst,
            StepOrder::FullFirst,
        ] {
            for discovery in [TriggerDiscovery::Incremental, TriggerDiscovery::NaiveRescan] {
                let out = Chase::standard(&sigma10)
                    .with_order(order)
                    .with_discovery(discovery)
                    .with_budget(budget)
                    .run(&db10);
                assert!(out.stats().steps <= max_steps);
                assert_eq!(out.exhausted_limit(), Some(BudgetLimit::Steps));
            }
        }
        for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
            let out = Chase::oblivious(&sigma10, variant)
                .with_budget(budget)
                .run(&db10);
            assert!(out.stats().steps <= max_steps);
            assert_eq!(out.exhausted_limit(), Some(BudgetLimit::Steps));
        }
    }
    // And on terminating seeded workloads the cap is still respected.
    for (i, sigma) in seeded_corpus().into_iter().enumerate() {
        let db = generate_database(&sigma, 5, i as u64);
        let out = Chase::standard(&sigma)
            .with_budget(ChaseBudget::unlimited().with_max_steps(25))
            .run(&db);
        assert!(
            out.stats().steps <= 25,
            "set #{i} exceeded max_steps: {}",
            out.stats().steps
        );
    }
}

#[test]
fn fresh_null_budget_is_enforced_with_bounded_overshoot() {
    let (sigma10, db10) = diverging_program();
    let slack = max_existentials(&sigma10);
    for max_nulls in [1usize, 4, 9] {
        let out = Chase::standard(&sigma10)
            .with_order(StepOrder::Textual)
            .with_budget(ChaseBudget::unlimited().with_max_fresh_nulls(max_nulls))
            .run(&db10);
        assert_eq!(out.exhausted_limit(), Some(BudgetLimit::FreshNulls));
        assert!(
            out.stats().nulls_created <= max_nulls + slack,
            "nulls_created {} exceeds {max_nulls} by more than one step's worth ({slack})",
            out.stats().nulls_created
        );
    }
}

#[test]
fn facts_rounds_and_wall_clock_budgets_report_their_limit() {
    let (sigma10, db10) = diverging_program();

    let facts = Chase::standard(&sigma10)
        .with_order(StepOrder::Textual)
        .with_budget(ChaseBudget::unlimited().with_max_facts(6))
        .run(&db10);
    assert_eq!(facts.exhausted_limit(), Some(BudgetLimit::Facts));
    assert!(facts.instance().unwrap().len() >= 6);

    let rounds = Chase::core(&sigma10)
        .with_budget(ChaseBudget::unlimited().with_max_rounds(3))
        .run(&db10);
    assert_eq!(rounds.exhausted_limit(), Some(BudgetLimit::Rounds));
    assert!(rounds.stats().steps <= 3);

    let clock = Chase::standard(&sigma10)
        .with_order(StepOrder::Textual)
        .with_budget(ChaseBudget::unlimited().with_wall_clock(Duration::ZERO))
        .run(&db10);
    assert_eq!(clock.exhausted_limit(), Some(BudgetLimit::WallClock));
    assert_eq!(
        clock.stats().steps,
        0,
        "a zero deadline stops before any step"
    );
}

#[test]
fn default_budget_still_bounds_every_variant() {
    // `ChaseBudget::default()` carries the legacy caps, so a plain `run` on a
    // diverging set cannot spin forever.
    let (sigma10, db10) = diverging_program();
    let out = Chase::standard(&sigma10)
        .with_budget(ChaseBudget::default().with_max_steps(500))
        .run(&db10);
    assert!(out.is_budget_exhausted());
}

#[test]
fn failed_outcomes_carry_diagnostics_in_every_variant() {
    let p = parse_program(
        r#"
        k: P(?x, ?y), P(?x, ?z) -> ?y = ?z.
        P(a, b). P(a, c).
        "#,
    )
    .unwrap();
    let sessions: Vec<(&str, ChaseOutcome)> = vec![
        (
            "standard",
            Chase::standard(&p.dependencies).run(&p.database),
        ),
        (
            "oblivious",
            Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious).run(&p.database),
        ),
        (
            "semi-oblivious",
            Chase::semi_oblivious(&p.dependencies).run(&p.database),
        ),
        ("core", Chase::core(&p.dependencies).run(&p.database)),
    ];
    for (name, out) in sessions {
        assert!(out.is_failing(), "{name} must fail on the violated key");
        let violation = out
            .violation()
            .unwrap_or_else(|| panic!("{name}: no violation"));
        assert_eq!(violation.dep, DepId(0), "{name}");
        assert_eq!(violation.label.as_deref(), Some("k"), "{name}");
        let mut equated = [violation.left.to_string(), violation.right.to_string()];
        equated.sort();
        assert_eq!(equated, ["b".to_string(), "c".to_string()], "{name}");
        let rendered = out.to_string();
        assert!(rendered.contains("EGD k"), "{name}: {rendered}");
    }
}

#[test]
fn failing_core_round_still_reports_its_nulls_to_the_observer() {
    // A round whose TGD triggers invent nulls before an EGD merge fails: the
    // observer stream must stay consistent with the statistics.
    let p = parse_program(
        r#"
        r1: A(?x) -> exists ?y: R(?x, ?y).
        k: P(?x, ?y), P(?x, ?z) -> ?y = ?z.
        A(a). P(a, b). P(a, c).
        "#,
    )
    .unwrap();
    let mut trace = TraceObserver::new();
    let out = Chase::core(&p.dependencies).run_observed(&p.database, &mut trace);
    assert!(out.is_failing());
    assert!(out.stats().nulls_created >= 1, "the TGD fired in the round");
    assert_eq!(trace.nulls, out.stats().nulls_created);
}

/// Tagged event stream for the round-order tests below.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Ev {
    Step,
    Nulls(usize),
    Collapse,
    Round(usize),
    RoundNulls(usize),
}

#[derive(Default)]
struct TaggedObserver(Vec<Ev>);

impl ChaseObserver for TaggedObserver {
    fn step_applied(&mut self, _t: &Trigger, _e: &StepEffect) {
        self.0.push(Ev::Step);
    }
    fn nulls_created(&mut self, count: usize) {
        self.0.push(Ev::Nulls(count));
    }
    fn egd_collapsed(&mut self, _gamma: &chase_core::NullSubstitution) {
        self.0.push(Ev::Collapse);
    }
    fn round_completed(&mut self, round: usize, _facts: usize) {
        self.0.push(Ev::Round(round));
    }
    fn round_nulls(&mut self, nulls: usize) {
        self.0.push(Ev::RoundNulls(nulls));
    }
}

/// The unified round-event contract (see `chase_engine::observer`):
/// `round_completed` is immediately followed by `round_nulls`, after every other
/// event of the round — in *both* round-emitting runners, even when a round both
/// creates and collapses nulls.
fn assert_round_pairs_adjacent(stream: &[Ev], context: &str) -> usize {
    let mut pairs = 0;
    for (i, ev) in stream.iter().enumerate() {
        if let Ev::Round(_) = ev {
            assert!(
                matches!(stream.get(i + 1), Some(Ev::RoundNulls(_))),
                "{context}: round_completed at {i} not immediately followed by round_nulls: {stream:?}"
            );
            pairs += 1;
        }
        if let Ev::RoundNulls(_) = ev {
            assert!(
                i > 0 && matches!(stream[i - 1], Ev::Round(_)),
                "{context}: round_nulls at {i} without a preceding round_completed: {stream:?}"
            );
        }
    }
    pairs
}

#[test]
fn round_events_are_ordered_consistently_across_runners() {
    // A core-chase round that both creates a null (r3 fires on T(η1)) and
    // collapses one (k merges η1 into c): the aggregate `nulls_created` must
    // precede the round's `egd_collapsed` events, and the round pair comes last.
    let p = parse_program(
        r#"
        r1: A(?x) -> exists ?y: R(?x, ?y), T(?y).
        r2: B(?x) -> R(?x, c).
        r3: T(?y) -> exists ?z: S(?y, ?z).
        k: R(?x, ?y1), R(?x, ?y2) -> ?y1 = ?y2.
        A(a). B(a).
        "#,
    )
    .unwrap();
    let mut tagged = TaggedObserver::default();
    let out = Chase::core(&p.dependencies).run_observed(&p.database, &mut tagged);
    assert!(out.is_terminating(), "unexpected outcome: {out}");
    let stream = tagged.0;
    let rounds = assert_round_pairs_adjacent(&stream, "core");
    assert_eq!(rounds, out.stats().steps, "one pair per core round");
    // Locate the mixed round: it has both a Nulls and a Collapse event between
    // the previous pair and its own, with Nulls first.
    let collapse_at = stream
        .iter()
        .position(|e| *e == Ev::Collapse)
        .expect("the key EGD must collapse η1");
    let nulls_before = stream[..collapse_at]
        .iter()
        .rev()
        .take_while(|e| !matches!(e, Ev::Round(_)))
        .any(|e| matches!(e, Ev::Nulls(_)));
    assert!(
        nulls_before,
        "the mixed round must report its created nulls before its collapses: {stream:?}"
    );
    assert!(out.stats().nulls_created >= 2 && out.stats().null_replacements >= 1);

    // The round runner obeys the same contract: step events of round k
    // strictly precede round k's adjacent pair.
    let q = parse_program(
        r#"
        r1: A(?x) -> exists ?y: R(?x, ?y).
        r2: R(?x, ?y) -> S(?y, ?x).
        A(a). A(b).
        "#,
    )
    .unwrap();
    let mut tagged = TaggedObserver::default();
    let out = Chase::semi_oblivious(&q.dependencies)
        .workers(4)
        .run_observed(&q.database, &mut tagged);
    assert!(out.is_terminating());
    let stream = tagged.0;
    let rounds = assert_round_pairs_adjacent(&stream, "round runner");
    assert!(rounds >= 2, "expected at least two rounds: {stream:?}");
    // Round numbers are 1-based and increase; steps never land inside a pair.
    let round_numbers: Vec<usize> = stream
        .iter()
        .filter_map(|e| match e {
            Ev::Round(r) => Some(*r),
            _ => None,
        })
        .collect();
    assert_eq!(round_numbers, (1..=rounds).collect::<Vec<_>>());
    // The per-step runners emit no round events at all. An EGD-bearing set
    // runs the (semi-)oblivious chase step by step at every worker count.
    let e = parse_program(
        r#"
        r1: A(?x) -> exists ?y: R(?x, ?y).
        r2: R(?x, ?y) -> S(?y, ?x).
        k: R(?x, ?y), R(?x, ?z) -> ?y = ?z.
        A(a). A(b).
        "#,
    )
    .unwrap();
    let mut tagged = TaggedObserver::default();
    Chase::semi_oblivious(&e.dependencies).run_observed(&e.database, &mut tagged);
    assert!(tagged.0.iter().any(|e| matches!(e, Ev::Step)));
    assert!(
        tagged
            .0
            .iter()
            .all(|e| !matches!(e, Ev::Round(_) | Ev::RoundNulls(_))),
        "per-step runners must not report rounds: {:?}",
        tagged.0
    );
}

#[test]
fn trace_observer_records_round_nulls() {
    // Regression: `TraceObserver` used to drop `round_nulls` events, so round
    // streams could not be compared across runners.
    let p = parse_program(
        r#"
        r1: A(?x) -> exists ?y: R(?x, ?y).
        A(a).
        "#,
    )
    .unwrap();
    let mut trace = TraceObserver::new();
    let out = Chase::core(&p.dependencies).run_observed(&p.database, &mut trace);
    assert!(out.is_terminating());
    assert_eq!(
        trace.round_null_counts.len(),
        trace.rounds.len(),
        "every round_completed must have its round_nulls recorded"
    );
    assert_eq!(trace.round_null_counts, vec![1], "R(a, η1) keeps one null");
}

#[test]
fn observers_see_consistent_event_streams() {
    let (sigma, db) = {
        let p = parse_program(
            r#"
            r1: Emp(?x) -> exists ?d: Works(?x, ?d).
            k: Works(?x, ?d1), Works(?x, ?d2) -> ?d1 = ?d2.
            Emp(e1). Works(e1, d0).
            "#,
        )
        .unwrap();
        (p.dependencies, p.database)
    };
    let mut trace = TraceObserver::new();
    let out = Chase::standard(&sigma).run_observed(&db, &mut trace);
    assert!(out.is_terminating());
    assert_eq!(trace.steps.len(), out.stats().steps);
    assert_eq!(trace.nulls, out.stats().nulls_created);
    assert_eq!(trace.collapses.len(), out.stats().null_replacements);

    let mut core_trace = TraceObserver::new();
    let core = Chase::core(&sigma).run_observed(&db, &mut core_trace);
    assert!(core.is_terminating());
    assert_eq!(core_trace.rounds.len(), core.stats().steps);
    assert_eq!(core_trace.nulls, core.stats().nulls_created);
}
