//! Integration tests spanning all crates: the running examples of the paper
//! (Examples 1–13) executed end to end — parsing, chasing, criteria and the adornment
//! algorithm must all agree with what the paper states.

use egd_chase::prelude::*;

fn sigma1_program() -> (DependencySet, Instance) {
    let p = parse_program(
        r#"
        r1: N(?x) -> exists ?y: E(?x, ?y).
        r2: E(?x, ?y) -> N(?y).
        r3: E(?x, ?y) -> ?x = ?y.
        N(a).
        "#,
    )
    .unwrap();
    (p.dependencies, p.database)
}

#[test]
fn example1_has_a_terminating_and_a_diverging_sequence() {
    let (sigma, db) = sigma1_program();
    // Enforcing r1 then r3 terminates with {N(a), E(a, a)}.
    let good = Chase::standard(&sigma)
        .with_order(StepOrder::EgdsFirst)
        .run(&db);
    assert!(good.is_terminating());
    let model = good.instance().unwrap();
    assert_eq!(model.len(), 2);
    assert!(chase_engine::is_model(model, &db, &sigma));
    // Repeatedly enforcing r1 then r2 diverges.
    let bad = Chase::standard(&sigma)
        .with_order(StepOrder::Textual)
        .with_budget(ChaseBudget::unlimited().with_max_steps(100))
        .run(&db);
    assert!(bad.is_budget_exhausted());
    assert_eq!(bad.exhausted_limit(), Some(BudgetLimit::Steps));
}

#[test]
fn example1_is_recognised_only_by_the_egd_aware_criteria() {
    let (sigma, _) = sigma1_program();
    assert!(!WeakAcyclicity.accepts(&sigma));
    assert!(!Safety.accepts(&sigma));
    assert!(!Stratification.accepts(&sigma));
    assert!(!CStratification.accepts(&sigma));
    assert!(!SuperWeakAcyclicity.accepts(&sigma));
    assert!(!ModelFaithfulAcyclicity.accepts(&sigma));
    // Example 12: the adornment algorithm accepts Σ1 — and the analyzer reports it.
    assert!(SemiAcyclicity.accepts(&sigma));
    let report = TerminationAnalyzer::new().analyze(&sigma);
    assert_eq!(report.accepted().unwrap().criterion, "SAC");
    assert_eq!(report.guarantee(), Some(Guarantee::SomeSequence));
}

#[test]
fn every_criterion_returns_a_non_trivial_witness_on_the_paper_examples() {
    // Acceptance criterion of the API redesign: each of the nine criteria produces a
    // structured (non-trivial) witness on at least one of Σ1–Σ10. The exhaustive
    // analyzer runs all of them on both a rejected and an accepted input.
    let (sigma1, _) = sigma1_program();
    let sigma3 = parse_dependencies(
        "r1: P(?x, ?y) -> exists ?z: E(?x, ?z). r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).",
    )
    .unwrap();
    let analyzer = TerminationAnalyzer::exhaustive();
    let names = [
        "WA", "SC", "SwA", "Str", "CStr", "MFA", "S-Str", "SAC", "Adn-WA",
    ];
    let rejecting = analyzer.analyze(&sigma1);
    let accepting = analyzer.analyze(&sigma3);
    for name in names {
        let witnessed = [&rejecting, &accepting].iter().any(|r| {
            r.verdict_for(name)
                .map(|v| !v.witness.is_trivial())
                .unwrap_or(false)
        });
        assert!(witnessed, "{name} never produced a non-trivial witness");
    }
    // On the weakly acyclic Σ3 every criterion accepts (it is in every class).
    assert!(accepting.entries.iter().all(|e| e.verdict.accepted));
}

#[test]
fn example3_universal_versus_non_universal_models() {
    let p = parse_program(
        r#"
        r1: P(?x, ?y) -> exists ?z: E(?x, ?z).
        r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).
        P(a, b). Q(c, d).
        "#,
    )
    .unwrap();
    let out = Chase::standard(&p.dependencies).run(&p.database);
    let j1 = out.instance().unwrap().clone();
    assert_eq!(j1.len(), 4);
    assert_eq!(j1.nulls().len(), 2);
    // J2 = D ∪ {E(a, d)} is a model but not universal: J1 maps into it, not vice versa.
    let j2 = p
        .database
        .union(&parse_program("E(a, d).").unwrap().database);
    assert!(chase_engine::is_model(&j2, &p.database, &p.dependencies));
    assert!(chase_engine::universal::maps_into(&j1, &j2));
    assert!(!chase_engine::universal::maps_into(&j2, &j1));
}

#[test]
fn example5_trace_of_the_terminating_sequence() {
    let (sigma, db) = sigma1_program();
    let mut trace = TraceObserver::new();
    let out = Chase::standard(&sigma)
        .with_order(StepOrder::EgdsFirst)
        .run_observed(&db, &mut trace);
    assert!(out.is_terminating());
    // The sequence has exactly two steps: r1 (DepId 0) then r3 (DepId 2).
    let steps: Vec<DepId> = trace.steps.iter().map(|(t, _)| t.dep).collect();
    assert_eq!(steps, vec![DepId(0), DepId(2)]);
    // The observer also saw the invented null and the collapsing substitution.
    assert_eq!(trace.nulls, 1);
    assert_eq!(trace.collapses.len(), 1);
}

#[test]
fn example6_separates_the_chase_variants() {
    let p = parse_program("r: E(?x, ?y) -> exists ?z: E(?x, ?z). E(a, b).").unwrap();
    // Standard chase: the empty sequence.
    let std_out = Chase::standard(&p.dependencies).run(&p.database);
    assert!(std_out.is_terminating());
    assert_eq!(std_out.stats().steps, 0);
    // Semi-oblivious: one step, then the frontier-equal trigger is skipped.
    let sobl = Chase::semi_oblivious(&p.dependencies).run(&p.database);
    assert!(sobl.is_terminating());
    assert_eq!(sobl.instance().unwrap().len(), 2);
    // Oblivious: diverges.
    let obl = Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious)
        .with_budget(ChaseBudget::unlimited().with_max_steps(200))
        .run(&p.database);
    assert!(obl.is_budget_exhausted());
    // Example 7: the core chase sequence is empty too.
    let core = Chase::core(&p.dependencies).run(&p.database);
    assert!(core.is_terminating());
    assert_eq!(core.stats().steps, 0);
}

#[test]
fn example8_all_sequences_terminate_but_simulation_based_criteria_reject() {
    let p = parse_program(
        r#"
        r1: A(?x), B(?x) -> C(?x).
        r2: C(?x) -> exists ?y: A(?x), B(?y).
        r3: C(?x) -> exists ?y: A(?y), B(?x).
        r4: A(?x), A(?y) -> ?x = ?y.
        r5: B(?x), B(?y) -> ?x = ?y.
        C(a).
        "#,
    )
    .unwrap();
    // The chase terminates (or fails) under several policies.
    for order in [
        StepOrder::Textual,
        StepOrder::EgdsFirst,
        StepOrder::FullFirst,
    ] {
        let out = Chase::standard(&p.dependencies)
            .with_order(order)
            .with_budget(ChaseBudget::unlimited().with_max_steps(5_000))
            .run(&p.database);
        assert!(
            !out.is_budget_exhausted(),
            "Σ8 must not diverge under {order:?}"
        );
    }
    // Theorem 2: the substitution-free simulation cannot be recognised.
    let simulated = substitution_free_simulation(&p.dependencies);
    assert!(!SuperWeakAcyclicity.accepts(&simulated.tgds_only()));
    assert!(!ModelFaithfulAcyclicity.accepts(&p.dependencies));
    assert!(!SuperWeakAcyclicity.accepts(&p.dependencies));
}

#[test]
fn example9_egds_can_create_termination() {
    // Σ'1 = {r1, r2} has no terminating sequence, adding the EGD r3 creates one.
    let tgds_only =
        parse_dependencies("r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y).").unwrap();
    let db = parse_program("N(a).").unwrap().database;
    for order in [
        StepOrder::Textual,
        StepOrder::EgdsFirst,
        StepOrder::FullFirst,
    ] {
        let out = Chase::standard(&tgds_only)
            .with_order(order)
            .with_budget(ChaseBudget::unlimited().with_max_steps(300))
            .run(&db);
        assert!(out.is_budget_exhausted());
    }
    let (with_egd, db) = sigma1_program();
    let out = Chase::standard(&with_egd)
        .with_order(StepOrder::EgdsFirst)
        .run(&db);
    assert!(out.is_terminating());
}

#[test]
fn example10_egds_can_destroy_termination() {
    let sigma10 = parse_dependencies(
        "r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z). r2: E(?x, ?y, ?y) -> N(?y). r3: E(?x, ?y, ?z) -> ?y = ?z.",
    )
    .unwrap();
    let tgds_only = sigma10.tgds_only();
    let db = parse_program("N(a).").unwrap().database;
    // The TGDs alone terminate under every policy.
    for order in [StepOrder::Textual, StepOrder::EgdsFirst] {
        let out = Chase::standard(&tgds_only).with_order(order).run(&db);
        assert!(out.is_terminating());
    }
    // With the EGD there is no terminating sequence; the criteria must reject.
    for order in [
        StepOrder::Textual,
        StepOrder::EgdsFirst,
        StepOrder::FullFirst,
    ] {
        let out = Chase::standard(&sigma10)
            .with_order(order)
            .with_budget(ChaseBudget::unlimited().with_max_steps(400))
            .run(&db);
        assert!(out.is_budget_exhausted());
    }
    let report = TerminationAnalyzer::new().analyze(&sigma10);
    assert!(!report.is_terminating(), "no criterion may accept Σ10");
}

#[test]
fn example11_semi_stratification_and_figure1() {
    let sigma11 = parse_dependencies(
        "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> E(?y, ?x).",
    )
    .unwrap();
    assert!(!Stratification.accepts(&sigma11));
    assert!(SemiStratification.accepts(&sigma11));
    assert!(SemiAcyclicity.accepts(&sigma11));
    // The terminating sequence of Example 11: apply r3 before r1.
    let db = parse_program("N(a).").unwrap().database;
    let out = Chase::standard(&sigma11)
        .with_order(StepOrder::FullFirst)
        .run(&db);
    assert!(out.is_terminating());
    let model = out.instance().unwrap();
    assert_eq!(model.len(), 4, "K = {{N(a), E(a, η1), N(η1), E(η1, a)}}");
    // Figure 1: the firing graph drops the edge r2 -> r1.
    let gf = chase_termination::firing_graph(&sigma11);
    assert!(gf.has_edge(0, 1) && gf.has_edge(0, 2));
    assert!(!gf.has_edge(1, 0));
}

#[test]
fn example12_and_13_adornment_outcomes() {
    let (sigma1, _) = sigma1_program();
    let result1 = chase_termination::adorn(&sigma1);
    assert!(result1.acyclic);
    assert!(result1.definitions.is_empty(), "AD ends empty for Σ1");

    let sigma10 = parse_dependencies(
        "r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z). r2: E(?x, ?y, ?y) -> N(?y). r3: E(?x, ?y, ?z) -> ?y = ?z.",
    )
    .unwrap();
    let result10 = chase_termination::adorn(&sigma10);
    assert!(!result10.acyclic);
    assert!(!result10.budget_exhausted);
}

#[test]
fn canonical_models_are_universal_among_alternatives() {
    // Theorem background of Section 2: the result of a successful terminating standard
    // chase maps homomorphically into every model we can construct by hand.
    let (sigma, db) = sigma1_program();
    let canonical = Chase::standard(&sigma)
        .with_order(StepOrder::EgdsFirst)
        .run(&db)
        .instance()
        .unwrap()
        .clone();
    let bigger = canonical.union(&parse_program("N(b). E(b, b).").unwrap().database);
    assert!(chase_engine::is_universal_model_among(
        &canonical,
        &db,
        &sigma,
        &[bigger]
    ));
}
