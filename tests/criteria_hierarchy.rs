//! Integration tests for the relationships between the termination criteria
//! (Theorems 5, 9, 10, 11 and the classical hierarchy), checked over a corpus of
//! hand-written sets plus generated ontologies — all through the witness-producing
//! criterion API.

use chase_ontology::generator::{generate, generate_database, OntologyProfile};
use egd_chase::prelude::*;

fn corpus() -> Vec<DependencySet> {
    let hand_written = [
        "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> ?x = ?y.",
        "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> E(?y, ?x).",
        "r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z). r2: E(?x, ?y, ?y) -> N(?y). r3: E(?x, ?y, ?z) -> ?y = ?z.",
        "r1: P(?x, ?y) -> exists ?z: E(?x, ?z). r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).",
        "r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> C(?y).",
        "r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> A(?y).",
        "r: E(?x, ?y) -> exists ?z: E(?x, ?z).",
        "r: E(?x, ?y) -> exists ?z: E(?y, ?z).",
        "k1: R(?x, ?y), R(?x, ?z) -> ?y = ?z. k2: S(?x, ?y), S(?z, ?y) -> ?x = ?z.",
        "t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). s: E(?x, ?y) -> E(?y, ?x).",
        "r1: S(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?x) -> S(?x).",
        "r1: A(?x), B(?x) -> C(?x). r2: C(?x) -> exists ?y: A(?x), B(?y). r3: C(?x) -> exists ?y: A(?y), B(?x). r4: A(?x), A(?y) -> ?x = ?y. r5: B(?x), B(?y) -> ?x = ?y.",
    ];
    let mut sets: Vec<DependencySet> = hand_written
        .iter()
        .map(|s| parse_dependencies(s).unwrap())
        .collect();
    for seed in 0..6u64 {
        sets.push(generate(&OntologyProfile {
            existential: 3,
            full: 6,
            egds: 2,
            cyclic: seed % 2 == 0,
            seed,
        }));
    }
    sets
}

#[test]
fn classical_hierarchy_wa_sc_swa_mfa() {
    let mfa = ModelFaithfulAcyclicity;
    for sigma in corpus() {
        if WeakAcyclicity.accepts(&sigma) {
            assert!(Safety.accepts(&sigma), "WA ⊆ SC violated on\n{sigma}");
        }
        if Safety.accepts(&sigma) {
            assert!(
                SuperWeakAcyclicity.accepts(&sigma),
                "SC ⊆ SwA violated on\n{sigma}"
            );
        }
        if SuperWeakAcyclicity.accepts(&sigma) {
            assert!(mfa.accepts(&sigma), "SwA ⊆ MFA violated on\n{sigma}");
        }
    }
}

#[test]
fn theorem5_stratification_implies_semi_stratification() {
    let s_str = SemiStratification;
    for sigma in corpus() {
        if Stratification.accepts(&sigma) {
            assert!(s_str.accepts(&sigma), "Str ⊆ S-Str violated on\n{sigma}");
        }
        if CStratification.accepts(&sigma) {
            assert!(
                Stratification.accepts(&sigma),
                "CStr ⊆ Str violated on\n{sigma}"
            );
        }
    }
}

#[test]
fn theorem9_semi_stratification_implies_semi_acyclicity() {
    let s_str = SemiStratification;
    let sac = SemiAcyclicity;
    for sigma in corpus() {
        if s_str.accepts(&sigma) {
            assert!(sac.accepts(&sigma), "S-Str ⊆ SAC violated on\n{sigma}");
        }
    }
}

#[test]
fn theorem11_criteria_improve_under_adornment() {
    for sigma in corpus() {
        if WeakAcyclicity.accepts(&sigma) {
            assert!(
                AdnCombined::weak_acyclicity().accepts(&sigma),
                "WA ⊆ Adn-WA violated on\n{sigma}"
            );
        }
        if Safety.accepts(&sigma) {
            assert!(
                AdnCombined::safety().accepts(&sigma),
                "SC ⊆ Adn-SC violated on\n{sigma}"
            );
        }
        if SuperWeakAcyclicity.accepts(&sigma) {
            assert!(
                AdnCombined::super_weak_acyclicity().accepts(&sigma),
                "SwA ⊆ Adn-SwA violated on\n{sigma}"
            );
        }
    }
}

#[test]
fn analyzer_short_circuit_agrees_with_the_exhaustive_portfolio() {
    // The cheapest-first short-circuiting analyzer must reach the same accept/reject
    // conclusion as running every criterion: acceptance by ANY criterion is what both
    // report, they only differ in how much work they do.
    let quick = TerminationAnalyzer::new();
    let full = TerminationAnalyzer::exhaustive();
    for sigma in corpus() {
        let q = quick.analyze(&sigma);
        let f = full.analyze(&sigma);
        assert_eq!(
            q.is_terminating(),
            f.is_terminating(),
            "short-circuiting changed the conclusion on\n{sigma}"
        );
        if let Some(v) = q.accepted() {
            // The short-circuit acceptance must be among the exhaustive acceptances.
            assert!(
                f.verdict_for(v.criterion)
                    .map(|w| w.accepted)
                    .unwrap_or(false),
                "criterion {} accepted only under short-circuiting on\n{sigma}",
                v.criterion
            );
        }
    }
}

#[test]
fn soundness_accepted_sets_have_terminating_sequences() {
    // Every criterion in the registry guarantees at least CT_std_∃; check empirically
    // that an EGD-first standard chase terminates on sample databases whenever any
    // criterion accepts.
    for (i, sigma) in corpus().into_iter().enumerate() {
        let report = TerminationAnalyzer::new().analyze(&sigma);
        let Some(accepted) = report.accepted() else {
            continue;
        };
        let db = generate_database(&sigma, 6, i as u64);
        let out = Chase::standard(&sigma)
            .with_order(StepOrder::EgdsFirst)
            .with_budget(ChaseBudget::unlimited().with_max_steps(30_000))
            .run(&db);
        assert!(
            !out.is_budget_exhausted(),
            "set #{i} accepted by {} but the EGD-first chase did not halt:\n{sigma}",
            accepted.criterion
        );
    }
}

#[test]
fn separating_witnesses_exist() {
    // The hierarchy is strict: exhibit at least one separation per inclusion.
    let sigma1 = parse_dependencies(
        "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> ?x = ?y.",
    )
    .unwrap();
    let sigma11 = parse_dependencies(
        "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> E(?y, ?x).",
    )
    .unwrap();
    let s_str = SemiStratification;
    let sac = SemiAcyclicity;
    // S-Str strictly extends Str (Σ11), SAC strictly extends S-Str (Σ1).
    assert!(s_str.accepts(&sigma11) && !Stratification.accepts(&sigma11));
    assert!(sac.accepts(&sigma1) && !s_str.accepts(&sigma1));
    // SAC is incomparable with the CT_∀ criteria: Σ1 ∈ SAC \ MFA …
    assert!(!ModelFaithfulAcyclicity.accepts(&sigma1));
    // … and the repeated-variable witness is in SwA/MFA but needs no EGD reasoning.
    let swa_witness =
        parse_dependencies("r1: S(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?x) -> S(?x).").unwrap();
    assert!(SuperWeakAcyclicity.accepts(&swa_witness));
}

#[test]
fn every_criterion_rejects_the_impossible_set() {
    // Σ10 has no terminating sequence at all, so acceptance by any registered criterion
    // would be a soundness bug.
    let sigma10 = parse_dependencies(
        "r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z). r2: E(?x, ?y, ?y) -> N(?y). r3: E(?x, ?y, ?z) -> ?y = ?z.",
    )
    .unwrap();
    let report = TerminationAnalyzer::exhaustive().analyze(&sigma10);
    assert_eq!(report.entries.len(), all_criteria().len());
    for entry in &report.entries {
        assert!(
            !entry.verdict.accepted,
            "{} wrongly accepts Σ10",
            entry.verdict.criterion
        );
    }
}
