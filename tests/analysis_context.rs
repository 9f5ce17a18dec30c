//! Differential test of the analyzer's shared `AnalysisContext`: the criteria of
//! one analysis share the `Adn∃` result and the firing graph, and that sharing must
//! not change a single verdict or witness. For every program, the exhaustive
//! analyzer's entries equal, in order, each criterion's standalone `verdict(σ)`, and
//! the short-circuiting analyzer's entries are a prefix of that list.

use chase_core::parser::parse_dependencies;
use chase_core::DependencySet;
use chase_criteria::criterion::{baseline_criteria, TerminationCriterion, Verdict};
use chase_ontology::corpus::scaled_paper_corpus;
use chase_ontology::families::atlas_corpus;
use chase_termination::{AdnCombined, SemiAcyclicity, SemiStratification, TerminationAnalyzer};

const SEED: u64 = 20160396;

fn programs() -> Vec<(String, DependencySet)> {
    let paper = [
        (
            "Σ1",
            "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> ?x = ?y.",
        ),
        (
            "Σ10",
            "r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z). r2: E(?x, ?y, ?y) -> N(?y). r3: E(?x, ?y, ?z) -> ?y = ?z.",
        ),
        (
            "Σ11",
            "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> E(?y, ?x).",
        ),
        (
            "adornment reproducer",
            "a1: C0(?x) -> exists ?y: R0(?y, ?x). c1: R0(?x, ?y) -> C2(?x). c2: C2(?x) -> C3(?x).
             g1: C0(?x) -> exists ?y: Rcyc(?x, ?y). g2: Rcyc(?x, ?y) -> C0(?y).
             e1: R0(?x, ?y), R0(?x, ?z) -> ?y = ?z.",
        ),
    ];
    let mut out: Vec<(String, DependencySet)> = paper
        .iter()
        .map(|(name, src)| (name.to_string(), parse_dependencies(src).unwrap()))
        .collect();
    for p in atlas_corpus(&[8, 14], SEED) {
        out.push((format!("atlas/{}/{}", p.family, p.size), p.sigma));
    }
    let mut classes_seen = Vec::new();
    for g in scaled_paper_corpus(SEED, 0.55, 0.003) {
        if !classes_seen.contains(&g.class_index) {
            classes_seen.push(g.class_index);
            out.push((format!("corpus/{}", g.class_id), g.sigma));
        }
    }
    out
}

/// The paper's criteria behind the baseline criteria.
fn portfolio() -> Vec<Box<dyn TerminationCriterion + Send + Sync>> {
    let mut criteria = baseline_criteria();
    criteria.push(Box::new(SemiStratification));
    criteria.push(Box::new(SemiAcyclicity));
    for adn_c in [
        AdnCombined::weak_acyclicity(),
        AdnCombined::safety(),
        AdnCombined::super_weak_acyclicity(),
    ] {
        criteria.push(Box::new(adn_c));
    }
    criteria
}

/// S-Str and the adornment share the firing graph, behind the baselines, which run
/// on the same context without reading it.
#[test]
fn shared_context_verdicts_equal_standalone_verdicts() {
    let exhaustive = TerminationAnalyzer::with_criteria(portfolio()).with_short_circuit(false);
    let short_circuit = TerminationAnalyzer::with_criteria(portfolio());
    let standalone = portfolio();
    for (name, sigma) in programs() {
        let expected: Vec<Verdict> = exhaustive
            .criteria_names()
            .into_iter()
            .map(|c| {
                let criterion = standalone.iter().find(|s| s.name() == c).unwrap();
                criterion.verdict(&sigma)
            })
            .collect();
        let shared: Vec<Verdict> = exhaustive
            .analyze(&sigma)
            .entries
            .into_iter()
            .map(|e| e.verdict)
            .collect();
        assert_eq!(shared, expected, "{name}");
        let prefix: Vec<Verdict> = short_circuit
            .analyze(&sigma)
            .entries
            .into_iter()
            .map(|e| e.verdict)
            .collect();
        assert!(!prefix.is_empty());
        assert_eq!(prefix, expected[..prefix.len()], "{name}");
    }
}
