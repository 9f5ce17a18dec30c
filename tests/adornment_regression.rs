//! Regression tests for three fixed soundness gaps in the `Adn∃` adornment
//! algorithm, each of which made SAC accept a set whose standard chase never
//! terminates.
//!
//! The `Dµ(Σµ)` gap: the abstraction used to render every free symbol `f_i` as a
//! single global labeled
//! null `η_i`. After a θ-merge folds several Skolem classes into one symbol, an
//! EGD body could then join two *distinct* Dµ facts through that shared null — a
//! match no real chase step can realise, because the two facts stand for
//! different Skolem instantiations. The spurious τ substitution deleted the
//! cyclic gadget's definitions from `AD`, destroying the cycle evidence, and the
//! non-terminating set was accepted. The fix gives every fact its own nulls
//! (same-fact occurrences of a symbol still share one), so an EGD violation only
//! fires when it is realizable within a single fact's known-equal nulls.
//!
//! The overlap gap: above 40 dependencies `Adn∃` used to replace Definition 2's
//! fireability test by a predicate-overlap approximation that, for an EGD, linked
//! only the readers of the EGD's body predicates. Its Ω(AD) cyclicity test then
//! missed the chains through an EGD, and a non-terminating 5-rule set padded with
//! unrelated rules past 40 dependencies was accepted. Definition 2 now decides
//! fireability at every size.
//!
//! The name gap: `Adn∃` rendered the adorned predicate `E^bb` as `E__bb`
//! whatever the input's names, so an input predicate called `E__bb` merged with
//! it in `Σµ`. Adorned names now take a separator that no input name contains.

use chase_core::parser::{parse_database, parse_dependencies};
use chase_core::DependencySet;
use chase_engine::{Chase, ChaseBudget, StepOrder};
use chase_ontology::generator::{generate, OntologyProfile};
use chase_termination::adornment::adorn;
use chase_termination::{firing_graph, TerminationAnalyzer};

/// The profile from the ROADMAP open item. Generates (among others) the cyclic
/// gadget `r8: C0(?x) -> exists ?y: Rcyc2(?x, ?y). r9: Rcyc2(?x, ?y) -> C0(?y).`
/// and the unrelated functional-role EGD `r7: R0(?x, ?y), R0(?x, ?z) -> ?y = ?z.`
fn gadget_profile() -> OntologyProfile {
    OntologyProfile {
        existential: 2,
        full: 4,
        egds: 1,
        cyclic: true,
        seed: 3,
    }
}

fn without_egds(sigma: &DependencySet) -> DependencySet {
    sigma
        .iter()
        .filter(|(_, d)| !d.is_egd())
        .map(|(_, d)| d.clone())
        .collect()
}

/// Guard: the cyclic gadget alone (EGD-free projection) is rejected.
#[test]
fn cyclic_gadget_is_rejected_without_the_unrelated_egd() {
    let sigma = without_egds(&generate(&gadget_profile()));
    assert!(
        !adorn(&sigma).acyclic,
        "the cyclic gadget must be rejected without EGDs present"
    );
}

/// The formerly-unsound case: with the unrelated functional-role EGD present,
/// `adorn` must still reject the cyclic gadget (an EGD on a role the gadget
/// never touches cannot create a terminating sequence).
#[test]
fn cyclic_gadget_must_stay_rejected_when_an_unrelated_egd_is_present() {
    let sigma = generate(&gadget_profile());
    assert!(
        sigma.iter().any(|(_, d)| d.is_egd()),
        "the profile must actually generate the unrelated EGD"
    );
    assert!(
        !adorn(&sigma).acyclic,
        "unsound acceptance: the unrelated functional-role EGD must not make the \
         cyclic gadget pass"
    );
}

/// Generator-independent minimal reproducer of the fixed bug, distilled from the
/// seed-3 gadget. Six dependencies:
///
/// - `g1`/`g2` are the cyclic gadget (no terminating chase sequence).
/// - `e1` is a functional EGD on `R0`, a role the gadget never touches.
/// - `a1` gives `R0`'s join position (the first) a free-symbol adornment, and
///   `c1`/`c2` are the "laundering" copy chain: they let the adornment unify two
///   copied rules whose incompatible frontier contexts are no longer visible,
///   producing the θ-merge that conflates two Skolem classes into one symbol.
///
/// Pre-fix, the conflated symbol's single global null let `e1`'s body join two
/// distinct `R0` facts in `Dµ(Σµ)`, firing a spurious τ that erased the gadget's
/// cycle evidence: the set was accepted. It must be rejected.
#[test]
fn minimal_reproducer_gadget_plus_egd_plus_copy_chain_is_rejected() {
    let sigma = parse_dependencies(
        r#"
        a1: C0(?x) -> exists ?y: R0(?y, ?x).
        c1: R0(?x, ?y) -> C2(?x).
        c2: C2(?x) -> C3(?x).
        g1: C0(?x) -> exists ?y: Rcyc(?x, ?y).
        g2: Rcyc(?x, ?y) -> C0(?y).
        e1: R0(?x, ?y), R0(?x, ?z) -> ?y = ?z.
        "#,
    )
    .expect("reproducer parses");
    assert!(
        !adorn(&sigma).acyclic,
        "the minimal reproducer must be rejected"
    );
}

/// The bare 3-dependency set (gadget + EGD, no laundering chain) was never the
/// reproducer: without a flow giving `R0` a free-symbol adornment and a θ-merge
/// conflating Skolem classes, the EGD is simply never violated in `Dµ(Σµ)` and
/// the gadget's cycle is found. Pinned so the reproducer above stays honest
/// about what the bug actually required.
#[test]
fn bare_gadget_plus_egd_was_always_rejected() {
    let sigma = parse_dependencies(
        r#"
        g1: C0(?x) -> exists ?y: Rcyc(?x, ?y).
        g2: Rcyc(?x, ?y) -> C0(?y).
        e1: R0(?x, ?y), R0(?x, ?z) -> ?y = ?z.
        "#,
    )
    .expect("gadget parses");
    assert!(!adorn(&sigma).acyclic);
}

/// Five rules whose standard chase from `{P(a)}` never terminates: in every
/// sequence, `r4` mints a fresh `P` null that `r1` and `r4` must chase again.
const NON_TERMINATING_CORE: &str = r#"
    r0: R(?z, ?y) -> ?z = ?y.
    r1: P(?y) -> exists ?w: R(?y, ?w), T(?y, ?y).
    r2: P(?y), T(?z, ?z) -> exists ?w: S(?w, ?z, ?y).
    r3: T(?z, ?y), S(?y, ?x, ?y) -> S(?z, ?x, ?x).
    r4: T(?x, ?z) -> exists ?w: S(?x, ?x, ?z), P(?w).
"#;

/// The overlap gap's reproducer: the non-terminating core plus 36 unrelated rules
/// `ui: Ui(?x) -> Vi(?x).`, 41 dependencies in all. The overlap approximation
/// found 10 fireable pairs here and accepted the set; Definition 2 finds every
/// edge of the firing graph, and every criterion rejects it. The ground truth:
/// the core's standard chase from `{P(a)}` exhausts a 2,000-step budget under
/// every step order tried.
#[test]
fn a_non_terminating_set_padded_past_40_dependencies_is_rejected() {
    let mut text = NON_TERMINATING_CORE.to_string();
    for i in 0..36 {
        text.push_str(&format!("u{i}: U{i}(?x) -> V{i}(?x).\n"));
    }
    let sigma = parse_dependencies(&text).expect("padded set parses");
    assert_eq!(sigma.len(), 41);
    let report = TerminationAnalyzer::new().analyze(&sigma);
    assert!(
        report.accepted().is_none(),
        "unsound acceptance: {}",
        report.summary()
    );
    let result = adorn(&sigma);
    assert!(!result.acyclic);
    let firing: Vec<(usize, usize)> = firing_graph(&sigma)
        .edges()
        .map(|(f, t, _)| (f, t))
        .collect();
    assert_eq!(firing.len(), 49);
    assert_eq!(result.fireable_pairs, firing);

    let core = parse_dependencies(NON_TERMINATING_CORE).expect("core parses");
    let database = parse_database("P(a).").expect("database parses");
    for order in [
        StepOrder::Textual,
        StepOrder::EgdsFirst,
        StepOrder::FullFirst,
        StepOrder::Shuffled(7),
    ] {
        let outcome = Chase::standard(&core)
            .with_order(order)
            .with_budget(ChaseBudget::unlimited().with_max_steps(2_000))
            .run(&database);
        assert!(outcome.is_budget_exhausted(), "{order:?} terminated");
    }
}

/// The name gap's reproducer: `r` alone never terminates and is rejected, and the
/// unrelated `s` reads a predicate named like an adorned version of `E`. When
/// `E^bb` rendered to `E__bb`, the two merged in `Σµ` and SAC accepted the set.
#[test]
fn an_input_predicate_named_like_an_adorned_one_stays_apart() {
    let database = parse_database("E(a, b).").expect("database parses");
    for name in ["E__bb", "E__bf1"] {
        let sigma = parse_dependencies(&format!(
            "r: E(?x, ?y) -> exists ?z: E(?y, ?z).\ns: {name}(?x, ?y) -> F(?x)."
        ))
        .expect("reproducer parses");
        assert!(
            !adorn(&sigma).acyclic,
            "{name}: the cycle of r must be found"
        );
        let report = TerminationAnalyzer::new().analyze(&sigma);
        assert!(
            report.accepted().is_none(),
            "{name}: unsound acceptance: {}",
            report.summary()
        );
        let outcome = Chase::standard(&sigma)
            .with_budget(ChaseBudget::unlimited().with_max_steps(1_000))
            .run(&database);
        assert!(outcome.is_budget_exhausted(), "{name}: the chase halted");
    }
}
