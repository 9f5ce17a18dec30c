//! Differential test of EGD key merging whose oracle is not the chase engine.
//!
//! The data-exchange mapping invents one department null per employee and per
//! company, and the key EGD on `DeptOf` merges them. For three source sizes
//! and three step orders, the standard chase must produce a model of the
//! mapping whose `WorksIn` certain answers equal a hash join of the source
//! (`works_for ⋈ company`), computed here without the engine. The run's
//! counters are pinned too: a change that keeps the answers but alters the
//! chase sequence (which triggers fire, which nulls merge) shows up as a
//! different step, replacement or fresh-null count.

use egd_chase::chase_core::satisfaction::satisfies_all;
use egd_chase::chase_core::GroundTerm;
use egd_chase::chase_ontology::{data_exchange_instance, ScaleProfile};
use egd_chase::prelude::*;
use std::collections::{BTreeSet, HashMap};

const MAPPING: &str = "
    emp: works_for(?p, ?c) -> exists ?d: Emp(?p, ?d), DeptOf(?d, ?c).
    dept: company(?c, ?city) -> exists ?d: DeptOf(?d, ?c), Loc(?d, ?city).
    key: DeptOf(?d1, ?c), DeptOf(?d2, ?c) -> ?d1 = ?d2.
    home: person(?p, ?n, ?city) -> exists ?h: Home(?p, ?h), Addr(?h, ?city).
    works_in: Emp(?p, ?d), Loc(?d, ?city) -> WorksIn(?p, ?city).
";

/// `(source facts, order, [steps, null_replacements, nulls_created])`,
/// recorded from the chase before EGD substitutions were indexed per null.
const PINNED: [(usize, StepOrder, [usize; 3]); 9] = [
    (200, StepOrder::EgdsFirst, [360, 80, 200]),
    (200, StepOrder::Textual, [360, 80, 200]),
    (200, StepOrder::Shuffled(7), [360, 80, 200]),
    (500, StepOrder::EgdsFirst, [900, 200, 500]),
    (500, StepOrder::Textual, [900, 200, 500]),
    (500, StepOrder::Shuffled(7), [900, 200, 500]),
    (1000, StepOrder::EgdsFirst, [1800, 400, 1000]),
    (1000, StepOrder::Textual, [1800, 400, 1000]),
    (1000, StepOrder::Shuffled(7), [1800, 400, 1000]),
];

/// `works_for(p, c) ⋈ company(c, city)`, projected on `(p, city)`.
fn source_join(source: &Instance) -> BTreeSet<Vec<GroundTerm>> {
    let city_of: HashMap<GroundTerm, GroundTerm> = source
        .facts_of(Predicate::new("company", 2))
        .map(|f| (f.terms[0], f.terms[1]))
        .collect();
    source
        .facts_of(Predicate::new("works_for", 2))
        .filter_map(|f| city_of.get(&f.terms[1]).map(|&city| vec![f.terms[0], city]))
        .collect()
}

#[test]
fn key_merging_matches_the_source_join_and_the_pinned_counts() {
    let sigma = parse_dependencies(MAPPING).unwrap();
    let query = ConjunctiveQuery::new(
        vec![atom("WorksIn", vec![var("p"), var("city")])],
        vec![Variable::new("p"), Variable::new("city")],
    );
    let mut mismatches = Vec::new();
    for (facts, order, pinned) in PINNED {
        let source = data_exchange_instance(&ScaleProfile { facts, seed: 11 });
        let outcome = Chase::standard(&sigma).with_order(order).run(&source);
        assert!(outcome.is_terminating(), "{facts} facts, {order:?}");
        let model = outcome.instance().unwrap();
        assert!(
            satisfies_all(model, &sigma),
            "{facts} facts, {order:?}: not a model of the mapping"
        );
        let answers = certain_answers(std::slice::from_ref(&query), model);
        let expected = source_join(&source);
        assert!(!expected.is_empty());
        assert_eq!(answers, expected, "{facts} facts, {order:?}");
        let stats = outcome.stats();
        let got = [stats.steps, stats.null_replacements, stats.nulls_created];
        if got != pinned {
            mismatches.push(format!("({facts}, {order:?}, {got:?})"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "counts differ from the pinned ones: {}",
        mismatches.join(", ")
    );
}
