//! A logged chase step records the body image the engine carried from
//! discovery: every such image must equal the ids of the facts its resolved
//! assignment maps the body to, looked up in the instance before the step.
//!
//! The runs bear EGDs, so substitutions land between a trigger's discovery and
//! its pop and rewrite facts its image names: Example 1, the data-exchange
//! mapping with its key EGD materialised semi-obliviously, and generated
//! ontologies with EGDs whose materialisations then take a stream of inserts
//! and retractions, as incremental maintenance applies them, including facts
//! that name a null a substitution replaced. Each run steps the engine as the
//! per-step loop `chase_steps` does.

use chase_core::parser::{parse_dependencies, parse_program};
use chase_core::{DepId, DependencySet, Fact, FactId, GroundTerm, Instance, Predicate, Term};
use chase_engine::{Chase, FiredKeys, MaterializeEvent, ObliviousVariant, StepEffect};
use chase_ontology::{
    for_each_scale_fact, generate, generate_database, update_stream, OntologyProfile, ScaleProfile,
    UpdateStreamProfile,
};
use chase_trigger::TriggerEngine;

/// The ids of the facts `h` maps `dep`'s body to, by lookup.
fn looked_up_body(
    engine: &TriggerEngine<'_>,
    dep: DepId,
    h: &chase_core::Assignment,
) -> Vec<FactId> {
    engine
        .sigma()
        .get(dep)
        .body()
        .iter()
        .map(|atom| {
            let terms: Vec<GroundTerm> = atom
                .terms
                .iter()
                .map(|t| match *t {
                    Term::Var(v) => h.get(v).expect("body variables are bound"),
                    _ => t.as_ground().expect("a non-variable term is ground"),
                })
                .collect();
            engine
                .instance()
                .id_of_parts(atom.predicate, &terms)
                .expect("a popped trigger's body is live")
        })
        .collect()
}

/// What [`check_steps`] saw.
#[derive(Default)]
struct Seen {
    steps: usize,
    /// Substitutions applied while discovered triggers were still pending.
    substitutions_over_pending: usize,
}

/// Steps the engine as `chase_steps` does, for at most `max_steps` steps or
/// until it fails, checking every logged body image.
fn check_steps(
    what: &str,
    engine: &mut TriggerEngine<'_>,
    fired: &mut FiredKeys,
    max_steps: usize,
    seen: &mut Seen,
) {
    let order: Vec<DepId> = engine.sigma().ids().collect();
    for _ in 0..max_steps {
        let Some((trigger, _)) = fired.next_unfired(engine, &order) else {
            return;
        };
        let expected = looked_up_body(engine, trigger.dep, &trigger.assignment);
        let (effect, log) = engine.apply_trigger_logged(trigger.dep, &trigger.assignment);
        assert_eq!(
            log.body, expected,
            "{what}: step {} of {:?} under {}",
            seen.steps, trigger.dep, trigger.assignment
        );
        seen.steps += 1;
        match effect {
            StepEffect::Substituted { gamma } => {
                if engine.pending_len() > 0 {
                    seen.substitutions_over_pending += 1;
                }
                fired.apply_gamma(&gamma);
            }
            StepEffect::Failure => return,
            _ => {}
        }
    }
}

fn check_run(
    what: &str,
    sigma: &DependencySet,
    database: &Instance,
    variant: ObliviousVariant,
    max_steps: usize,
) -> Seen {
    let mut engine = TriggerEngine::with_database(sigma, database);
    let mut fired = FiredKeys::new(sigma, variant);
    let mut seen = Seen::default();
    check_steps(what, &mut engine, &mut fired, max_steps, &mut seen);
    seen
}

#[test]
fn example_1_logs_the_body_images_it_found() {
    // The per-step loop tries dependencies in textual order: as written, Σ1
    // never reaches its EGD; with the EGD first, it collapses every null r1
    // invents while r2's trigger on it waits.
    let sigma1 = "
        r1: N(?x) -> exists ?y: E(?x, ?y).
        r2: E(?x, ?y) -> N(?y).
        r3: E(?x, ?y) -> ?x = ?y.
    ";
    let egd_first = "
        r3: E(?x, ?y) -> ?x = ?y.
        r1: N(?x) -> exists ?y: E(?x, ?y).
        r2: E(?x, ?y) -> N(?y).
    ";
    for (text, collapses) in [(sigma1, false), (egd_first, true)] {
        let p = parse_program(&format!("{text} N(a). N(b).")).unwrap();
        for variant in [ObliviousVariant::SemiOblivious, ObliviousVariant::Oblivious] {
            let seen = check_run("Σ1", &p.dependencies, &p.database, variant, 300);
            assert!(seen.steps > 3, "{variant:?}: {} steps", seen.steps);
            assert_eq!(
                seen.substitutions_over_pending > 0,
                collapses,
                "{variant:?}"
            );
        }
    }
}

#[test]
fn the_exchange_mapping_logs_the_body_images_it_found() {
    let sigma = parse_dependencies(
        "
        emp: works_for(?p, ?c) -> exists ?d: Emp(?p, ?d), DeptOf(?d, ?c).
        dept: company(?c, ?city) -> exists ?d: DeptOf(?d, ?c), Loc(?d, ?city).
        key: DeptOf(?d1, ?c), DeptOf(?d2, ?c) -> ?d1 = ?d2.
        home: person(?p, ?n, ?city) -> exists ?h: Home(?p, ?h), Addr(?h, ?city).
        works_in: Emp(?p, ?d), Loc(?d, ?city) -> WorksIn(?p, ?city).
        ",
    )
    .unwrap();
    for seed in [1, 2] {
        let mut source = Instance::new();
        for_each_scale_fact(&ScaleProfile { facts: 600, seed }, |predicate, terms| {
            source.insert(Fact {
                predicate,
                terms: terms.to_vec(),
            });
        });
        let seen = check_run(
            "exchange",
            &sigma,
            &source,
            ObliviousVariant::SemiOblivious,
            usize::MAX,
        );
        assert!(seen.substitutions_over_pending > 10, "seed {seed}");
    }
}

#[test]
fn maintained_ontologies_log_the_body_images_they_found() {
    let mut over_pending = 0;
    for seed in [3u64, 5, 9, 11] {
        let sigma = generate(&OntologyProfile {
            existential: 3,
            full: 6,
            egds: 3,
            cyclic: false,
            seed,
        });
        let base = generate_database(&sigma, 40, seed ^ 0x5eed);
        let Ok(run) = Chase::semi_oblivious(&sigma).materialize(&base) else {
            continue;
        };
        // A fact naming each null a substitution replaced: pushing it revives
        // the null while triggers that resolved past it may be pending.
        let store = run.instance().store();
        let revived: Vec<Fact> = run
            .log
            .iter()
            .filter_map(|event| match event {
                MaterializeEvent::Rewritten { gamma, delta } => {
                    let (null, target) = gamma.mapping()?;
                    let &(_, new) = delta.first()?;
                    let mut fact = store.fact(new);
                    for t in &mut fact.terms {
                        if *t == target {
                            *t = GroundTerm::Null(null);
                        }
                    }
                    Some(fact)
                }
                _ => None,
            })
            .collect();
        let (mut engine, mut fired) = (run.engine, run.fired);
        let stream = update_stream(
            &sigma,
            &base,
            &UpdateStreamProfile {
                batches: 6,
                batch_size: 10,
                retract_fraction: 0.35,
                seed: seed.wrapping_mul(31),
            },
        );
        let mut seen = Seen::default();
        for (k, batch) in stream.iter().enumerate() {
            // Discover the inserts' triggers first, so the retraction purges
            // pending triggers and their images together.
            for fact in &batch.inserts {
                engine.push_fact_full(fact.clone());
            }
            if let Some(fact) = revived.get(k) {
                engine.push_fact_full(fact.clone());
            }
            engine.drain_deltas();
            let ids: Vec<FactId> = batch
                .retracts
                .iter()
                .filter_map(|f| engine.instance().id_of(f))
                .collect();
            engine.retract_ids(&ids);
            check_steps("ontology", &mut engine, &mut fired, 5_000, &mut seen);
        }
        assert!(seen.steps > 0, "seed {seed}");
        over_pending += seen.substitutions_over_pending;
    }
    assert!(over_pending > 0);
}

#[test]
fn a_trigger_the_engine_did_not_pop_is_looked_up() {
    let p =
        parse_program("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, b). E(b, c). E(c, d).").unwrap();
    let sigma = &p.dependencies;
    let mut engine = TriggerEngine::with_database(sigma, &p.database);
    let order: Vec<DepId> = sigma.ids().collect();
    let popped = engine.next_trigger_where(&order, |_, _, _| true).unwrap();
    // Apply the other join of the chain, not the one popped.
    let c = |s: &str| GroundTerm::Const(chase_core::Constant::new(s));
    let var = chase_core::Variable::new;
    let y = popped.assignment.get(var("y")).unwrap();
    let other = if y == c("b") {
        [("x", "b"), ("y", "c"), ("z", "d")]
    } else {
        [("x", "a"), ("y", "b"), ("z", "c")]
    };
    let other = chase_core::Assignment::from_pairs(other.map(|(v, t)| (var(v), c(t))));
    assert_ne!(other, popped.assignment);
    let expected = looked_up_body(&engine, popped.dep, &other);
    let (_, log) = engine.apply_trigger_logged(popped.dep, &other);
    assert_eq!(log.body, expected);
    let e = Predicate::new("E", 2);
    let (x, z) = (other.get(var("x")).unwrap(), other.get(var("z")).unwrap());
    assert!(engine.instance().id_of_parts(e, &[x, z]).is_some());
}
