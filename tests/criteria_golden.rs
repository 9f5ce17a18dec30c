//! Pins the position-based criteria on three corpora: the atlas at size 8, the
//! Table 2 corpus at scale 0.003 and 300 generated programs. For each program,
//! on `Σ` and on the adorned set `Σµ`, one FNV-1a digest per corpus folds the
//! WA, SC, SwA and MFA verdicts with their rendered witnesses; the node, edge and
//! mark lists and the position list of `dependency_graph` and
//! `propagation_graph`; the nodes and edges of `trigger_graph` on the set SwA
//! analyses; and the rendered substitution-free simulation.
//!
//! Its own binary with one test: frontier variables are sorted by interned id,
//! and the position graphs are numbered in the order their builders meet
//! positions, so no other test may intern names while it runs.

use chase_core::parser::parse_dependencies;
use chase_core::DependencySet;
use chase_criteria::graph::DiGraph;
use chase_criteria::prelude::*;
use chase_criteria::safety::propagation_graph;
use chase_criteria::super_weak::trigger_graph;
use chase_criteria::weak_acyclicity::dependency_graph;
use chase_termination::adornment::adorn;
use std::fmt::Write;

const SEED: u64 = 20160396;

/// FNV-1a over the rendered artefacts of each set, in order.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn fold_program(&mut self, sigma: &DependencySet) {
        self.fold_set(sigma);
        self.fold_set(&adorn(sigma).adorned);
    }

    fn fold_set(&mut self, sigma: &DependencySet) {
        let mut text = String::new();
        for verdict in [
            WeakAcyclicity.verdict(sigma),
            Safety.verdict(sigma),
            SuperWeakAcyclicity.verdict(sigma),
            ModelFaithfulAcyclicity.verdict(sigma),
        ] {
            writeln!(text, "{verdict}").unwrap();
        }
        for (graph, positions) in [dependency_graph(sigma), propagation_graph(sigma)] {
            render_graph(&mut text, &graph);
            let positions: Vec<String> = positions.iter().map(|p| p.to_string()).collect();
            writeln!(text, "{}", positions.join(" ")).unwrap();
        }
        let simulation = substitution_free_simulation(sigma);
        let analysed = if sigma.egd_ids().is_empty() {
            sigma
        } else {
            &simulation
        };
        render_graph(&mut text, &trigger_graph(analysed));
        writeln!(text, "{simulation}").unwrap();
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn render_graph(text: &mut String, graph: &DiGraph) {
    let nodes: Vec<usize> = graph.nodes().collect();
    let edges: Vec<(usize, usize, bool)> = graph.edges().collect();
    writeln!(text, "{nodes:?}\n{edges:?}").unwrap();
}

/// A seeded program of 2–6 dependencies over `P/1`, `E/2` and `T/3`: full and
/// existential TGDs (up to two existential variables, repeated in the head at
/// times) and EGDs. Every fourth program reads `E(?x, ?x)`, so a body variable
/// repeats in one atom, and every fifth reads `E(?x, ?y), E(?x, ?z)`, so one
/// variable occupies one position twice.
fn random_program(seed: u64) -> DependencySet {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut below = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let predicates = [("P", 1), ("E", 2), ("T", 3)];
    let mut text = String::new();
    if seed.is_multiple_of(4) {
        text.push_str("rep: E(?x, ?x) -> exists ?w: E(?x, ?w).\n");
    }
    if seed.is_multiple_of(5) {
        text.push_str("dup: E(?x, ?y), E(?x, ?z) -> exists ?w: T(?y, ?z, ?w).\n");
    }
    for i in 0..2 + below(5) {
        let mut body = Vec::new();
        let mut body_vars: Vec<&str> = Vec::new();
        for _ in 0..1 + below(3) {
            let (name, arity) = predicates[below(3)];
            let terms: Vec<&str> = (0..arity).map(|_| ["?x", "?y", "?z"][below(3)]).collect();
            for v in &terms {
                if !body_vars.contains(v) {
                    body_vars.push(v);
                }
            }
            body.push(format!("{name}({})", terms.join(", ")));
        }
        let body = body.join(", ");
        let kind = below(10);
        let mut pick = || body_vars[below(body_vars.len())];
        if kind < 2 {
            let (left, right) = (pick(), pick());
            if left != right {
                text.push_str(&format!("r{i}: {body} -> {left} = {right}.\n"));
                continue;
            }
        }
        let mut head = Vec::new();
        let mut existential: Vec<&str> = Vec::new();
        for _ in 0..1 + below(3) {
            let (name, arity) = predicates[below(3)];
            let terms: Vec<&str> = (0..arity)
                .map(|_| {
                    if kind >= 4 && below(3) == 0 {
                        let v = ["?w", "?v"][below(2)];
                        if !existential.contains(&v) {
                            existential.push(v);
                        }
                        v
                    } else {
                        body_vars[below(body_vars.len())]
                    }
                })
                .collect();
            head.push(format!("{name}({})", terms.join(", ")));
        }
        let exists = if existential.is_empty() {
            String::new()
        } else {
            format!("exists {}: ", existential.join(", "))
        };
        text.push_str(&format!("r{i}: {body} -> {exists}{}.\n", head.join(", ")));
    }
    parse_dependencies(&text).expect("generated programs parse")
}

#[test]
fn position_criteria_match_their_pins() {
    let mut atlas = Digest::new();
    for program in chase_ontology::atlas_corpus(&[8], SEED) {
        atlas.fold_program(&program.sigma);
    }
    let mut table2 = Digest::new();
    for ontology in chase_ontology::scaled_paper_corpus(SEED, 0.55, 0.003) {
        table2.fold_program(&ontology.sigma);
    }
    let mut generated = Digest::new();
    for seed in 0..300 {
        generated.fold_program(&random_program(seed));
    }
    let digests = [atlas.0, table2.0, generated.0].map(|d| format!("{d:016x}"));
    assert_eq!(
        digests,
        ["a9a6059cbfc89e93", "eed667efedd75722", "137ebc602ee92205"]
    );
}
