//! The graph builders answer each pair shape once (`chase_graphs`, and the
//! Definition-2 filter of `firing_graph`), so these tests hold them to the
//! single-pair functions, which enumerate every pair on its own: on sets that
//! repeat shapes under renamed predicates, with and without the full dependencies
//! that block Definition 2's witnesses, and with variables in another order.

use chase_core::parser::parse_dependencies;
use chase_core::{Dependency, DependencySet};
use chase_criteria::{chase_graph_edge, chase_graphs, Applicability};
use chase_termination::{definition2_edge, firing_graph, TerminationAnalyzer};

/// Asserts that `chase_graphs` and `firing_graph` equal the pairwise
/// `chase_graph_edge` and `definition2_edge` on every ordered pair of `sigma`.
fn assert_graphs_match_the_pairwise_tests(sigma: &DependencySet, what: &str) {
    let (standard, oblivious) = (Applicability::Standard, Applicability::Oblivious);
    let graphs = chase_graphs(sigma);
    let firing = firing_graph(sigma);
    for (i, r1) in sigma.iter() {
        for (j, r2) in sigma.iter() {
            let pair = (i.0, j.0);
            assert_eq!(
                graphs.standard.has_edge(i.0, j.0),
                chase_graph_edge(r1, r2, standard),
                "{what}: G(Σ) {pair:?}\n{sigma}"
            );
            assert_eq!(
                graphs.oblivious.has_edge(i.0, j.0),
                chase_graph_edge(r1, r2, oblivious),
                "{what}: Gc(Σ) {pair:?}\n{sigma}"
            );
            assert_eq!(
                firing.has_edge(i.0, j.0),
                definition2_edge(sigma, r1, r2),
                "{what}: Gf(Σ) {pair:?}\n{sigma}"
            );
        }
    }
}

/// Σ11 and a copy over `M`/`F` without the blocker `r3`. The pairs `r2 → r1` and
/// `s2 → s1` have one shape apart from their relevant blockers: `r3` blocks every
/// witness of the first, nothing blocks the second.
#[test]
fn a_shape_without_its_blocker_keeps_its_edge() {
    let sigma = parse_dependencies(
        r#"
        r1: N(?x) -> exists ?y: E(?x, ?y).
        r2: E(?x, ?y) -> N(?y).
        r3: E(?x, ?y) -> E(?y, ?x).
        s1: M(?x) -> exists ?y: F(?x, ?y).
        s2: F(?x, ?y) -> M(?y).
        "#,
    )
    .unwrap();
    let firing = firing_graph(&sigma);
    assert!(firing.has_edge(4, 3), "s2 < s1: no blocker reads F");
    assert!(!firing.has_edge(1, 0), "r2 < r1 is blocked by r3");
    assert_graphs_match_the_pairwise_tests(&sigma, "Σ11 and its blocker-free copy");
    // `M(a)` starts an infinite chase through s1 and s2.
    let report = TerminationAnalyzer::new().analyze(&sigma);
    assert!(
        report.accepted().is_none(),
        "unsound acceptance: {}",
        report.summary()
    );
}

/// A seeded program of 3–6 dependencies over `P/1`, `Q/2`, `R/2` and `S/3`: full
/// and existential TGDs with one or two body atoms, and EGDs.
fn random_program(seed: u64) -> String {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut below = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let predicates = [("P", 1), ("Q", 2), ("R", 2), ("S", 3)];
    let mut text = String::new();
    for i in 0..3 + below(4) {
        let mut body = Vec::new();
        let mut body_vars: Vec<&str> = Vec::new();
        for _ in 0..1 + below(2) {
            let (name, arity) = predicates[below(4)];
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
        let mut existential = false;
        for _ in 0..1 + below(4) / 3 {
            let (name, arity) = predicates[below(4)];
            let terms: Vec<&str> = (0..arity)
                .map(|_| {
                    if kind >= 5 && below(3) == 0 {
                        existential = true;
                        "?w"
                    } else {
                        body_vars[below(body_vars.len())]
                    }
                })
                .collect();
            head.push(format!("{name}({})", terms.join(", ")));
        }
        let exists = if existential { "exists ?w: " } else { "" };
        text.push_str(&format!("r{i}: {body} -> {exists}{}.\n", head.join(", ")));
    }
    text
}

/// The program `seed` joined with a copy over renamed predicates. Odd seeds drop
/// the copy's full dependencies, so the copy's pairs lose their blockers; every
/// third seed also renames the copy's variables to names interned in reverse, so
/// that their order in the enumeration changes.
fn doubled_program(seed: u64) -> DependencySet {
    let text = random_program(seed);
    // Labels are the only lowercase `r`s: `r{i}` becomes `c{i}`.
    let mut copy = text.replace('r', "c");
    for p in ["P", "Q", "R", "S"] {
        copy = copy.replace(&format!("{p}("), &format!("{p}c("));
    }
    if seed.is_multiple_of(3) {
        for v in ["?shape_w", "?shape_z", "?shape_y", "?shape_x"] {
            parse_dependencies(&format!("t: A({v}) -> B({v}).")).unwrap();
        }
        for v in ["w", "x", "y", "z"] {
            copy = copy.replace(&format!("?{v}"), &format!("?shape_{v}"));
        }
    }
    let original = parse_dependencies(&text).expect("generated programs parse");
    let copy = parse_dependencies(&copy).expect("renamed programs parse");
    let keep = |d: &Dependency| seed.is_multiple_of(2) || !d.is_full();
    original
        .iter()
        .map(|(_, d)| d.clone())
        .chain(copy.iter().filter(|(_, d)| keep(d)).map(|(_, d)| d.clone()))
        .collect()
}

#[test]
fn the_graph_builders_equal_the_single_pair_tests() {
    for seed in 0..24 {
        let sigma = doubled_program(seed);
        assert_graphs_match_the_pairwise_tests(&sigma, &format!("seed {seed}"));
    }
}
