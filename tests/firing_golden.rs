//! Golden oracle for the firing test and `Adn∃`: the standard and oblivious chase
//! graphs, the Definition-2 firing graph and every `AdnResult` field under both
//! fireable modes, pinned per program as edge counts plus an FNV-1a digest of the
//! full rendering.
//!
//! The pinned values were computed before the firing test learned to settle EGD
//! steps per partition, before S-Str started filtering Str's chase graph and before
//! `Adn∃` cached its adorned predicates and rendering. The oracle calls only the
//! standalone entry points, so it does not share a context with anything it checks.
//!
//! On a mismatch the test prints the whole recomputed table, ready to paste.

use chase_core::parser::parse_dependencies;
use chase_core::{DepId, DependencySet};
use chase_criteria::graph::DiGraph;
use chase_criteria::stratification::{oblivious_chase_graph, standard_chase_graph};
use chase_criteria::{chase_graph_edge, chase_graphs, Applicability, FiringConfig};
use chase_ontology::corpus::{paper_classes, scaled_paper_corpus};
use chase_ontology::families::atlas_corpus;
use chase_termination::{adorn_with, definition2_edge, firing_graph, AdnConfig, FireableMode};
use std::fmt::Write;

const SEED: u64 = 20160396;

/// The paper examples, the atlas at size 8 and the first third of every Table 2(a)
/// class at scale 0.003: the programs of the `analyze` benchmark workload.
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
    for p in atlas_corpus(&[8], SEED) {
        out.push((format!("atlas/{}/{}", p.family, p.size), p.sigma));
    }
    let classes = paper_classes();
    let mut taken = vec![0; classes.len()];
    for (i, g) in scaled_paper_corpus(SEED, 0.55, 0.003)
        .into_iter()
        .enumerate()
    {
        let class = g.class_index;
        if taken[class] == classes[class].tests.div_ceil(3) {
            continue;
        }
        taken[class] += 1;
        out.push((format!("{}#{i}", g.class_id), g.sigma));
    }
    out
}

fn render_edges(out: &mut String, label: &str, graph: &DiGraph) {
    write!(out, "{label}:").unwrap();
    for (f, t, _) in graph.edges() {
        write!(out, " {f}>{t}").unwrap();
    }
    out.push('\n');
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One program's pinned row: standard, oblivious and Definition-2 edge counts and
/// the digest of the full rendering.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    name: String,
    standard: usize,
    oblivious: usize,
    firing: usize,
    digest: u64,
}

fn row(name: &str, sigma: &DependencySet) -> Row {
    let standard = standard_chase_graph(sigma);
    let oblivious = oblivious_chase_graph(sigma);
    let firing = firing_graph(sigma);
    let mut text = String::new();
    render_edges(&mut text, "standard", &standard);
    render_edges(&mut text, "oblivious", &oblivious);
    render_edges(&mut text, "firing", &firing);
    for mode in [FireableMode::Exact, FireableMode::PredicateOverlap] {
        let config = AdnConfig {
            fireable_mode: mode,
            ..AdnConfig::default()
        };
        let r = adorn_with(sigma, &config);
        writeln!(
            text,
            "{mode:?}: acyclic {} rules {} iterations {} budget {}",
            r.acyclic, r.adorned_rule_count, r.iterations, r.budget_exhausted
        )
        .unwrap();
        for d in &r.definitions {
            writeln!(text, "  {d}").unwrap();
        }
        writeln!(text, "  fireable {:?}", r.fireable_pairs).unwrap();
        writeln!(text, "{}", r.adorned).unwrap();
    }
    Row {
        name: name.to_string(),
        standard: standard.edge_count(),
        oblivious: oblivious.edge_count(),
        firing: firing.edge_count(),
        digest: fnv1a(&text),
    }
}

#[test]
fn firing_graph_is_the_all_pairs_definition2_graph_inside_the_chase_graph() {
    let config = FiringConfig::default();
    for (name, sigma) in programs() {
        let firing = firing_graph(&sigma);
        let standard = standard_chase_graph(&sigma);
        for (i, r1) in sigma.iter() {
            for (j, r2) in sigma.iter() {
                let edge = firing.has_edge(i.0, j.0);
                assert_eq!(
                    edge,
                    definition2_edge(&sigma, r1, r2, &config),
                    "{name}: firing graph and definition2_edge disagree on ({}, {})",
                    i.0,
                    j.0
                );
                assert!(
                    !edge || standard.has_edge(i.0, j.0),
                    "{name}: firing edge ({}, {}) is not a chase-graph edge",
                    i.0,
                    j.0
                );
            }
        }
    }
}

/// `sigma` with only the first `kept` of its full dependencies.
fn with_full_prefix(sigma: &DependencySet, kept: usize) -> DependencySet {
    let mut full_seen = 0;
    sigma
        .iter()
        .filter(|(_, d)| {
            if !d.is_full() {
                return true;
            }
            full_seen += 1;
            full_seen <= kept
        })
        .map(|(_, d)| d.clone())
        .collect()
}

/// The lemma behind `Adn∃`'s semi-naive fireability test: more full dependencies only
/// add blockers, so an edge into an existential dependency that fails with a prefix
/// of `Σ∀` also fails with all of it. Checked on every prefix of every program.
#[test]
fn a_firing_edge_absent_under_fewer_blockers_stays_absent() {
    let config = FiringConfig::default();
    for (name, sigma) in programs() {
        let full = sigma.iter().filter(|(_, d)| d.is_full()).count();
        let prefixes: Vec<DependencySet> = (0..=full)
            .map(|kept| with_full_prefix(&sigma, kept))
            .collect();
        for (i, r1) in sigma.iter() {
            for (j, r2) in sigma.iter().filter(|(_, d)| d.is_existential()) {
                let edges: Vec<bool> = prefixes
                    .iter()
                    .map(|prefix| definition2_edge(prefix, r1, r2, &config))
                    .collect();
                assert!(
                    edges.windows(2).all(|w| w[0] || !w[1]),
                    "{name}: ({}, {}) fires under more blockers but not under fewer: {edges:?}",
                    i.0,
                    j.0
                );
            }
        }
    }
    // A blocker that really removes an edge: in Σ11, r3 defuses r2 < r1.
    let sigma11 = &programs()[2].1;
    let (r1, r2) = (sigma11.get(DepId(0)), sigma11.get(DepId(1)));
    assert!(definition2_edge(
        &with_full_prefix(sigma11, 1),
        r2,
        r1,
        &config
    ));
    assert!(!definition2_edge(sigma11, r2, r1, &config));
}

/// Both projections of `chase_graphs` equal the per-pair test under each
/// applicability, and the standard graph lies inside the oblivious one.
#[test]
fn the_fused_chase_graphs_equal_the_per_applicability_loops() {
    let standard = FiringConfig::default();
    let oblivious = FiringConfig {
        applicability: Applicability::Oblivious,
        ..standard
    };
    for (name, sigma) in programs() {
        let graphs = chase_graphs(&sigma, standard.max_variables);
        for (i, r1) in sigma.iter() {
            for (j, r2) in sigma.iter() {
                let (s, o) = (
                    graphs.standard.has_edge(i.0, j.0),
                    graphs.oblivious.has_edge(i.0, j.0),
                );
                let pair = (i.0, j.0);
                assert_eq!(s, chase_graph_edge(r1, r2, &standard), "{name}: G {pair:?}");
                assert_eq!(
                    o,
                    chase_graph_edge(r1, r2, &oblivious),
                    "{name}: Gc {pair:?}"
                );
                assert!(!s || o, "{name}: G edge {pair:?} is not a Gc edge");
            }
        }
    }
}

#[test]
fn chase_graphs_and_adornments_match_the_pinned_values() {
    let actual: Vec<Row> = programs()
        .iter()
        .map(|(name, sigma)| row(name, sigma))
        .collect();
    let expected: Vec<Row> = PINNED
        .iter()
        .map(|&(name, standard, oblivious, firing, digest)| Row {
            name: name.to_string(),
            standard,
            oblivious,
            firing,
            digest,
        })
        .collect();
    if actual != expected {
        let mut table = String::new();
        for r in &actual {
            writeln!(
                table,
                "    ({:?}, {}, {}, {}, {:#018x}),",
                r.name, r.standard, r.oblivious, r.firing, r.digest
            )
            .unwrap();
        }
        panic!("pinned rows differ; recomputed:\n{table}");
    }
}

/// `(program, standard edges, oblivious edges, firing edges, digest)`.
#[rustfmt::skip]
const PINNED: &[(&str, usize, usize, usize, u64)] = &[
    ("Σ1", 5, 5, 5, 0xc607da466526e855),
    ("Σ10", 5, 5, 5, 0xe31a97f622293d9d),
    ("Σ11", 4, 4, 3, 0x210b2bd728734c18),
    ("adornment reproducer", 10, 10, 9, 0xff7d675fa3878978),
    ("atlas/transitive-closure/8", 14, 14, 14, 0x97fa13d06fd4b0af),
    ("atlas/role-chains/8", 7, 7, 7, 0x86110949659982ef),
    ("atlas/functional-roles/8", 20, 22, 16, 0x3928dd28a2cfb658),
    ("atlas/egd-collapse-cycles/8", 16, 16, 14, 0x188ccb91228279a8),
    ("atlas/egd-heavy/8", 28, 29, 25, 0xbce2c7d957ac1d55),
    ("atlas/gav-lav-acyclic/8", 8, 8, 7, 0x43e8f332ebc516ed),
    ("atlas/gav-lav-cyclic/8", 14, 14, 12, 0x0f8e7c5e9d3fe95a),
    ("atlas/egd-laundering/8", 10, 10, 9, 0xf3d1722cc21b0ac8),
    ("E[1,10]xG[1,10]#0", 7, 8, 6, 0xfc04a2c0f65c15b2),
    ("E[1,10]xG[1,10]#1", 10, 10, 10, 0xc063a0437393f41e),
    ("E[1,10]xG[1,10]#2", 10, 10, 8, 0xe6f41eacd28d2f97),
    ("E[1,10]xG[1,10]#3", 2, 2, 2, 0x96b707ffe0cde194),
    ("E[1,10]xG[1,10]#4", 20, 20, 16, 0xdd9a4d33c2ca6e55),
    ("E[1,10]xG[1,10]#5", 15, 15, 14, 0xdbf0e2c59c5742a2),
    ("E[1,10]xG[1,10]#6", 10, 10, 9, 0xfbd7256719e0bc6e),
    ("E[1,10]xG[1,10]#7", 8, 8, 8, 0x7f6d25b8654f408f),
    ("E[1,10]xG[1,10]#8", 18, 19, 14, 0xe72777c20fa526d9),
    ("E[1,10]xG[1,10]#9", 20, 22, 16, 0xa31a0569fe54e516),
    ("E[1,10]xG[1,10]#10", 3, 3, 3, 0xbbbfe0f638ef375e),
    ("E[1,10]xG[1,10]#11", 10, 10, 9, 0xd1690e48625b8c40),
    ("E[1,10]xG[1,10]#12", 11, 11, 10, 0x640a4ed557f8c9ed),
    ("E[1,10]xG[1,10]#13", 4, 4, 4, 0x08f3bd328f39943a),
    ("E[1,10]xG[1,10]#14", 18, 18, 16, 0x3202ad5f067b6c5a),
    ("E[1,10]xG[1,10]#15", 6, 6, 6, 0x23cffade896063ac),
    ("E[1,10]xG[1,10]#16", 10, 10, 8, 0x6ded945f61b30b85),
    ("E[1,10]xG[11,100]#50", 19, 20, 17, 0xf2f8d9cd8ca47061),
    ("E[1,10]xG[11,100]#51", 16, 16, 16, 0x93fcde14ed89cf27),
    ("E[1,10]xG[11,100]#52", 15, 15, 13, 0x22882ae28b5e8a37),
    ("E[11,100]xG[1,10]#57", 12, 12, 10, 0xf8fcf0177ddca8a7),
    ("E[11,100]xG[1,10]#58", 6, 6, 6, 0x794ac34501313834),
    ("E[11,100]xG[1,10]#59", 5, 5, 4, 0x265de15d4b03965c),
    ("E[11,100]xG[1,10]#60", 13, 13, 11, 0x7face0cbb78a29b3),
    ("E[11,100]xG[1,10]#61", 21, 21, 21, 0x6653e40852823504),
    ("E[11,100]xG[11,100]#72", 12, 12, 9, 0x42b6298a1cdcec2a),
    ("E[11,100]xG[11,100]#73", 6, 6, 5, 0x02b810f220784693),
    ("E[11,100]xG[11,100]#74", 10, 10, 7, 0x4e7aef4c7e2acaab),
    ("E[11,100]xG[11,100]#75", 16, 18, 16, 0x60ec7632942b285f),
    ("E[11,100]xG[11,100]#76", 13, 14, 13, 0x31394faabe91c60a),
    ("E[11,100]xG[11,100]#77", 3, 3, 3, 0x276b20aad29a846f),
    ("E[11,100]xG[11,100]#78", 8, 8, 8, 0xf3481ce0015891b6),
    ("E[11,100]xG[11,100]#79", 14, 14, 12, 0xa2689ff21a3954b4),
    ("E[11,100]xG[11,100]#80", 3, 3, 3, 0x7ffb99cb88c01f07),
    ("E[101,1000]xG[1,10]#98", 20, 20, 16, 0x3f6a955ded32cb76),
    ("E[101,1000]xG[1,10]#99", 20, 21, 16, 0x24ddb4f3f7d7954a),
    ("E[101,1000]xG[1,10]#100", 31, 31, 26, 0xe86e43f476f38ed4),
    ("E[101,1000]xG[1,10]#101", 12, 12, 11, 0xa15a0bfa5f43850a),
    ("E[101,1000]xG[1,10]#102", 21, 22, 18, 0x62a59a6b091709d7),
    ("E[101,1000]xG[1,10]#103", 33, 35, 33, 0x44e68bc3b9fd8edb),
    ("E[101,1000]xG[1,10]#104", 23, 23, 21, 0x7b7027940ce14a49),
    ("E[101,1000]xG[1,10]#105", 27, 27, 27, 0xa69c96628235147f),
    ("E[101,1000]xG[1,10]#106", 23, 23, 22, 0x133e1466dc3c3d0d),
    ("E[101,1000]xG[1,10]#107", 18, 18, 16, 0x3b0686b9fbf8480a),
    ("E[101,1000]xG[1,10]#108", 20, 20, 18, 0x1e18998586e035a4),
    ("E[101,1000]xG[1,10]#109", 21, 21, 21, 0x4adae4c75fc7074c),
    ("E[101,1000]xG[1,10]#110", 26, 26, 22, 0x93b918169cf27d0f),
    ("E[101,1000]xG[1,10]#111", 25, 25, 21, 0x502eccb36e9aceed),
    ("E[101,1000]xG[1,10]#112", 19, 19, 15, 0xed7c2d5aff827a59),
    ("E[101,1000]xG[1,10]#113", 23, 23, 20, 0xd6364b03e425e32b),
    ("E[101,1000]xG[1,10]#114", 21, 21, 17, 0xcb2371af1ffdbd10),
    ("E[101,1000]xG[11,100]#149", 20, 20, 18, 0x7971f12e1f37ddfc),
    ("E[101,1000]xG[11,100]#150", 28, 29, 26, 0xad13495e85dc53e5),
    ("E[101,1000]xG[11,100]#151", 21, 21, 20, 0x1d21b7b063b3d80e),
    ("E[101,1000]xG[11,100]#152", 15, 15, 13, 0x70163e32fa49283f),
    ("E[101,1000]xG[11,100]#153", 22, 22, 22, 0x24025d9c73c2fb30),
    ("E[1001,5000]xG[1,10]#162", 65, 65, 56, 0xe0f7f690ad061640),
    ("E[1001,5000]xG[1,10]#163", 41, 42, 36, 0x29681782ca26eb2b),
    ("E[1001,5000]xG[1,10]#164", 53, 53, 53, 0x690d8636efb86b01),
    ("E[1001,5000]xG[11,100]#171", 191, 191, 191, 0x071c51ed37e536cb),
    ("E[1001,5000]xG[11,100]#172", 138, 138, 132, 0x5b00d0834fae3c34),
    ("E[1001,5000]xG[11,100]#173", 168, 168, 136, 0x3623586ceb4dc31e),
];
