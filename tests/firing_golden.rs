//! Golden oracle for the firing test and `Adn∃`: the standard and oblivious chase
//! graphs, the Definition-2 firing graph and every `AdnResult` field, pinned per
//! program as edge counts plus an FNV-1a digest of the full rendering.
//!
//! The pinned values were computed before the firing test learned to settle EGD
//! steps per partition, before S-Str started filtering Str's chase graph and before
//! `Adn∃` cached its adorned predicates and rendering. When `Adn∃` lost its
//! predicate-overlap fireability test, the rendering dropped that test's section
//! and the digests were recomputed, in the rendering below, by the code before the
//! deletion with Definition 2 forced, so they still pin its results. The oracle
//! calls only the standalone entry points, so it does not share a context with
//! anything it checks.
//!
//! On a mismatch the test prints the whole recomputed table, ready to paste.

use chase_core::parser::parse_dependencies;
use chase_core::{DepId, DependencySet};
use chase_criteria::graph::DiGraph;
use chase_criteria::{chase_graph_edge, chase_graphs, Applicability};
use chase_ontology::corpus::{paper_classes, scaled_paper_corpus};
use chase_ontology::families::atlas_corpus;
use chase_termination::{adorn, definition2_edge, firing_graph};
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
    let graphs = chase_graphs(sigma);
    let (standard, oblivious) = (&graphs.standard, &graphs.oblivious);
    let firing = firing_graph(sigma);
    let mut text = String::new();
    render_edges(&mut text, "standard", standard);
    render_edges(&mut text, "oblivious", oblivious);
    render_edges(&mut text, "firing", &firing);
    let r = adorn(sigma);
    // `Exact:` is the label of the section the digests were recomputed from.
    writeln!(
        text,
        "Exact: acyclic {} rules {} iterations {} budget {}",
        r.acyclic, r.adorned_rule_count, r.iterations, r.budget_exhausted
    )
    .unwrap();
    for d in &r.definitions {
        writeln!(text, "  {d}").unwrap();
    }
    writeln!(text, "  fireable {:?}", r.fireable_pairs).unwrap();
    writeln!(text, "{}", r.adorned).unwrap();
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
    for (name, sigma) in programs() {
        let firing = firing_graph(&sigma);
        let standard = chase_graphs(&sigma).standard;
        for (i, r1) in sigma.iter() {
            for (j, r2) in sigma.iter() {
                let edge = firing.has_edge(i.0, j.0);
                assert_eq!(
                    edge,
                    definition2_edge(&sigma, r1, r2),
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
    for (name, sigma) in programs() {
        let full = sigma.iter().filter(|(_, d)| d.is_full()).count();
        let prefixes: Vec<DependencySet> = (0..=full)
            .map(|kept| with_full_prefix(&sigma, kept))
            .collect();
        for (i, r1) in sigma.iter() {
            for (j, r2) in sigma.iter().filter(|(_, d)| d.is_existential()) {
                let edges: Vec<bool> = prefixes
                    .iter()
                    .map(|prefix| definition2_edge(prefix, r1, r2))
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
    assert!(definition2_edge(&with_full_prefix(sigma11, 1), r2, r1));
    assert!(!definition2_edge(sigma11, r2, r1));
}

/// Both projections of `chase_graphs` equal the per-pair test under each
/// applicability, and the standard graph lies inside the oblivious one.
#[test]
fn the_fused_chase_graphs_equal_the_per_applicability_loops() {
    let (standard, oblivious) = (Applicability::Standard, Applicability::Oblivious);
    for (name, sigma) in programs() {
        let graphs = chase_graphs(&sigma);
        for (i, r1) in sigma.iter() {
            for (j, r2) in sigma.iter() {
                let (s, o) = (
                    graphs.standard.has_edge(i.0, j.0),
                    graphs.oblivious.has_edge(i.0, j.0),
                );
                let pair = (i.0, j.0);
                assert_eq!(s, chase_graph_edge(r1, r2, standard), "{name}: G {pair:?}");
                assert_eq!(
                    o,
                    chase_graph_edge(r1, r2, oblivious),
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
    ("Σ1", 5, 5, 5, 0xb4e33ed776159b96),
    ("Σ10", 5, 5, 5, 0xd45756247992a885),
    ("Σ11", 4, 4, 3, 0x90faa1dcb0c3a017),
    ("adornment reproducer", 10, 10, 9, 0x4369534d4e78bc9e),
    ("atlas/transitive-closure/8", 14, 14, 14, 0x2367cb8fb4e85033),
    ("atlas/role-chains/8", 7, 7, 7, 0xf2012352d22dd3b3),
    ("atlas/functional-roles/8", 20, 22, 16, 0x7dbc8c858964e82f),
    ("atlas/egd-collapse-cycles/8", 16, 16, 14, 0x6515aeaec2830671),
    ("atlas/egd-heavy/8", 28, 29, 25, 0x7f52fbdf05b325a0),
    ("atlas/gav-lav-acyclic/8", 8, 8, 7, 0xfd8efd77774f70a3),
    ("atlas/gav-lav-cyclic/8", 14, 14, 12, 0xe946167f319d9795),
    ("atlas/egd-laundering/8", 10, 10, 9, 0x8193e2699357bb70),
    ("E[1,10]xG[1,10]#0", 7, 8, 6, 0x737936506eeb1c4a),
    ("E[1,10]xG[1,10]#1", 10, 10, 10, 0x6f5d4944b1361fe9),
    ("E[1,10]xG[1,10]#2", 10, 10, 8, 0x46c4c6a3385f8e0c),
    ("E[1,10]xG[1,10]#3", 2, 2, 2, 0xfd3e3eeb37068c8c),
    ("E[1,10]xG[1,10]#4", 20, 20, 16, 0xe0088b47ecc16881),
    ("E[1,10]xG[1,10]#5", 15, 15, 14, 0x3629dbd34ec66c54),
    ("E[1,10]xG[1,10]#6", 10, 10, 9, 0x18b577915c3c8f7e),
    ("E[1,10]xG[1,10]#7", 8, 8, 8, 0xe2698972a25949a0),
    ("E[1,10]xG[1,10]#8", 18, 19, 14, 0xc93b514de6983dcc),
    ("E[1,10]xG[1,10]#9", 20, 22, 16, 0x64f4d47b433b23e4),
    ("E[1,10]xG[1,10]#10", 3, 3, 3, 0xdcee6f6957780eab),
    ("E[1,10]xG[1,10]#11", 10, 10, 9, 0xcf3522cadebed0a7),
    ("E[1,10]xG[1,10]#12", 11, 11, 10, 0xcc7f9b78fe5e0c52),
    ("E[1,10]xG[1,10]#13", 4, 4, 4, 0xd460f786f47a0cba),
    ("E[1,10]xG[1,10]#14", 18, 18, 16, 0x169d31dddaf0c1d8),
    ("E[1,10]xG[1,10]#15", 6, 6, 6, 0x40ee167444742655),
    ("E[1,10]xG[1,10]#16", 10, 10, 8, 0x205c61c97e1ceb42),
    ("E[1,10]xG[11,100]#50", 19, 20, 17, 0x8d32ffa937e6555e),
    ("E[1,10]xG[11,100]#51", 16, 16, 16, 0x2b6db4c63e2067b3),
    ("E[1,10]xG[11,100]#52", 15, 15, 13, 0x651e4b645e484c3a),
    ("E[11,100]xG[1,10]#57", 12, 12, 10, 0xa7520f13171d796a),
    ("E[11,100]xG[1,10]#58", 6, 6, 6, 0x6d97f74d27d84b03),
    ("E[11,100]xG[1,10]#59", 5, 5, 4, 0x96cd5bcada439320),
    ("E[11,100]xG[1,10]#60", 13, 13, 11, 0x73a4a67d52b75b23),
    ("E[11,100]xG[1,10]#61", 21, 21, 21, 0x985b87cda5ae687d),
    ("E[11,100]xG[11,100]#72", 12, 12, 9, 0xf26b9bcd45ae8288),
    ("E[11,100]xG[11,100]#73", 6, 6, 5, 0xecbee4e4d6cb1fcf),
    ("E[11,100]xG[11,100]#74", 10, 10, 7, 0x03d88f7c21a72771),
    ("E[11,100]xG[11,100]#75", 16, 18, 16, 0x9523399ebbad1870),
    ("E[11,100]xG[11,100]#76", 13, 14, 13, 0x9a84558270d62867),
    ("E[11,100]xG[11,100]#77", 3, 3, 3, 0xb9a3d2635e17d9eb),
    ("E[11,100]xG[11,100]#78", 8, 8, 8, 0x5d5795d18de903f3),
    ("E[11,100]xG[11,100]#79", 14, 14, 12, 0x7b5970a5fab4c5a9),
    ("E[11,100]xG[11,100]#80", 3, 3, 3, 0x7351c90ebaeaa127),
    ("E[101,1000]xG[1,10]#98", 20, 20, 16, 0xe5d728d431432c14),
    ("E[101,1000]xG[1,10]#99", 20, 21, 16, 0xe7e40a89665428c3),
    ("E[101,1000]xG[1,10]#100", 31, 31, 26, 0x509df90fb5d48ff5),
    ("E[101,1000]xG[1,10]#101", 12, 12, 11, 0x9b74eaaf34a07184),
    ("E[101,1000]xG[1,10]#102", 21, 22, 18, 0x7381eb10a082b181),
    ("E[101,1000]xG[1,10]#103", 33, 35, 33, 0x0890539ae5921f58),
    ("E[101,1000]xG[1,10]#104", 23, 23, 21, 0x0491a608093c1dd8),
    ("E[101,1000]xG[1,10]#105", 27, 27, 27, 0x2faaa9d474eca447),
    ("E[101,1000]xG[1,10]#106", 23, 23, 22, 0x712ee70b8b25b765),
    ("E[101,1000]xG[1,10]#107", 18, 18, 16, 0xd7d72f71fb98bbd8),
    ("E[101,1000]xG[1,10]#108", 20, 20, 18, 0x24bb0fa475aad95e),
    ("E[101,1000]xG[1,10]#109", 21, 21, 21, 0x4bf8a6cd02ba480d),
    ("E[101,1000]xG[1,10]#110", 26, 26, 22, 0x87c04ab32d3cc5e0),
    ("E[101,1000]xG[1,10]#111", 25, 25, 21, 0x8df054dffb163504),
    ("E[101,1000]xG[1,10]#112", 19, 19, 15, 0x1c533dfc9f2a11ef),
    ("E[101,1000]xG[1,10]#113", 23, 23, 20, 0x7358840fb513a065),
    ("E[101,1000]xG[1,10]#114", 21, 21, 17, 0x84962f8bcf366acc),
    ("E[101,1000]xG[11,100]#149", 20, 20, 18, 0x47f6f9918b9452c7),
    ("E[101,1000]xG[11,100]#150", 28, 29, 26, 0xecd2080b25650c87),
    ("E[101,1000]xG[11,100]#151", 21, 21, 20, 0xb6ac8527df5b9f76),
    ("E[101,1000]xG[11,100]#152", 15, 15, 13, 0xddda99c5c8000c2a),
    ("E[101,1000]xG[11,100]#153", 22, 22, 22, 0xdd04eadebf8d52e3),
    ("E[1001,5000]xG[1,10]#162", 65, 65, 56, 0x82bc8b122117b592),
    ("E[1001,5000]xG[1,10]#163", 41, 42, 36, 0xd3a1780a06af4686),
    ("E[1001,5000]xG[1,10]#164", 53, 53, 53, 0xd7e825ce91553f04),
    ("E[1001,5000]xG[11,100]#171", 191, 191, 191, 0xb54b99691394e72c),
    ("E[1001,5000]xG[11,100]#172", 138, 138, 132, 0xae649f428959c923),
    ("E[1001,5000]xG[11,100]#173", 168, 168, 136, 0x23a5592611236165),
];
