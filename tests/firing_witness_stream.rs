//! Pins the witness stream of the firing test: for every ordered pair of the
//! `firing_golden` programs and of a seeded set of random pairs, under both
//! applicabilities, the [`FiringAnswer`] and every reported witness in order
//! (`K`'s facts, `h1`, `h2`, whether the step is a standard one and, for
//! Definition 2 into an existential `r2`, whether the pair's full dependencies
//! block it), folded into an FNV-1a digest per program.
//!
//! A pair of at most 7 combined body variables streams in full; a larger pair
//! pins only its first witness. The order pinned is the enumeration's documented
//! order: partitions, then labellings, then subsets of `Body(r2)`, then `h2` in
//! `J` order. The whole test is one `#[test]`, so the interning order of the
//! symbols, which orders variables, is that of this file alone.
//!
//! On a mismatch the test prints the whole recomputed table, ready to paste.

use chase_core::parser::parse_dependencies;
use chase_core::{Dependency, DependencySet};
use chase_criteria::{for_each_firing_witness, Applicability, FiringAnswer};
use chase_ontology::corpus::{paper_classes, scaled_paper_corpus};
use chase_ontology::families::atlas_corpus;
use std::fmt::Write;
use std::ops::ControlFlow;

const SEED: u64 = 20160396;

/// The programs of `firing_golden` (the `analyze` benchmark corpus).
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

/// A small xorshift generator: the random pairs do not depend on any RNG crate.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

const PREDICATES: [(&str, usize); 4] = [("A", 1), ("B", 2), ("C", 2), ("D", 3)];

/// A random dependency over `PREDICATES`: one to three body atoms over up to four
/// variables (and sometimes the constant `k`), then an EGD on two body variables
/// or one or two head atoms with up to two existential variables.
fn random_dependency(rng: &mut Rng, label: &str) -> String {
    let pool = 1 + rng.below(4);
    let mut body_vars: Vec<usize> = Vec::new();
    let term = |rng: &mut Rng, vars: &mut Vec<usize>| {
        if rng.below(12) == 0 {
            "k".to_string()
        } else {
            let v = rng.below(pool);
            if !vars.contains(&v) {
                vars.push(v);
            }
            format!("?x{v}")
        }
    };
    let mut atoms: Vec<String> = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let (name, arity) = PREDICATES[rng.below(PREDICATES.len())];
        let terms: Vec<String> = (0..arity).map(|_| term(rng, &mut body_vars)).collect();
        atoms.push(format!("{name}({})", terms.join(", ")));
    }
    let body = atoms.join(", ");
    if body_vars.len() >= 2 && rng.below(4) == 0 {
        let (a, b) = (body_vars[0], body_vars[1]);
        return format!("{label}: {body} -> ?x{a} = ?x{b}.");
    }
    let mut existentials: Vec<usize> = Vec::new();
    let mut head: Vec<String> = Vec::new();
    for _ in 0..1 + rng.below(2) {
        let (name, arity) = PREDICATES[rng.below(PREDICATES.len())];
        let terms: Vec<String> = (0..arity)
            .map(|_| match rng.below(5) {
                0 => "k".to_string(),
                1 => {
                    let z = rng.below(2);
                    if !existentials.contains(&z) {
                        existentials.push(z);
                    }
                    format!("?z{z}")
                }
                _ if body_vars.is_empty() => "k".to_string(),
                _ => format!("?x{}", body_vars[rng.below(body_vars.len())]),
            })
            .collect();
        head.push(format!("{name}({})", terms.join(", ")));
    }
    let head = head.join(", ");
    if existentials.is_empty() {
        format!("{label}: {body} -> {head}.")
    } else {
        let zs: Vec<String> = existentials.iter().map(|z| format!("?z{z}")).collect();
        format!("{label}: {body} -> exists {}: {head}.", zs.join(", "))
    }
}

/// Seeded random sets `{r1, r2, r3}`: the pair `(r1, r2)` and a third dependency
/// that, when full, is a blocker.
fn random_sets(count: usize) -> Vec<DependencySet> {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    (0..count)
        .map(|_| {
            let src: Vec<String> = ["r1", "r2", "r3"]
                .iter()
                .map(|label| random_dependency(&mut rng, label))
                .collect();
            parse_dependencies(&src.join(" ")).unwrap()
        })
        .collect()
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// How many distinct variables the bodies of `r1` and `r2` have together.
fn combined_variables(r1: &Dependency, r2: &Dependency) -> usize {
    r1.body_variables().len() + r2.body_variables().len()
}

/// Appends the witness stream of `(r1, r2)` under `applicability` to `text`;
/// returns the number of witnesses reported.
fn stream(
    text: &mut String,
    full: &[&Dependency],
    r1: &Dependency,
    r2: &Dependency,
    applicability: Applicability,
) -> usize {
    let in_full = combined_variables(r1, r2) <= 7;
    // Only the full dependencies that can match in a candidate, as Definition 2's
    // callers pass them.
    let blockers: Vec<&Dependency> = full
        .iter()
        .copied()
        .filter(|b| {
            b.body().iter().all(|a| {
                r1.body()
                    .iter()
                    .chain(r2.body())
                    .any(|c| c.predicate == a.predicate)
            })
        })
        .collect();
    let definition2 = applicability == Applicability::Standard && r2.is_existential();
    let mut witnesses = 0;
    let answer = for_each_firing_witness(r1, r2, applicability, &mut |w| {
        witnesses += 1;
        for f in w.k() {
            write!(text, "{f};").unwrap();
        }
        write!(text, "|{}|{}|{}", w.h1(), w.h2(), w.is_standard_step()).unwrap();
        if definition2 {
            write!(text, "|{}", w.is_blocked_by(&blockers, r2)).unwrap();
        }
        text.push('\n');
        if in_full {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    });
    writeln!(text, "{answer:?}").unwrap();
    if answer == FiringAnswer::Unknown {
        assert_eq!(witnesses, 0, "an Unknown pair reports no witness");
    }
    witnesses
}

/// One pinned row: a program, its ordered pairs times both applicabilities, the
/// witnesses reported and the digest of the stream.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    name: String,
    runs: usize,
    witnesses: usize,
    digest: u64,
}

fn row(
    name: &str,
    sets: &[DependencySet],
    pairs_of: impl Fn(&DependencySet) -> Vec<(usize, usize)>,
) -> Row {
    let mut text = String::new();
    let (mut runs, mut witnesses) = (0, 0);
    for sigma in sets {
        let deps = sigma.as_slice();
        let full: Vec<&Dependency> = deps.iter().filter(|d| d.is_full()).collect();
        for (i, j) in pairs_of(sigma) {
            for applicability in [Applicability::Standard, Applicability::Oblivious] {
                writeln!(text, "{i}>{j} {applicability:?}").unwrap();
                witnesses += stream(&mut text, &full, &deps[i], &deps[j], applicability);
                runs += 1;
            }
        }
    }
    Row {
        name: name.to_string(),
        runs,
        witnesses,
        digest: fnv1a(&text),
    }
}

#[test]
fn the_witness_stream_matches_the_pinned_digests() {
    let all_pairs = |sigma: &DependencySet| {
        let n = sigma.len();
        (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect()
    };
    let mut actual: Vec<Row> = programs()
        .iter()
        .map(|(name, sigma)| row(name, std::slice::from_ref(sigma), all_pairs))
        .collect();
    let random = random_sets(200);
    for (k, chunk) in random.chunks(50).enumerate() {
        actual.push(row(&format!("random#{k}"), chunk, |_| vec![(0, 1)]));
    }
    let expected: Vec<Row> = PINNED
        .iter()
        .map(|&(name, runs, witnesses, digest)| Row {
            name: name.to_string(),
            runs,
            witnesses,
            digest,
        })
        .collect();
    if actual != expected {
        let mut table = String::new();
        for r in &actual {
            writeln!(
                table,
                "    ({:?}, {}, {}, {:#018x}),",
                r.name, r.runs, r.witnesses, r.digest
            )
            .unwrap();
        }
        panic!("pinned rows differ; recomputed:\n{table}");
    }
}

/// `(program, pair runs, witnesses, digest)`.
#[rustfmt::skip]
const PINNED: &[(&str, usize, usize, u64)] = &[
    ("Σ1", 18, 130, 0x5aea54df9b474145),
    ("Σ10", 18, 636, 0x41260c736420b2c1),
    ("Σ11", 18, 88, 0xb83c50e1270e9eea),
    ("adornment reproducer", 72, 722, 0xf5db822507c6b35f),
    ("atlas/transitive-closure/8", 128, 1252, 0xe0fd20f9cd2bfd31),
    ("atlas/role-chains/8", 128, 140, 0x85c06155e33b0c59),
    ("atlas/functional-roles/8", 128, 2044, 0xe6ee0ebd496604c9),
    ("atlas/egd-collapse-cycles/8", 72, 356, 0x01599381df7b1835),
    ("atlas/egd-heavy/8", 98, 7170, 0x6e2ae4b1f8da1e7d),
    ("atlas/gav-lav-acyclic/8", 98, 616, 0xe553976b69e9772b),
    ("atlas/gav-lav-cyclic/8", 162, 816, 0xf1b694eefb43754e),
    ("atlas/egd-laundering/8", 72, 722, 0xc921851e079a7ed3),
    ("E[1,10]xG[1,10]#0", 50, 584, 0xf91c4fd4dc1eab0a),
    ("E[1,10]xG[1,10]#1", 98, 832, 0xef389853c7e4163c),
    ("E[1,10]xG[1,10]#2", 72, 848, 0xd74c3d3befdec88c),
    ("E[1,10]xG[1,10]#3", 32, 522, 0x38b7e038ac140ab9),
    ("E[1,10]xG[1,10]#4", 98, 2712, 0xb925c413a48e3aa7),
    ("E[1,10]xG[1,10]#5", 98, 850, 0x5d6027129f6cc41d),
    ("E[1,10]xG[1,10]#6", 72, 848, 0x4e24596288019e0a),
    ("E[1,10]xG[1,10]#7", 72, 676, 0x90eaa85ba91385be),
    ("E[1,10]xG[1,10]#8", 98, 2152, 0xbd0f2e2a3f2f5dbc),
    ("E[1,10]xG[1,10]#9", 98, 2468, 0x2944719fdd8f40ac),
    ("E[1,10]xG[1,10]#10", 32, 540, 0xc24405900fa1b8a9),
    ("E[1,10]xG[1,10]#11", 72, 750, 0xc9510ec9bf9483de),
    ("E[1,10]xG[1,10]#12", 50, 1880, 0x63b0a01883a74819),
    ("E[1,10]xG[1,10]#13", 32, 650, 0x442ee5bed43e9b32),
    ("E[1,10]xG[1,10]#14", 98, 2198, 0xac5fdb9c870fb05b),
    ("E[1,10]xG[1,10]#15", 50, 598, 0x9141edb22c913a86),
    ("E[1,10]xG[1,10]#16", 72, 844, 0x13511e2b0a3075d2),
    ("E[1,10]xG[11,100]#50", 98, 2170, 0xd4b3542f544b6833),
    ("E[1,10]xG[11,100]#51", 98, 2388, 0x1a12a03711e095ba),
    ("E[1,10]xG[11,100]#52", 98, 2212, 0x536df40a09df4ac7),
    ("E[11,100]xG[1,10]#57", 72, 1934, 0x70c2ee93ed6c91a3),
    ("E[11,100]xG[1,10]#58", 72, 592, 0x382bac0d223eac15),
    ("E[11,100]xG[1,10]#59", 32, 614, 0xa635620b2a25d06e),
    ("E[11,100]xG[1,10]#60", 72, 1856, 0x4910f1ef020bf4be),
    ("E[11,100]xG[1,10]#61", 128, 2528, 0x6759b82b4406745b),
    ("E[11,100]xG[11,100]#72", 98, 878, 0x1a66d8bcb38a2b53),
    ("E[11,100]xG[11,100]#73", 32, 574, 0x80c6988b8f6cf52d),
    ("E[11,100]xG[11,100]#74", 98, 846, 0x1a878f271a13d2c5),
    ("E[11,100]xG[11,100]#75", 72, 1810, 0xce72506b97314383),
    ("E[11,100]xG[11,100]#76", 98, 896, 0xbfd580ae840dcaca),
    ("E[11,100]xG[11,100]#77", 50, 540, 0x9e9e2bf63f9fc015),
    ("E[11,100]xG[11,100]#78", 50, 1760, 0x93289198d89be10a),
    ("E[11,100]xG[11,100]#79", 50, 1932, 0x9f6750e5add4c6d2),
    ("E[11,100]xG[11,100]#80", 32, 540, 0xadcc3d96b513bff0),
    ("E[101,1000]xG[1,10]#98", 242, 1228, 0xfb409b50c671fd9e),
    ("E[101,1000]xG[1,10]#99", 242, 972, 0x33214c88713637c3),
    ("E[101,1000]xG[1,10]#100", 242, 2936, 0x1d696acfca0784e8),
    ("E[101,1000]xG[1,10]#101", 162, 1132, 0x7d11db0f3f8e35fc),
    ("E[101,1000]xG[1,10]#102", 242, 1204, 0x815c0ad45810c3b7),
    ("E[101,1000]xG[1,10]#103", 242, 2748, 0x35f11e4f256f2964),
    ("E[101,1000]xG[1,10]#104", 162, 2444, 0x21e848a1f4737c36),
    ("E[101,1000]xG[1,10]#105", 242, 2888, 0x69216b0428d1a25b),
    ("E[101,1000]xG[1,10]#106", 162, 1420, 0x29dcd1f8b7b9f168),
    ("E[101,1000]xG[1,10]#107", 242, 1236, 0xfed89a69a2ae85b7),
    ("E[101,1000]xG[1,10]#108", 162, 2366, 0x025326ea44044a13),
    ("E[101,1000]xG[1,10]#109", 242, 1244, 0x0317f443b509591b),
    ("E[101,1000]xG[1,10]#110", 242, 2594, 0x8508c2564e3e276a),
    ("E[101,1000]xG[1,10]#111", 162, 2652, 0x4197ff0ff5bd44e4),
    ("E[101,1000]xG[1,10]#112", 162, 2594, 0xd2761785ec1ccabd),
    ("E[101,1000]xG[1,10]#113", 242, 1498, 0x1f27b4cfc99f629c),
    ("E[101,1000]xG[1,10]#114", 242, 1332, 0xe21e0d79f73caa9f),
    ("E[101,1000]xG[11,100]#149", 288, 1488, 0xb48a6c81705501bc),
    ("E[101,1000]xG[11,100]#150", 200, 3348, 0x8a610a668ff86dfe),
    ("E[101,1000]xG[11,100]#151", 288, 1172, 0x4a47a01c3b355961),
    ("E[101,1000]xG[11,100]#152", 288, 1370, 0xd3c9e7d27e84b652),
    ("E[101,1000]xG[11,100]#153", 288, 1440, 0xe29fe44c28a3ce66),
    ("E[1001,5000]xG[1,10]#162", 1682, 2582, 0xf66a279def70b183),
    ("E[1001,5000]xG[1,10]#163", 1458, 2004, 0x808ccf950319aba0),
    ("E[1001,5000]xG[1,10]#164", 1458, 2480, 0xcd452be8799dc6f8),
    ("E[1001,5000]xG[11,100]#171", 7442, 12260, 0x915798777d6a6c33),
    ("E[1001,5000]xG[11,100]#172", 7442, 7860, 0x70a9eca4bddb994d),
    ("E[1001,5000]xG[11,100]#173", 7442, 10466, 0x6d4a04ed29fdfd84),
    ("random#0", 100, 3014, 0xa4bf31961376b994),
    ("random#1", 100, 930, 0xbc7a88bd342c7667),
    ("random#2", 100, 3740, 0xf67104cd88337708),
    ("random#3", 100, 2438, 0x437d9e79d3174b7d),
];
