//! Pins every field of `Adn∃`'s result on three corpora: the atlas at size 8, the
//! Table 2 corpus at scale 0.003 and 300 generated programs. Each corpus folds,
//! program by program, the rendered `Σµ`, `Acyc`, the definitions, the rule and
//! iteration counts, the fireable pairs, the budget flag and the rewrite count
//! into one FNV-1a digest.
//!
//! Its own binary with one test: the order of `AP(Σµ)`, and with it the order of
//! the adorned rules, follows the interning order of the input predicates, so no
//! other test may intern names while it runs.

use chase_core::parser::parse_dependencies;
use chase_core::DependencySet;
use chase_termination::adornment::{adorn, AdnResult};

const SEED: u64 = 20160396;

/// FNV-1a over the bytes of every field of each result, in order.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, result: &AdnResult) {
        let text = format!(
            "{}\n{}\n{:?}\n{}\n{}\n{:?}\n{}\n{}\n",
            result.adorned,
            result.acyclic,
            result.definitions,
            result.adorned_rule_count,
            result.iterations,
            result.fireable_pairs,
            result.budget_exhausted,
            result.rebuilds,
        );
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A seeded program of 3–7 dependencies over `P/1`, `Q/2`, `R/2` and `S/3`: full
/// and existential TGDs with one or two body atoms, and EGDs.
fn random_program(seed: u64) -> DependencySet {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut below = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let predicates = [("P", 1), ("Q", 2), ("R", 2), ("S", 3)];
    let mut text = String::new();
    for i in 0..3 + below(5) {
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
    parse_dependencies(&text).expect("generated programs parse")
}

#[test]
fn adornment_results_match_their_pins() {
    let mut atlas = Digest::new();
    for program in chase_ontology::atlas_corpus(&[8], SEED) {
        atlas.fold(&adorn(&program.sigma));
    }
    let mut table2 = Digest::new();
    for ontology in chase_ontology::scaled_paper_corpus(SEED, 0.55, 0.003) {
        table2.fold(&adorn(&ontology.sigma));
    }
    let mut generated = Digest::new();
    for seed in 0..300 {
        generated.fold(&adorn(&random_program(seed)));
    }
    let digests = [atlas.0, table2.0, generated.0].map(|d| format!("{d:016x}"));
    assert_eq!(
        digests,
        ["d42c314c6bb35250", "981bab25217e8b86", "50f26ab3ef88d526"]
    );
}
