//! Experiment E2 — Table 2(a): the corpus statistics (eight classes indexed by the
//! number of existential TGDs and the number of EGDs, with the number of ontologies
//! and the average dependency-set size per class).
//!
//! The corpus is synthetic, because the paper's is not redistributable (see the
//! `chase_ontology` crate docs); by default it is generated at
//! `--scale 0.02` of the paper's sizes so the whole pipeline runs in seconds. Use
//! `--scale 1.0` to generate at the paper's sizes.

use chase_bench::{render_table, ExperimentOptions};
use chase_ontology::corpus::{paper_classes, scaled_paper_corpus};

fn main() {
    let opts = ExperimentOptions::from_args();
    let corpus = scaled_paper_corpus(opts.seed, opts.cyclic_fraction, opts.scale);
    let classes = paper_classes();

    let mut rows = Vec::new();
    for (i, class) in classes.iter().enumerate() {
        let members: Vec<_> = corpus.iter().filter(|o| o.class_index == i).collect();
        let avg_size = members.iter().map(|o| o.sigma.len()).sum::<usize>() as f64
            / members.len().max(1) as f64;
        let avg_ex = members
            .iter()
            .map(|o| o.sigma.existential_ids().len())
            .sum::<usize>() as f64
            / members.len().max(1) as f64;
        let avg_egd = members
            .iter()
            .map(|o| o.sigma.egd_ids().len())
            .sum::<usize>() as f64
            / members.len().max(1) as f64;
        rows.push(vec![
            class.id(),
            format!("{}", members.len()),
            format!("{avg_size:.0}"),
            format!("{avg_ex:.1}"),
            format!("{avg_egd:.1}"),
            format!("{}", class.tests),
            format!("{}", class.average_size),
        ]);
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Table 2(a) — corpus statistics (seed {}, scale {})",
                opts.seed, opts.scale
            ),
            &[
                "class",
                "#tests",
                "|Σ| avg (generated)",
                "|Σ∃| avg",
                "|Σegd| avg",
                "#tests (paper)",
                "|Σ| (paper)",
            ],
            &rows,
        )
    );
    println!(
        "Total ontologies generated: {} (paper: 178). Generated sizes are the paper's sizes × scale.",
        corpus.len()
    );
}
