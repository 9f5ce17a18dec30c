//! Experiment E3 — Table 2(b): cost of the adornment algorithm per corpus class — the
//! average ratio `|Σµ|/|Σ|`, the number of programs whose run hit the rule budget
//! (`budget_exhausted`: their ratio is that of a truncated `Σµ`) and the average
//! wall-clock time of `Adn∃`.

use chase_bench::{render_table, timed, ExperimentOptions};
use chase_ontology::corpus::{paper_classes, scaled_paper_corpus};
use chase_termination::adornment::adorn;

fn main() {
    let opts = ExperimentOptions::from_args();
    let corpus = scaled_paper_corpus(opts.seed, opts.cyclic_fraction, opts.scale);
    let classes = paper_classes();

    let mut rows = Vec::new();
    for (i, class) in classes.iter().enumerate() {
        let members: Vec<_> = corpus.iter().filter(|o| o.class_index == i).collect();
        let mut total_ratio = 0.0;
        let mut total_time_ms = 0.0;
        let mut exhausted = 0;
        for ont in &members {
            let (result, elapsed) = timed(|| adorn(&ont.sigma));
            total_ratio += result.size_ratio(&ont.sigma);
            total_time_ms += elapsed.as_secs_f64() * 1_000.0;
            exhausted += usize::from(result.budget_exhausted);
        }
        let n = members.len().max(1) as f64;
        rows.push(vec![
            class.id(),
            format!("{}", members.len()),
            format!("{:.2}", total_ratio / n),
            format!("{exhausted}"),
            format!("{:.1}", total_time_ms / n),
        ]);
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Table 2(b) — |Σµ|/|Σ| and Adn∃ running time (seed {}, scale {})",
                opts.seed, opts.scale
            ),
            &[
                "class",
                "#tests",
                "|Σµ|/|Σ| avg",
                "exhausted",
                "time ms avg"
            ],
            &rows,
        )
    );
    println!("Paper reference values: ratios between 2.4 and 6.2; times mostly below one second.");
}
