//! Experiment E5 — Figure 1: the chase graph (left) and the firing graph (right) of
//! Σ11 from Example 11, together with the resulting Str / S-Str verdicts.

use chase_bench::paper_sets::sigma11;
use chase_criteria::criterion::TerminationCriterion;
use chase_criteria::firing::chase_graphs;
use chase_criteria::stratification::Stratification;
use chase_termination::firing::firing_graph;
use chase_termination::semi_stratification::SemiStratification;

fn main() {
    let sigma = sigma11();
    let labels: Vec<String> = sigma
        .iter()
        .map(|(i, d)| {
            d.label()
                .map(str::to_owned)
                .unwrap_or(format!("r{}", i.0 + 1))
        })
        .collect();

    println!("Σ11 (Example 11):");
    for (_, d) in sigma.iter() {
        println!("  {d}.");
    }
    println!();

    let g = chase_graphs(&sigma).standard;
    println!("Chase graph G(Σ11) (Figure 1, left):");
    for (f, t, _) in g.edges() {
        println!("  {} -> {}", labels[f], labels[t]);
    }
    println!();

    let gf = firing_graph(&sigma);
    println!("Firing graph Gf(Σ11) (Figure 1, right):");
    for (f, t, _) in gf.edges() {
        println!("  {} -> {}", labels[f], labels[t]);
    }
    println!();

    println!(
        "stratified (Str):        {}",
        if Stratification.accepts(&sigma) {
            "yes"
        } else {
            "no"
        }
    );
    println!(
        "semi-stratified (S-Str): {}",
        if SemiStratification.accepts(&sigma) {
            "yes"
        } else {
            "no"
        }
    );
    println!();
    println!("As in the paper, the edge r2 -> r1 is present in the chase graph but absent from");
    println!("the firing graph (enforcing r3 first blocks the re-firing of r1), which is what");
    println!("makes Σ11 semi-stratified although it is not stratified.");
}
