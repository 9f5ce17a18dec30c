//! # chase-bench
//!
//! Shared infrastructure for the experiment binaries that regenerate every table and
//! figure of Calautti et al. (PVLDB 2016): option parsing, the ground-truth chase and
//! text tables. The repository's benchmark is `perfbench/`; this crate's binaries
//! reproduce the paper's results and run the CI gates `table2` (the atlas soundness
//! oracle), `fact_store` and `parallel_gate`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper_sets;

use chase_core::DependencySet;
use chase_engine::{Chase, ChaseBudget, ChaseOutcome, StepOrder};
use chase_ontology::generator::generate_database;
use std::time::{Duration, Instant};

/// Command-line options shared by the experiment binaries.
#[derive(Clone, Debug)]
pub struct ExperimentOptions {
    /// RNG seed for corpus generation.
    pub seed: u64,
    /// Scale factor applied to the corpus sizes of Table 2(a).
    pub scale: f64,
    /// Fraction of generated ontologies that receive a non-terminating gadget.
    pub cyclic_fraction: f64,
    /// Step budget of the ground-truth standard chase (stands in for the paper's
    /// 24-hour timeout).
    pub chase_budget: usize,
    /// Number of database facts used for the ground-truth chase.
    pub database_facts: usize,
    /// Worker threads for the chase sessions (`Chase::workers`; 1 = sequential).
    /// EGD-bearing sets and the core chase fall back to sequential regardless.
    pub workers: usize,
    /// Emit machine-readable output (`chase_obs` [`RunReport`](chase_obs::RunReport)
    /// JSON) instead of, or alongside, the text tables.
    pub json: bool,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            seed: 20160396,
            scale: 0.01,
            cyclic_fraction: 0.55,
            chase_budget: 1_500,
            database_facts: 8,
            workers: 1,
            json: false,
        }
    }
}

impl ExperimentOptions {
    /// Parses `--seed N`, `--scale X`, `--cyclic-fraction X`, `--budget N`,
    /// `--facts N`, `--workers N` and the boolean `--json` from the process
    /// arguments; unknown arguments are ignored. A bad or missing value for a
    /// known flag prints the error and exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_arg_slice(&args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// [`from_args`](ExperimentOptions::from_args) over an explicit argument
    /// slice (exposed for tests). Errs on an unparsable or missing value for a
    /// known flag.
    pub fn from_arg_slice(args: &[String]) -> Result<Self, String> {
        fn parse<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
            let value = value.ok_or_else(|| format!("{flag} expects a value"))?;
            value
                .parse()
                .map_err(|_| format!("{flag}: cannot parse {value:?}"))
        }
        let mut opts = ExperimentOptions::default();
        let mut i = 0;
        while i < args.len() {
            let (flag, value) = (args[i].as_str(), args.get(i + 1));
            match flag {
                // `--json` is a bare flag; every other known option consumes a value.
                "--json" => {
                    opts.json = true;
                    i += 1;
                    continue;
                }
                "--seed" => opts.seed = parse(flag, value)?,
                "--scale" => opts.scale = parse(flag, value)?,
                "--cyclic-fraction" => opts.cyclic_fraction = parse(flag, value)?,
                "--budget" => opts.chase_budget = parse(flag, value)?,
                "--facts" => opts.database_facts = parse(flag, value)?,
                "--workers" => opts.workers = parse::<usize>(flag, value)?.max(1),
                _ => {
                    i += 1;
                    continue;
                }
            }
            i += 2;
        }
        Ok(opts)
    }
}

/// Ground-truth verdict for one dependency set: did a standard chase sequence
/// (EGD-first policy) terminate within the step budget on a generated database?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseGroundTruth {
    /// The chase halted (successfully or with a hard EGD failure).
    Halted,
    /// The step budget was exhausted (the paper's "did not halt within 24 hours").
    DidNotHalt,
}

/// Runs the ground-truth chase for `sigma`.
///
/// The database is the *critical instance* of the set (one fact per predicate over a
/// single constant) extended with a few random facts: every rule of the set is thereby
/// exercised, so a set with a genuine null-propagation cycle reliably shows up as
/// non-halting, mirroring the paper's per-ontology 24-hour chase runs.
pub fn chase_ground_truth(
    sigma: &DependencySet,
    opts: &ExperimentOptions,
    seed: u64,
) -> ChaseGroundTruth {
    let db = chase_ontology::generator::critical_database(sigma).union(&generate_database(
        sigma,
        opts.database_facts,
        seed,
    ));
    let outcome = Chase::standard(sigma)
        .with_order(StepOrder::EgdsFirst)
        .with_budget(ChaseBudget::unlimited().with_max_steps(opts.chase_budget))
        .run(&db);
    match outcome {
        ChaseOutcome::Terminated { .. } | ChaseOutcome::Failed { .. } => ChaseGroundTruth::Halted,
        ChaseOutcome::BudgetExhausted { .. } => ChaseGroundTruth::DidNotHalt,
    }
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Renders a simple aligned text table (header + rows) for the experiment binaries.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            "demo",
            &["a", "bbbb"],
            &[
                vec!["xx".into(), "y".into()],
                vec!["1".into(), "22222".into()],
            ],
        );
        assert!(s.contains("== demo =="));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn ground_truth_detects_halting_and_non_halting_sets() {
        let opts = ExperimentOptions {
            chase_budget: 300,
            database_facts: 4,
            ..ExperimentOptions::default()
        };
        let halting = parse_dependencies("r: A(?x) -> B(?x).").unwrap();
        assert_eq!(
            chase_ground_truth(&halting, &opts, 1),
            ChaseGroundTruth::Halted
        );
        let diverging =
            parse_dependencies("r1: C0(?x) -> exists ?y: R0(?x, ?y). r2: R0(?x, ?y) -> C0(?y).")
                .unwrap();
        assert_eq!(
            chase_ground_truth(&diverging, &opts, 1),
            ChaseGroundTruth::DidNotHalt
        );
    }

    #[test]
    fn default_options_are_sensible() {
        let opts = ExperimentOptions::default();
        assert!(opts.scale > 0.0 && opts.scale <= 1.0);
        assert!(opts.chase_budget > 0);
        assert!(!opts.json);
    }

    #[test]
    fn json_flag_parses_without_a_value() {
        let args: Vec<String> = ["--json", "--workers", "4", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = ExperimentOptions::from_arg_slice(&args).unwrap();
        assert!(opts.json);
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.seed, 7);
        // Flag order does not matter, including `--json` last.
        let args: Vec<String> = ["--budget", "99", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = ExperimentOptions::from_arg_slice(&args).unwrap();
        assert!(opts.json);
        assert_eq!(opts.chase_budget, 99);
    }

    #[test]
    fn bad_value_is_an_error() {
        for args in [["--scale", "0,01"], ["--workers", "two"]] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = ExperimentOptions::from_arg_slice(&args).unwrap_err();
            assert!(err.contains(&args[0]) && err.contains(&args[1]), "{err}");
        }
        // Unknown flags (the atlas options `table2` shares its arguments
        // with) are still skipped.
        let args: Vec<String> = ["--sizes", "8,24", "--seed", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(ExperimentOptions::from_arg_slice(&args).unwrap().seed, 3);
    }

    #[test]
    fn missing_value_is_an_error() {
        let args: Vec<String> = ["--json", "--facts"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = ExperimentOptions::from_arg_slice(&args).unwrap_err();
        assert_eq!(err, "--facts expects a value");
    }
}
