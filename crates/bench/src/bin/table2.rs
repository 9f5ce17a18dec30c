//! The termination-criteria **atlas**: the full `TerminationAnalyzer` portfolio
//! swept over the named corpus families of `chase_ontology::families`, at a
//! range of sizes, with per-criterion wall-clock and witness sizes recorded —
//! and, crucially, a *soundness oracle*: every program any criterion accepts is
//! chased (standard chase, EGDs first, over the critical database) under a
//! generous budget, and a budget trip on an accepted program — or an acceptance
//! of a family that is non-terminating by construction — is a hard failure
//! (non-zero exit). This is the harness that would have caught the historical
//! `adorn_with` soundness gap, and keeps that bug class fenced off.
//!
//! Output: a criterion × family admission matrix as a text table, plus
//! machine-readable artifacts on request:
//!
//! - `--json-out PATH` — a `chase_atlas/v1` document: the matrix, the soundness
//!   failures and one `chase_obs` [`RunReport`] per program (the analyzer's
//!   verdict table rides in `verdicts`, keyed by `criterion_id`; family, size
//!   and oracle outcome ride in `annotations`).
//! - `--csv-out PATH` — one row per (family, size, criterion) with status,
//!   elapsed nanoseconds and witness length.
//!
//! Other flags: `--sizes 12,60,240` (per-family size sweep), `--no-oracle`
//! (skip the chase), and the shared `--seed`/`--budget`/`--workers` options.

use chase_bench::{render_table, ExperimentOptions};
use chase_engine::{Chase, ChaseBudget, ChaseOutcome, MetricsObserver, StepOrder};
use chase_obs::{JsonValue, RunReport};
use chase_ontology::families::{atlas_corpus, families, AtlasProgram};
use chase_ontology::generator::critical_database;
use chase_termination::TerminationAnalyzer;
use std::collections::BTreeMap;

/// Atlas-specific flags (the shared ones ride on [`ExperimentOptions`]).
struct AtlasOptions {
    sizes: Vec<usize>,
    oracle: bool,
    json_out: Option<String>,
    csv_out: Option<String>,
}

impl AtlasOptions {
    fn from_arg_slice(args: &[String]) -> Self {
        let mut opts = AtlasOptions {
            sizes: vec![12, 60, 240],
            oracle: true,
            json_out: None,
            csv_out: None,
        };
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--no-oracle" {
                opts.oracle = false;
                i += 1;
                continue;
            }
            let Some(value) = args.get(i + 1) else { break };
            match args[i].as_str() {
                "--sizes" => {
                    let sizes: Vec<usize> = value
                        .split(',')
                        .filter_map(|s| s.trim().parse().ok())
                        .collect();
                    if !sizes.is_empty() {
                        opts.sizes = sizes;
                    }
                }
                "--json-out" => opts.json_out = Some(value.clone()),
                "--csv-out" => opts.csv_out = Some(value.clone()),
                _ => {
                    i += 1;
                    continue;
                }
            }
            i += 2;
        }
        opts
    }
}

/// One soundness-oracle violation: a program some criterion accepted that the
/// ground truth or the chase contradicts.
struct SoundnessFailure {
    program: String,
    accepted_by: String,
    detail: String,
}

fn oracle_outcome_string(outcome: &ChaseOutcome) -> &'static str {
    match outcome {
        ChaseOutcome::Terminated { .. } => "terminated",
        ChaseOutcome::Failed { .. } => "failed",
        ChaseOutcome::BudgetExhausted { .. } => "budget_exhausted",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = ExperimentOptions::from_args();
    let atlas = AtlasOptions::from_arg_slice(&args);
    // The oracle budget is deliberately generous: it stands in for the paper's
    // experiment timeout, and tripping it on an *accepted* program is treated as
    // a soundness failure, not an inconclusive run.
    let budget = ChaseBudget::unlimited().with_max_steps(opts.chase_budget.max(50_000));
    let analyzer = TerminationAnalyzer::exhaustive();

    let programs = atlas_corpus(&atlas.sizes, opts.seed);
    // matrix[(criterion_id, family)] = (accepted, total); criterion display
    // names ride along for the text table.
    let mut matrix: BTreeMap<(String, &'static str), (usize, usize)> = BTreeMap::new();
    let mut criterion_names: Vec<(String, String)> = Vec::new();
    let mut failures: Vec<SoundnessFailure> = Vec::new();
    let mut csv = String::from(
        "family,size,dependencies,criterion,criterion_id,status,elapsed_ns,witness_len\n",
    );
    let mut reports: Vec<RunReport> = Vec::new();

    for AtlasProgram {
        family,
        size,
        expected_terminating,
        sigma,
    } in &programs
    {
        let name = format!("atlas/{family}/{size}");
        let analysis = analyzer.analyze(sigma);
        let rows = analysis.verdict_rows();
        let accepted_ids: Vec<String> = rows
            .iter()
            .filter(|r| r.status == "accepts")
            .map(|r| r.criterion_id.clone())
            .collect();

        for row in &rows {
            let key = (row.criterion_id.clone(), *family);
            let cell = matrix.entry(key).or_insert((0, 0));
            cell.1 += 1;
            if row.status == "accepts" {
                cell.0 += 1;
            }
            if !criterion_names
                .iter()
                .any(|(id, _)| *id == row.criterion_id)
            {
                criterion_names.push((row.criterion_id.clone(), row.criterion.clone()));
            }
            csv.push_str(&format!(
                "{family},{size},{deps},{criterion},{id},{status},{elapsed},{witness}\n",
                deps = sigma.len(),
                criterion = row.criterion,
                id = row.criterion_id,
                status = row.status,
                elapsed = row.elapsed_ns,
                witness = row.witness.len(),
            ));
        }

        if !accepted_ids.is_empty() && !expected_terminating {
            failures.push(SoundnessFailure {
                program: name.clone(),
                accepted_by: accepted_ids.join(" "),
                detail: "family is non-terminating by construction".to_string(),
            });
        }

        // The oracle: accepted ⇒ the standard chase (EGDs first, over the
        // critical database) must reach a verdict within the generous budget.
        let mut report = if atlas.oracle && !accepted_ids.is_empty() {
            let db = critical_database(sigma);
            let mut metrics = MetricsObserver::new();
            let outcome = Chase::standard(sigma)
                .with_order(StepOrder::EgdsFirst)
                .with_budget(budget)
                .workers(opts.workers)
                .run_observed(&db, &mut metrics);
            if matches!(outcome, ChaseOutcome::BudgetExhausted { .. }) {
                failures.push(SoundnessFailure {
                    program: name.clone(),
                    accepted_by: accepted_ids.join(" "),
                    detail: format!(
                        "accepted but the oracle chase tripped its {}-step budget",
                        opts.chase_budget.max(50_000)
                    ),
                });
            }
            let mut report = metrics.report(&name, &outcome);
            report.annotations.push((
                "oracle".to_string(),
                oracle_outcome_string(&outcome).to_string(),
            ));
            report
        } else {
            let mut report = RunReport::new(&name);
            report.outcome = "not_run".to_string();
            report.annotations.push((
                "oracle".to_string(),
                if atlas.oracle { "skipped" } else { "disabled" }.to_string(),
            ));
            report
        };
        report.verdicts = rows;
        report
            .annotations
            .push(("family".to_string(), family.to_string()));
        report
            .annotations
            .push(("size".to_string(), size.to_string()));
        report
            .annotations
            .push(("dependencies".to_string(), sigma.len().to_string()));
        report.annotations.push((
            "expected_terminating".to_string(),
            expected_terminating.to_string(),
        ));
        report
            .annotations
            .push(("accepted_by".to_string(), accepted_ids.join(" ")));
        reports.push(report);
    }

    // Text admission matrix: per-family acceptance counts per criterion.
    let family_names: Vec<&'static str> = families().iter().map(|f| f.name).collect();
    let mut header: Vec<&str> = vec!["criterion"];
    header.extend(family_names.iter().copied());
    let table_rows: Vec<Vec<String>> = criterion_names
        .iter()
        .map(|(id, display)| {
            let mut row = vec![format!("{display} ({id})")];
            for family in &family_names {
                let (accepted, total) = matrix
                    .get(&(id.clone(), *family))
                    .copied()
                    .unwrap_or((0, 0));
                row.push(format!("{accepted}/{total}"));
            }
            row
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Atlas — criterion × family admission matrix (accepted/programs)",
            &header,
            &table_rows,
        )
    );

    if let Some(path) = &atlas.csv_out {
        std::fs::write(path, &csv).expect("write CSV atlas");
        println!("CSV atlas written to {path}");
    }
    if let Some(path) = &atlas.json_out {
        let matrix_json = JsonValue::Object(
            criterion_names
                .iter()
                .map(|(id, _)| {
                    (
                        id.clone(),
                        JsonValue::Object(
                            family_names
                                .iter()
                                .map(|family| {
                                    let (accepted, total) = matrix
                                        .get(&(id.clone(), *family))
                                        .copied()
                                        .unwrap_or((0, 0));
                                    (
                                        family.to_string(),
                                        JsonValue::Object(vec![
                                            (
                                                "accepted".to_string(),
                                                JsonValue::Int(accepted as i64),
                                            ),
                                            ("total".to_string(), JsonValue::Int(total as i64)),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    )
                })
                .collect(),
        );
        let failures_json = JsonValue::Array(
            failures
                .iter()
                .map(|f| {
                    JsonValue::Object(vec![
                        ("program".to_string(), JsonValue::Str(f.program.clone())),
                        (
                            "accepted_by".to_string(),
                            JsonValue::Str(f.accepted_by.clone()),
                        ),
                        ("detail".to_string(), JsonValue::Str(f.detail.clone())),
                    ])
                })
                .collect(),
        );
        let doc = JsonValue::Object(vec![
            (
                "schema".to_string(),
                JsonValue::Str("chase_atlas/v1".to_string()),
            ),
            ("seed".to_string(), JsonValue::Int(opts.seed as i64)),
            (
                "sizes".to_string(),
                JsonValue::Array(
                    atlas
                        .sizes
                        .iter()
                        .map(|s| JsonValue::Int(*s as i64))
                        .collect(),
                ),
            ),
            ("matrix".to_string(), matrix_json),
            ("soundness_failures".to_string(), failures_json),
            (
                "reports".to_string(),
                JsonValue::Array(reports.iter().map(RunReport::to_json).collect()),
            ),
        ]);
        std::fs::write(path, doc.to_pretty_string()).expect("write JSON atlas");
        println!("JSON atlas written to {path}");
    }

    if failures.is_empty() {
        println!(
            "Soundness oracle: 0 violations across {} programs ({} families × sizes {:?}).",
            programs.len(),
            family_names.len(),
            atlas.sizes
        );
    } else {
        eprintln!("Soundness oracle: {} violation(s):", failures.len());
        for f in &failures {
            eprintln!(
                "  {} accepted by [{}]: {}",
                f.program, f.accepted_by, f.detail
            );
        }
        std::process::exit(1);
    }
}
