//! The [`TerminationAnalyzer`]: one front door for the whole criteria hierarchy.
//!
//! The analyzer runs the registered criteria **cheapest-first** (weak acyclicity
//! before safety before the graph-based criteria before the saturation- and
//! adornment-based ones) and, by default, **short-circuits** at the first acceptance
//! — every registered criterion is sound for `CT_std_∃`, so one acceptance settles
//! the question "can the chase be used on this set?". The produced
//! [`TerminationReport`] retains every verdict computed (each with its
//! machine-readable witness and elapsed time) and the names of the criteria that were
//! skipped, and renders as the report tables printed by the `termination_report`
//! example and the `table1` experiment binary.
//!
//! One [`AnalysisContext`] per call lets the criteria share what they derive from
//! the same set. No criterion has a setting, so each artefact has one key and is
//! built once: the `Adn∃` result is computed once for SAC and the three `Adn∃-C`
//! criteria. One witness enumeration per pair shape builds both chase graphs, once,
//! for Str; CStr reads the oblivious one, which contains the standard one edge by
//! edge. S-Str filters the standard graph into the firing graph (every firing edge
//! is a chase-graph edge), which the adornment's Ω(AD) cyclicity test reuses. The
//! firing tests cost what their distinct shapes cost: each graph build and each
//! `Adn∃` run answers a pair shape once (`chase_criteria::firing`), and a TGD is
//! paired only with the dependencies that read its head. One enumeration costs
//! what its candidates cost: it runs on codes compiled once per pair, allocates per
//! pair rather than per partition or candidate, and writes facts and assignments
//! only for a witness it reports. WA, SC and, on an EGD-free set, SwA share one
//! position table of the set (`chase_criteria::positions`); on an EGD-bearing
//! set SwA and MFA share one substitution-free simulation. A shared artefact is
//! charged to the `elapsed` of the first criterion that needs it: WA's time
//! includes the position table, SwA's the simulation (MFA reuses it),
//! Str's both chase graphs, CStr's only its components, S-Str's only the
//! filtering, SAC's the adornment, and the `Adn∃-C` rows time only their inner
//! criterion on `Σµ`, each in a context of its own.
//!
//! ```
//! use chase_core::parser::parse_dependencies;
//! use chase_termination::TerminationAnalyzer;
//!
//! // Σ1 of Example 1: only the adornment algorithm accepts it.
//! let sigma1 = parse_dependencies(
//!     "r1: N(?x) -> exists ?y: E(?x, ?y).
//!      r2: E(?x, ?y) -> N(?y).
//!      r3: E(?x, ?y) -> ?x = ?y.",
//! )
//! .unwrap();
//! let report = TerminationAnalyzer::new().analyze(&sigma1);
//! assert!(report.is_terminating());
//! assert_eq!(report.accepted().unwrap().criterion, "SAC");
//! ```

use crate::combined::all_criteria;
use chase_core::DependencySet;
use chase_criteria::criterion::{AnalysisContext, Guarantee, TerminationCriterion, Verdict};
use std::fmt;
use std::time::{Duration, Instant};

/// One analyzed criterion inside a [`TerminationReport`].
#[derive(Clone, Debug)]
pub struct AnalysisEntry {
    /// The criterion's verdict, witness included.
    pub verdict: Verdict,
    /// Wall-clock time the criterion took.
    pub elapsed: Duration,
}

/// The result of a [`TerminationAnalyzer`] run: every verdict computed, in execution
/// (cheapest-first) order, plus the criteria skipped by short-circuiting.
#[derive(Clone, Debug, Default)]
pub struct TerminationReport {
    /// The verdicts computed, in execution order.
    pub entries: Vec<AnalysisEntry>,
    /// Criteria that were not run because an earlier one already accepted.
    pub skipped: Vec<&'static str>,
}

impl TerminationReport {
    /// The first accepting verdict, if any.
    pub fn accepted(&self) -> Option<&Verdict> {
        self.entries.iter().map(|e| &e.verdict).find(|v| v.accepted)
    }

    /// Returns `true` iff some criterion accepted: for every database at least one
    /// standard chase sequence terminates (`CT_std_∃` or stronger).
    pub fn is_terminating(&self) -> bool {
        self.accepted().is_some()
    }

    /// The strongest termination guarantee established by an accepting criterion:
    /// [`Guarantee::AllSequences`] beats [`Guarantee::SomeSequence`].
    pub fn guarantee(&self) -> Option<Guarantee> {
        let accepted: Vec<&Verdict> = self
            .entries
            .iter()
            .map(|e| &e.verdict)
            .filter(|v| v.accepted)
            .collect();
        if accepted.is_empty() {
            None
        } else if accepted
            .iter()
            .any(|v| v.guarantee == Guarantee::AllSequences)
        {
            Some(Guarantee::AllSequences)
        } else {
            Some(Guarantee::SomeSequence)
        }
    }

    /// The verdict of a specific criterion, if it ran.
    pub fn verdict_for(&self, criterion: &str) -> Option<&Verdict> {
        self.entries
            .iter()
            .map(|e| &e.verdict)
            .find(|v| v.criterion == criterion)
    }

    /// A one-line summary: the accepting criterion and its guarantee, or a rejection
    /// note. Used by the experiment binaries' table cells.
    pub fn summary(&self) -> String {
        match self.accepted() {
            Some(v) => format!("{} ({})", v.criterion, v.guarantee),
            None => "rejected by all".to_string(),
        }
    }

    /// Total wall-clock spent across every criterion that ran.
    pub fn total_elapsed(&self) -> Duration {
        self.entries.iter().map(|e| e.elapsed).sum()
    }

    /// The report as [`chase_obs`] verdict rows, one per registered criterion:
    /// the verdicts that ran (status `accepts`/`rejects`, with guarantee,
    /// per-criterion wall-clock and rendered witness) followed by the criteria
    /// skipped by short-circuiting (status `skipped`). This is the verdict
    /// table a [`chase_obs::RunReport`] carries.
    pub fn verdict_rows(&self) -> Vec<chase_obs::VerdictRow> {
        let mut rows: Vec<chase_obs::VerdictRow> = self
            .entries
            .iter()
            .map(|entry| chase_obs::VerdictRow {
                criterion: entry.verdict.criterion.to_string(),
                criterion_id: entry.verdict.criterion_id().as_str().to_string(),
                status: if entry.verdict.accepted {
                    "accepts".to_string()
                } else {
                    "rejects".to_string()
                },
                guarantee: entry.verdict.guarantee.to_string(),
                elapsed_ns: chase_obs::duration_ns(entry.elapsed),
                witness: entry.verdict.witness.to_string(),
            })
            .collect();
        rows.extend(self.skipped.iter().map(|name| {
            chase_obs::VerdictRow {
                criterion: name.to_string(),
                criterion_id: chase_criteria::CriterionId::from_name(name)
                    .as_str()
                    .to_string(),
                status: "skipped".to_string(),
                guarantee: String::new(),
                elapsed_ns: 0,
                witness: String::new(),
            }
        }));
        rows
    }
}

impl fmt::Display for TerminationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for entry in &self.entries {
            writeln!(
                f,
                "  {:8} [{}]  {:7}  {:>7.1?}  {}",
                entry.verdict.criterion,
                entry.verdict.guarantee,
                if entry.verdict.accepted {
                    "accepts"
                } else {
                    "rejects"
                },
                entry.elapsed,
                entry.verdict.witness
            )?;
        }
        if !self.skipped.is_empty() {
            writeln!(
                f,
                "  skipped (already settled): {}",
                self.skipped.join(", ")
            )?;
        }
        match self.accepted() {
            Some(v) => writeln!(
                f,
                "  ⇒ terminating: accepted by {} (guarantee {})",
                v.criterion,
                self.guarantee().expect("an acceptance exists")
            ),
            None => writeln!(f, "  ⇒ no registered criterion accepts the set"),
        }
    }
}

/// Runs the termination-criteria hierarchy cheapest-first over a dependency set.
///
/// The default analyzer carries the full portfolio ([`all_criteria`]) and stops at
/// the first acceptance; use [`TerminationAnalyzer::exhaustive`] to always run every
/// criterion (e.g. to compare expressiveness, or to obtain the strongest guarantee
/// rather than the cheapest acceptance).
pub struct TerminationAnalyzer {
    criteria: Vec<Box<dyn TerminationCriterion + Send + Sync>>,
    short_circuit: bool,
}

impl Default for TerminationAnalyzer {
    fn default() -> Self {
        TerminationAnalyzer::new()
    }
}

impl TerminationAnalyzer {
    /// The full hierarchy, cheapest-first, short-circuiting at the first acceptance.
    pub fn new() -> Self {
        TerminationAnalyzer::with_criteria(all_criteria())
    }

    /// The full hierarchy, cheapest-first, running every criterion regardless of
    /// earlier acceptances.
    pub fn exhaustive() -> Self {
        let mut a = TerminationAnalyzer::new();
        a.short_circuit = false;
        a
    }

    /// An analyzer over a custom criteria portfolio (sorted cheapest-first by
    /// [`TerminationCriterion::cost`]).
    pub fn with_criteria(mut criteria: Vec<Box<dyn TerminationCriterion + Send + Sync>>) -> Self {
        criteria.sort_by_key(|c| c.cost());
        TerminationAnalyzer {
            criteria,
            short_circuit: true,
        }
    }

    /// Disables or re-enables short-circuiting.
    pub fn with_short_circuit(mut self, yes: bool) -> Self {
        self.short_circuit = yes;
        self
    }

    /// The names of the registered criteria, in execution order.
    pub fn criteria_names(&self) -> Vec<&'static str> {
        self.criteria.iter().map(|c| c.name()).collect()
    }

    /// Analyzes `sigma`, producing a [`TerminationReport`]. The criteria share one
    /// [`AnalysisContext`], dropped when the call returns.
    pub fn analyze(&self, sigma: &DependencySet) -> TerminationReport {
        let cx = AnalysisContext::new(sigma);
        let mut report = TerminationReport::default();
        let mut settled = false;
        for criterion in &self.criteria {
            if settled {
                report.skipped.push(criterion.name());
                continue;
            }
            let start = Instant::now();
            let verdict = criterion.verdict_in(&cx);
            let elapsed = start.elapsed();
            let accepted = verdict.accepted;
            report.entries.push(AnalysisEntry { verdict, elapsed });
            if accepted && self.short_circuit {
                settled = true;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;

    fn sigma1() -> DependencySet {
        parse_dependencies(
            "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> ?x = ?y.",
        )
        .unwrap()
    }

    #[test]
    fn criteria_run_cheapest_first() {
        let analyzer = TerminationAnalyzer::new();
        let names = analyzer.criteria_names();
        let wa = names.iter().position(|&n| n == "WA").unwrap();
        let mfa = names.iter().position(|&n| n == "MFA").unwrap();
        let sac = names.iter().position(|&n| n == "SAC").unwrap();
        assert!(wa < mfa, "WA must run before the MFA saturation");
        assert!(mfa < sac, "MFA must run before the adornment algorithm");
    }

    #[test]
    fn short_circuit_skips_the_expensive_tail() {
        let wa_set = parse_dependencies("r: A(?x) -> B(?x).").unwrap();
        let report = TerminationAnalyzer::new().analyze(&wa_set);
        assert_eq!(report.entries.len(), 1, "WA settles a full TGD immediately");
        assert_eq!(report.accepted().unwrap().criterion, "WA");
        assert!(report.skipped.contains(&"SAC"));
        assert_eq!(report.guarantee(), Some(Guarantee::AllSequences));
    }

    #[test]
    fn sigma1_runs_the_whole_hierarchy_up_to_sac() {
        let report = TerminationAnalyzer::new().analyze(&sigma1());
        assert!(report.is_terminating());
        let accepted = report.accepted().unwrap();
        assert_eq!(accepted.criterion, "SAC");
        assert_eq!(report.guarantee(), Some(Guarantee::SomeSequence));
        // Everything cheaper than SAC ran and rejected.
        for name in ["WA", "SC", "SwA", "Str", "CStr", "S-Str", "MFA"] {
            let v = report.verdict_for(name).expect("cheaper criterion ran");
            assert!(!v.accepted, "{name} must reject Σ1");
            assert!(!v.witness.is_trivial(), "{name} must explain its rejection");
        }
    }

    #[test]
    fn exhaustive_mode_runs_everything() {
        let wa_set = parse_dependencies("r: A(?x) -> B(?x).").unwrap();
        let report = TerminationAnalyzer::exhaustive().analyze(&wa_set);
        assert!(report.skipped.is_empty());
        assert_eq!(report.entries.len(), all_criteria().len());
        assert!(report.entries.iter().all(|e| e.verdict.accepted));
    }

    #[test]
    fn rejection_report_has_no_acceptance() {
        let sigma10 = parse_dependencies(
            "r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z). r2: E(?x, ?y, ?y) -> N(?y). r3: E(?x, ?y, ?z) -> ?y = ?z.",
        )
        .unwrap();
        let report = TerminationAnalyzer::new().analyze(&sigma10);
        assert!(!report.is_terminating());
        assert_eq!(report.guarantee(), None);
        assert_eq!(report.entries.len(), all_criteria().len());
        assert_eq!(report.summary(), "rejected by all");
    }

    #[test]
    fn verdict_rows_cover_ran_and_skipped_criteria() {
        let wa_set = parse_dependencies("r: A(?x) -> B(?x).").unwrap();
        let analyzer = TerminationAnalyzer::new();
        let report = analyzer.analyze(&wa_set);
        let rows = report.verdict_rows();
        // One row per registered criterion: the ones that ran, then the skipped.
        assert_eq!(rows.len(), analyzer.criteria_names().len());
        assert_eq!(rows[0].criterion, "WA");
        assert_eq!(rows[0].criterion_id, "wa");
        assert_eq!(rows[0].status, "accepts");
        assert_eq!(rows[0].guarantee, Guarantee::AllSequences.to_string());
        assert!(rows[1..].iter().all(|r| r.status == "skipped"));
        // Every row — ran or skipped — carries a non-empty machine-readable id.
        assert!(rows.iter().all(|r| !r.criterion_id.is_empty()));
        assert!(report.total_elapsed() >= report.entries[0].elapsed);
    }

    #[test]
    fn display_renders_one_line_per_verdict() {
        let report = TerminationAnalyzer::new().analyze(&sigma1());
        let rendered = report.to_string();
        assert!(rendered.contains("SAC"));
        assert!(rendered.contains("accepts"));
        assert!(rendered.contains("⇒ terminating"));
    }
}
