//! The [`TerminationCriterion`] trait, the witness-producing [`Verdict`] type and a
//! registry of the built-in criteria.
//!
//! Every criterion answers with a [`Verdict`] carrying a machine-readable [`Witness`]
//! explaining *why* the set was accepted or rejected — the special-edge cycle for weak
//! acyclicity, the stratum assignment for (semi-)stratification, the saturation
//! certificate for MFA, the adornment trace for `Adn∃` — instead of a bare boolean.
//!
//! Criteria analysed together share work through an [`AnalysisContext`]: one per
//! dependency set and analysis, memoising the artefacts (such as the `Adn∃` result)
//! that several criteria derive from the same set. A criterion implements
//! [`TerminationCriterion::verdict_in`] on a context; the standalone
//! [`TerminationCriterion::verdict`] runs it in a fresh one.

use chase_core::{DepId, DependencySet, Position};
use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// What a criterion guarantees when it accepts a set of dependencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Guarantee {
    /// Every standard chase sequence terminates, for every database (`CT_std_∀`).
    AllSequences,
    /// At least one standard chase sequence terminates, for every database
    /// (`CT_std_∃`).
    SomeSequence,
}

impl fmt::Display for Guarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guarantee::AllSequences => write!(f, "CT_std_∀"),
            Guarantee::SomeSequence => write!(f, "CT_std_∃"),
        }
    }
}

/// A stable machine-readable identifier for a termination criterion: the
/// kebab-case slug of its display name (`"WA"` → `wa`, `"S-Str"` → `s-str`,
/// `"Adn-SwA"` → `adn-swa`). Downstream tooling — the atlas admission matrix,
/// `table1 --json` annotations, `chase_obs` verdict rows — keys on this instead
/// of the display name, whose rendering is free to change.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CriterionId(String);

impl CriterionId {
    /// Derives the slug from a display name: ASCII-lowercase alphanumerics, with
    /// every other run of characters collapsed to a single `-` (leading/trailing
    /// dashes trimmed).
    pub fn from_name(name: &str) -> Self {
        let mut slug = String::with_capacity(name.len());
        for c in name.chars() {
            if c.is_ascii_alphanumeric() {
                slug.push(c.to_ascii_lowercase());
            } else if !slug.ends_with('-') && !slug.is_empty() {
                slug.push('-');
            }
        }
        while slug.ends_with('-') {
            slug.pop();
        }
        CriterionId(slug)
    }

    /// The slug as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CriterionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The machine-readable evidence backing a [`Verdict`].
///
/// Each criterion produces the witness its algorithm actually computes; rejections
/// carry the offending structure, acceptances the certificate that none exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Witness {
    /// A cycle through a special (existential) edge in a position graph, as the
    /// sequence of positions visited (first equals last). Produced by WA and SC
    /// rejections, and embedded in stratification rejections.
    PositionCycle {
        /// The positions on the cycle; the first edge is the special one.
        positions: Vec<Position>,
    },
    /// The position graph has no cycle through a special edge (WA / SC acceptance).
    AcyclicPositionGraph {
        /// Number of positions (nodes) in the analysed graph.
        positions: usize,
        /// Total number of edges.
        edges: usize,
        /// Number of special (existential) edges.
        special_edges: usize,
    },
    /// The SCC decomposition of the chase / firing graph, every cyclic component of
    /// which is weakly acyclic ((C-)Str and S-Str acceptance). Components are sorted
    /// lexicographically by their (sorted) dependency ids, not topologically — the
    /// witness certifies the decomposition, not an evaluation order.
    StratumAssignment {
        /// The strata, as dependency ids of the analysed set.
        strata: Vec<Vec<DepId>>,
    },
    /// A strongly connected component of the chase / firing graph whose dependencies
    /// are not weakly acyclic ((C-)Str and S-Str rejection).
    OffendingComponent {
        /// The dependencies of the offending component.
        component: Vec<DepId>,
        /// The special-edge position cycle inside the component's dependency graph.
        position_cycle: Vec<Position>,
    },
    /// A cycle in Marnette's trigger graph over existential rules (SwA rejection).
    /// For EGD-bearing sets the ids refer to the substitution-free simulation.
    TriggerCycle {
        /// The existential rules on the cycle (first equals last).
        rules: Vec<DepId>,
    },
    /// The trigger graph over existential rules is acyclic (SwA acceptance).
    AcyclicTriggerGraph {
        /// Number of existential rules (nodes).
        existential_rules: usize,
        /// Number of trigger edges.
        edges: usize,
    },
    /// The Skolemised critical-instance chase reached its fixpoint without deriving a
    /// cyclic term (MFA acceptance): a saturation certificate.
    MfaSaturation {
        /// Facts in the saturated critical instance.
        facts: usize,
        /// Chase steps applied to reach the fixpoint.
        steps: usize,
        /// Maximum Skolem-term depth observed.
        max_term_depth: usize,
    },
    /// A cyclic Skolem term was derived during the critical-instance chase (MFA
    /// rejection).
    CyclicSkolemTerm {
        /// The cyclic term, rendered as `f^r_z(…)` nesting.
        term: String,
        /// Depth of the term.
        depth: usize,
    },
    /// The trace of the `Adn∃` adornment algorithm (SAC verdict, either way).
    AdornmentTrace {
        /// Number of adorned dependencies produced (base rules excluded).
        adorned_rules: usize,
        /// Main-loop iterations executed.
        iterations: usize,
        /// The final adornment definitions `AD`, rendered as `f_i = f^r_z(α)`.
        definitions: Vec<String>,
        /// The fireable pairs `(r, r')` of the original set used by the Ω(AD)
        /// cyclicity test: the edges of the Definition-2 firing graph.
        fireable_pairs: Vec<(DepId, DepId)>,
        /// `true` iff the adornment budget was exhausted (conservative rejection).
        budget_exhausted: bool,
    },
    /// An `Adn∃-C` verdict: the adornment trace plus the inner criterion's verdict on
    /// the adorned set `Σµ`.
    Combined {
        /// The `Adn∃` trace on the original set.
        adornment: Box<Witness>,
        /// The inner criterion's verdict on the adorned set.
        inner: Box<Verdict>,
    },
    /// The analysis budget was exhausted before a verdict could be computed; the
    /// criterion rejects conservatively.
    AnalysisBudgetExhausted {
        /// What ran out.
        detail: String,
    },
    /// No structured witness is available (legacy boolean checks).
    Trivial,
}

impl Witness {
    /// Returns `true` iff the witness carries no structured information.
    pub fn is_trivial(&self) -> bool {
        matches!(self, Witness::Trivial)
    }
}

fn render_positions(positions: &[Position]) -> String {
    positions
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(" → ")
}

fn render_dep_ids(ids: &[DepId]) -> String {
    ids.iter()
        .map(|d| format!("r{}", d.0))
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Witness::PositionCycle { positions } => {
                write!(f, "special-edge cycle {}", render_positions(positions))
            }
            Witness::AcyclicPositionGraph {
                positions,
                edges,
                special_edges,
            } => write!(
                f,
                "no special cycle ({positions} positions, {edges} edges, {special_edges} special)"
            ),
            Witness::StratumAssignment { strata } => {
                write!(f, "strata")?;
                for s in strata {
                    write!(f, " [{}]", render_dep_ids(s))?;
                }
                Ok(())
            }
            Witness::OffendingComponent {
                component,
                position_cycle,
            } => write!(
                f,
                "component [{}] is not weakly acyclic: {}",
                render_dep_ids(component),
                render_positions(position_cycle)
            ),
            Witness::TriggerCycle { rules } => {
                write!(
                    f,
                    "trigger cycle {}",
                    rules
                        .iter()
                        .map(|d| format!("r{}", d.0))
                        .collect::<Vec<_>>()
                        .join(" → ")
                )
            }
            Witness::AcyclicTriggerGraph {
                existential_rules,
                edges,
            } => write!(
                f,
                "acyclic trigger graph ({existential_rules} existential rules, {edges} edges)"
            ),
            Witness::MfaSaturation {
                facts,
                steps,
                max_term_depth,
            } => write!(
                f,
                "critical instance saturated ({facts} facts, {steps} steps, term depth ≤ {max_term_depth})"
            ),
            Witness::CyclicSkolemTerm { term, depth } => {
                write!(f, "cyclic Skolem term {term} (depth {depth})")
            }
            Witness::AdornmentTrace {
                adorned_rules,
                iterations,
                definitions,
                fireable_pairs,
                budget_exhausted,
            } => {
                write!(
                    f,
                    "adornment trace ({adorned_rules} adorned rules, {iterations} iterations, {} definitions, {} fireable pairs{})",
                    definitions.len(),
                    fireable_pairs.len(),
                    if *budget_exhausted {
                        ", budget exhausted"
                    } else {
                        ""
                    }
                )
            }
            Witness::Combined { adornment, inner } => {
                write!(f, "{adornment}; on Σµ: {inner}")
            }
            Witness::AnalysisBudgetExhausted { detail } => {
                write!(f, "analysis budget exhausted ({detail})")
            }
            Witness::Trivial => write!(f, "(no witness)"),
        }
    }
}

/// The result of running one termination criterion on a dependency set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Short name of the criterion that produced the verdict.
    pub criterion: &'static str,
    /// What acceptance would guarantee.
    pub guarantee: Guarantee,
    /// Whether the criterion accepts the set.
    pub accepted: bool,
    /// The evidence backing the verdict.
    pub witness: Witness,
}

impl Verdict {
    /// The stable machine-readable identifier of the criterion that produced this
    /// verdict.
    pub fn criterion_id(&self) -> CriterionId {
        CriterionId::from_name(self.criterion)
    }

    /// Builds an accepting verdict.
    pub fn accept(criterion: &'static str, guarantee: Guarantee, witness: Witness) -> Self {
        Verdict {
            criterion,
            guarantee,
            accepted: true,
            witness,
        }
    }

    /// Builds a rejecting verdict.
    pub fn reject(criterion: &'static str, guarantee: Guarantee, witness: Witness) -> Self {
        Verdict {
            criterion,
            guarantee,
            accepted: false,
            witness,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} — {}",
            self.criterion,
            self.guarantee,
            if self.accepted { "accepts" } else { "rejects" },
            self.witness
        )
    }
}

/// The artefacts shared by the criteria of one analysis of one dependency set.
///
/// A context is created for a single `Σ` and dropped when the analysis ends; it holds
/// no state beyond that. Criteria that derive the same artefact from `Σ` — the `Adn∃`
/// result, the firing graph, the standard and oblivious chase graphs (one
/// enumeration builds both: Str pays for it, CStr reads the oblivious graph) — fetch
/// it through [`AnalysisContext::shared`], so it is computed once, by whichever
/// criterion asks first, and reused by the rest.
///
/// ```
/// use chase_core::parser::parse_dependencies;
/// use chase_criteria::AnalysisContext;
///
/// let sigma = parse_dependencies("r: A(?x) -> B(?x).").unwrap();
/// let cx = AnalysisContext::new(&sigma);
/// let first = cx.shared("dependencies", || cx.sigma().len());
/// let again = cx.shared("dependencies", || -> usize { unreachable!("already computed") });
/// assert_eq!((*first, *again), (1, 1));
/// ```
pub struct AnalysisContext<'s> {
    sigma: &'s DependencySet,
    artefacts: RefCell<Vec<Artefact>>,
}

/// One memoised artefact: its key and its value, both type-erased.
struct Artefact {
    key: Box<dyn Any>,
    value: Rc<dyn Any>,
}

impl<'s> AnalysisContext<'s> {
    /// A fresh context for `sigma`, with nothing computed yet.
    pub fn new(sigma: &'s DependencySet) -> Self {
        AnalysisContext {
            sigma,
            artefacts: RefCell::new(Vec::new()),
        }
    }

    /// The dependency set under analysis.
    pub fn sigma(&self) -> &'s DependencySet {
        self.sigma
    }

    /// The artefact of type `V` stored under `key`, computed by `compute` on the
    /// first request and shared by every later one. Artefacts of different types
    /// never collide, even under equal keys. `compute` may itself request other
    /// artefacts of this context.
    pub fn shared<K, V>(&self, key: K, compute: impl FnOnce() -> V) -> Rc<V>
    where
        K: PartialEq + 'static,
        V: 'static,
    {
        let hit = self
            .artefacts
            .borrow()
            .iter()
            .find(|a| a.value.is::<V>() && a.key.downcast_ref::<K>() == Some(&key))
            .map(|a| Rc::clone(&a.value));
        if let Some(value) = hit {
            return value
                .downcast::<V>()
                .expect("the artefact's type was checked by the lookup");
        }
        let value = Rc::new(compute());
        self.artefacts.borrow_mut().push(Artefact {
            key: Box::new(key),
            value: Rc::clone(&value) as Rc<dyn Any>,
        });
        value
    }
}

/// A decidable sufficient condition for chase termination.
pub trait TerminationCriterion {
    /// Short name of the criterion (e.g. `"WA"`, `"SC"`, `"S-Str"`).
    fn name(&self) -> &'static str;

    /// Stable machine-readable identifier: the kebab-case slug of [`Self::name`].
    fn id(&self) -> CriterionId {
        CriterionId::from_name(self.name())
    }

    /// What acceptance guarantees.
    fn guarantee(&self) -> Guarantee;

    /// Relative analysis cost, used by the analyzer to schedule cheapest-first.
    /// Lower is cheaper; the default places unranked criteria last.
    fn cost(&self) -> u32 {
        u32::MAX
    }

    /// Runs the criterion on the context's set, reusing the artefacts other criteria
    /// of the same analysis already computed.
    fn verdict_in(&self, cx: &AnalysisContext) -> Verdict;

    /// Runs the criterion on `sigma` alone, in a fresh context.
    fn verdict(&self, sigma: &DependencySet) -> Verdict {
        self.verdict_in(&AnalysisContext::new(sigma))
    }

    /// Returns `true` iff the criterion accepts `sigma`.
    fn accepts(&self, sigma: &DependencySet) -> bool {
        self.verdict(sigma).accepted
    }
}

/// The registry of baseline criteria implemented in this crate, in increasing order of
/// analysis cost. (The paper's own criteria, S-Str and SAC, live in
/// `chase-termination` and can be appended by callers.)
pub fn baseline_criteria() -> Vec<Box<dyn TerminationCriterion + Send + Sync>> {
    vec![
        Box::new(crate::weak_acyclicity::WeakAcyclicity),
        Box::new(crate::safety::Safety),
        Box::new(crate::super_weak::SuperWeakAcyclicity),
        Box::new(crate::stratification::CStratification),
        Box::new(crate::stratification::Stratification),
        Box::new(crate::mfa::ModelFaithfulAcyclicity),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;

    #[test]
    fn registry_names_are_unique() {
        let cs = baseline_criteria();
        let mut names: Vec<&str> = cs.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cs.len());
    }

    #[test]
    fn all_registered_criteria_accept_a_trivial_full_set() {
        let sigma = parse_dependencies("r: A(?x) -> B(?x).").unwrap();
        for c in baseline_criteria() {
            assert!(
                c.accepts(&sigma),
                "{} must accept a single full TGD",
                c.name()
            );
            let verdict = c.verdict(&sigma);
            assert!(verdict.accepted);
            assert_eq!(verdict.criterion, c.name());
            assert!(
                !verdict.witness.is_trivial(),
                "{} must produce a structured witness",
                c.name()
            );
        }
    }

    #[test]
    fn guarantee_display() {
        assert_eq!(Guarantee::AllSequences.to_string(), "CT_std_∀");
        assert_eq!(Guarantee::SomeSequence.to_string(), "CT_std_∃");
    }

    #[test]
    fn criterion_ids_are_kebab_case_slugs() {
        for (name, slug) in [
            ("WA", "wa"),
            ("SwA", "swa"),
            ("CStr", "cstr"),
            ("S-Str", "s-str"),
            ("Adn-SwA", "adn-swa"),
            ("  Odd name! ", "odd-name"),
        ] {
            assert_eq!(CriterionId::from_name(name).as_str(), slug);
        }
    }

    #[test]
    fn registry_ids_are_unique() {
        let cs = baseline_criteria();
        let mut ids: Vec<CriterionId> = cs.iter().map(|c| c.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cs.len());
    }

    #[test]
    fn verdict_display_mentions_the_witness() {
        let v = Verdict::reject(
            "WA",
            Guarantee::AllSequences,
            Witness::AnalysisBudgetExhausted {
                detail: "rule cap".to_string(),
            },
        );
        let rendered = v.to_string();
        assert!(rendered.contains("WA"));
        assert!(rendered.contains("rejects"));
        assert!(rendered.contains("rule cap"));
    }
}
