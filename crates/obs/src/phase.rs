//! Accumulated wall-clock spans.
//!
//! [`PhaseTimes`] accumulates span durations per name, preserving
//! first-appearance order so that reports list phases in the order the run
//! entered them.

use std::time::Duration;

use crate::metrics::Histogram;

/// Accumulated time for one phase name.
#[derive(Clone, Debug, Default)]
pub struct PhaseAccum {
    count: u64,
    total: Duration,
    histogram: Histogram,
}

impl PhaseAccum {
    /// Number of spans folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all span durations.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Per-span distribution (p50/p95/max).
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }
}

/// Per-name span accumulation in first-appearance order.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimes {
    phases: Vec<(String, PhaseAccum)>,
}

impl PhaseTimes {
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one span duration into the named phase.
    pub fn add(&mut self, name: &str, sample: Duration) {
        let accum = match self.phases.iter_mut().find(|(n, _)| n == name) {
            Some((_, accum)) => accum,
            None => {
                self.phases.push((name.to_string(), PhaseAccum::default()));
                &mut self.phases.last_mut().unwrap().1
            }
        };
        accum.count += 1;
        accum.total += sample;
        accum.histogram.record(sample);
    }

    pub fn get(&self, name: &str) -> Option<&PhaseAccum> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, a)| a)
    }

    /// Phases in first-appearance order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PhaseAccum)> {
        self.phases.iter().map(|(n, a)| (n.as_str(), a))
    }

    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Sum of all phase totals — the wall-clock this accumulator can account
    /// for. Compare against a run's `elapsed` to measure attribution.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, a)| a.total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_in_first_appearance_order() {
        let mut times = PhaseTimes::new();
        times.add("discovery", Duration::from_millis(5));
        times.add("apply", Duration::from_millis(2));
        times.add("discovery", Duration::from_millis(3));
        let order: Vec<&str> = times.iter().map(|(n, _)| n).collect();
        assert_eq!(order, vec!["discovery", "apply"]);
        let discovery = times.get("discovery").unwrap();
        assert_eq!(discovery.count(), 2);
        assert_eq!(discovery.total(), Duration::from_millis(8));
        assert_eq!(discovery.histogram().max(), Duration::from_millis(5));
        assert_eq!(times.total(), Duration::from_millis(10));
        assert!(times.get("merge").is_none());
    }
}
