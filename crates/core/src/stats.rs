//! Learner run statistics.

use std::fmt;

use bbmg_trace::MessageId;

/// Why the [`crate::IncrementalLearner`] quarantined a period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipCause {
    /// The period emptied the hypothesis set; if the failure happened
    /// while explaining a message, that message is recorded.
    Inconsistent {
        /// The killing message, if any.
        message: Option<MessageId>,
    },
    /// The learning budget ran out before the period could be processed.
    BudgetExhausted,
}

impl fmt::Display for SkipCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipCause::Inconsistent { message: Some(m) } => {
                write!(f, "inconsistent at message {m}")
            }
            SkipCause::Inconsistent { message: None } => write!(f, "inconsistent"),
            SkipCause::BudgetExhausted => write!(f, "budget exhausted"),
        }
    }
}

/// One period quarantined by the [`crate::IncrementalLearner`] — no silent
/// data loss: every dropped observation is accounted for here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedPeriod {
    /// The period's index as seen by the learner.
    pub period: usize,
    /// Why it was skipped.
    pub cause: SkipCause,
}

impl fmt::Display for SkippedPeriod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "period {} skipped: {}", self.period, self.cause)
    }
}

/// Counters describing a learner run; useful for the scaling benchmarks and
/// for diagnosing hypothesis-set blowup in the exact algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LearnStats {
    /// Periods processed.
    pub periods: usize,
    /// Messages processed.
    pub messages: usize,
    /// Hypotheses generated across all message branchings.
    pub hypotheses_generated: usize,
    /// Heuristic merges performed (bounded mode only).
    pub merges: usize,
    /// Largest hypothesis-set size observed at any point.
    pub peak_set_size: usize,
    /// Hypothesis-set size after post-processing each period.
    pub set_sizes_per_period: Vec<usize>,
    /// Sum over messages of the candidate-pair count `|A_m|`.
    pub candidate_pairs_total: usize,
    /// Periods quarantined by the [`crate::IncrementalLearner`], and the
    /// periods a budget stop left unprocessed. A fallback keeps the
    /// records made before it.
    pub skipped_periods: Vec<SkippedPeriod>,
    /// Times the [`crate::IncrementalLearner`] fell back from the exact
    /// algorithm to the bounded heuristic (0 or 1 in practice). The other
    /// counters span the whole run: a fallback keeps the exact phase's
    /// counts and adds the bounded phase's to them.
    pub fallbacks: usize,
}

impl LearnStats {
    /// Records a new set size, updating the peak.
    pub(crate) fn observe_set_size(&mut self, size: usize) {
        self.peak_set_size = self.peak_set_size.max(size);
    }
}

impl fmt::Display for LearnStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} periods, {} messages, {} hypotheses generated, {} merges, peak set {}",
            self.periods, self.messages, self.hypotheses_generated, self.merges, self.peak_set_size
        )?;
        if !self.skipped_periods.is_empty() {
            write!(f, ", {} period(s) skipped", self.skipped_periods.len())?;
        }
        if self.fallbacks > 0 {
            write!(f, ", {} fallback(s) to bounded mode", self.fallbacks)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_maximum() {
        let mut s = LearnStats::default();
        s.observe_set_size(3);
        s.observe_set_size(1);
        assert_eq!(s.peak_set_size, 3);
        assert!(s.to_string().contains("peak set 3"));
    }
}
