//! Witness extraction: *why* does a learned model explain a period?
//!
//! A dependency function is an opaque summary; engineers reviewing a
//! learned model (e.g. the paper's Q–O discovery) want the concrete
//! message attribution behind it. [`explain_period`](crate::explain_period)
//! reconstructs one injective assignment of the period's messages to
//! timing-feasible sender/receiver pairs admitted by the function — the
//! existential witness inside the matching function `M` — and
//! [`explain_pair`] lists each period's message that can only be
//! attributed in a way involving the given pair, i.e. the direct evidence
//! for a learned dependency.

use bbmg_lattice::{DependencyFunction, TaskId};
use bbmg_trace::{MessageId, Trace};

use crate::matching::admissible_pairs;

/// One message attribution: this message was (assumed to be) sent by
/// `sender` to `receiver`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// The message occurrence.
    pub message: MessageId,
    /// Assumed sender.
    pub sender: TaskId,
    /// Assumed receiver.
    pub receiver: TaskId,
}

/// The evidence for the dependency `(sender, receiver)` across `trace`:
/// every message that is *only* attributable to `(sender, receiver)` under
/// `d` (forced evidence), plus every message where the pair is one of
/// several admissible attributions (supporting evidence).
///
/// Returns `(forced, supporting)` attribution lists.
#[must_use]
pub fn explain_pair(
    d: &DependencyFunction,
    trace: &Trace,
    sender: TaskId,
    receiver: TaskId,
) -> (Vec<Attribution>, Vec<Attribution>) {
    let mut forced = Vec::new();
    let mut supporting = Vec::new();
    for period in trace.periods() {
        for message in period.messages() {
            let admitted = admissible_pairs(d, period, message);
            if !admitted.contains(&(sender, receiver)) {
                continue;
            }
            let attribution = Attribution {
                message: message.id,
                sender,
                receiver,
            };
            if admitted.len() == 1 {
                forced.push(attribution);
            } else {
                supporting.push(attribution);
            }
        }
    }
    (forced, supporting)
}

#[cfg(test)]
mod tests {
    use bbmg_lattice::TaskUniverse;
    use bbmg_trace::{Timestamp, Trace, TraceBuilder};

    use super::*;
    use crate::{explain_period, learn, LearnOptions};

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    fn chain_trace() -> Trace {
        let u = TaskUniverse::from_names(["a", "b", "c"]);
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        b.task(t(0), Timestamp::new(0), Timestamp::new(10)).unwrap();
        b.message(Timestamp::new(11), Timestamp::new(13)).unwrap();
        b.task(t(1), Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        b.message(Timestamp::new(31), Timestamp::new(33)).unwrap();
        b.task(t(2), Timestamp::new(40), Timestamp::new(50))
            .unwrap();
        b.end_period().unwrap();
        b.finish()
    }

    #[test]
    fn witness_exists_for_learned_function() {
        let trace = chain_trace();
        let result = learn(&trace, LearnOptions::exact()).unwrap();
        for d in result.hypotheses() {
            let witness = explain_period(d, &trace.periods()[0])
                .expect("learned hypotheses explain their trace");
            assert_eq!(witness.len(), 2);
            // Each attribution is admitted by the function.
            for a in &witness {
                assert!(d.value(a.sender, a.receiver).admits_forward());
            }
            // Injective.
            let pairs: std::collections::BTreeSet<_> =
                witness.iter().map(|a| (a.sender, a.receiver)).collect();
            assert_eq!(pairs.len(), witness.len());
        }
    }

    #[test]
    fn bottom_function_has_no_witness() {
        let trace = chain_trace();
        let d = DependencyFunction::bottom(3);
        assert!(explain_period(&d, &trace.periods()[0]).is_none());
    }

    #[test]
    fn explain_pair_separates_forced_and_supporting() {
        let trace = chain_trace();
        let result = learn(&trace, LearnOptions::exact()).unwrap();
        let d = result.lub().unwrap();
        // With the LUB, the first message admits (a,b) and possibly (a,c);
        // evidence lists are consistent with the admissibility counts.
        let (forced, supporting) = explain_pair(&d, &trace, t(0), t(1));
        assert_eq!(
            forced.len() + supporting.len(),
            1,
            "one window admits (a,b)"
        );
        let (forced_ac, _) = explain_pair(&d, &trace, t(0), t(2));
        // (a,c) is never the only option in this trace.
        assert!(forced_ac.is_empty());
    }

    #[test]
    fn pair_without_evidence_is_empty() {
        let trace = chain_trace();
        let result = learn(&trace, LearnOptions::exact()).unwrap();
        let d = result.lub().unwrap();
        let (forced, supporting) = explain_pair(&d, &trace, t(2), t(0));
        assert!(forced.is_empty() && supporting.is_empty());
    }
}
