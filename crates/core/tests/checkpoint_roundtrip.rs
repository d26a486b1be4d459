//! Property-based tests: checkpoint/restore is invisible to learning.
//!
//! The defining invariant of the incremental engine: splitting a run at any
//! period boundary, serializing the learner through the `bbmg-ckpt/1` JSON
//! document, and restoring it must produce the same antichain — and the
//! same observer metrics — as the uninterrupted run.

use bbmg_core::{Checkpoint, IncrementalLearner, LearnOptions, OnInconsistent};
use bbmg_lattice::{TaskId, TaskUniverse};
use bbmg_obs::{Metrics, MetricsSnapshot};
use bbmg_trace::{Timestamp, Trace, TraceBuilder};
use proptest::prelude::*;

const TASKS: usize = 4;

/// Builds a random-but-well-formed trace (periods may still be logically
/// inconsistent — a message with no feasible sender — which the learner
/// skips under [`OnInconsistent::SkipPeriod`]).
fn arbitrary_trace() -> impl Strategy<Value = Trace> {
    let period = prop::collection::vec((0usize..TASKS, 1u64..10, any::<bool>()), 0..8);
    prop::collection::vec(period, 1..6).prop_map(|periods| {
        let universe: TaskUniverse = (0..TASKS).map(|i| format!("task{i}")).collect();
        let mut builder = TraceBuilder::new(universe);
        let mut clock = Timestamp::ZERO;
        for items in periods {
            builder.begin_period();
            let mut executed = [false; TASKS];
            for (task, duration, is_message) in items {
                if is_message {
                    let rise = clock + 1;
                    let fall = rise + duration;
                    builder.message(rise, fall).expect("valid message");
                    clock = fall;
                } else if !executed[task] {
                    executed[task] = true;
                    let start = clock + 1;
                    let end = start + duration;
                    builder
                        .task(TaskId::from_index(task), start, end)
                        .expect("valid task");
                    clock = end;
                }
            }
            builder.end_period().expect("balanced period");
            clock = clock + 10;
        }
        builder.finish()
    })
}

/// A trace together with a split point at a period boundary (0..=periods).
fn trace_and_split() -> impl Strategy<Value = (Trace, usize)> {
    arbitrary_trace().prop_flat_map(|trace| {
        let periods = trace.periods().len();
        (0..periods + 1).prop_map(move |split| (trace.clone(), split))
    })
}

fn options() -> LearnOptions {
    LearnOptions::exact().with_on_inconsistent(OnInconsistent::SkipPeriod)
}

/// Pushes every period straight through, no checkpoint.
fn run_straight(trace: &Trace) -> (Vec<u8>, u64, MetricsSnapshot) {
    let mut metrics = Metrics::new();
    let mut learner = IncrementalLearner::new(trace.task_count(), options());
    for period in trace.periods() {
        learner
            .push_period_with(period, &mut metrics)
            .expect("skip policy never aborts");
    }
    summarize(learner, metrics)
}

/// Pushes the prefix, round-trips the learner through checkpoint JSON,
/// then pushes the suffix — the same metrics collector spans all of it.
fn run_split(trace: &Trace, split: usize) -> (Vec<u8>, u64, MetricsSnapshot) {
    let mut metrics = Metrics::new();
    let mut learner = IncrementalLearner::new(trace.task_count(), options());
    for period in trace.periods().iter().take(split) {
        learner
            .push_period_with(period, &mut metrics)
            .expect("skip policy never aborts");
    }
    let document = learner.checkpoint().to_json();
    let restored = Checkpoint::parse_json(&document).expect("checkpoints round-trip");
    let mut learner = IncrementalLearner::resume(restored).expect("shape matches");
    for period in trace.periods().iter().skip(split) {
        learner
            .push_period_with(period, &mut metrics)
            .expect("skip policy never aborts");
    }
    summarize(learner, metrics)
}

/// Reduces a finished run to comparable bytes: the packed words of every
/// hypothesis in canonical order, the antichain fingerprint, and the
/// metrics snapshot.
fn summarize(learner: IncrementalLearner, mut metrics: Metrics) -> (Vec<u8>, u64, MetricsSnapshot) {
    let fingerprint = learner.fingerprint();
    let result = learner.finish();
    let mut bytes = Vec::new();
    for d in result.hypotheses() {
        for word in d.packed_words() {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    // Wall-clock timings are inherently run-dependent; everything else in
    // the snapshot must match exactly.
    let mut snapshot = metrics.snapshot();
    snapshot.period_micros = Default::default();
    snapshot.total_micros = 0;
    snapshot.uptime_us = 0;
    (bytes, fingerprint, snapshot)
}

proptest! {
    #[test]
    fn checkpoint_restore_is_invisible_sequential((trace, split) in trace_and_split()) {
        let straight = run_straight(&trace);
        let split_run = run_split(&trace, split);
        prop_assert_eq!(straight.0, split_run.0, "antichain bytes differ");
        prop_assert_eq!(straight.1, split_run.1, "fingerprints differ");
        prop_assert_eq!(straight.2, split_run.2, "metrics snapshots differ");
    }

    #[test]
    fn batch_learn_matches_incremental(trace in arbitrary_trace()) {
        // On traces the batch learner accepts outright, the incremental
        // engine reaches the identical antichain.
        if let Ok(batch) = bbmg_core::learn(&trace, LearnOptions::exact()) {
            let (_, fingerprint, snapshot) = run_straight(&trace);
            let mut learner = IncrementalLearner::new(trace.task_count(), options());
            for period in trace.periods() {
                learner.push_period(period).expect("batch accepted this trace");
            }
            prop_assert_eq!(learner.fingerprint(), fingerprint);
            let incremental = learner.finish();
            prop_assert_eq!(incremental.hypotheses(), batch.hypotheses());
            prop_assert_eq!(snapshot.periods, trace.periods().len());
        }
    }
}
