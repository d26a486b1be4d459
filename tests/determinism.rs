//! Thread-count determinism suite (enforced in CI by the `perf-smoke`
//! job): learning with `parallelism` 1, 2, or 8 must produce
//! **byte-identical** results — the same hypotheses in the same order,
//! the same statistics, the same `bbmg-metrics/2` snapshot, and the same
//! event stream (up to wall-clock readings, which are zeroed before
//! comparison: `BudgetTick::elapsed_micros`, event arrival stamps, and
//! the metrics snapshot's `period_micros`/`total_micros`).
//!
//! The workloads are chosen so the parallel code paths actually run: the
//! wide blow-up trace crosses the learner's word-volume fan-out gates
//! ([`bbmg::core::PARALLEL_BRANCH_WORDS`] and friends) and the budget
//! sample window, while the small worked example stays below them — both
//! must agree with the sequential baseline.
//!
//! Dispatch goes through the process-wide persistent
//! [`WorkerPool`](bbmg::core::pool::WorkerPool), whose `provision` clamp
//! would keep everything sequential on a single-core host — so tests
//! that need the parallel paths to *actually execute* force real parked
//! workers with `ensure_workers` first (results must be identical either
//! way; forcing merely makes the assertion non-vacuous).

use bbmg::core::{learn, learn_with, Budget, LearnOptions};
use bbmg::lattice::TaskId;
use bbmg::obs::{Event, Metrics, MetricsSnapshot, Recorder, Summary, Tee};
use bbmg::trace::{EventKind, Timestamp, Trace, TraceBuilder};
use bbmg::workloads::{gm, simple};

/// One period with 8 possible senders and 8 possible receivers per
/// message: the exact algorithm branches far past the parallel fan-out
/// threshold and the budget sample window.
fn blowup_trace() -> Trace {
    let names: Vec<String> = (0..8)
        .map(|i| format!("s{i}"))
        .chain((0..8).map(|i| format!("r{i}")))
        .collect();
    let u = bbmg::lattice::TaskUniverse::from_names(names);
    let senders: Vec<TaskId> = (0..8)
        .map(|i| u.lookup(&format!("s{i}")).unwrap())
        .collect();
    let receivers: Vec<TaskId> = (0..8)
        .map(|i| u.lookup(&format!("r{i}")).unwrap())
        .collect();
    let mut b = TraceBuilder::new(u);
    b.begin_period();
    for (i, s) in senders.iter().enumerate() {
        b.event(Timestamp::new(i as u64), EventKind::TaskStart(*s))
            .unwrap();
    }
    for (i, s) in senders.iter().enumerate() {
        b.event(Timestamp::new(10 + i as u64), EventKind::TaskEnd(*s))
            .unwrap();
    }
    b.message(Timestamp::new(20), Timestamp::new(21)).unwrap();
    b.message(Timestamp::new(22), Timestamp::new(23)).unwrap();
    for (i, r) in receivers.iter().enumerate() {
        b.event(Timestamp::new(60 + i as u64), EventKind::TaskStart(*r))
            .unwrap();
    }
    for (i, r) in receivers.iter().enumerate() {
        b.event(Timestamp::new(70 + i as u64), EventKind::TaskEnd(*r))
            .unwrap();
    }
    b.end_period().unwrap();
    b.finish()
}

/// A wider variant — 10 possible senders × 10 possible receivers over a
/// 20-task universe (20 packed words per matrix) — sized so the second
/// message's branch volume (100 hypotheses × 100 candidates × 20 words =
/// 200 Ki words) crosses `PARALLEL_BRANCH_WORDS`, the post-period scan
/// crosses `PARALLEL_SCAN_WORDS`, and a bound-64 run crosses
/// `BOUNDED_BRANCH_WORDS`: every parallel learner path runs for real.
fn wide_blowup_trace() -> Trace {
    wide_blowup_trace_with(2)
}

/// [`wide_blowup_trace`] with `messages` messages between the senders and
/// the receivers.
fn wide_blowup_trace_with(messages: u64) -> Trace {
    let width = 10usize;
    let names: Vec<String> = (0..width)
        .map(|i| format!("s{i}"))
        .chain((0..width).map(|i| format!("r{i}")))
        .collect();
    let u = bbmg::lattice::TaskUniverse::from_names(names);
    let senders: Vec<TaskId> = (0..width)
        .map(|i| u.lookup(&format!("s{i}")).unwrap())
        .collect();
    let receivers: Vec<TaskId> = (0..width)
        .map(|i| u.lookup(&format!("r{i}")).unwrap())
        .collect();
    let mut b = TraceBuilder::new(u);
    b.begin_period();
    for (i, s) in senders.iter().enumerate() {
        b.event(Timestamp::new(i as u64), EventKind::TaskStart(*s))
            .unwrap();
    }
    for (i, s) in senders.iter().enumerate() {
        b.event(Timestamp::new(10 + i as u64), EventKind::TaskEnd(*s))
            .unwrap();
    }
    for m in 0..messages {
        b.message(Timestamp::new(30 + 2 * m), Timestamp::new(31 + 2 * m))
            .unwrap();
    }
    for (i, r) in receivers.iter().enumerate() {
        b.event(Timestamp::new(60 + i as u64), EventKind::TaskStart(*r))
            .unwrap();
    }
    for (i, r) in receivers.iter().enumerate() {
        b.event(Timestamp::new(70 + i as u64), EventKind::TaskEnd(*r))
            .unwrap();
    }
    b.end_period().unwrap();
    b.finish()
}

/// Grows the process-wide pool past the single-core `provision` clamp so
/// the fan-out paths genuinely dispatch to parked worker threads.
fn force_real_workers() {
    bbmg::core::pool::WorkerPool::global().ensure_workers(3);
}

/// Strips wall-clock content from an event so streams are comparable
/// across runs: only `BudgetTick` carries a clock reading.
fn normalize(event: &Event) -> Event {
    match event {
        Event::BudgetTick { steps, .. } => Event::BudgetTick {
            steps: *steps,
            elapsed_micros: 0,
        },
        other => other.clone(),
    }
}

/// Zeroes the wall-clock fields of a metrics snapshot.
fn normalize_metrics(mut snapshot: MetricsSnapshot) -> MetricsSnapshot {
    snapshot.period_micros = Summary::default();
    snapshot.total_micros = 0;
    snapshot.uptime_us = 0;
    snapshot
}

/// Runs `options` over `trace` with a recorder and metrics attached,
/// returning everything a determinism comparison needs.
fn instrumented_run(
    trace: &Trace,
    options: LearnOptions,
) -> (
    Result<Vec<bbmg::lattice::DependencyFunction>, String>,
    bbmg::core::LearnStats,
    Vec<Event>,
    MetricsSnapshot,
) {
    let mut recorder = Recorder::new();
    let mut metrics = Metrics::new();
    let outcome = {
        let mut tee = Tee::new().with(&mut recorder).with(&mut metrics);
        learn_with(trace, options, &mut tee)
    };
    let (hypotheses, stats) = match outcome {
        Ok(result) => (
            Ok(result.hypotheses().to_vec()),
            result.stats().clone(),
            // events/metrics read below
        ),
        Err(e) => (Err(format!("{e:?}")), bbmg::core::LearnStats::default()),
    };
    let events: Vec<Event> = recorder
        .events()
        .iter()
        .map(|e| normalize(&e.event))
        .collect();
    (
        hypotheses,
        stats,
        events,
        normalize_metrics(metrics.snapshot()),
    )
}

#[test]
fn exact_blowup_is_byte_identical_across_thread_counts() {
    force_real_workers();
    let trace = blowup_trace();
    let baseline = instrumented_run(&trace, LearnOptions::exact());
    for threads in [2usize, 8] {
        let run = instrumented_run(&trace, LearnOptions::exact().with_parallelism(threads));
        assert_eq!(baseline.0, run.0, "hypotheses differ at {threads} threads");
        assert_eq!(baseline.1, run.1, "stats differ at {threads} threads");
        assert_eq!(baseline.2, run.2, "events differ at {threads} threads");
        assert_eq!(baseline.3, run.3, "metrics differ at {threads} threads");
    }
}

#[test]
fn wide_exact_blowup_crosses_every_gate_and_stays_identical() {
    force_real_workers();
    let trace = wide_blowup_trace();
    let baseline = instrumented_run(&trace, LearnOptions::exact());
    assert!(
        baseline.1.hypotheses_generated >= 1024,
        "workload must cross the sample window, generated {}",
        baseline.1.hypotheses_generated
    );
    for threads in [2usize, 4, 8] {
        let run = instrumented_run(&trace, LearnOptions::exact().with_parallelism(threads));
        assert_eq!(baseline.0, run.0, "hypotheses differ at {threads} threads");
        assert_eq!(baseline.1, run.1, "stats differ at {threads} threads");
        assert_eq!(baseline.2, run.2, "events differ at {threads} threads");
        assert_eq!(baseline.3, run.3, "metrics differ at {threads} threads");
    }
}

#[test]
fn bounded_parallel_generation_is_byte_identical() {
    // Bounded-mode *merging* stays sequential by design (§3.2 order
    // dependence), but child generation fans out past
    // BOUNDED_BRANCH_WORDS — merges, stats and events must still come
    // out byte-identical because the reduce consumes children in
    // generation order. With six messages, the last two branch 33
    // distinct rows of 64 in parallel: the chunks run over a parent list
    // with gaps where repeated rows were skipped.
    force_real_workers();
    for trace in [wide_blowup_trace(), wide_blowup_trace_with(6)] {
        let baseline = instrumented_run(&trace, LearnOptions::bounded(64));
        assert!(baseline.1.merges > 0, "the bound must actually overflow");
        for threads in [2usize, 8] {
            let run = instrumented_run(&trace, LearnOptions::bounded(64).with_parallelism(threads));
            assert_eq!(baseline.0, run.0, "hypotheses differ at {threads} threads");
            assert_eq!(baseline.1, run.1, "stats differ at {threads} threads");
            assert_eq!(baseline.2, run.2, "events differ at {threads} threads");
            assert_eq!(baseline.3, run.3, "metrics differ at {threads} threads");
        }
    }
}

#[test]
fn warm_pool_reuse_across_sequential_runs_is_stable() {
    // The persistent pool is process-wide: back-to-back runs reuse the
    // same parked workers. Every repeat must reproduce the first run
    // bit for bit — a worker carrying state across dispatches would
    // show up here.
    force_real_workers();
    let trace = wide_blowup_trace();
    let options = LearnOptions::exact().with_parallelism(4);
    let first = instrumented_run(&trace, options);
    for repeat in 0..3 {
        let again = instrumented_run(&trace, options);
        assert_eq!(first, again, "run {repeat} diverged on a warm pool");
    }
}

#[test]
fn interleaved_shards_sharing_the_pool_match_isolated_runs() {
    use bbmg::core::IncrementalLearner;

    // Serve-style usage: several incremental learners alternate periods
    // on the same process-wide pool. Interleaving dispatches from
    // different learners must leave each learner's outcome exactly what
    // an isolated run produces.
    force_real_workers();
    let wide = wide_blowup_trace();
    let small = simple::figure_2_trace();
    let options = LearnOptions::exact().with_parallelism(4);

    let isolated_wide = learn(&wide, options).unwrap();
    let isolated_small = learn(&small, options).unwrap();

    let mut shard_a = IncrementalLearner::new(wide.task_count(), options);
    let mut shard_b = IncrementalLearner::new(small.task_count(), options);
    let max_len = wide.periods().len().max(small.periods().len());
    for i in 0..max_len {
        if let Some(p) = wide.periods().get(i) {
            shard_a.push_period(p).unwrap();
        }
        if let Some(p) = small.periods().get(i) {
            shard_b.push_period(p).unwrap();
        }
    }
    let got_wide = shard_a.finish();
    let got_small = shard_b.finish();
    assert_eq!(isolated_wide.hypotheses(), got_wide.hypotheses());
    assert_eq!(isolated_small.hypotheses(), got_small.hypotheses());
}

#[test]
fn small_workload_below_fanout_threshold_is_identical_too() {
    let trace = simple::figure_2_trace();
    let baseline = instrumented_run(&trace, LearnOptions::exact());
    let run = instrumented_run(&trace, LearnOptions::exact().with_parallelism(8));
    assert_eq!(baseline, run);
}

#[test]
fn bounded_mode_is_untouched_by_thread_count() {
    // Bounded merging is sequential by design (§3.2 order dependence);
    // the parallelism knob must not perturb it in any way.
    let trace = gm::gm_trace(2007).expect("simulation succeeds").trace;
    let baseline = instrumented_run(&trace, LearnOptions::bounded(64));
    let run = instrumented_run(&trace, LearnOptions::bounded(64).with_parallelism(8));
    assert_eq!(baseline, run);
}

#[test]
fn budget_trips_at_the_same_step_at_any_thread_count() {
    let trace = blowup_trace();
    let options = LearnOptions::exact().with_budget(Budget::unlimited().with_max_steps(1024));
    let baseline = instrumented_run(&trace, options);
    assert!(baseline.0.is_err(), "the budget must trip on this workload");
    for threads in [2usize, 8] {
        let run = instrumented_run(&trace, options.with_parallelism(threads));
        assert_eq!(baseline.0, run.0, "error differs at {threads} threads");
        assert_eq!(baseline.2, run.2, "events differ at {threads} threads");
    }
}
