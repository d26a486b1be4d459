//! Golden parity suite: the learner's observable output, pinned.
//!
//! Each run below is reduced to its antichain fingerprint, generated and
//! merge counts, per-period set sizes, fallback count and skipped-period
//! record, and the runs of one group are folded into a single digest.
//! The expected digests were recorded from the learner's output before
//! its period store moved to flat arena rows. Any change to branching
//! order, dedup, merge order or post-processing moves them, so a refactor
//! of the hot path that is meant to be behaviour-preserving must keep
//! every constant here unchanged.
//!
//! The groups:
//!
//! * the GM case study (seed 2007) at bounds 1, 4, 16 and 64, plus
//!   bound 4 with union-merged assumptions;
//! * the same five GM runs' observer event streams (merge weights and
//!   per-message set sizes included, the budget heartbeat's wall-clock
//!   reading zeroed), with each run's peak set size and message count,
//!   recorded before the bounded working list moved to weight buckets
//!   and merges stopped re-weighing unchanged words;
//! * 40 random 6–7-task designs (every third with dropped events,
//!   loaded leniently) through `robust_learn`: exact, `SkipPeriod`,
//!   `set_limit` 64, so every one of them falls back to the bounded
//!   heuristic, all in their first period;
//! * the same designs at `set_limit` 1024, where most fall back and many
//!   do so after their first period, so the fallback starts from a
//!   nontrivial exact antichain.
//!
//! Beside the pins, a differential test requires every entry point to
//! the degrading engine to agree with `robust_learn_with` on the
//! limit-1024 designs: checkpoint and resume at every split, the model
//! cache's three paths, and a serve shard. A second one does the same for
//! runs that a step budget stops early. A third feeds several learners
//! alternately, as serve feeds its shards, and compares each with an
//! isolated `learn`.

use std::num::NonZeroUsize;

use bbmg::core::{
    antichain_fingerprint, learn, learn_with, robust_learn, robust_learn_with, Budget, CacheHit,
    Checkpoint, IncrementalLearner, LearnError, LearnOptions, LearnResult, MergeAssumptions,
    ModelCache, OnInconsistent,
};
use bbmg::lattice::{TaskId, TaskUniverse};
use bbmg::obs::{Event, NoopObserver, Recorder};
use bbmg::serve::{ServeOptions, StreamShard, WireKind};
use bbmg::sim::{inject_faults, FaultConfig};
use bbmg::trace::{parse_csv_lenient, write_csv_raw, EventKind, Timestamp, Trace, TraceBuilder};
use bbmg::workloads::random::{random_trace, RandomModelConfig};
use bbmg::workloads::{gm, simple};

/// splitmix64-style fold of a stream of words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0x9E37_79B9_7F4A_7C15)
    }

    fn add(&mut self, word: u64) {
        let mut h = self.0 ^ word;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        self.0 = h;
    }

    /// Folds in everything the parity contract covers for one run.
    fn add_result(&mut self, result: &LearnResult) {
        let stats = result.stats();
        self.add(antichain_fingerprint(result.hypotheses()));
        self.add(stats.hypotheses_generated as u64);
        self.add(stats.merges as u64);
        self.add(stats.set_sizes_per_period.len() as u64);
        for &size in &stats.set_sizes_per_period {
            self.add(size as u64);
        }
        self.add(stats.fallbacks as u64);
        self.add(stats.skipped_periods.len() as u64);
        for skip in &stats.skipped_periods {
            self.add(skip.period as u64);
        }
    }

    /// Folds in one event's JSON rendering, length first, with the
    /// budget heartbeat's wall-clock reading zeroed.
    fn add_event(&mut self, event: &Event) {
        let json = without_clock(event).to_json(None);
        self.add(json.len() as u64);
        for chunk in json.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
}

/// `event` with the budget heartbeat's wall-clock reading zeroed, the one
/// field that differs between two runs of the same learn.
fn without_clock(event: &Event) -> Event {
    match event {
        Event::BudgetTick { steps, .. } => Event::BudgetTick {
            steps: *steps,
            elapsed_micros: 0,
        },
        other => other.clone(),
    }
}

/// A recorder's events, each [`without_clock`].
fn events(recorder: &Recorder) -> Vec<Event> {
    recorder
        .events()
        .iter()
        .map(|timed| without_clock(&timed.event))
        .collect()
}

/// Totals alongside each digest, so a mismatch says which count moved.
#[derive(Debug, PartialEq, Eq)]
struct Group {
    digest: u64,
    generated: usize,
    merges: usize,
    fallbacks: usize,
    skipped: usize,
}

fn group(results: &[LearnResult]) -> Group {
    let mut digest = Digest::new();
    let mut totals = Group {
        digest: 0,
        generated: 0,
        merges: 0,
        fallbacks: 0,
        skipped: 0,
    };
    for result in results {
        digest.add_result(result);
        let stats = result.stats();
        totals.generated += stats.hypotheses_generated;
        totals.merges += stats.merges;
        totals.fallbacks += stats.fallbacks;
        totals.skipped += stats.skipped_periods.len();
    }
    totals.digest = digest.0;
    totals
}

/// The 40 random designs, shaped like the `exact_robust` benchmark's:
/// 6 or 7 tasks, 8–12 periods, every third capture with 2% of its events
/// dropped and loaded through the lenient CSV path.
fn designs() -> Vec<Trace> {
    (0..40u64)
        .map(|i| {
            let seed = 0x00C0_FFEE ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let config = RandomModelConfig {
                tasks: 6 + (i % 2) as usize,
                seed,
                ..RandomModelConfig::default()
            };
            let periods = 8 + (seed >> 32) as usize % 5;
            let trace = random_trace(&config, periods, seed ^ 0x5EED)
                .expect("random designs simulate")
                .trace;
            if i % 3 == 2 {
                let (raw, _) = inject_faults(&trace, &FaultConfig::event_drop(0.02, seed));
                parse_csv_lenient(&write_csv_raw(&raw))
                    .expect("lenient parse never fails on injected drops")
                    .trace
            } else {
                trace
            }
        })
        .collect()
}

fn robust_options(set_limit: usize) -> LearnOptions {
    LearnOptions::exact()
        .with_on_inconsistent(OnInconsistent::SkipPeriod)
        .with_set_limit(set_limit)
}

/// The GM case study's trace and the five option sets its sweep runs.
fn gm_sweep() -> (Trace, Vec<LearnOptions>) {
    let trace = gm::gm_trace(2007).expect("GM simulation succeeds").trace;
    let mut runs: Vec<LearnOptions> = [1, 4, 16, 64]
        .into_iter()
        .map(LearnOptions::bounded)
        .collect();
    runs.push(LearnOptions::bounded(4).with_merge_assumptions(MergeAssumptions::Union));
    (trace, runs)
}

#[test]
fn gm_bound_sweep_is_pinned() {
    let (trace, runs) = gm_sweep();
    let results: Vec<LearnResult> = runs
        .into_iter()
        .map(|options| learn(&trace, options).expect("GM learns"))
        .collect();
    assert_eq!(
        group(&results),
        Group {
            digest: 17_214_706_296_961_888_801,
            generated: 416_658,
            merges: 387_744,
            fallbacks: 0,
            skipped: 0,
        }
    );
}

#[test]
fn gm_bound_sweep_event_stream_is_pinned() {
    let (trace, runs) = gm_sweep();
    let mut digest = Digest::new();
    let mut events = 0;
    for options in runs {
        let mut recorder = Recorder::new();
        let result = learn_with(&trace, options, &mut recorder).expect("GM learns");
        for timed in recorder.events() {
            digest.add_event(&timed.event);
        }
        digest.add(result.stats().peak_set_size as u64);
        digest.add(result.stats().messages as u64);
        events += recorder.len();
    }
    assert_eq!((digest.0, events), (16_574_615_973_203_959_500, 391_829));
}

#[test]
fn robust_learn_on_random_designs_is_pinned() {
    let results: Vec<LearnResult> = designs()
        .iter()
        .map(|trace| robust_learn(trace, robust_options(64)).expect("skip policy never aborts"))
        .collect();
    assert_eq!(
        group(&results),
        Group {
            digest: 11_305_561_852_954_583_840,
            generated: 139_612,
            merges: 70_094,
            fallbacks: 40,
            skipped: 12,
        }
    );
}

/// The same designs at set limit 1024, where 34 fall back, 26 of them
/// after their first period. Recorded from the single seeding engine
/// when the replaying fallback was removed.
#[test]
fn robust_learn_at_set_limit_1024_is_pinned() {
    let results: Vec<LearnResult> = designs()
        .iter()
        .map(|trace| robust_learn(trace, robust_options(1024)).expect("skip policy never aborts"))
        .collect();
    assert_eq!(
        group(&results),
        Group {
            digest: 5_232_534_589_655_836_093,
            generated: 173_450,
            merges: 81_956,
            fallbacks: 34,
            skipped: 12,
        }
    );
}

/// Feeds `trace` to a serve shard event by event, with the memory
/// watermark out of reach so only the learner's own guards degrade it.
fn serve(trace: &Trace, learn: LearnOptions) -> LearnResult {
    let options = ServeOptions {
        learn,
        watermark_words: usize::MAX,
        ..ServeOptions::default()
    };
    let mut shard = StreamShard::new("design", trace.universe().clone(), options);
    for period in trace.periods() {
        for event in period.events() {
            let (kind, subject) = match event.kind {
                EventKind::TaskStart(t) => (WireKind::Start, trace.universe().name(t).to_string()),
                EventKind::TaskEnd(t) => (WireKind::End, trace.universe().name(t).to_string()),
                EventKind::MessageRise(m) => (WireKind::Rise, format!("m{}", m.index())),
                EventKind::MessageFall(m) => (WireKind::Fall, format!("m{}", m.index())),
            };
            shard
                .ingest(
                    period.index(),
                    event.time.micros(),
                    kind,
                    &subject,
                    &mut NoopObserver,
                )
                .expect("every subject is known");
        }
    }
    shard
        .finish(&mut NoopObserver)
        .expect("no checkpoint directory")
        .result
}

/// Every entry point to the degrading engine ends where
/// `robust_learn_with` ends, on the limit-1024 designs:
///
/// * an `IncrementalLearner` checkpointed to JSON and resumed at every
///   split: antichain, stats and the concatenated event stream;
/// * `ModelCache::learn` cold, on a prefix hit and on a full hit;
/// * a serve shard fed the same events.
///
/// Designs whose fallback lands after their first period are the ones a
/// fallback that replayed the accepted periods, instead of seeding the
/// bounded learner from the antichain, would learn differently: 26 of the
/// 34 designs that fall back here. Before the replaying fallback was
/// removed, `robust_learn_with` parted from the checkpointed engine on
/// the antichain of 2 designs, the stats of 22 and the event stream of 26.
#[test]
fn entry_points_agree_at_set_limit_1024() {
    let options = robust_options(1024);
    let dir = std::env::temp_dir().join(format!("bbmg-parity-cache-{}", std::process::id()));
    let mut late_fallbacks = 0;
    for (i, trace) in designs().iter().enumerate() {
        let mut recorder = Recorder::new();
        let expected =
            robust_learn_with(trace, options, &mut recorder).expect("skip policy never aborts");
        let expected_events = events(&recorder);
        let same = |path: &str, result: &LearnResult| {
            assert_eq!(
                antichain_fingerprint(result.hypotheses()),
                antichain_fingerprint(expected.hypotheses()),
                "design {i}: {path} antichain"
            );
            assert_eq!(result.stats(), expected.stats(), "design {i}: {path} stats");
        };

        // One run, checkpointed at every period boundary with the length
        // of its event stream so far.
        let mut learner = IncrementalLearner::new(trace.task_count(), options);
        let mut recorder = Recorder::new();
        let mut saved = vec![(learner.checkpoint().to_json(), 0)];
        let mut fell_back_late = false;
        for (k, period) in trace.periods().iter().enumerate() {
            let exact = learner.options().bound.is_none();
            learner
                .push_period_with(period, &mut recorder)
                .expect("skip policy never aborts");
            fell_back_late |= k > 0 && exact && learner.options().bound.is_some();
            saved.push((learner.checkpoint().to_json(), recorder.len()));
        }
        late_fallbacks += usize::from(fell_back_late);
        let straight_events = events(&recorder);
        for (split, (json, prefix_events)) in saved.iter().enumerate() {
            let checkpoint = Checkpoint::parse_json(json).expect("checkpoint round-trips");
            let mut resumed = IncrementalLearner::resume(checkpoint).expect("checkpoint resumes");
            let mut suffix = Recorder::new();
            for period in &trace.periods()[split..] {
                resumed
                    .push_period_with(period, &mut suffix)
                    .expect("skip policy never aborts");
            }
            same(&format!("resume at {split}"), &resumed.finish());
            let mut stream = straight_events[..*prefix_events].to_vec();
            stream.extend(events(&suffix));
            assert!(
                stream == expected_events,
                "design {i}: event stream resumed at {split}"
            );
        }

        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ModelCache::open(&dir, NonZeroUsize::new(4).unwrap()).expect("cache opens");
        let cold = cache.learn(trace, options).expect("cold learn");
        assert_eq!(cold.hit, CacheHit::Miss);
        same("cold cache", &cold.result);
        let full = cache.learn(trace, options).expect("full hit");
        assert_eq!(full.hit, CacheHit::Full);
        same("full cache hit", &full.result);
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ModelCache::open(&dir, NonZeroUsize::new(4).unwrap()).expect("cache opens");
        let half = trace.periods().len() / 2;
        cache
            .learn(&trace.truncated(half), options)
            .expect("prefix learn");
        let prefix = cache.learn(trace, options).expect("prefix hit");
        assert_eq!(prefix.hit, CacheHit::Prefix { periods: half });
        same("prefix cache hit", &prefix.result);

        same("serve shard", &serve(trace, options));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        late_fallbacks > 0,
        "some design must fall back after its first period"
    );
}

/// Every entry point records a budget stop as `robust_learn_with` does.
/// GM seed 2007 at bound 16 under the skip policy, with a step budget of
/// 2,000 / 20,000 / 60,000, leaves 27 / 21 / 9 periods unprocessed. These
/// must agree with it on antichain and stats, unprocessed periods
/// included:
///
/// * `learn_with`;
/// * an `IncrementalLearner` checkpointed to JSON after every period it
///   consumes, as `learn --checkpoint` does, then resumed from each
///   checkpoint and driven over the rest of the trace;
/// * a cold `ModelCache::learn`, which caches nothing.
///
/// A serve shard is left out: a stream has no remaining periods to
/// record, so it counts shed periods instead.
#[test]
fn entry_points_agree_under_a_step_budget() {
    let trace = gm::gm_trace(2007).expect("GM simulation succeeds").trace;
    let dir = std::env::temp_dir().join(format!("bbmg-parity-budget-{}", std::process::id()));
    for (steps, unprocessed) in [(2_000, 27), (20_000, 21), (60_000, 9)] {
        let options = LearnOptions::bounded(16)
            .with_on_inconsistent(OnInconsistent::SkipPeriod)
            .with_budget(Budget::unlimited().with_max_steps(steps));
        let expected = robust_learn_with(&trace, options, &mut NoopObserver)
            .expect("skip policy never aborts");
        assert_eq!(
            expected.stats().skipped_periods.len(),
            unprocessed,
            "{steps} steps: unprocessed periods"
        );
        let same = |path: &str, result: &LearnResult| {
            assert_eq!(
                antichain_fingerprint(result.hypotheses()),
                antichain_fingerprint(expected.hypotheses()),
                "{steps} steps: {path} antichain"
            );
            assert_eq!(
                result.stats(),
                expected.stats(),
                "{steps} steps: {path} stats"
            );
        };

        let plain =
            learn_with(&trace, options, &mut NoopObserver).expect("skip policy never aborts");
        same("learn_with", &plain);

        let mut learner = IncrementalLearner::new(trace.task_count(), options);
        let mut saved = vec![learner.checkpoint().to_json()];
        let complete = learner
            .drive(trace.periods(), &mut NoopObserver, |learner, _, _, _| {
                saved.push(learner.checkpoint().to_json());
                Ok::<_, LearnError>(())
            })
            .expect("skip policy never aborts");
        assert!(!complete, "{steps} steps: the budget stops the run");
        assert_eq!(saved.len(), trace.periods().len() - unprocessed + 1);
        // The checkpoint saved after the stop resumes at the stopping period.
        saved.push(learner.checkpoint().to_json());
        same("checkpointed run", &learner.finish());
        for (i, json) in saved.iter().enumerate() {
            let checkpoint = Checkpoint::parse_json(json).expect("checkpoint round-trips");
            let split = checkpoint.pushed_periods;
            let mut resumed = IncrementalLearner::resume(checkpoint).expect("checkpoint resumes");
            resumed
                .drive(
                    &trace.periods()[split..],
                    &mut NoopObserver,
                    |_, _, _, _| Ok::<_, LearnError>(()),
                )
                .expect("skip policy never aborts");
            same(
                &format!("checkpoint {i} resumed at {split}"),
                &resumed.finish(),
            );
        }

        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ModelCache::open(&dir, NonZeroUsize::new(4).unwrap()).expect("cache opens");
        let cold = cache.learn(&trace, options).expect("cold learn");
        assert_eq!(cold.hit, CacheHit::Miss);
        same("cold cache", &cold.result);
        assert!(
            cache.is_empty(),
            "{steps} steps: a stopped run is not cached"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One period over a 20-task universe in which 10 tasks run before
/// `messages` messages and 10 after, so every message has 100 candidate
/// pairs. Two messages blow the exact learner up past one
/// [`bbmg::core::BUDGET_SAMPLE_INTERVAL`]. At bound 64 with six messages,
/// the last two start from 64 rows of which only 33 are distinct, so the
/// repeated rows are skipped and not branched.
fn wide_blowup_trace_with(messages: u64) -> Trace {
    let width = 10usize;
    let names: Vec<String> = (0..width)
        .map(|i| format!("s{i}"))
        .chain((0..width).map(|i| format!("r{i}")))
        .collect();
    let u = TaskUniverse::from_names(names);
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

/// Serve-style use: several `IncrementalLearner`s alive at once and fed
/// period by period in turn, as `bbmg serve` feeds its shards. Each must
/// end exactly where an isolated `learn` of its trace ends, hypotheses
/// and statistics alike: no learner may carry state into another.
#[test]
fn interleaved_learners_match_isolated_runs() {
    let runs = [
        (wide_blowup_trace_with(2), LearnOptions::exact()),
        (simple::figure_2_trace(), LearnOptions::exact()),
        (wide_blowup_trace_with(6), LearnOptions::bounded(64)),
    ];
    let isolated: Vec<LearnResult> = runs
        .iter()
        .map(|(trace, options)| learn(trace, *options).expect("learns"))
        .collect();
    assert!(isolated[0].stats().hypotheses_generated >= 1024);
    assert!(isolated[2].stats().merges > 0, "the bound must overflow");

    let mut learners: Vec<IncrementalLearner> = runs
        .iter()
        .map(|(trace, options)| IncrementalLearner::new(trace.task_count(), *options))
        .collect();
    let longest = runs.iter().map(|(trace, _)| trace.periods().len()).max();
    for i in 0..longest.unwrap_or(0) {
        for ((trace, _), learner) in runs.iter().zip(&mut learners) {
            if let Some(period) = trace.periods().get(i) {
                learner.push_period(period).expect("learns");
            }
        }
    }
    for (i, (learner, expected)) in learners.into_iter().zip(&isolated).enumerate() {
        let got = learner.finish();
        assert_eq!(
            got.hypotheses(),
            expected.hypotheses(),
            "run {i} hypotheses"
        );
        assert_eq!(got.stats(), expected.stats(), "run {i} stats");
    }
}
