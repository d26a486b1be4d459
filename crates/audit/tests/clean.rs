//! Positive coverage: everything the toolchain actually writes must
//! audit clean — learner checkpoints (replay included), checkpoints
//! learned from sanitizer-repaired faulty traces,
//! roster/health/metrics document sets, and the committed `BENCH_*.json`
//! artifacts — plus targeted cross-document findings that only the
//! multi-artifact passes can produce.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bbmg_audit::{audit_paths, AuditOptions, AuditReport};
use bbmg_core::{Checkpoint, IncrementalLearner, LearnOptions, OnInconsistent};
use bbmg_serve::{HealthSnapshot, Roster, RosterEntry, ShardHealth};
use bbmg_sim::{inject_faults, FaultConfig, SimConfig, Simulator};
use bbmg_trace::{repair, write_trace, Trace};
use bbmg_workloads::random::{random_model, RandomModelConfig};
use proptest::prelude::*;

/// A fresh directory per call: test functions may run concurrently (the
/// `proptest!` stand-in registers each property twice), so a per-process
/// name alone would let two runs overwrite each other's artifacts.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bbmg-audit-clean-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn assert_clean(report: &AuditReport) {
    assert!(
        report.diagnostics.is_empty(),
        "expected a clean audit, got {:?}",
        report.diagnostics
    );
}

fn random_trace(tasks: usize, model_seed: u64, sim_seed: u64) -> Trace {
    let model = random_model(&RandomModelConfig {
        tasks,
        edge_probability: 0.35,
        max_in_degree: 3,
        disjunction_probability: 0.4,
        seed: model_seed,
    });
    Simulator::new(
        &model,
        SimConfig {
            periods: 6,
            seed: sim_seed,
            ..SimConfig::default()
        },
    )
    .run()
    .expect("simulation succeeds")
    .trace
}

/// Learns `trace` with `options`, checkpoints, writes both artifacts to
/// `dir`, and audits the checkpoint with replay against the trace.
fn checkpoint_and_audit(dir: &Path, trace: &Trace, options: LearnOptions) -> AuditReport {
    let mut learner = IncrementalLearner::new(trace.task_count(), options);
    for period in trace.periods() {
        learner.push_period(period).expect("learner accepts stream");
    }
    let ckpt = learner.checkpoint();
    let ckpt_path = dir.join("model.ckpt");
    ckpt.save(&ckpt_path).expect("save checkpoint");
    let trace_path = dir.join("trace.txt");
    fs::write(&trace_path, write_trace(trace)).expect("write trace");
    audit_paths(
        std::slice::from_ref(&ckpt_path),
        &AuditOptions {
            replay: Some(trace_path),
            deny_warnings: true,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the bounded learner writes must survive the full pass
    /// stack — parse, packed cells, antichain, canonical bytes,
    /// bookkeeping, and deterministic replay.
    #[test]
    fn learned_checkpoints_audit_clean(
        tasks in 3usize..7,
        model_seed in 0u64..500,
        sim_seed in 0u64..500,
    ) {
        let dir = scratch_dir("learn");
        let trace = random_trace(tasks, model_seed, sim_seed);
        let report = checkpoint_and_audit(&dir, &trace, LearnOptions::bounded(16));
        prop_assert!(
            report.diagnostics.is_empty(),
            "expected clean, got {:?}",
            report.diagnostics
        );
        prop_assert_eq!(report.files_audited, 1);
    }

    /// Faulty capture → sanitizer → quarantining learner → checkpoint:
    /// the artifact must still audit clean, replay included (quarantines
    /// are recorded in the checkpoint, so replay reproduces them).
    #[test]
    fn repaired_traces_audit_clean(fault_seed in 0u64..300) {
        let dir = scratch_dir("repair");
        let trace = random_trace(5, 42, 7);
        let (raw, _log) = inject_faults(
            &trace,
            &FaultConfig {
                drop_rate: 0.08,
                duplicate_rate: 0.05,
                jitter_rate: 0.05,
                seed: fault_seed,
                ..FaultConfig::default()
            },
        );
        let outcome = repair(&raw);
        let options = LearnOptions::bounded(16).with_on_inconsistent(OnInconsistent::SkipPeriod);
        let report = checkpoint_and_audit(&dir, &outcome.trace, options);
        prop_assert!(
            report.diagnostics.is_empty(),
            "expected clean, got {:?}",
            report.diagnostics
        );
    }
}

/// A roster whose entries resolve to real checkpoints with consistent
/// period counts, next to health snapshots with advancing sequence
/// numbers, audits clean as a directory — and the cross-document passes
/// flag a dangling reference, an over-claimed period count, and a
/// sequence regression.
#[test]
fn serve_document_set_audits_clean_and_cross_checks_fire() {
    let dir = scratch_dir("xdoc");

    // Two real checkpoints from different universes.
    let save = |name: &str, trace: &Trace| -> Checkpoint {
        let mut learner = IncrementalLearner::new(trace.task_count(), LearnOptions::bounded(16));
        for period in trace.periods() {
            learner.push_period(period).expect("clean trace");
        }
        let ckpt = learner.checkpoint();
        ckpt.save(&dir.join(name)).expect("save checkpoint");
        ckpt
    };
    let a = save("s0.ckpt", &random_trace(4, 1, 1));
    let b = save("s1.ckpt", &random_trace(5, 2, 2));

    let mut roster = Roster::new();
    roster.record(RosterEntry {
        source: "s0".into(),
        checkpoint: "s0.ckpt".into(),
        restarts: 0,
        periods: a.pushed_periods as u64,
        state: "exact".into(),
    });
    roster.record(RosterEntry {
        source: "s1".into(),
        checkpoint: "s1.ckpt".into(),
        restarts: 1,
        periods: b.pushed_periods as u64,
        state: "degraded".into(),
    });
    roster.save(&dir).expect("save roster");

    let shard = |source: &str, periods: u64| ShardHealth {
        source: source.into(),
        state: "exact".into(),
        open: true,
        periods,
        events: periods * 4,
        pending_events: 0,
        shed_periods: 0,
        shed_events: 0,
        restarts: 0,
        memory_words: 10,
        watermark_words: 100,
        checkpoint_age_periods: 0,
    };
    let health = |seq: u64, uptime_us: u64| HealthSnapshot {
        seq,
        uptime_us,
        lines: seq * 8,
        shards: vec![shard("s0", seq), shard("s1", seq)],
    };
    fs::write(
        dir.join("health-1.json"),
        format!("{}\n", health(1, 100).to_json()),
    )
    .expect("write health");
    fs::write(
        dir.join("health-2.json"),
        format!("{}\n", health(2, 200).to_json()),
    )
    .expect("write health");

    let report = audit_paths(
        std::slice::from_ref(&dir),
        &AuditOptions {
            replay: None,
            deny_warnings: true,
        },
    );
    assert_clean(&report);
    // Both checkpoints, the roster, and both snapshots were audited.
    assert_eq!(report.files_audited, 5, "{:?}", report.diagnostics);

    // Now break the set three ways and check each cross-document code.
    fs::remove_file(dir.join("s1.ckpt")).expect("remove checkpoint");
    let report = audit_paths(std::slice::from_ref(&dir), &AuditOptions::default());
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code.id).collect();
    assert!(codes.contains(&"BBMG030"), "missing ref: {codes:?}");

    // Over-claimed periods: roster says more than the checkpoint holds.
    let mut over = Roster::new();
    over.record(RosterEntry {
        source: "s0".into(),
        checkpoint: "s0.ckpt".into(),
        restarts: 0,
        periods: a.pushed_periods as u64 + 3,
        state: "exact".into(),
    });
    over.save(&dir).expect("save roster");
    fs::remove_file(dir.join("health-1.json")).expect("tidy");
    fs::remove_file(dir.join("health-2.json")).expect("tidy");
    let report = audit_paths(std::slice::from_ref(&dir), &AuditOptions::default());
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code.id).collect();
    assert!(codes.contains(&"BBMG032"), "over-claim: {codes:?}");

    // Sequence regression across snapshots of one directory.
    let seq_dir = scratch_dir("seq");
    fs::write(
        seq_dir.join("h-1.json"),
        format!("{}\n", health(5, 500).to_json()),
    )
    .expect("write health");
    fs::write(
        seq_dir.join("h-2.json"),
        format!("{}\n", health(4, 600).to_json()),
    )
    .expect("write health");
    let report = audit_paths(std::slice::from_ref(&seq_dir), &AuditOptions::default());
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code.id).collect();
    assert!(codes.contains(&"BBMG041"), "seq regression: {codes:?}");
    assert_eq!(report.errors(), 0, "sequence drift is a warning");
}

/// The gates that keep replay honest: a wrong-universe trace is
/// inconclusive (warning), a doctored-but-resealed hypothesis set is a
/// hard replay mismatch.
#[test]
fn replay_gates_and_mismatch() {
    let dir = scratch_dir("replay");
    let trace = random_trace(4, 9, 9);
    let mut learner = IncrementalLearner::new(trace.task_count(), LearnOptions::bounded(16));
    for period in trace.periods() {
        learner.push_period(period).expect("clean trace");
    }
    let ckpt = learner.checkpoint();
    let ckpt_path = dir.join("model.ckpt");
    ckpt.save(&ckpt_path).expect("save checkpoint");

    // Wrong universe: 5-task trace against a 4-task checkpoint.
    let other = random_trace(5, 10, 10);
    let other_path = dir.join("other.txt");
    fs::write(&other_path, write_trace(&other)).expect("write trace");
    let report = audit_paths(
        std::slice::from_ref(&ckpt_path),
        &AuditOptions {
            replay: Some(other_path),
            deny_warnings: false,
        },
    );
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code.id).collect();
    assert_eq!(codes, vec!["BBMG051"], "{:?}", report.diagnostics);
    assert!(report.is_clean(false) && !report.is_clean(true));

    // Consistent-looking checkpoint whose model never came from this
    // trace: swap the hypothesis set for ⊤ and reserialize (fingerprints
    // recomputed, so only replay can tell).
    let mut forged = ckpt.clone();
    forged.hypotheses = vec![bbmg_lattice::DependencyFunction::top(forged.tasks)];
    let forged_path = dir.join("forged.ckpt");
    fs::write(&forged_path, format!("{}\n", forged.to_json())).expect("write forged");
    let trace_path = dir.join("trace.txt");
    fs::write(&trace_path, write_trace(&trace)).expect("write trace");
    let report = audit_paths(
        std::slice::from_ref(&forged_path),
        &AuditOptions {
            replay: Some(trace_path),
            deny_warnings: false,
        },
    );
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code.id).collect();
    assert!(codes.contains(&"BBMG050"), "{:?}", report.diagnostics);
}

#[test]
fn committed_bench_artifacts_audit_clean() {
    let dir = scratch_dir("bench");
    let artifacts = [
        (
            "BENCH_learner.json",
            include_str!("../../../BENCH_learner.json"),
        ),
        (
            "BENCH_serve.json",
            include_str!("../../../BENCH_serve.json"),
        ),
        (
            "BENCH_corpus.json",
            include_str!("../../../BENCH_corpus.json"),
        ),
        (
            "BENCH_observer.json",
            include_str!("../../../BENCH_observer.json"),
        ),
    ];
    for (name, text) in artifacts {
        fs::write(dir.join(name), text).expect("write artifact");
    }
    let report = audit_paths(&[dir], &AuditOptions::default());
    assert_clean(&report);
    assert_eq!(report.files_audited, 4);
}
