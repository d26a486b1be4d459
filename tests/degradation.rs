//! Cross-crate error-path coverage: resource-guard trips and fallback,
//! universe mismatches, and fault-injected CSV round trips.

use bbmg::core::{
    learn, robust_learn, IncrementalLearner, LearnError, LearnOptions, OnInconsistent,
};
use bbmg::sim::{inject_faults, FaultConfig, Simulator};
use bbmg::trace::{parse_csv, parse_csv_lenient, parse_csv_raw, write_csv_raw, RawTrace, Trace};
use bbmg::workloads::{gm, simple};

fn gm_trace(periods: usize, seed: u64) -> Trace {
    let model = gm::gm_model();
    let mut config = gm::gm_config(seed);
    config.periods = periods;
    Simulator::new(&model, config)
        .run()
        .expect("gm simulation succeeds")
        .trace
}

#[test]
fn set_limit_trip_on_gm_falls_back_to_bounded() {
    let trace = gm_trace(6, 3);
    let options = LearnOptions::exact().with_set_limit(8);

    // Under the default abort policy the exact algorithm blows through a
    // tiny working-set guard...
    let err = learn(&trace, options).expect_err("branching exceeds the guard");
    assert!(matches!(err, LearnError::SetLimitExceeded { limit: 8, .. }));

    // ...while under the skip policy the run switches to the bounded
    // heuristic and still produces a model from the full trace.
    let options = options.with_on_inconsistent(OnInconsistent::SkipPeriod);
    let result = robust_learn(&trace, options).expect("fallback rescues the run");
    assert_eq!(result.stats().fallbacks, 1);
    assert_eq!(
        result.stats().periods,
        trace.periods().len(),
        "every period learned, before or after the fallback"
    );
    assert!(result.lub().is_some());
}

#[test]
fn universe_mismatch_on_mixed_traces() {
    let gm = gm_trace(2, 0);
    let simple = simple::figure_2_trace();
    assert_ne!(gm.task_count(), simple.task_count());

    // The plain learner refuses periods from a different universe...
    let mut plain = bbmg::core::Learner::new(gm.task_count(), LearnOptions::bounded(4));
    plain.observe(&gm.periods()[0]).expect("matching universe");
    let err = plain.observe(&simple.periods()[0]).unwrap_err();
    assert_eq!(
        err,
        LearnError::UniverseMismatch {
            expected: gm.task_count(),
            actual: simple.task_count(),
        }
    );

    // ...and so does the degrading engine: a universe mismatch is a caller
    // bug, not trace corruption, so no skip policy hides it.
    let options = LearnOptions::bounded(4).with_on_inconsistent(OnInconsistent::SkipPeriod);
    let mut learner = IncrementalLearner::new(simple.task_count(), options);
    let err = learner.push_period(&gm.periods()[0]).unwrap_err();
    assert!(matches!(err, LearnError::UniverseMismatch { .. }));
}

#[test]
fn faulty_csv_round_trip_accounts_for_every_period() {
    let trace = gm_trace(10, 5);
    let config = FaultConfig::uniform(0.05, 9);
    let (raw, log) = inject_faults(&trace, &config);
    assert!(!log.is_empty(), "a 5% uniform config injects something");

    // The CSV layer transports the degraded capture verbatim...
    let csv = write_csv_raw(&raw);
    let reparsed = parse_csv_raw(&csv).expect("header is present");
    assert_eq!(reparsed.skipped_rows, 0, "every degraded row serializes");
    assert_eq!(reparsed.raw.event_count(), raw.event_count());
    assert_eq!(reparsed.raw.periods.len(), raw.periods.len());

    // ...the strict parser rejects it...
    assert!(
        parse_csv(&csv).is_err(),
        "faulty capture is not strictly valid"
    );

    // ...and the lenient pipeline accounts for every period: kept plus
    // quarantined equals the input, with no silent loss.
    let lenient = parse_csv_lenient(&csv).expect("header is present");
    let report = &lenient.report;
    assert_eq!(report.total_periods, raw.periods.len());
    assert_eq!(
        report.kept_periods + report.quarantined.len(),
        report.total_periods
    );
    assert_eq!(lenient.trace.periods().len(), report.kept_periods);

    // The repaired trace must be learnable end to end.
    let options = LearnOptions::bounded(16).with_on_inconsistent(OnInconsistent::SkipPeriod);
    let result = robust_learn(&lenient.trace, options).expect("robust learning completes");
    assert_eq!(
        result.stats().periods + result.stats().skipped_periods.len(),
        lenient.trace.periods().len()
    );
}

#[test]
fn clean_fault_config_is_an_identity() {
    let trace = gm_trace(3, 1);
    let config = FaultConfig::event_drop(0.0, 7);
    assert!(config.is_noop());
    let (raw, log) = inject_faults(&trace, &config);
    assert!(log.is_empty());
    assert_eq!(
        raw.event_count(),
        RawTrace::from_trace(&trace).event_count()
    );

    // A clean capture survives the lenient pipeline untouched.
    let lenient = parse_csv_lenient(&write_csv_raw(&raw)).expect("header present");
    assert!(lenient.report.is_clean());
    assert_eq!(lenient.trace.periods().len(), trace.periods().len());
}
