//! Cross-crate integration for the bulk-ingest pipeline: the model cache
//! must be a pure accelerator (hit paths byte-identical to cold learns),
//! and the binary trace format must round-trip every workload generator
//! losslessly — including traces recovered from fault-injected captures
//! via the repair pipeline.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use bbmg::core::{learn, CacheHit, LearnOptions, ModelCache};
use bbmg::sim::{inject_faults, FaultConfig};
use bbmg::trace::{parse_btrace, parse_csv, repair, write_btrace, write_csv, Trace};
use bbmg::workloads::random::{random_trace, RandomModelConfig};
use bbmg::workloads::{gm, simple};

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bbmg-corpus-it-{}-{name}", std::process::id()))
}

fn bounded_workload() -> Trace {
    random_trace(
        &RandomModelConfig {
            tasks: 8,
            edge_probability: 0.3,
            max_in_degree: 3,
            disjunction_probability: 0.5,
            seed: 41,
        },
        10,
        17,
    )
    .expect("simulation succeeds")
    .trace
}

/// Learns `trace` through a fresh cache with `options` and returns the (miss, full-hit, prefix-seeded) results.
fn cache_triple(
    name: &str,
    trace: &Trace,
    options: LearnOptions,
) -> (
    bbmg::core::CachedLearn,
    bbmg::core::CachedLearn,
    bbmg::core::CachedLearn,
) {
    let dir = temp_dir(name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut cache = ModelCache::open(&dir, NonZeroUsize::new(8).unwrap()).unwrap();

    let cold = cache.learn(trace, options).unwrap();
    assert_eq!(cold.hit, CacheHit::Miss, "{name}: first learn must miss");
    let full = cache.learn(trace, options).unwrap();
    assert_eq!(full.hit, CacheHit::Full, "{name}: second learn must hit");

    // A fresh cache primed with only the prefix must seed the suffix.
    let dir2 = temp_dir(&format!("{name}-prefix"));
    let _ = std::fs::remove_dir_all(&dir2);
    let mut primed = ModelCache::open(&dir2, NonZeroUsize::new(8).unwrap()).unwrap();
    let n = trace.periods().len();
    primed.learn(&trace.truncated(n - 2), options).unwrap();
    let seeded = primed.learn(trace, options).unwrap();
    assert_eq!(
        seeded.hit,
        CacheHit::Prefix { periods: n - 2 },
        "{name}: primed cache must seed the prefix"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
    (cold, full, seeded)
}

#[test]
fn cache_paths_are_identical_to_cold_learn() {
    let trace = bounded_workload();
    let options = LearnOptions::bounded(32);
    let baseline = learn(&trace, options).unwrap();
    let (cold, full, seeded) = cache_triple("bounded", &trace, options);
    for (path, learned) in [("cold", &cold), ("full", &full), ("prefix", &seeded)] {
        assert_eq!(
            baseline.hypotheses(),
            learned.result.hypotheses(),
            "{path} path diverged from the cold learn"
        );
        assert_eq!(
            baseline.stats(),
            learned.result.stats(),
            "{path} path reported different stats"
        );
    }
}

/// Every generator's trace, including one recovered from a fault-injected
/// capture through the repair pipeline (raw → repair → trace).
fn generator_traces() -> Vec<(&'static str, Trace)> {
    let gm_trace = gm::gm_trace(2007).expect("case study simulates").trace;
    let (raw, log) = inject_faults(&gm_trace, &FaultConfig::uniform(0.05, 9));
    assert!(
        !log.faults.is_empty(),
        "fault injection must corrupt something"
    );
    let repaired = repair(&raw).trace;
    assert!(
        !repaired.periods().is_empty(),
        "repair must salvage periods"
    );
    vec![
        ("figure_2", simple::figure_2_trace()),
        ("gm_case_study", gm_trace),
        ("bounded_random", bounded_workload()),
        ("fault_injected_repaired", repaired),
    ]
}

#[test]
fn binary_format_round_trips_every_generator() {
    for (name, trace) in generator_traces() {
        let bytes = write_btrace(&trace);
        let back = parse_btrace(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Binary preserves the interning order exactly, so the decoded
        // trace equals the original — universe, periods, timestamps, all.
        assert_eq!(back, trace, "{name}: btrace round trip must be lossless");
    }
}

#[test]
fn csv_and_binary_agree_on_every_generator() {
    for (name, trace) in generator_traces() {
        let csv = write_csv(&trace);
        // CSV infers the universe from first-appearance order, which may
        // differ from the simulator's interning order, so the canonical
        // form is one CSV round trip in — after that the two formats must
        // agree byte-for-byte in both directions.
        let canonical = parse_csv(&csv).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            write_csv(&canonical),
            csv,
            "{name}: CSV re-serialization must be byte-identical"
        );
        let via_binary =
            parse_btrace(&write_btrace(&canonical)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            via_binary, canonical,
            "{name}: CSV→binary→parse must preserve the trace"
        );
        assert_eq!(
            canonical.stats(),
            trace.stats(),
            "{name}: reinterning must not change trace statistics"
        );
    }
}
