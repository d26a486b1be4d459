//! Measures the packed-lattice kernels against their scalar per-cell
//! equivalents and the learner's wall time across thread counts, and
//! writes the `BENCH_learner.json` artifact.
//!
//! Three sections:
//!
//! * **kernels** — `leq`, `join`, and `weight` on packed 24-task
//!   matrices: a scalar reference that walks every cell through
//!   [`DependencyValue`]'s table ops (the way the pre-packed store did)
//!   against the packed word kernels.
//! * **pool** — a cold worker-pool spin-up (spawn threads, dispatch,
//!   collect) against a warm dispatch to already-parked workers, the
//!   per-fan-out cost the persistent pool removed from the hot path.
//! * **workloads** — full learn runs at 1, 2, and 4 threads. Results
//!   are byte-identical at every thread count (see
//!   `tests/determinism.rs`); only the wall time may differ, and only
//!   when the host actually has spare cores — `cpu_threads` records
//!   what this machine offered, so a 1-core container's flat numbers
//!   read as what they are (the pool's `provision` clamp keeps them
//!   within noise of the 1-thread row). The thread counts are timed
//!   round-robin, one run each per iteration, so a stretch of host
//!   load lands on every row instead of on one.
//!
//! The artifact is written only if it meets the `bbmg_bench::rules`
//! floors, among them the parallel regression guard: every multi-thread
//! row's best iteration within 0.95x of the 1-thread median.
//!
//! Run with: `cargo run --release --example learner_throughput`
//! (pass `--quick` for the CI smoke variant: fewer iterations, smaller
//! workloads).
//!
//! [`DependencyValue`]: bbmg::lattice::DependencyValue

use std::sync::{Arc, Barrier};

use bbmg::core::pool::WorkerPool;
use bbmg::core::{learn, LearnOptions};
use bbmg::lattice::{DependencyFunction, DependencyValue, TaskId, TaskUniverse};
use bbmg::obs::json::Json;
use bbmg::sim::{SimConfig, Simulator};
use bbmg::trace::{EventKind, Timestamp, Trace, TraceBuilder};
use bbmg::workloads::random::{random_model, RandomModelConfig};
use bbmg_bench::runner::{cpu_threads, median, round, round_robin, time_micros, write_artifact};

/// Kernel-section matrix size: 24 tasks = 576 cells = 28 packed words.
const KERNEL_TASKS: usize = 24;

/// Worker count for the pool section's cold-vs-warm comparison.
const POOL_WORKERS: usize = 3;

/// Dispatches per timed pool sample.
const POOL_DISPATCHES: usize = 50;

fn iterations(quick: bool) -> usize {
    if quick {
        3
    } else {
        7
    }
}

/// Inner repetitions per timed sample, so sub-microsecond kernels
/// produce measurable wall times.
fn kernel_reps(quick: bool) -> usize {
    if quick {
        500
    } else {
        5_000
    }
}

/// Deterministic pseudo-random matrix (splitmix64 over the cell index,
/// reduced to one of the seven lattice values).
fn scrambled_function(tasks: usize, seed: u64) -> DependencyFunction {
    const VALUES: [DependencyValue; 7] = [
        DependencyValue::Parallel,
        DependencyValue::Determines,
        DependencyValue::DependsOn,
        DependencyValue::Mutual,
        DependencyValue::MayDetermine,
        DependencyValue::MayDependOn,
        DependencyValue::MayMutual,
    ];
    let mut d = DependencyFunction::bottom(tasks);
    for i in 0..tasks {
        for j in 0..tasks {
            if i == j {
                continue;
            }
            let mut x =
                seed.wrapping_add(((i * tasks + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            d.set(
                TaskId::from_index(i),
                TaskId::from_index(j),
                VALUES[(x % 7) as usize],
            );
        }
    }
    d
}

/// Scalar reference for `leq`: every cell through the table op.
fn scalar_leq(a: &DependencyFunction, b: &DependencyFunction) -> bool {
    let n = a.task_count();
    for i in 0..n {
        for j in 0..n {
            let (t1, t2) = (TaskId::from_index(i), TaskId::from_index(j));
            if !a.value(t1, t2).leq(b.value(t1, t2)) {
                return false;
            }
        }
    }
    true
}

/// Scalar reference for `join`: cell-by-cell table joins into a fresh
/// matrix.
fn scalar_join(a: &DependencyFunction, b: &DependencyFunction) -> DependencyFunction {
    let n = a.task_count();
    let mut out = DependencyFunction::bottom(n);
    for i in 0..n {
        for j in 0..n {
            let (t1, t2) = (TaskId::from_index(i), TaskId::from_index(j));
            out.set(t1, t2, a.value(t1, t2).join(b.value(t1, t2)));
        }
    }
    out
}

/// Scalar reference for `weight`: sum of per-cell distances.
fn scalar_weight(a: &DependencyFunction) -> u64 {
    let n = a.task_count();
    let mut total = 0;
    for i in 0..n {
        for j in 0..n {
            total += a
                .value(TaskId::from_index(i), TaskId::from_index(j))
                .distance();
        }
    }
    total
}

/// One period with `width` possible senders and receivers per message:
/// the exact algorithm's branching fan-out crosses the learner's
/// parallel threshold.
fn blowup_trace(width: usize, messages: usize) -> Trace {
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
        let at = 20 + 2 * m as u64;
        b.message(Timestamp::new(at), Timestamp::new(at + 1))
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

/// Seeded random simulated workload for the bounded learner.
fn random_workload(tasks: usize, periods: usize) -> Trace {
    let model = random_model(&RandomModelConfig {
        tasks,
        edge_probability: 0.3,
        seed: 2007,
        ..RandomModelConfig::default()
    });
    let config = SimConfig {
        periods,
        period_length: 100_000,
        seed: 2007,
        ..SimConfig::default()
    };
    Simulator::new(&model, config)
        .run()
        .expect("fixed workload simulates")
        .trace
}

struct KernelRow {
    name: &'static str,
    scalar_median_micros: u64,
    packed_median_micros: u64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.scalar_median_micros as f64 / self.packed_median_micros.max(1) as f64
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = iterations(quick);
    let reps = kernel_reps(quick);
    let cpu_threads = cpu_threads();

    // --- kernels -------------------------------------------------------
    let a = scrambled_function(KERNEL_TASKS, 1);
    let b = scrambled_function(KERNEL_TASKS, 2);
    let ab = a.join(&b); // a ⊑ ab, so leq walks the whole matrix
    assert!(
        scalar_leq(&a, &ab) && a.leq(&ab),
        "kernel inputs must agree"
    );
    assert_eq!(scalar_join(&a, &b), ab, "kernel inputs must agree");
    assert_eq!(scalar_weight(&a), a.weight(), "kernel inputs must agree");

    let kernels = vec![
        KernelRow {
            name: "leq",
            scalar_median_micros: median(&time_micros(iters, || {
                for _ in 0..reps {
                    std::hint::black_box(scalar_leq(
                        std::hint::black_box(&a),
                        std::hint::black_box(&ab),
                    ));
                }
            })),
            packed_median_micros: median(&time_micros(iters, || {
                for _ in 0..reps {
                    std::hint::black_box(std::hint::black_box(&a).leq(std::hint::black_box(&ab)));
                }
            })),
        },
        KernelRow {
            name: "join",
            scalar_median_micros: median(&time_micros(iters, || {
                for _ in 0..reps {
                    std::hint::black_box(scalar_join(
                        std::hint::black_box(&a),
                        std::hint::black_box(&b),
                    ));
                }
            })),
            packed_median_micros: median(&time_micros(iters, || {
                for _ in 0..reps {
                    std::hint::black_box(std::hint::black_box(&a).join(std::hint::black_box(&b)));
                }
            })),
        },
        KernelRow {
            name: "weight",
            scalar_median_micros: median(&time_micros(iters, || {
                for _ in 0..reps {
                    std::hint::black_box(scalar_weight(std::hint::black_box(&a)));
                }
            })),
            packed_median_micros: median(&time_micros(iters, || {
                for _ in 0..reps {
                    std::hint::black_box(std::hint::black_box(&a).weight());
                }
            })),
        },
    ];

    println!(
        "packed kernels vs scalar reference ({KERNEL_TASKS}-task matrices, {reps} reps, median of {iters}):"
    );
    println!(
        "{:<8} {:>12} {:>12} {:>8}",
        "kernel", "scalar (us)", "packed (us)", "speedup"
    );
    for row in &kernels {
        println!(
            "{:<8} {:>12} {:>12} {:>7.1}x",
            row.name,
            row.scalar_median_micros,
            row.packed_median_micros,
            row.speedup()
        );
    }

    // --- pool ----------------------------------------------------------
    // Cold: spin a fresh pool up to POOL_WORKERS and run POOL_DISPATCHES
    // scatters through it — what every fan-out paid when workers were
    // scoped-spawned per call. Warm: the same dispatches against a pool
    // whose workers are already parked. Cold pools leak their parked
    // workers for the life of this process (the pool has no shutdown —
    // learners share one global pool forever), so cold is sampled once
    // per iteration, not per rep.
    // Every job rendezvouses on a barrier so a dispatch only completes
    // once all POOL_WORKERS workers have actually woken and run a job.
    // Without the rendezvous the caller drains trivial jobs inline
    // before freshly spawned workers are ever scheduled, and "cold"
    // never pays for the spawn it is supposed to measure.
    let rendezvous = Arc::new(Barrier::new(POOL_WORKERS + 1));
    let pool_job_sets = || -> Vec<Vec<_>> {
        (0..POOL_DISPATCHES)
            .map(|_| {
                (0..POOL_WORKERS + 1)
                    .map(|_| {
                        let rendezvous = Arc::clone(&rendezvous);
                        move || {
                            rendezvous.wait();
                        }
                    })
                    .collect()
            })
            .collect()
    };
    let cold_spawn = median(&time_micros(iters, || {
        let pool = WorkerPool::new();
        pool.ensure_workers(POOL_WORKERS);
        for jobs in pool_job_sets() {
            std::hint::black_box(pool.scatter(jobs));
        }
    }));
    let warm_pool = WorkerPool::new();
    warm_pool.ensure_workers(POOL_WORKERS);
    let warm_dispatch = median(&time_micros(iters, || {
        for jobs in pool_job_sets() {
            std::hint::black_box(warm_pool.scatter(jobs));
        }
    }));
    let pool_speedup = cold_spawn as f64 / warm_dispatch.max(1) as f64;
    println!(
        "\nworker pool ({POOL_WORKERS} workers, {POOL_DISPATCHES} dispatches): cold {cold_spawn} us, warm {warm_dispatch} us, {pool_speedup:.1}x"
    );

    // --- workloads -----------------------------------------------------
    let thread_counts = [1usize, 2, 4];
    let (blowup_width, blowup_messages) = if quick { (6, 2) } else { (8, 2) };
    let exact_trace = blowup_trace(blowup_width, blowup_messages);
    let bounded_trace = random_workload(10, if quick { 10 } else { 30 });
    let workloads = [
        (
            "exact_blowup",
            round_robin(iters, &thread_counts, |_, &threads| {
                learn(
                    &exact_trace,
                    LearnOptions::exact().with_parallelism(threads),
                )
                .expect("learns");
            }),
        ),
        (
            "bounded_random",
            round_robin(iters, &thread_counts, |_, &threads| {
                learn(
                    &bounded_trace,
                    LearnOptions::bounded(64).with_parallelism(threads),
                )
                .expect("learns");
            }),
        ),
    ];

    println!("\nlearner wall time by thread count (median of {iters}, {cpu_threads} CPU thread(s) available):");
    let mut workload_docs = Vec::new();
    for (name, rows) in &workloads {
        let base = median(&rows[0]).max(1);
        let mut row_docs = Vec::new();
        for (threads, micros) in thread_counts.iter().zip(rows) {
            let med = median(micros);
            let speedup = base as f64 / med.max(1) as f64;
            println!("{name:<16} threads={threads} {med:>10} us  {speedup:>5.2}x vs 1 thread");
            row_docs.push(Json::object([
                ("threads", (*threads).into()),
                ("median_micros", med.into()),
                ("micros", micros.clone().into()),
                ("speedup_vs_1", round(speedup, 2).into()),
            ]));
        }
        workload_docs.push(Json::object([
            ("name", (*name).into()),
            ("threads", row_docs.into()),
        ]));
    }

    let document = Json::object([
        ("schema", bbmg_bench::BENCH_LEARNER_SCHEMA.into()),
        ("cpu_threads", cpu_threads.into()),
        ("iterations", iters.into()),
        ("quick", quick.into()),
        (
            "kernels",
            kernels
                .iter()
                .map(|row| {
                    Json::object([
                        ("name", row.name.into()),
                        ("scalar_median_micros", row.scalar_median_micros.into()),
                        ("packed_median_micros", row.packed_median_micros.into()),
                        ("speedup", round(row.speedup(), 2).into()),
                    ])
                })
                .collect::<Vec<_>>()
                .into(),
        ),
        (
            "pool",
            Json::object([
                ("workers", POOL_WORKERS.into()),
                ("dispatches", POOL_DISPATCHES.into()),
                ("cold_spawn_micros", cold_spawn.into()),
                ("warm_dispatch_micros", warm_dispatch.into()),
                ("speedup", round(pool_speedup, 2).into()),
            ]),
        ),
        ("workloads", workload_docs.into()),
    ]);
    write_artifact("BENCH_learner.json", &document)?;
    println!("\nwrote BENCH_learner.json (parallel regression guard and floors passed)");
    Ok(())
}
