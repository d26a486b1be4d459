//! `corpus_mixed`: a directory of GM-shaped `.csv` and `.btrace` files
//! resolved through `ModelCache` at a fixed bound.
//!
//! The harness pre-populates the cache with the models of [`BASES`] traces
//! and of each of their prefixes. Of every
//! block of [`BLOCK`] files, [`DUPLICATES`] are copies of a cached trace
//! (full hits), [`EXTENSIONS`] extend a cached trace by [`EXTRA_PERIODS`]
//! periods (prefix hits) and the rest are new (misses). Full hits cost a
//! file parse, a fingerprint chain and a checkpoint load, so p50 is the
//! trace and cache layers; misses learn 27 periods and write a fsynced
//! checkpoint, so p90 is the learner plus checkpoint I/O.

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bbmg_core::{
    antichain_fingerprint, trace_fingerprints, CacheHit, IncrementalLearner, LearnOptions,
    LearnResult, Learner, ModelCache, Observed,
};
use bbmg_lattice::TaskUniverse;
use bbmg_trace::{
    is_btrace, parse_btrace, parse_csv, write_btrace, write_csv, EventKind, MessageId, Timestamp,
    Trace, TraceBuilder,
};
use bbmg_workloads::gm::{gm_config, gm_trace};

use crate::layers::{Layers, PeriodClock};
use crate::stats::{median, ms, timed};
use crate::{mix_seed, setup_due, Pass, Workload};

/// The bound every file is learned at.
pub const BOUND: usize = 8;
/// Cached traces the harness pre-populates.
const BASES: usize = 8;
/// Files per block, and the block's mix.
const BLOCK: usize = 50;
const DUPLICATES: usize = 32;
const EXTENSIONS: usize = 9;
/// Periods an extension adds to its cached trace.
const EXTRA_PERIODS: usize = 6;
/// Blocks per pass (100 files).
const BLOCKS: usize = 2;
/// Cache capacity; large enough that nothing is evicted.
const CAPACITY: usize = 1 << 14;
/// `ModelCache::open` repetitions per pass, spread over it (a pass takes
/// 1.5-3 s).
const SETUP_REPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A copy of base `k`.
    Duplicate(usize),
    /// Base `k` plus extra periods.
    Extension(usize),
    /// A trace nobody cached.
    New,
}

struct File {
    path: PathBuf,
    kind: Kind,
    /// For copies and extensions of a cached trace: the model fingerprint
    /// of a cold, uncached `Learner` run over the file as loaded.
    expected: Option<u64>,
}

pub struct Corpus {
    files: Vec<File>,
    seed_dir: PathBuf,
    cache_dir: PathBuf,
    /// Periods of a cached trace, which a prefix hit must resume at.
    base_periods: usize,
}

fn options() -> LearnOptions {
    LearnOptions::bounded(BOUND)
}

/// A GM trace in the form a CSV round trip gives it (tasks interned in
/// order of first appearance), so CSV and btrace copies fingerprint alike.
fn canonical_gm(seed: u64, periods: usize) -> Result<Trace, String> {
    let mut config = gm_config(seed);
    config.periods = periods;
    let model = bbmg_workloads::gm::gm_model();
    let trace = bbmg_sim::Simulator::new(&model, config)
        .run()
        .map_err(|e| format!("gm simulation: {e}"))?
        .trace;
    parse_csv(&write_csv(&trace)).map_err(|e| format!("csv round trip: {e}"))
}

/// `base` followed by `donor`'s periods, shifted in time and with fresh
/// message ids, over `base`'s universe.
fn extend(base: &Trace, donor: &Trace) -> Result<Trace, String> {
    let universe: &TaskUniverse = base.universe();
    let mut builder = TraceBuilder::new(universe.clone());
    let mut messages = 0usize;
    let err = |e: bbmg_trace::TraceError| format!("extension: {e}");
    for period in base.periods() {
        builder.begin_period();
        for event in period.events() {
            builder.event(event.time, event.kind).map_err(err)?;
        }
        builder.end_period().map_err(err)?;
        messages += period.messages().len();
    }
    let shift = base
        .periods()
        .last()
        .and_then(|p| p.events().last())
        .map_or(0, |e| e.time.micros() + 1);
    let name = |t| {
        universe
            .lookup(donor.universe().name(t))
            .ok_or_else(|| format!("task {} not in base universe", donor.universe().name(t)))
    };
    for period in donor.periods() {
        builder.begin_period();
        let lowest = period
            .messages()
            .iter()
            .map(|w| w.id.index())
            .min()
            .unwrap_or(0);
        let first = messages;
        for event in period.events() {
            let renumber = |m: MessageId| MessageId::from_index(first + m.index() - lowest);
            let kind = match event.kind {
                EventKind::TaskStart(t) => EventKind::TaskStart(name(t)?),
                EventKind::TaskEnd(t) => EventKind::TaskEnd(name(t)?),
                EventKind::MessageRise(m) => EventKind::MessageRise(renumber(m)),
                EventKind::MessageFall(m) => EventKind::MessageFall(renumber(m)),
            };
            builder
                .event(Timestamp::new(event.time.micros() + shift), kind)
                .map_err(err)?;
        }
        builder.end_period().map_err(err)?;
        messages += period.messages().len();
    }
    Ok(builder.finish())
}

/// Writes one corpus file and syncs it, so no write-back of the generated
/// corpus is left for the timed checkpoint fsyncs to pay for.
fn write(path: &Path, trace: &Trace, binary: bool) -> Result<(), String> {
    let bytes = if binary {
        write_btrace(trace)
    } else {
        write_csv(trace).into_bytes()
    };
    let written = std::fs::File::create(path).and_then(|mut file| {
        std::io::Write::write_all(&mut file, &bytes)?;
        file.sync_all()
    });
    written.map_err(|e| format!("{}: {e}", path.display()))
}

pub fn prepare(seed: u64, dir: &Path) -> Result<Corpus, String> {
    let base_periods = gm_config(0).periods;
    let bases = (0..BASES)
        .map(|k| canonical_gm(mix_seed(seed, k as u64), base_periods))
        .collect::<Result<Vec<_>, _>>()?;

    let mut kinds = Vec::with_capacity(BLOCKS * BLOCK);
    for i in 0..BLOCKS * BLOCK {
        let slot = i % BLOCK;
        kinds.push(if slot < DUPLICATES {
            Kind::Duplicate(i % BASES)
        } else if slot < DUPLICATES + EXTENSIONS {
            Kind::Extension(i % BASES)
        } else {
            Kind::New
        });
    }
    // Deterministic Fisher-Yates shuffle so hits, prefix hits and misses
    // interleave.
    let mut state = mix_seed(seed, 0xC0FF_EE00);
    for i in (1..kinds.len()).rev() {
        state = mix_seed(state, i as u64);
        kinds.swap(i, (state % (i as u64 + 1)) as usize);
    }

    // Cold references, learned without the cache or checkpoints; dropped
    // once every file's expected fingerprint is known.
    let mut references = Vec::with_capacity(BASES);
    for trace in &bases {
        let mut learner = Learner::new(trace.task_count(), options());
        for period in trace.periods() {
            learner.observe(period).map_err(|e| e.to_string())?;
        }
        references.push(learner);
    }

    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).map_err(|e| e.to_string())?;
    let mut files = Vec::with_capacity(kinds.len());
    for (i, kind) in kinds.into_iter().enumerate() {
        let binary = i % 2 == 1;
        let path = corpus_dir.join(format!(
            "capture_{i:04}.{}",
            if binary { "btrace" } else { "csv" }
        ));
        let item_seed = mix_seed(seed, 1_000_000 + i as u64);
        let base = match kind {
            Kind::Duplicate(k) => {
                write(&path, &bases[k], binary)?;
                Some(k)
            }
            Kind::Extension(k) => {
                let donor = gm_trace(item_seed)
                    .map_err(|e| format!("gm simulation: {e}"))?
                    .trace
                    .truncated(EXTRA_PERIODS);
                write(&path, &extend(&bases[k], &donor)?, binary)?;
                Some(k)
            }
            Kind::New => {
                write(&path, &canonical_gm(item_seed, base_periods)?, binary)?;
                None
            }
        };
        // The cold reference continues the base's cold learner over the
        // rest of the file, which is a cold learn of the whole file once
        // the file's first periods are checked to be the base's.
        let expected = match base {
            Some(k) => {
                let (mut parse, mut bytes) = (Duration::ZERO, 0);
                let trace = load(&path, &mut parse, &mut bytes)?;
                if trace.periods()[..base_periods] != *bases[k].periods() {
                    return Err(format!("{}: does not extend its base", path.display()));
                }
                let mut cold = references[k].clone();
                for period in &trace.periods()[base_periods..] {
                    cold.observe(period).map_err(|e| e.to_string())?;
                }
                Some(antichain_fingerprint(cold.into_result().hypotheses()))
            }
            None => None,
        };
        files.push(File {
            path,
            kind,
            expected,
        });
    }

    // The pre-populated cache, copied fresh before every pass.
    let seed_dir = dir.join("cache_seed");
    let mut cache = ModelCache::open(&seed_dir, NonZeroUsize::new(CAPACITY).expect("nonzero"))
        .map_err(|e| e.to_string())?;
    // The model of every prefix of every base, as a client that
    // checkpoints a capture period by period leaves them. Files resolve
    // as with only the full models cached (a copy is a full hit, an
    // extension resumes at its base's full length), and set-up verifies
    // BASES x 27 GM-scale entries instead of BASES.
    for base in &bases {
        let fingerprints = trace_fingerprints(base, &options());
        let mut learner = IncrementalLearner::new(base.task_count(), options());
        for (k, period) in base.periods().iter().enumerate() {
            learner.push_period(period).map_err(|e| e.to_string())?;
            cache
                .insert(fingerprints.prefix(k + 1), &learner.checkpoint())
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(Corpus {
        files,
        seed_dir,
        cache_dir: dir.join("cache"),
        base_periods,
    })
}

fn load(path: &Path, parse: &mut Duration, bytes: &mut u64) -> Result<Trace, String> {
    let data = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    *bytes += data.len() as u64;
    let (trace, took) = timed(|| {
        if is_btrace(&data) {
            parse_btrace(&data).map_err(|e| e.to_string())
        } else {
            std::str::from_utf8(&data)
                .map_err(|e| e.to_string())
                .and_then(|text| parse_csv(text).map_err(|e| e.to_string()))
        }
    });
    *parse += took;
    trace.map_err(|e| format!("{}: {e}", path.display()))
}

/// `ModelCache::learn` split into its layers, each call timed alone. It
/// mirrors `ModelCache::learn` and its `drive` step call for call: look up,
/// resume a full or prefix hit, push the remaining periods, insert the
/// completed model unless the budget stopped it, finish. `ModelCache::learn`
/// degrades an entry that fails to resume to a miss; every entry here was
/// written by this run, so a failed resume is an error instead.
fn learn_traced(
    cache: &mut ModelCache,
    trace: &Trace,
    layers: &mut Layers,
) -> Result<(LearnResult, CacheHit), String> {
    let options = options();
    let (fingerprints, took) = timed(|| trace_fingerprints(trace, &options));
    let (hit, took_classify) = timed(|| cache.classify(&fingerprints));
    layers.cache_lookup += took + took_classify;
    let n = trace.periods().len();
    layers.periods_total += n as u64;

    let (key, start) = match hit {
        CacheHit::Full => (Some(fingerprints.full()), n),
        CacheHit::Prefix { periods } => (Some(fingerprints.prefix(periods)), periods),
        CacheHit::Miss => (None, 0),
    };
    let mut learner = match key {
        Some(key) => {
            let (learner, took) = timed(|| {
                cache
                    .take_checkpoint(key)
                    .ok_or_else(|| format!("cache entry {key:016x} did not load"))
                    .and_then(|c| IncrementalLearner::resume(c).map_err(|e| e.to_string()))
            });
            layers.cache_resume += took;
            learner?
        }
        None => IncrementalLearner::new(trace.task_count(), options),
    };
    match hit {
        CacheHit::Full => layers.full_hits += 1,
        CacheHit::Prefix { .. } => layers.prefix_hits += 1,
        CacheHit::Miss => layers.misses += 1,
    }
    layers.periods_reused += start as u64;
    if hit == CacheHit::Full {
        return Ok((learner.finish(), hit));
    }

    let base = learner.stats().clone();
    let mut stopped = false;
    for period in &trace.periods()[start..] {
        let observed = learner
            .push_period_with(period, &mut PeriodClock::new(layers))
            .map_err(|e| e.to_string())?;
        if let Observed::BudgetStopped { .. } = observed {
            stopped = true;
            break;
        }
    }
    if !stopped {
        let (inserted, took) = timed(|| cache.insert(fingerprints.full(), &learner.checkpoint()));
        layers.cache_insert += took;
        inserted.map_err(|e| e.to_string())?;
        layers.checkpoint_bytes +=
            std::fs::metadata(cache.entry_path(fingerprints.full())).map_or(0, |m| m.len());
    }
    let result = learner.finish();
    layers.add_stats(result.stats(), Some(&base));
    Ok((result, hit))
}

/// One set-up repetition: `ModelCache::open` over `dir`, which holds the
/// pre-populated entries.
fn open_cache(dir: &Path, pass: &mut Pass) -> Result<ModelCache, String> {
    let capacity = NonZeroUsize::new(CAPACITY).expect("nonzero");
    let (cache, took) = timed(|| ModelCache::open(dir, capacity));
    pass.record_setup(took.as_secs_f64());
    cache.map_err(|e| e.to_string())
}

impl Corpus {
    /// Whether a file's model is right: every file must resolve as
    /// planned, and hit and prefix models must equal a cold learn of the
    /// same file.
    fn check(&self, file: &File, result: &LearnResult, hit: CacheHit) -> bool {
        let fingerprint = antichain_fingerprint(result.hypotheses());
        let planned = match (file.kind, hit) {
            (Kind::Duplicate(_), CacheHit::Full) | (Kind::New, CacheHit::Miss) => true,
            (Kind::Extension(_), CacheHit::Prefix { periods }) => periods == self.base_periods,
            _ => false,
        };
        planned && !result.hypotheses().is_empty() && file.expected.is_none_or(|e| e == fingerprint)
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

impl Workload for Corpus {
    fn pass(&mut self, mut layers: Option<&mut Layers>) -> Result<Pass, String> {
        let mut pass = Pass::default();
        copy_dir(&self.seed_dir, &self.cache_dir)?;
        let mut cache = open_cache(&self.cache_dir, &mut pass)?;
        let mut parse = Duration::ZERO;
        let mut bytes = 0u64;
        for (i, file) in self.files.iter().enumerate() {
            if i > 0 && setup_due(i, self.files.len(), SETUP_REPS) {
                // The pristine copy: the working directory has grown by now.
                open_cache(&self.seed_dir, &mut pass)?;
            }
            let start = Instant::now();
            let learned = load(&file.path, &mut parse, &mut bytes).and_then(|trace| {
                match layers.as_deref_mut() {
                    Some(layers) => learn_traced(&mut cache, &trace, layers),
                    None => cache
                        .learn(&trace, options())
                        .map(|cached| (cached.result, cached.hit))
                        .map_err(|e| e.to_string()),
                }
            });
            let took = start.elapsed();
            pass.latencies_ms.push(ms(took));

            pass.attempted += 1;
            match learned {
                Ok((result, hit)) => {
                    if !self.check(file, &result, hit) {
                        pass.failed += 1;
                    }
                    pass.fingerprints
                        .push(antichain_fingerprint(result.hypotheses()));
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    pass.failed += 1;
                    pass.fingerprints.push(0);
                }
            }
        }
        if let Some(layers) = layers {
            layers.parse = parse;
            layers.parse_bytes = bytes;
            layers.cache_open = Duration::from_secs_f64(median(&pass.setup_s));
        }
        Ok(pass)
    }
}
