//! Content-addressed model cache keyed by canonical trace fingerprints.
//!
//! The ROADMAP's corpus workload re-learns the same behaviour thousands of
//! times: bulk trace directories are dominated by exact duplicates (the same
//! run logged twice, or the same CSV with rows shuffled within a period) and
//! by *prefix extensions* (yesterday's trace plus today's periods). Learning
//! is deterministic — the same periods in the same order always produce the
//! same antichain — so a learned model is a pure function of
//! `(trace, options)` and can be content-addressed.
//!
//! [`ModelCache`] stores [`Checkpoint`] documents (`bbmg-ckpt/1`, the same
//! sealed format `bbmg learn --checkpoint` writes) in a capacity-bounded
//! directory, keyed by a *fingerprint chain* over the trace:
//!
//! * `h_0` digests the task universe — the task *names in interning
//!   order*, because a cached model's `DependencyFunction`s are indexed by
//!   `TaskId` and are only reusable when the lookup trace assigns the same
//!   ids to the same names — and the [`LearnOptions`] fields that affect
//!   the result: everything except `parallelism`, which is byte-identical
//!   by construction (DESIGN.md §11).
//! * `h_k = mix(h_{k-1}, d_k)` where `d_k` digests period `k`'s events as a
//!   *sorted multiset* of per-event hashes (subject name + time + kind).
//!   Within a period the only reordering the strict parsers accept is a
//!   permutation of equal-timestamp rows, and the multiset digest makes
//!   exactly those equivalent CSVs hit.
//!
//! A trace's *full* fingerprint is `h_n`; every `h_k` with `k < n` is a
//! prefix fingerprint. [`ModelCache::learn`] resolves a full hit by
//! resuming the cached checkpoint and finishing (no periods pushed), a
//! prefix hit by resuming at the divergence point and pushing only the
//! suffix, and a miss by learning cold. All three produce byte-identical
//! antichains and statistics — the incremental invariant
//! (`checkpoint`/`resume` at any split matches the uninterrupted run) is
//! exactly what makes prefix seeding sound.
//!
//! Eviction is LRU over an in-memory clock; reads complete before any
//! insert can evict, so an entry is never removed mid-read. Corrupt or
//! mismatched entries (a torn write, a foreign file) are dropped and
//! re-learned rather than trusted: the cache is an accelerator, never an
//! authority.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use bbmg_obs::json;
use bbmg_obs::NoopObserver;
use bbmg_trace::{EventKind, Trace};

use crate::checkpoint::{checksum, Checkpoint, CheckpointError};
use crate::error::LearnError;
use crate::incremental::IncrementalLearner;
use crate::options::LearnOptions;
use crate::LearnResult;

/// Schema tag of the aggregate corpus report emitted by `bbmg corpus`.
///
/// The report is a single JSON document: per-trace file name, period count,
/// model fingerprint and cache-hit class, plus aggregate dedup and
/// throughput figures. `bbmg audit` deep-verifies it (DESIGN.md §16) and
/// cross-checks hit entries against sibling checkpoint documents.
pub const CORPUS_SCHEMA: &str = "bbmg-corpus/1";

/// splitmix64-style finalizing mix of an accumulator and one value.
fn mix(seed: u64, value: u64) -> u64 {
    let mut h = seed ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Digest of the result-relevant [`LearnOptions`] fields. `parallelism` is
/// deliberately excluded: results are byte-identical at every thread count,
/// so a model learned at `-j4` must hit for a `-j1` lookup.
fn options_digest(options: &LearnOptions) -> u64 {
    let mut h = mix(
        0x006F_7074_696F_6E73,
        options.bound.map_or(0, NonZeroUsize::get) as u64,
    );
    h = mix(h, options.merge_assumptions as u64);
    h = mix(h, u64::from(options.timing_filter));
    h = mix(h, u64::from(options.history_aware));
    h = mix(h, options.set_limit.map_or(0, NonZeroUsize::get) as u64);
    h = mix(h, options.on_inconsistent as u64);
    h = mix(
        h,
        options.budget.max_steps.map_or(0, NonZeroUsize::get) as u64,
    );
    let wall = options
        .budget
        .max_wall_clock
        .map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64);
    mix(h, wall)
}

/// The canonical fingerprint chain of a `(trace, options)` pair.
///
/// `chain[k]` identifies the first `k` periods; `chain[n]` (the last
/// element) is the full-trace fingerprint under which the finished model is
/// cached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFingerprints {
    chain: Vec<u64>,
}

impl TraceFingerprints {
    /// Number of periods covered by the full fingerprint.
    #[must_use]
    pub fn periods(&self) -> usize {
        self.chain.len() - 1
    }

    /// The full-trace fingerprint (cache key of the finished model).
    #[must_use]
    pub fn full(&self) -> u64 {
        self.chain[self.chain.len() - 1]
    }

    /// The fingerprint of the first `periods` periods.
    ///
    /// # Panics
    ///
    /// If `periods` exceeds the trace's period count.
    #[must_use]
    pub fn prefix(&self, periods: usize) -> u64 {
        self.chain[periods]
    }
}

/// Computes the canonical fingerprint chain for a trace under the given
/// options (see the module docs for the derivation).
#[must_use]
pub fn trace_fingerprints(trace: &Trace, options: &LearnOptions) -> TraceFingerprints {
    let universe = trace.universe();
    let mut h = mix(0x6262_6D67_2D63_6163, universe.len() as u64);
    for id in universe.ids() {
        h = mix(h, checksum(universe.name(id).as_bytes()));
    }
    h = mix(h, options_digest(options));

    let mut chain = Vec::with_capacity(trace.periods().len() + 1);
    chain.push(h);
    let mut event_digests = Vec::new();
    for period in trace.periods() {
        event_digests.clear();
        event_digests.reserve(period.events().len());
        for event in period.events() {
            let (tag, subject) = match event.kind {
                EventKind::TaskStart(t) => (0u64, checksum(universe.name(t).as_bytes())),
                EventKind::TaskEnd(t) => (1, checksum(universe.name(t).as_bytes())),
                EventKind::MessageRise(m) => (2, m.index() as u64),
                EventKind::MessageFall(m) => (3, m.index() as u64),
            };
            event_digests.push(mix(mix(event.time.micros(), tag), subject));
        }
        // Sorting makes the digest a multiset hash: two periods containing
        // the same events in different row order fingerprint identically.
        event_digests.sort_unstable();
        let mut d = mix(0x7065_7269_6F64, event_digests.len() as u64);
        for e in &event_digests {
            d = mix(d, *e);
        }
        h = mix(h, d);
        chain.push(h);
    }
    TraceFingerprints { chain }
}

/// How a [`ModelCache::learn`] call resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheHit {
    /// The full trace was already learned; the cached checkpoint was
    /// resumed and finished without pushing a single period.
    Full,
    /// A cached prefix seeded the learner; only the suffix was pushed.
    Prefix {
        /// Periods restored from the cache (the learner resumed here).
        periods: usize,
    },
    /// No usable entry; the trace was learned cold.
    Miss,
}

impl CacheHit {
    /// The report-stable class name (`full` / `prefix` / `miss`).
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            CacheHit::Full => "full",
            CacheHit::Prefix { .. } => "prefix",
            CacheHit::Miss => "miss",
        }
    }
}

/// A learn resolved through the cache: the result plus how it was obtained.
#[derive(Debug)]
pub struct CachedLearn {
    /// The finished learn, byte-identical to a cold run on the same trace.
    pub result: LearnResult,
    /// Which path produced it.
    pub hit: CacheHit,
}

/// Errors from cache operations.
#[derive(Debug)]
pub enum CacheError {
    /// The cache directory could not be created or scanned.
    Io(std::io::Error),
    /// Writing or reading an entry failed.
    Checkpoint(CheckpointError),
    /// The learner itself failed on the trace (inconsistency, limits).
    Learn(LearnError),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache directory: {e}"),
            CacheError::Checkpoint(e) => write!(f, "cache entry: {e}"),
            CacheError::Learn(e) => write!(f, "learn: {e}"),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io(e) => Some(e),
            CacheError::Checkpoint(e) => Some(e),
            CacheError::Learn(e) => Some(e),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    periods: usize,
    last_used: u64,
}

/// A capacity-bounded, LRU-evicting on-disk model cache.
///
/// Entries are `bbmg-ckpt/1` documents named `<fingerprint:016x>.ckpt`; the
/// in-memory index maps fingerprint → period count + recency stamp and is
/// rebuilt by scanning the directory on [`open`](Self::open). All methods
/// take `&mut self`: a read always completes before any insert can trigger
/// eviction, so entries are never evicted mid-read.
#[derive(Debug)]
pub struct ModelCache {
    dir: PathBuf,
    capacity: NonZeroUsize,
    clock: u64,
    entries: HashMap<u64, CacheEntry>,
}

impl ModelCache {
    /// Opens (creating if needed) a cache directory holding at most
    /// `capacity` entries, and rebuilds the fingerprint index from the
    /// `*.ckpt` files already present. Files that are not well-formed
    /// sealed checkpoints are ignored — never deleted, never trusted.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] if the directory cannot be created or read.
    pub fn open(dir: &Path, capacity: NonZeroUsize) -> Result<Self, CacheError> {
        std::fs::create_dir_all(dir).map_err(CacheError::Io)?;
        let mut names: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(CacheError::Io)? {
            let entry = entry.map_err(CacheError::Io)?;
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "ckpt") {
                continue;
            }
            // Only names `entry_path` writes: 16 lower-case hex digits.
            let stem = path.file_stem().and_then(|s| s.to_str());
            let Some(fingerprint) = stem.and_then(json::hex_u64) else {
                continue;
            };
            names.push((fingerprint, path));
        }
        // Deterministic recency for pre-existing entries: stamp in
        // fingerprint order. Real recency only matters within a run.
        names.sort_unstable_by_key(|(fp, _)| *fp);
        let mut cache = ModelCache {
            dir: dir.to_path_buf(),
            capacity,
            clock: 0,
            entries: HashMap::new(),
        };
        for (fingerprint, path) in names {
            let Ok(checkpoint) = Checkpoint::load(&path) else {
                continue;
            };
            cache.clock += 1;
            cache.entries.insert(
                fingerprint,
                CacheEntry {
                    periods: checkpoint.pushed_periods,
                    last_used: cache.clock,
                },
            );
        }
        cache.evict_over_capacity();
        Ok(cache)
    }

    /// The directory entries live in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Maximum number of entries kept on disk.
    #[must_use]
    pub fn capacity(&self) -> NonZeroUsize {
        self.capacity
    }

    /// Number of entries currently indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when an entry for this fingerprint is indexed.
    #[must_use]
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.entries.contains_key(&fingerprint)
    }

    /// Periods absorbed by the entry stored under `fingerprint`, if any —
    /// the building block for external lookup planners (`bbmg corpus`
    /// classifies whole directories against the index before learning).
    #[must_use]
    pub fn entry_periods(&self, fingerprint: u64) -> Option<usize> {
        self.entries.get(&fingerprint).map(|e| e.periods)
    }

    /// The on-disk path an entry for `fingerprint` lives at.
    #[must_use]
    pub fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.ckpt"))
    }

    /// Classifies a lookup without touching disk: full hit, best prefix
    /// hit, or miss. Pure with respect to the index — no recency bump.
    #[must_use]
    pub fn classify(&self, fingerprints: &TraceFingerprints) -> CacheHit {
        let n = fingerprints.periods();
        if self.entry_matches(fingerprints.full(), n) {
            return CacheHit::Full;
        }
        for k in (1..n).rev() {
            if self.entry_matches(fingerprints.prefix(k), k) {
                return CacheHit::Prefix { periods: k };
            }
        }
        CacheHit::Miss
    }

    /// Loads the checkpoint stored under `fingerprint` and bumps its
    /// recency. Returns `None` (after dropping the entry) if the file has
    /// gone missing or no longer verifies — a stale index entry must
    /// degrade to a miss, not poison the run.
    pub fn take_checkpoint(&mut self, fingerprint: u64) -> Option<Checkpoint> {
        if !self.entries.contains_key(&fingerprint) {
            return None;
        }
        match Checkpoint::load(&self.entry_path(fingerprint)) {
            Ok(checkpoint) => {
                self.clock += 1;
                if let Some(entry) = self.entries.get_mut(&fingerprint) {
                    entry.last_used = self.clock;
                }
                Some(checkpoint)
            }
            Err(_) => {
                self.entries.remove(&fingerprint);
                None
            }
        }
    }

    /// Stores a finished (or prefix) checkpoint under `fingerprint`,
    /// evicting least-recently-used entries if the capacity is exceeded.
    ///
    /// # Errors
    ///
    /// [`CacheError::Checkpoint`] if the document cannot be written.
    pub fn insert(&mut self, fingerprint: u64, checkpoint: &Checkpoint) -> Result<(), CacheError> {
        checkpoint
            .save(&self.entry_path(fingerprint))
            .map_err(CacheError::Checkpoint)?;
        self.clock += 1;
        self.entries.insert(
            fingerprint,
            CacheEntry {
                periods: checkpoint.pushed_periods,
                last_used: self.clock,
            },
        );
        self.evict_over_capacity();
        Ok(())
    }

    /// Learns `trace` under `options`, resolving through the cache.
    ///
    /// Full hit: resume the cached checkpoint, finish. Prefix hit: resume
    /// at the divergence point, push only the suffix, cache the completed
    /// model. Miss: learn cold, cache the model. Every path returns an
    /// antichain and statistics byte-identical to a cold learn of the same
    /// trace (determinism-tested in `tests/corpus.rs`).
    ///
    /// The run is [`IncrementalLearner::drive`]'s, so it degrades and
    /// records unprocessed periods exactly as [`learn`](crate::learn)
    /// does. A run stopped by the budget is *not* cached — a wall-clock
    /// stop depends on timing, not only on `(trace, options)`.
    ///
    /// # Errors
    ///
    /// [`CacheError::Learn`] if the learner fails as `learn` would;
    /// [`CacheError::Checkpoint`] if a completed model cannot be written.
    pub fn learn(
        &mut self,
        trace: &Trace,
        options: LearnOptions,
    ) -> Result<CachedLearn, CacheError> {
        let fingerprints = trace_fingerprints(trace, &options);
        match self.classify(&fingerprints) {
            CacheHit::Full => {
                if let Some(checkpoint) = self.take_checkpoint(fingerprints.full()) {
                    if let Ok(learner) = IncrementalLearner::resume(checkpoint) {
                        return Ok(CachedLearn {
                            result: learner.finish(),
                            hit: CacheHit::Full,
                        });
                    }
                    self.entries.remove(&fingerprints.full());
                }
            }
            CacheHit::Prefix { periods } => {
                if let Some(checkpoint) = self.take_checkpoint(fingerprints.prefix(periods)) {
                    if let Ok(learner) = IncrementalLearner::resume(checkpoint) {
                        return self.drive(
                            learner,
                            trace,
                            periods,
                            &fingerprints,
                            CacheHit::Prefix { periods },
                        );
                    }
                    self.entries.remove(&fingerprints.prefix(periods));
                }
            }
            CacheHit::Miss => {}
        }
        let learner = IncrementalLearner::new(trace.task_count(), options);
        self.drive(learner, trace, 0, &fingerprints, CacheHit::Miss)
    }

    /// Pushes `trace.periods()[start..]` into `learner`, caches the model
    /// if the run completed, and finishes.
    fn drive(
        &mut self,
        mut learner: IncrementalLearner,
        trace: &Trace,
        start: usize,
        fingerprints: &TraceFingerprints,
        hit: CacheHit,
    ) -> Result<CachedLearn, CacheError> {
        let rest = &trace.periods()[start..];
        let complete = learner.drive(rest, &mut NoopObserver, |_, _, _, _| Ok(()));
        if complete.map_err(CacheError::Learn)? {
            self.insert(fingerprints.full(), &learner.checkpoint())?;
        }
        Ok(CachedLearn {
            result: learner.finish(),
            hit,
        })
    }

    fn entry_matches(&self, fingerprint: u64, periods: usize) -> bool {
        self.entries
            .get(&fingerprint)
            .is_some_and(|e| e.periods == periods)
    }

    fn evict_over_capacity(&mut self) {
        while self.entries.len() > self.capacity.get() {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(fp, e)| (e.last_used, **fp))
                .map(|(fp, _)| *fp)
            else {
                return;
            };
            let _ = std::fs::remove_file(self.entry_path(victim));
            self.entries.remove(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbmg_workloads::simple::figure_2_trace;

    fn cache(dir: &Path, capacity: usize) -> ModelCache {
        ModelCache::open(dir, NonZeroUsize::new(capacity).unwrap()).unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bbmg-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Builds a one-period trace whose two tasks start at the same instant,
    /// with the equal-timestamp events inserted in the given order.
    fn equal_time_trace(first: &str, second: &str) -> Trace {
        use bbmg_trace::{Timestamp, TraceBuilder};
        let mut universe = bbmg_lattice::TaskUniverse::new();
        let t1 = universe.intern("t1");
        let t2 = universe.intern("t2");
        let (a, b) = if first == "t1" { (t1, t2) } else { (t2, t1) };
        assert_eq!(second == "t1", b == t1);
        let mut builder = TraceBuilder::new(universe);
        builder.begin_period();
        builder
            .event(Timestamp::new(0), EventKind::TaskStart(a))
            .unwrap();
        builder
            .event(Timestamp::new(0), EventKind::TaskStart(b))
            .unwrap();
        builder
            .event(Timestamp::new(10), EventKind::TaskEnd(t1))
            .unwrap();
        builder
            .event(Timestamp::new(10), EventKind::TaskEnd(t2))
            .unwrap();
        builder.end_period().unwrap();
        builder.finish()
    }

    #[test]
    fn fingerprints_normalize_equal_time_row_order() {
        let options = LearnOptions::default();
        let trace = figure_2_trace();

        // File-level stability: a parsed trace re-serialized and re-parsed
        // keys identically (CSV interns tasks by first appearance, which
        // round-trips; builder-made universes may intern differently and
        // then key separately — ids must line up for a hit to be usable).
        let csv = bbmg_trace::write_csv(&trace);
        let reparsed = bbmg_trace::parse_csv(&csv).unwrap();
        let twice = bbmg_trace::parse_csv(&bbmg_trace::write_csv(&reparsed)).unwrap();
        assert_eq!(
            trace_fingerprints(&reparsed, &options),
            trace_fingerprints(&twice, &options)
        );

        // Equal-timestamp rows are the only reordering the strict parsers
        // accept; the multiset digest makes the two orders equivalent.
        let ab = equal_time_trace("t1", "t2");
        let ba = equal_time_trace("t2", "t1");
        assert_ne!(ab.periods()[0].events(), ba.periods()[0].events());
        assert_eq!(
            trace_fingerprints(&ab, &options),
            trace_fingerprints(&ba, &options)
        );

        // A different interning order must NOT hit: cached hypotheses are
        // indexed by TaskId, so ids have to line up name-for-name.
        let mut u1 = bbmg_lattice::TaskUniverse::new();
        u1.intern("t1");
        u1.intern("t2");
        let mut u2 = bbmg_lattice::TaskUniverse::new();
        u2.intern("t2");
        u2.intern("t1");
        let e1 = bbmg_trace::TraceBuilder::new(u1).finish();
        let e2 = bbmg_trace::TraceBuilder::new(u2).finish();
        assert_ne!(
            trace_fingerprints(&e1, &options).full(),
            trace_fingerprints(&e2, &options).full()
        );
    }

    #[test]
    fn fingerprints_distinguish_prefixes_and_options() {
        let trace = figure_2_trace();
        let options = LearnOptions::default();
        let fps = trace_fingerprints(&trace, &options);
        let n = trace.periods().len();
        assert!(n >= 2);
        let prefix = trace.truncated(n - 1);
        let prefix_fps = trace_fingerprints(&prefix, &options);
        assert_eq!(prefix_fps.full(), fps.prefix(n - 1));
        assert_ne!(prefix_fps.full(), fps.full());

        let bounded = LearnOptions::bounded(2);
        assert_ne!(
            trace_fingerprints(&trace, &bounded).full(),
            fps.full(),
            "bound must key separately"
        );
        let mut threaded = options;
        threaded.parallelism = NonZeroUsize::new(4).unwrap();
        assert_eq!(
            trace_fingerprints(&trace, &threaded).full(),
            fps.full(),
            "parallelism must not key"
        );
    }

    #[test]
    fn full_and_prefix_hits_match_cold_learns() {
        let dir = temp_dir("hits");
        let mut cache = cache(&dir, 8);
        let trace = figure_2_trace();
        let options = LearnOptions::default();

        let cold = cache.learn(&trace, options).unwrap();
        assert_eq!(cold.hit, CacheHit::Miss);
        let warm = cache.learn(&trace, options).unwrap();
        assert_eq!(warm.hit, CacheHit::Full);
        assert_eq!(cold.result.hypotheses(), warm.result.hypotheses());
        assert_eq!(cold.result.stats(), warm.result.stats());

        // A fresh cache primed with only the prefix seeds the suffix.
        let dir2 = temp_dir("prefix");
        let mut primed = ModelCache::open(&dir2, NonZeroUsize::new(8).unwrap()).unwrap();
        let n = trace.periods().len();
        let prefix = trace.truncated(n - 1);
        primed.learn(&prefix, options).unwrap();
        let seeded = primed.learn(&trace, options).unwrap();
        assert_eq!(seeded.hit, CacheHit::Prefix { periods: n - 1 });
        assert_eq!(cold.result.hypotheses(), seeded.result.hypotheses());
        assert_eq!(cold.result.stats(), seeded.result.stats());

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn index_survives_reopen() {
        let dir = temp_dir("reopen");
        let trace = figure_2_trace();
        let options = LearnOptions::default();
        {
            let mut cache = cache(&dir, 8);
            cache.learn(&trace, options).unwrap();
        }
        let mut reopened = cache(&dir, 8);
        assert_eq!(reopened.len(), 1);
        let warm = reopened.learn(&trace, options).unwrap();
        assert_eq!(warm.hit, CacheHit::Full);
        // Only the names `entry_path` writes are indexed: the same entry
        // renamed with upper-case digits or a `+` sign is never loaded.
        let written = reopened.entry_path(trace_fingerprints(&trace, &options).full());
        let stem = written.file_stem().and_then(|s| s.to_str()).unwrap();
        for name in [stem.to_uppercase(), format!("+{}", &stem[1..])] {
            assert_ne!(name, stem);
            let renamed = dir.join(format!("{name}.ckpt"));
            std::fs::rename(&written, &renamed).unwrap();
            assert_eq!(cache(&dir, 8).len(), 0, "{name}");
            std::fs::rename(&renamed, &written).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_degrades_to_miss() {
        let dir = temp_dir("corrupt");
        let trace = figure_2_trace();
        let options = LearnOptions::default();
        let mut cache = cache(&dir, 8);
        cache.learn(&trace, options).unwrap();
        let fp = trace_fingerprints(&trace, &options).full();
        std::fs::write(cache.entry_path(fp), b"not a checkpoint").unwrap();
        let relearned = cache.learn(&trace, options).unwrap();
        assert_eq!(relearned.hit, CacheHit::Miss);
        let cold = crate::learn(&trace, options).unwrap();
        assert_eq!(relearned.result.hypotheses(), cold.hypotheses());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_lru_and_respects_capacity() {
        let dir = temp_dir("lru");
        let trace = figure_2_trace();
        let mut cache = cache(&dir, 2);

        // Three distinct keys: the same trace under three option digests
        // (options key into `h_0`, so there are no prefix cross-hits).
        let a = LearnOptions::default();
        let b = LearnOptions::bounded(2);
        let c = LearnOptions::bounded(3);
        cache.learn(&trace, a).unwrap();
        cache.learn(&trace, b).unwrap();
        assert_eq!(cache.len(), 2);

        // Touch `a` so `b` is the LRU victim when `c` lands.
        assert_eq!(cache.learn(&trace, a).unwrap().hit, CacheHit::Full);
        cache.learn(&trace, c).unwrap();
        assert_eq!(cache.len(), 2);
        let fa = trace_fingerprints(&trace, &a).full();
        let fb = trace_fingerprints(&trace, &b).full();
        let fc = trace_fingerprints(&trace, &c).full();
        assert!(cache.contains(fa));
        assert!(!cache.contains(fb));
        assert!(cache.contains(fc));
        assert!(!cache.entry_path(fb).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
