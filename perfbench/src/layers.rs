//! Per-layer accumulators for the traced pass.
//!
//! Every timing here is taken from outside the library, around one call
//! into a layer's public API; every count is read from a public counter
//! (`LearnStats`, `CacheHit`, `ShardSummary`, `RepairReport`). A layer a
//! workload never calls reports 0.

use std::time::{Duration, Instant};

use bbmg_core::LearnStats;
use bbmg_obs::Observer;

use crate::stats::{median, ms, percentile};

/// An observer that times every learner period, from the learner's
/// `period_start` to its `period_end`, into [`Layers::add_period`]. It lets
/// the traced pass call the same public learn functions as the untraced
/// one (`learn_with`, `robust_learn_with`, `push_period_with`).
pub struct PeriodClock<'a> {
    layers: &'a mut Layers,
    started: Option<Instant>,
}

impl<'a> PeriodClock<'a> {
    pub fn new(layers: &'a mut Layers) -> Self {
        PeriodClock {
            layers,
            started: None,
        }
    }
}

impl Observer for PeriodClock<'_> {
    fn period_start(&mut self, _period: usize) {
        self.started = Some(Instant::now());
    }

    fn period_end(&mut self, _period: usize, _hypotheses: usize) {
        if let Some(started) = self.started.take() {
            self.layers.add_period(started.elapsed());
        }
    }
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// Time in trace parsers for one pass over the input files.
    pub parse: Duration,
    /// Bytes those parsers consumed.
    pub parse_bytes: u64,
    /// Time in the trace sanitizer (`bbmg_trace::repair`).
    pub repair: Duration,
    /// Periods the sanitizer quarantined.
    pub quarantined_periods: u64,
    /// Time in learner periods (see [`PeriodClock`]; in `serve_fleet`, the
    /// `ingest_line` calls that made a shard absorb a period).
    pub observe: Duration,
    /// Wall time of every learner period, in milliseconds.
    pub period_ms: Vec<f64>,
    /// `LearnStats::hypotheses_generated`, summed over work done.
    pub hypotheses_generated: u64,
    /// `LearnStats::merges`, summed over work done.
    pub merges: u64,
    /// Largest `LearnStats::peak_set_size` of any item.
    pub peak_set_size: u64,
    /// `LearnStats::candidate_pairs_total`, summed over work done.
    pub candidate_pairs: u64,
    /// `LearnStats::fallbacks`, summed.
    pub fallbacks: u64,
    /// `LearnStats::skipped_periods` lengths, summed.
    pub skipped_periods: u64,
    /// Median `ModelCache::open` time over the set-up repetitions.
    pub cache_open: Duration,
    /// Time in `trace_fingerprints` + `ModelCache::classify`.
    pub cache_lookup: Duration,
    /// Time in `ModelCache::take_checkpoint` + `IncrementalLearner::resume`.
    pub cache_resume: Duration,
    /// Time in `IncrementalLearner::checkpoint` + `ModelCache::insert`.
    pub cache_insert: Duration,
    /// Lookups that resolved as full hits.
    pub full_hits: u64,
    /// Lookups that resolved as prefix hits.
    pub prefix_hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Periods restored from the cache instead of learned.
    pub periods_reused: u64,
    /// Periods in every looked-up trace.
    pub periods_total: u64,
    /// Bytes of checkpoint documents written.
    pub checkpoint_bytes: u64,
    /// Wall time of every `Supervisor::ingest_line` call, in microseconds.
    pub line_us: Vec<f64>,
    /// Time in `Supervisor::ingest_line` for event lines.
    pub serve_ingest: Duration,
    /// Time in `end` lines and `Supervisor::finish`.
    pub serve_finish: Duration,
    /// `ShardSummary::shed_periods`, summed.
    pub shed_periods: u64,
    /// Lines `Supervisor::ingest_line` returned an error for.
    pub rejected_lines: u64,
    /// `ShardSummary::restarts`, summed.
    pub restarts: u64,
    /// Traced `job_s` / untraced `job_s`.
    pub trace_overhead_ratio: f64,
    /// Median host kernel time over the run, as measured.
    pub host_kernel_ms: f64,
}

impl Layers {
    /// Adds the learner counters of `stats`. With `base`, only the work
    /// done after `base` was taken counts (a resumed learner carries the
    /// counters of the periods it was resumed from).
    pub fn add_stats(&mut self, stats: &LearnStats, base: Option<&LearnStats>) {
        let before = base.cloned().unwrap_or_default();
        let delta = |now: usize, then: usize| now.saturating_sub(then) as u64;
        self.hypotheses_generated += delta(stats.hypotheses_generated, before.hypotheses_generated);
        self.merges += delta(stats.merges, before.merges);
        self.candidate_pairs += delta(stats.candidate_pairs_total, before.candidate_pairs_total);
        self.fallbacks += delta(stats.fallbacks, before.fallbacks);
        self.skipped_periods += delta(stats.skipped_periods.len(), before.skipped_periods.len());
        self.peak_set_size = self.peak_set_size.max(stats.peak_set_size as u64);
    }

    /// Records one learner period call.
    pub fn add_period(&mut self, took: Duration) {
        self.observe += took;
        self.period_ms.push(ms(took));
    }

    /// Every per-layer metric as `(name, value, unit)`, with times
    /// multiplied and rates divided by `scale` (see `host.rs`).
    #[must_use]
    pub fn metrics(&self, scale: f64) -> Vec<(&'static str, f64, &'static str)> {
        let ms = |d: Duration| ms(d) * scale;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let parse_s = self.parse.as_secs_f64();
        let parse_mb_s = if parse_s > 0.0 {
            self.parse_bytes as f64 / 1e6 / (parse_s * scale)
        } else {
            0.0
        };
        vec![
            ("trace.parse_ms", ms(self.parse), "ms"),
            ("trace.parse_mb_s", parse_mb_s, "MB/s"),
            ("trace.repair_ms", ms(self.repair), "ms"),
            (
                "trace.quarantined_periods",
                self.quarantined_periods as f64,
                "count",
            ),
            ("learner.observe_ms", ms(self.observe), "ms"),
            (
                "learner.period_p50_ms",
                median(&self.period_ms) * scale,
                "ms",
            ),
            (
                "learner.period_p90_ms",
                percentile(&self.period_ms, 0.90) * scale,
                "ms",
            ),
            (
                "learner.hypotheses_generated",
                self.hypotheses_generated as f64,
                "count",
            ),
            ("learner.merges", self.merges as f64, "count"),
            (
                "learner.merge_ratio",
                ratio(self.merges, self.hypotheses_generated),
                "ratio",
            ),
            ("learner.peak_set_size", self.peak_set_size as f64, "count"),
            (
                "learner.candidate_pairs",
                self.candidate_pairs as f64,
                "count",
            ),
            ("learner.fallbacks", self.fallbacks as f64, "count"),
            (
                "learner.skipped_periods",
                self.skipped_periods as f64,
                "count",
            ),
            ("cache.open_ms", ms(self.cache_open), "ms"),
            ("cache.lookup_ms", ms(self.cache_lookup), "ms"),
            ("cache.resume_ms", ms(self.cache_resume), "ms"),
            ("cache.insert_ms", ms(self.cache_insert), "ms"),
            ("cache.full_hits", self.full_hits as f64, "count"),
            ("cache.prefix_hits", self.prefix_hits as f64, "count"),
            ("cache.misses", self.misses as f64, "count"),
            (
                "cache.periods_reused_ratio",
                ratio(self.periods_reused, self.periods_total),
                "ratio",
            ),
            ("checkpoint.bytes", self.checkpoint_bytes as f64, "bytes"),
            ("serve.line_p50_us", median(&self.line_us) * scale, "us"),
            ("serve.ingest_ms", ms(self.serve_ingest), "ms"),
            ("serve.finish_ms", ms(self.serve_finish), "ms"),
            ("serve.shed_periods", self.shed_periods as f64, "count"),
            ("serve.rejected_lines", self.rejected_lines as f64, "count"),
            ("serve.restarts", self.restarts as f64, "count"),
            (
                "bench.trace_overhead_ratio",
                self.trace_overhead_ratio,
                "ratio",
            ),
            ("bench.host_kernel_ms", self.host_kernel_ms, "ms"),
        ]
    }
}
