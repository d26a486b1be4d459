//! Counters and histogram summaries over the event stream.
//!
//! [`Metrics`] is an [`Observer`] that folds events into counters and
//! sample buffers as they arrive; [`Metrics::snapshot`] freezes them into a
//! [`MetricsSnapshot`] with nearest-rank p50/p95/max summaries. The
//! snapshot serializes to a stable JSON schema (`bbmg-metrics/2`) and
//! parses back **strictly** — unknown or missing fields are errors — which
//! is what the CI schema-validation step runs against emitted files.
//!
//! `bbmg-metrics/2` superseded `/1` by adding `uptime_us` (wall-clock age
//! of the collector when the snapshot was taken) and `seq` (a monotonic
//! per-collector snapshot counter starting at 1): two snapshots from the
//! same process can now be ordered and rate-derived. Because parsing is
//! strict, the field addition required the version bump.

use std::fmt;
use std::time::Instant;

use crate::event::Event;
use crate::json::{parse, Json, JsonParseError};
use crate::observer::Observer;

/// Schema identifier embedded in every metrics JSON document.
pub const METRICS_SCHEMA: &str = "bbmg-metrics/2";

/// Nearest-rank summary of a sample distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Median (50th percentile, nearest rank).
    pub p50: u64,
    /// 95th percentile (nearest rank).
    pub p95: u64,
    /// Maximum.
    pub max: u64,
}

impl Summary {
    /// Summarizes `samples` (order irrelevant); all-zero when empty.
    #[must_use]
    pub fn of(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |q_num: usize, q_den: usize| {
            // Nearest-rank: ceil(q * n), 1-based.
            let n = sorted.len();
            sorted[(n * q_num).div_ceil(q_den).clamp(1, n) - 1]
        };
        Summary {
            p50: rank(1, 2),
            p95: rank(19, 20),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Frozen metrics for one learn run — see the module docs for the schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Periods completed (`period_end` events).
    pub periods: usize,
    /// Messages branched (`message_branch` events).
    pub messages: usize,
    /// Hypotheses generated (sum of `feasible` over messages).
    pub hypotheses_generated: usize,
    /// Heuristic merges.
    pub merges: usize,
    /// Quarantined periods (learner + sanitizer).
    pub quarantines: usize,
    /// Sanitizer repair actions.
    pub repairs: usize,
    /// Injected faults observed.
    pub faults: usize,
    /// Exact-to-bounded fallbacks.
    pub fallbacks: usize,
    /// Sampled budget heartbeats.
    pub budget_ticks: usize,
    /// Hypothesis-set size after each message.
    pub set_size: Summary,
    /// Distinct children generated per message (the branching factor of
    /// Theorem 1).
    pub branch_factor: Summary,
    /// Wall-clock time per completed period, in microseconds.
    pub period_micros: Summary,
    /// Total wall-clock time across completed periods, in microseconds.
    pub total_micros: u64,
    /// Wall-clock age of the collector when this snapshot was taken, in
    /// microseconds — lets two snapshots be rate-derived.
    pub uptime_us: u64,
    /// Monotonic snapshot sequence number within one collector, starting
    /// at 1 — lets two snapshots from the same process be ordered.
    pub seq: u64,
}

impl MetricsSnapshot {
    /// Serializes to the stable `bbmg-metrics/2` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let summary =
            |s: &Summary| format!("{{\"p50\":{},\"p95\":{},\"max\":{}}}", s.p50, s.p95, s.max);
        format!(
            "{{\"schema\":\"{METRICS_SCHEMA}\",\
             \"periods\":{},\"messages\":{},\"hypotheses_generated\":{},\
             \"merges\":{},\"quarantines\":{},\"repairs\":{},\"faults\":{},\
             \"fallbacks\":{},\"budget_ticks\":{},\
             \"set_size\":{},\"branch_factor\":{},\"period_micros\":{},\
             \"total_micros\":{},\"uptime_us\":{},\"seq\":{}}}",
            self.periods,
            self.messages,
            self.hypotheses_generated,
            self.merges,
            self.quarantines,
            self.repairs,
            self.faults,
            self.fallbacks,
            self.budget_ticks,
            summary(&self.set_size),
            summary(&self.branch_factor),
            summary(&self.period_micros),
            self.total_micros,
            self.uptime_us,
            self.seq,
        )
    }

    /// Strictly parses a `bbmg-metrics/2` document: every field must be
    /// present, no field may be unknown, the schema tag must match.
    ///
    /// # Errors
    ///
    /// [`MetricsParseError`] naming the offending field or JSON error.
    pub fn parse_json(text: &str) -> Result<Self, MetricsParseError> {
        let root = parse(text)?;
        let Json::Object(fields) = &root else {
            return Err(MetricsParseError::Schema(
                "document is not an object".into(),
            ));
        };
        let mut snapshot = MetricsSnapshot::default();
        let mut seen: Vec<&str> = Vec::new();
        for (key, value) in fields {
            let known = match key.as_str() {
                "schema" => {
                    if value.as_str() != Some(METRICS_SCHEMA) {
                        return Err(MetricsParseError::Schema(format!(
                            "unsupported schema tag {value:?}"
                        )));
                    }
                    "schema"
                }
                "periods" => set_usize(&mut snapshot.periods, key, value)?,
                "messages" => set_usize(&mut snapshot.messages, key, value)?,
                "hypotheses_generated" => {
                    set_usize(&mut snapshot.hypotheses_generated, key, value)?
                }
                "merges" => set_usize(&mut snapshot.merges, key, value)?,
                "quarantines" => set_usize(&mut snapshot.quarantines, key, value)?,
                "repairs" => set_usize(&mut snapshot.repairs, key, value)?,
                "faults" => set_usize(&mut snapshot.faults, key, value)?,
                "fallbacks" => set_usize(&mut snapshot.fallbacks, key, value)?,
                "budget_ticks" => set_usize(&mut snapshot.budget_ticks, key, value)?,
                "set_size" => {
                    snapshot.set_size = parse_summary(key, value)?;
                    "set_size"
                }
                "branch_factor" => {
                    snapshot.branch_factor = parse_summary(key, value)?;
                    "branch_factor"
                }
                "period_micros" => {
                    snapshot.period_micros = parse_summary(key, value)?;
                    "period_micros"
                }
                "total_micros" => {
                    snapshot.total_micros = require_u64(key, value)?;
                    "total_micros"
                }
                "uptime_us" => {
                    snapshot.uptime_us = require_u64(key, value)?;
                    "uptime_us"
                }
                "seq" => {
                    snapshot.seq = require_u64(key, value)?;
                    "seq"
                }
                other => return Err(MetricsParseError::UnknownField(other.to_owned())),
            };
            if seen.contains(&known) {
                return Err(MetricsParseError::Schema(format!(
                    "duplicate field `{known}`"
                )));
            }
            seen.push(known);
        }
        const REQUIRED: [&str; 16] = [
            "schema",
            "periods",
            "messages",
            "hypotheses_generated",
            "merges",
            "quarantines",
            "repairs",
            "faults",
            "fallbacks",
            "budget_ticks",
            "set_size",
            "branch_factor",
            "period_micros",
            "total_micros",
            "uptime_us",
            "seq",
        ];
        for field in REQUIRED {
            if !seen.contains(&field) {
                return Err(MetricsParseError::MissingField(field));
            }
        }
        Ok(snapshot)
    }
}

fn require_u64(key: &str, value: &Json) -> Result<u64, MetricsParseError> {
    value.as_u64().ok_or_else(|| {
        MetricsParseError::Schema(format!("field `{key}` is not a non-negative integer"))
    })
}

fn set_usize<'k>(
    slot: &mut usize,
    key: &'k str,
    value: &Json,
) -> Result<&'k str, MetricsParseError> {
    *slot = usize::try_from(require_u64(key, value)?)
        .map_err(|_| MetricsParseError::Schema(format!("field `{key}` overflows usize")))?;
    Ok(key)
}

fn parse_summary(key: &str, value: &Json) -> Result<Summary, MetricsParseError> {
    let Json::Object(fields) = value else {
        return Err(MetricsParseError::Schema(format!(
            "field `{key}` is not an object"
        )));
    };
    let mut summary = Summary::default();
    let mut seen = [false; 3];
    for (sub, v) in fields {
        let index = match sub.as_str() {
            "p50" => {
                summary.p50 = require_u64(sub, v)?;
                0
            }
            "p95" => {
                summary.p95 = require_u64(sub, v)?;
                1
            }
            "max" => {
                summary.max = require_u64(sub, v)?;
                2
            }
            other => return Err(MetricsParseError::UnknownField(format!("{key}.{other}"))),
        };
        seen[index] = true;
    }
    if let Some(missing) = [("p50", 0), ("p95", 1), ("max", 2)]
        .iter()
        .find(|(_, i)| !seen[*i])
    {
        return Err(MetricsParseError::Schema(format!(
            "field `{key}` is missing `{}`",
            missing.0
        )));
    }
    Ok(summary)
}

/// Why a metrics document failed strict validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsParseError {
    /// The text was not valid JSON.
    Json(JsonParseError),
    /// A field the schema does not define was present.
    UnknownField(String),
    /// A field the schema requires was absent.
    MissingField(&'static str),
    /// Structural problem (wrong types, duplicate fields, bad schema tag).
    Schema(String),
}

impl fmt::Display for MetricsParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsParseError::Json(e) => write!(f, "{e}"),
            MetricsParseError::UnknownField(name) => write!(f, "unknown field `{name}`"),
            MetricsParseError::MissingField(name) => write!(f, "missing field `{name}`"),
            MetricsParseError::Schema(msg) => write!(f, "schema violation: {msg}"),
        }
    }
}

impl std::error::Error for MetricsParseError {}

impl From<JsonParseError> for MetricsParseError {
    fn from(e: JsonParseError) -> Self {
        MetricsParseError::Json(e)
    }
}

impl fmt::Display for MetricsSnapshot {
    /// Renders the human-readable metrics table printed by `bbmg profile`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<22} {:>10} {:>10} {:>10}",
            "metric", "p50", "p95", "max"
        )?;
        for (name, s) in [
            ("set size", &self.set_size),
            ("branch factor", &self.branch_factor),
            ("period wall (us)", &self.period_micros),
        ] {
            writeln!(f, "{name:<22} {:>10} {:>10} {:>10}", s.p50, s.p95, s.max)?;
        }
        writeln!(
            f,
            "periods {} | messages {} | hypotheses {} | merges {}",
            self.periods, self.messages, self.hypotheses_generated, self.merges
        )?;
        writeln!(
            f,
            "quarantines {} | repairs {} | faults {} | fallbacks {} | ticks {} | total {} us",
            self.quarantines,
            self.repairs,
            self.faults,
            self.fallbacks,
            self.budget_ticks,
            self.total_micros
        )?;
        write!(f, "snapshot #{} at uptime {} us", self.seq, self.uptime_us)
    }
}

/// Streaming metrics collector.
#[derive(Debug, Clone)]
pub struct Metrics {
    periods: usize,
    messages: usize,
    hypotheses_generated: usize,
    merges: usize,
    quarantines: usize,
    repairs: usize,
    faults: usize,
    fallbacks: usize,
    budget_ticks: usize,
    set_sizes: Vec<u64>,
    branch_factors: Vec<u64>,
    period_micros: Vec<u64>,
    open_period: Option<Instant>,
    created: Instant,
    snapshots_taken: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            periods: 0,
            messages: 0,
            hypotheses_generated: 0,
            merges: 0,
            quarantines: 0,
            repairs: 0,
            faults: 0,
            fallbacks: 0,
            budget_ticks: 0,
            set_sizes: Vec::new(),
            branch_factors: Vec::new(),
            period_micros: Vec::new(),
            open_period: None,
            created: Instant::now(),
            snapshots_taken: 0,
        }
    }
}

impl Metrics {
    /// An empty collector; the uptime clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Freezes the counters into a [`MetricsSnapshot`]. Each call advances
    /// the collector's snapshot sequence number, so successive snapshots
    /// carry `seq` 1, 2, … and a monotonically growing `uptime_us`.
    pub fn snapshot(&mut self) -> MetricsSnapshot {
        self.snapshots_taken += 1;
        MetricsSnapshot {
            periods: self.periods,
            messages: self.messages,
            hypotheses_generated: self.hypotheses_generated,
            merges: self.merges,
            quarantines: self.quarantines,
            repairs: self.repairs,
            faults: self.faults,
            fallbacks: self.fallbacks,
            budget_ticks: self.budget_ticks,
            set_size: Summary::of(&self.set_sizes),
            branch_factor: Summary::of(&self.branch_factors),
            period_micros: Summary::of(&self.period_micros),
            total_micros: self.period_micros.iter().sum(),
            uptime_us: u64::try_from(self.created.elapsed().as_micros()).unwrap_or(u64::MAX),
            seq: self.snapshots_taken,
        }
    }
}

impl Observer for Metrics {
    fn record(&mut self, event: Event) {
        match event {
            Event::PeriodStart { .. } => self.open_period = Some(Instant::now()),
            Event::PeriodEnd { .. } => {
                self.periods += 1;
                if let Some(started) = self.open_period.take() {
                    self.period_micros
                        .push(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
                }
            }
            Event::MessageBranch { feasible, .. } => {
                self.messages += 1;
                self.hypotheses_generated += feasible;
                self.branch_factors.push(feasible as u64);
            }
            Event::HypothesisSet { size, .. } => self.set_sizes.push(size as u64),
            Event::Merge { .. } => self.merges += 1,
            Event::Quarantine { .. } => self.quarantines += 1,
            Event::BudgetTick { .. } => self.budget_ticks += 1,
            Event::RepairAction { .. } => self.repairs += 1,
            Event::FaultInjected { .. } => self.faults += 1,
            Event::Fallback { .. } => self.fallbacks += 1,
            Event::Convergence { .. }
            | Event::Note { .. }
            // Checkpoint/shard lifecycle and span events flow to the JSONL
            // and Chrome sinks; the snapshot schema does not count them.
            | Event::Checkpoint { .. }
            | Event::ShardHealth { .. }
            | Event::SpanStart { .. }
            | Event::SpanEnd { .. }
            // Audit findings are a report stream of their own; the
            // snapshot schema does not count them either.
            | Event::AuditFinding { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_uses_nearest_rank() {
        let s = Summary::of(&[5, 1, 3, 2, 4]);
        assert_eq!(s.p50, 3);
        assert_eq!(s.p95, 5);
        assert_eq!(s.max, 5);
        assert_eq!(Summary::of(&[]), Summary::default());
        let one = Summary::of(&[7]);
        assert_eq!((one.p50, one.p95, one.max), (7, 7, 7));
    }

    #[test]
    fn metrics_fold_events() {
        let mut m = Metrics::new();
        m.period_start(0);
        m.message_branch(0, 0, 4, 6);
        m.hypothesis_set(0, 6);
        m.merge(0, (1, 2), 3);
        m.period_end(0, 2);
        m.quarantine(1, "bad".into());
        m.budget_tick(1024, 9);
        m.repair_action(0, "fixed".into());
        m.record(Event::FaultInjected {
            period: 0,
            kind: "dropped_event".into(),
        });
        m.record(Event::Fallback { bound: 64 });
        let s = m.snapshot();
        assert_eq!(s.periods, 1);
        assert_eq!(s.messages, 1);
        assert_eq!(s.hypotheses_generated, 6);
        assert_eq!(s.merges, 1);
        assert_eq!(s.quarantines, 1);
        assert_eq!(s.budget_ticks, 1);
        assert_eq!(s.repairs, 1);
        assert_eq!(s.faults, 1);
        assert_eq!(s.fallbacks, 1);
        assert_eq!(s.set_size.max, 6);
        assert_eq!(s.branch_factor.p50, 6);
        assert_eq!(s.period_micros.max as u128, s.total_micros as u128);
    }

    #[test]
    fn snapshot_json_round_trips_strictly() {
        let mut m = Metrics::new();
        m.period_start(0);
        m.message_branch(0, 0, 3, 5);
        m.hypothesis_set(0, 5);
        m.period_end(0, 5);
        let snapshot = m.snapshot();
        let parsed = MetricsSnapshot::parse_json(&snapshot.to_json()).unwrap();
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn snapshots_are_ordered_by_seq_and_uptime() {
        let mut m = Metrics::new();
        let first = m.snapshot();
        let second = m.snapshot();
        assert_eq!(first.seq, 1);
        assert_eq!(second.seq, 2);
        assert!(second.uptime_us >= first.uptime_us);
    }

    #[test]
    fn unknown_and_missing_fields_are_rejected() {
        let good = MetricsSnapshot::default().to_json();
        assert!(MetricsSnapshot::parse_json(&good).is_ok());

        let unknown = good.replacen("\"periods\"", "\"perlods\"", 1);
        assert!(matches!(
            MetricsSnapshot::parse_json(&unknown),
            Err(MetricsParseError::UnknownField(f)) if f == "perlods"
        ));

        let missing = good.replacen("\"merges\":0,", "", 1);
        assert!(matches!(
            MetricsSnapshot::parse_json(&missing),
            Err(MetricsParseError::MissingField("merges"))
        ));

        let extra_nested =
            good.replacen("\"p95\":0,\"max\":0}", "\"p95\":0,\"max\":0,\"p99\":0}", 1);
        assert!(matches!(
            MetricsSnapshot::parse_json(&extra_nested),
            Err(MetricsParseError::UnknownField(_))
        ));

        let bad_schema = good.replacen(METRICS_SCHEMA, "bbmg-metrics/9", 1);
        assert!(matches!(
            MetricsSnapshot::parse_json(&bad_schema),
            Err(MetricsParseError::Schema(_))
        ));
    }

    #[test]
    fn display_renders_a_table() {
        let text = MetricsSnapshot::default().to_string();
        assert!(text.contains("set size"));
        assert!(text.contains("p95"));
    }
}
