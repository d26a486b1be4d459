//! Order statistics and timing helpers.

use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in `0..=1`) of `samples`; 0 when empty.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50) of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Runs `f`, returning its result and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds in `d`.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
