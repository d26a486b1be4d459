//! Timing helpers and the artifact writer every `BENCH_*` harness shares.
//!
//! The runner adds no warm-up and no sampling policy of its own: each
//! harness decides what it times and how many samples it takes, and the
//! runner times them, summarises them, and writes the artifact.

use std::error::Error;
use std::path::Path;
use std::time::Instant;

use bbmg_obs::json::{self, Json};

/// CPU threads the host offers (1 when the platform cannot tell): the
/// `cpu_threads` every artifact records, so a reader knows which floors
/// the host could witness.
#[must_use]
pub fn cpu_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn elapsed_micros(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Runs `f` `iterations` times and returns every wall time in micros.
pub fn time_micros(iterations: usize, mut f: impl FnMut()) -> Vec<u64> {
    (0..iterations)
        .map(|_| {
            let start = Instant::now();
            f();
            elapsed_micros(start)
        })
        .collect()
}

/// Times `run(round, key)` once per key in each of `rounds` rounds,
/// cycling through `keys`, so every key samples the same stretches of
/// host load instead of one key taking all of a slow one. Returns one
/// sample list per key, in `keys` order.
pub fn round_robin<K>(rounds: usize, keys: &[K], mut run: impl FnMut(usize, &K)) -> Vec<Vec<u64>> {
    let mut samples = vec![Vec::with_capacity(rounds); keys.len()];
    for round in 0..rounds {
        for (key, times) in keys.iter().zip(&mut samples) {
            let start = Instant::now();
            run(round, key);
            times.push(elapsed_micros(start));
        }
    }
    samples
}

/// The sample at fraction `p` (0 to 1) of the sorted `samples`, by
/// nearest rank; 0 when there are none. The result is always one of the
/// samples.
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss
)]
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len().saturating_sub(1) as f64 * p).round() as usize;
    sorted.get(rank).copied().unwrap_or(0)
}

/// The median of `samples`: the middle one, or the upper of the two
/// middle ones for an even count, so it is always one of the samples.
#[must_use]
pub fn median(samples: &[u64]) -> u64 {
    percentile(samples, 0.5)
}

/// `value` rounded to `places` decimal places, so an artifact records a
/// ratio as `2.3` rather than every digit of the division.
#[must_use]
pub fn round(value: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (value * scale).round() / scale
}

/// Writes `document` to `path` as one line of JSON, if it passes its
/// schema's [`rules`](crate::rules).
///
/// The document is rendered, the text is parsed back, and the rules run
/// on the parsed value, so they judge exactly the bytes `bbmg audit`
/// will later read. Nothing is written when a rule fails.
///
/// # Errors
///
/// The first rule the document breaks, or the write's I/O error.
pub fn write_artifact(path: impl AsRef<Path>, document: &Json) -> Result<(), Box<dyn Error>> {
    let path = path.as_ref();
    let text = json::render(document);
    crate::rules::check(&json::parse(&text)?)
        .map_err(|rule| format!("{} not written: {rule}", path.display()))?;
    std::fs::write(path, text + "\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_pick_samples_by_nearest_rank() {
        assert_eq!(median(&[5, 1, 3]), 3);
        assert_eq!(median(&[4, 1, 3, 2]), 3);
        assert_eq!(median(&[]), 0);
        let samples: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&samples, 0.95), 19);
        assert_eq!(percentile(&samples, 1.0), 20);
    }

    #[test]
    fn round_robin_cycles_keys_within_each_round() {
        let mut order = Vec::new();
        let samples = round_robin(3, &['a', 'b'], |round, &key| order.push((round, key)));
        assert_eq!(
            order,
            [(0, 'a'), (0, 'b'), (1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]
        );
        assert_eq!(samples.len(), 2);
        assert!(samples.iter().all(|times| times.len() == 3));
        assert_eq!(time_micros(4, || {}).len(), 4);
    }

    #[test]
    fn round_keeps_the_requested_places() {
        assert_eq!(round(2.298_701_298, 2), 2.3);
        assert_eq!(round(13.117_4, 3), 13.117);
        assert_eq!(json::render(&round(505.0, 2).into()), "505");
    }

    #[test]
    fn writer_refuses_a_document_that_breaks_its_rules() {
        let path = std::env::temp_dir().join(format!("bbmg-bench-writer-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let document = Json::object([("schema", crate::BENCH_SERVE_SCHEMA.into())]);
        let err = write_artifact(&path, &document).expect_err("a bare tag breaks the rules");
        assert!(err.to_string().contains("not written"), "{err}");
        assert!(!path.exists());
    }
}
