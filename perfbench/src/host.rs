//! A fixed reference kernel that measures how fast the shared host runs
//! at the moment, so that time metrics can be scaled to one host speed.
//!
//! The host this benchmark was sized on is a 2-vCPU VM whose neighbours
//! share its physical cores. Its speed drifts by 1.5-3x over minutes, and
//! the learner slows down more than plain arithmetic does: medians over
//! 20 s windows of a GM learn at bound 16 spread by 27% (IQR over median)
//! where an xorshift loop spread by 17%. A sort and a hash-map churn
//! tracked the learner: the ratio of the learn to them spread by 3.6% over
//! the same windows, and that of a batch of exact robust learns by 4.0%.
//! This kernel is an allocation-free variant of that pair.
//!
//! The kernel is the benchmark's own code and calls nothing in the
//! library, so a change to the program does not move it. It runs in the
//! benchmark's own process, interleaved with the items, so it sees the same
//! host phases and vCPU placement as they do. Its buffers are allocated
//! once, before the first pass, and it allocates nothing after that, so it
//! adds a constant to `peak_rss_mb` and no noise. (A run of the kernel in
//! a child process did not track: its samples spread by 31%, more than the
//! workload they were meant to correct.)

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Kernel runs before every pass and after the last one.
pub const RUNS_PER_GAP: usize = 4;

/// A round figure near the kernel's wall time, in milliseconds, on the
/// sizing host in a calm phase. Scaled metrics read as wall time at the
/// host speed where the kernel takes this long.
pub const REFERENCE_MS: f64 = 10.0;

/// Keys sorted per run.
const SORT_KEYS: usize = 400_000;
/// Hash-table operations per run, over this many distinct keys, in an
/// open-addressing table of `TABLE_SLOTS` slots.
const HASH_OPS: u64 = 120_000;
const HASH_KEYS: u64 = 20_000;
const TABLE_SLOTS: usize = 1 << 15;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel's buffers, reused by every run.
struct Kernel {
    keys: Vec<u32>,
    /// `(key, value)` slots; key 0 is empty.
    table: Vec<(u64, u64)>,
}

impl Kernel {
    fn run(&mut self) {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for key in &mut self.keys {
            *key = xorshift(&mut x) as u32;
        }
        self.keys.sort_unstable();
        black_box(&self.keys);

        self.table.fill((0, 0));
        let mask = TABLE_SLOTS - 1;
        let mut sum = 0u64;
        for i in 0..HASH_OPS {
            let r = xorshift(&mut x);
            let key = r % HASH_KEYS + 1;
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 49) as usize & mask;
            loop {
                let (k, v) = &mut self.table[slot];
                if *k == key {
                    if *v % 7 == 0 {
                        sum = sum.wrapping_add(*v);
                        *v = i;
                    } else {
                        *v ^= r;
                    }
                    break;
                }
                if *k == 0 {
                    *k = key;
                    *v = i ^ r;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        black_box(sum);
    }
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel {
        keys: vec![0; SORT_KEYS],
        table: vec![(0, 0); TABLE_SLOTS],
    });
}

/// Runs the kernel once and returns its wall time in milliseconds. Its
/// inputs are fixed, so every run does the same work.
#[must_use]
pub fn kernel_ms() -> f64 {
    KERNEL.with_borrow_mut(|kernel| {
        let start = Instant::now();
        kernel.run();
        start.elapsed().as_secs_f64() * 1e3
    })
}
