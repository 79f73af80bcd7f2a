//! Host-speed calibration.
//!
//! On a shared host the same work can take a third more CPU time from one
//! minute to the next, as other guests compete for caches, memory
//! bandwidth and sibling hyperthreads. A [`Calibration`] times a fixed
//! stretch of work that belongs to the benchmark, never to the compiler,
//! at intervals through a timed loop. The median of those samples over
//! [`NOMINAL_MS`] is how much slower than nominal the host ran during the
//! run; the calibrated metrics divide CPU times by it. A change to the
//! compiler cannot move the reference work, so it moves the calibrated
//! metrics exactly as it moves the raw ones.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::{stats, timed};

/// The unit of every calibrated time: a calibrated millisecond is the CPU
/// time the work would take on a host where one sample of the reference
/// work takes this many milliseconds per thread. (On the 2-vCPU Xeon host
/// the benchmark was defined on, a sample took 0.85–1.4 ms.)
pub const NOMINAL_MS: f64 = 1.0;

/// Least time between two reference samples inside a timed loop.
const EVERY: Duration = Duration::from_millis(100);

/// Keys of the reference work: its working set (about 1 MiB with the
/// hash map) is of the order of a compile's.
const REFERENCE_KEYS: usize = 1 << 14;

/// Reference samples taken during a run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    /// Times the reference work once on each of two threads at the same
    /// time, as a compile's stage 2 keeps both CPUs busy and the host can
    /// slow one more than the other; the sample is the CPU time per thread.
    /// Returns the sample over [`NOMINAL_MS`].
    pub fn sample(&mut self) -> f64 {
        let (_, cost) = timed(|| {
            std::thread::scope(|scope| {
                let other = scope.spawn(reference_work);
                std::hint::black_box(reference_work());
                std::hint::black_box(other.join().expect("the reference work cannot panic"));
            })
        });
        self.samples.push(cost.cpu_ms / 2.0);
        self.last = Some(Instant::now());
        cost.cpu_ms / 2.0 / NOMINAL_MS
    }

    /// Samples the reference work if [`EVERY`] has passed since the last
    /// sample; call it between operations, outside their timing.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Whether no sample was taken yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// How much slower than nominal the host ran: the median reference
    /// time over [`NOMINAL_MS`], with the number of samples.
    ///
    /// # Panics
    ///
    /// Panics if no sample was taken.
    pub fn slowdown(&self) -> (f64, usize) {
        (
            stats::median(&self.samples) / NOMINAL_MS,
            self.samples.len(),
        )
    }
}

/// The reference work: sorting pseudo-random keys, then building and
/// probing a hash map of them — the branchy, allocation- and cache-bound
/// mix a compile is made of.
fn reference_work() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys: Vec<u64> = (0..REFERENCE_KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let map: HashMap<u64, u64> = keys.iter().map(|&k| (k, k.rotate_left(17))).collect();
    keys.iter().rev().map(|k| map[k]).fold(0, u64::wrapping_add)
}
