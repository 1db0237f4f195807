//! A host-speed reference, so wall times are comparable across runs.
//!
//! The benchmark runs on virtual machines that share their hosts. There
//! a single-threaded loop of fixed work runs at one speed for a few
//! seconds and up to 1.6 times slower for the next, and the slow phases
//! last from seconds to minutes. Every parqp operation slows by nearly
//! the same factor at the same moments, so ten runs of identical code
//! spread by up to a third in wall time, whatever the run length.
//!
//! [`Reference`] is a fixed kernel of the same kind of work parqp does
//! (sorting and random lookups in a few hundred KiB of `u64`s), timed
//! right before every measured operation. It runs twice and only the
//! second run is timed, so its data sits in cache whatever the operation
//! before it left there. [`adjust`] rescales a wall
//! time by how much slower the kernel ran around it than
//! [`NOMINAL_KERNEL_NS`]. The kernel is the benchmark's own code, so a
//! change to parqp moves the adjusted times exactly as it moves the wall
//! times at a fixed host speed.

use parqp_testkit::bench::time_ns;
use parqp_testkit::rng::splitmix64;

/// Keys the kernel sorts and then looks up, one by one.
const KERNEL_KEYS: usize = 1 << 15;

/// The kernel's time at nominal host speed: a round figure inside the
/// range of its per-run medians (1.5 to 2.4 ms) on the 2-vCPU Xeon
/// virtual machine the bounds in `BENCHMARK.json` were set on. Adjusted
/// times read in ms at that speed.
pub const NOMINAL_KERNEL_NS: f64 = 2_000_000.0;

/// Kernel samples on each side of an operation that its adjustment uses.
const NEIGHBOURS: usize = 4;

/// The reference kernel and its buffers, allocated once.
pub struct Reference {
    keys: Vec<u64>,
    sorted: Vec<u64>,
}

impl Reference {
    /// Build the kernel's fixed input.
    pub fn new() -> Reference {
        let mut state = 0x5eed;
        let keys = (0..KERNEL_KEYS).map(|_| splitmix64(&mut state)).collect();
        Reference {
            keys,
            sorted: Vec::with_capacity(KERNEL_KEYS),
        }
    }

    /// Run the kernel twice; the wall time of the second run in ns.
    pub fn sample(&mut self) -> u64 {
        self.run();
        let begin = time_ns();
        self.run();
        time_ns() - begin
    }

    fn run(&mut self) {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        let found = self
            .keys
            .iter()
            .filter(|k| self.sorted.binary_search(k).is_ok())
            .count();
        std::hint::black_box(found);
    }
}

/// For each of `kernel_ns`, the median of it and its [`NEIGHBOURS`] on
/// each side: the host's speed around that moment, with a single
/// interrupted kernel run outvoted.
pub fn local_medians(kernel_ns: &[u64]) -> Vec<u64> {
    (0..kernel_ns.len())
        .map(|i| {
            let lo = i.saturating_sub(NEIGHBOURS);
            let hi = (i + NEIGHBOURS + 1).min(kernel_ns.len());
            let mut window = kernel_ns[lo..hi].to_vec();
            window.sort_unstable();
            window[(window.len() - 1) / 2]
        })
        .collect()
}

/// `ns` measured while the kernel took `kernel_ns`, rescaled to the
/// nominal host speed.
pub fn adjust(ns: u64, kernel_ns: u64) -> f64 {
    ns as f64 * NOMINAL_KERNEL_NS / kernel_ns.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_medians_outvote_one_outlier() {
        assert_eq!(local_medians(&[10, 10, 90, 10, 10]), vec![10; 5]);
        assert_eq!(local_medians(&[7]), vec![7]);
    }

    #[test]
    fn adjust_scales_by_the_kernel_slowdown() {
        let slow = 2.0 * NOMINAL_KERNEL_NS;
        assert_eq!(adjust(300, slow as u64), 150.0);
    }
}
