//! Host-speed probe, used to scale the end-to-end times to one reference
//! host speed.
//!
//! The benchmark host is a virtual machine shared with other tenants.
//! User CPU time equals wall time there and steal time is zero, yet the
//! same iteration, with identical event counts, takes twice as long in
//! one ten-minute stretch as in another. The probe is a fixed piece of
//! work of the simulator's kind (a binary-heap event queue popped and
//! refilled, each event updating a state slot picked at random), run in
//! the benchmark's own thread between iterations on buffers allocated
//! once, so its time follows the host and not the program under test.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Probe seconds at the reference host speed: about the probe's median
/// on the 2 vCPU Xeon benchmark host. A time scaled by
/// `REFERENCE_S / probe` reads what it would on a host that runs the
/// probe in exactly this long.
pub const REFERENCE_S: f64 = 0.03;

/// Events waiting in the probe's queue.
const QUEUE: u64 = 50_000;
/// State slots (16 bytes each: 2 MiB).
const SLOTS: usize = 1 << 17;
/// Events popped and re-armed per probe run.
const EVENTS: u64 = 200_000;
/// Probe runs per sample; the sample is their median.
const REPEATS: usize = 3;

pub struct Probe {
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    slots: Vec<(u64, f64)>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            queue: BinaryHeap::with_capacity(QUEUE as usize + 1),
            slots: vec![(0, 0.0); SLOTS],
        }
    }

    /// Seconds of one probe run.
    fn once(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.queue.clear();
        for id in 0..QUEUE {
            self.queue.push(Reverse((next() % 1000, id)));
        }
        for _ in 0..EVENTS {
            let Reverse((t, id)) = self.queue.pop().expect("every pop is re-armed");
            let r = next();
            let slot = &mut self.slots[(id ^ r) as usize & (SLOTS - 1)];
            slot.0 += 1;
            slot.1 += (r % 97) as f64 * 0.5;
            self.queue.push(Reverse((t + 1 + r % 500, id)));
        }
        black_box(&self.slots);
        start.elapsed().as_secs_f64()
    }

    /// Median seconds of a few probe runs.
    pub fn sample(&mut self) -> f64 {
        let mut runs: Vec<f64> = (0..REPEATS).map(|_| self.once()).collect();
        runs.sort_by(f64::total_cmp);
        runs[REPEATS / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_runs_take_time() {
        let mut p = Probe::new();
        let s = p.sample();
        assert!(s > 0.0 && s < 10.0, "probe sample {s}");
    }
}
