//! `mixed_pyxis`: mixed sharing under the Pyxis hybrid policy. A quiet
//! region is written once by thread 0 and re-read by everyone every round;
//! a hot region is rewritten by thread 0 every round and read back by
//! everyone. Two barriers per round: the coherence *policy* (lease vs
//! SI/SD mode per page) decides the cost, and the barrier/fence path runs
//! at a hundred times the episode rate of the stencil with almost no
//! dirty data.
//!
//! The quiet region is written *inside* the measured section: resetting
//! the directory at `start_measurement` would erase the writer's
//! registration and leave the pages read-only-shared, which no policy
//! invalidates. The interesting case is one registered writer.
//!
//! All values are small integers, so every thread's sum is exact and the
//! reference is integer arithmetic.

use super::{Kernel, KernelRun, RepMarks};
use crate::rng::element;
use crate::spans::Traced;
use argo::{ArgoMachine, GlobalF64Array};
use carina::Coherence;
use rma::Transport;
use std::sync::Arc;

/// Thread 0 rewrites every eighth hot word each round.
const HOT_WRITE_STEP: usize = 8;
/// Readers sample one word per 512 bytes of both regions.
const READ_STEP: usize = 64;

#[derive(Debug, Clone, Copy)]
pub struct Mixed {
    /// Words of the quiet region.
    pub quiet_n: usize,
    /// Words of the hot region.
    pub hot_n: usize,
    pub rounds: usize,
    pub seed: u64,
}

impl Mixed {
    #[inline]
    fn quiet_value(&self, i: usize) -> u64 {
        element(self.seed, 4, i as u64) % 1024
    }

    #[inline]
    fn hot_value(&self, round: usize, i: usize) -> u64 {
        (round * 7 + i) as u64 + element(self.seed, 5, 0) % 1024
    }
}

impl Kernel for Mixed {
    fn run<T: Transport, C: Coherence, const ON: bool>(
        &self,
        machine: &Arc<ArgoMachine<T, C>>,
        marks: &Arc<RepMarks>,
    ) -> KernelRun {
        let this = *self;
        let quiet = GlobalF64Array::alloc(machine.dsm(), self.quiet_n);
        let hot = GlobalF64Array::alloc(machine.dsm(), self.hot_n);
        let started = marks.clone();
        let report = machine.run(move |ctx| {
            let mut k = Traced::<T, C, ON>::new(ctx);
            k.start_measurement(|| started.measurement_started());
            if k.tid() == 0 {
                for i in 0..this.quiet_n {
                    k.write_f64(quiet.addr(i), this.quiet_value(i) as f64);
                }
            }
            k.barrier();
            let mut sum = 0.0f64;
            for round in 0..this.rounds {
                if k.tid() == 0 {
                    for i in (0..this.hot_n).step_by(HOT_WRITE_STEP) {
                        k.write_f64(hot.addr(i), this.hot_value(round, i) as f64);
                    }
                }
                k.barrier(); // publishes the round's hot writes
                for i in (0..this.quiet_n).step_by(READ_STEP) {
                    sum += k.read_f64(quiet.addr(i));
                }
                for i in (0..this.hot_n).step_by(READ_STEP) {
                    sum += k.read_f64(hot.addr(i));
                }
                k.barrier(); // orders this round's reads before the next writes
            }
            (sum as u64, k.finish())
        });
        marks.measurement_ended();
        KernelRun::from_report(report, |r| r)
    }

    /// Every thread reads the same samples, so the total is `nthreads`
    /// times one thread's sum.
    fn reference(&self, nthreads: usize) -> u64 {
        let quiet: u64 = (0..self.quiet_n)
            .step_by(READ_STEP)
            .map(|i| self.quiet_value(i))
            .sum();
        let mut one_thread = 0u64;
        for round in 0..self.rounds {
            one_thread += quiet;
            one_thread += (0..self.hot_n)
                .step_by(READ_STEP)
                .map(|i| self.hot_value(round, i))
                .sum::<u64>();
        }
        one_thread.wrapping_mul(nthreads as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_scales_with_threads_and_follows_the_seed() {
        let m = Mixed {
            quiet_n: 4096,
            hot_n: 1024,
            rounds: 5,
            seed: 9,
        };
        assert_eq!(m.reference(2), 2 * m.reference(1));
        assert_ne!(m.reference(1), Mixed { seed: 10, ..m }.reference(1));
        assert_eq!(m.quiet_value(17), m.quiet_value(17));
    }

    #[test]
    fn sums_stay_exact_in_f64() {
        // The largest full-size thread sum must stay below 2^53.
        let m = Mixed {
            quiet_n: 256 * 1024,
            hot_n: 64 * 1024,
            rounds: 1000,
            seed: 0,
        };
        assert!(m.reference(1) < 1 << 53);
        // Sampled hot words are among the rewritten ones.
        assert_eq!(READ_STEP % HOT_WRITE_STEP, 0);
    }
}
