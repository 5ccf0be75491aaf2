//! `sor_stencil` / `sor_chaos`: red-black successive over-relaxation on an
//! `n × n` grid. Rows are block-distributed; each half-sweep reads three
//! rows in bulk and writes back its colour's cells one by one, so this is
//! the write path (faults, twins, diffs, write-backs, SD drains) beside
//! `matmul_ro`'s read path.
//!
//! Off-colour neighbours are stable during a half-sweep, so the parallel
//! result equals the sequential one bit for bit. The checksum is the
//! wrapping sum of the cells' bit patterns: exact and independent of the
//! order threads add in.

// The indexed loops mirror the reference kernels.
#![allow(clippy::needless_range_loop)]

use super::{Kernel, KernelRun, RepMarks};
use crate::rng::element;
use crate::spans::Traced;
use argo::{ArgoMachine, GlobalF64Array};
use carina::Coherence;
use rma::Transport;
use std::sync::Arc;

/// Over-relaxation factor.
const OMEGA: f64 = 1.25;
/// Virtual cycles charged per cell of a row update.
const CELL_CYCLES: u64 = 4;

#[derive(Debug, Clone, Copy)]
pub struct Sor {
    /// The grid is `n × n`.
    pub n: usize,
    /// Red+black sweeps.
    pub iterations: usize,
    pub seed: u64,
}

impl Sor {
    /// Initial grid: hot left edge, cold other edges, seeded interior.
    #[inline]
    fn initial(&self, i: usize, j: usize) -> f64 {
        let n = self.n;
        if j == 0 {
            100.0
        } else if i == 0 || i == n - 1 || j == n - 1 {
            0.0
        } else {
            (element(self.seed, 3, (i * n + j) as u64) % 10) as f64
        }
    }
}

impl Kernel for Sor {
    fn run<T: Transport, C: Coherence, const ON: bool>(
        &self,
        machine: &Arc<ArgoMachine<T, C>>,
        marks: &Arc<RepMarks>,
    ) -> KernelRun {
        let this = *self;
        let n = self.n;
        let grid = GlobalF64Array::alloc(machine.dsm(), n * n);
        let started = marks.clone();
        let report = machine.run(move |ctx| {
            let mut k = Traced::<T, C, ON>::new(ctx);
            // Interior rows are block-distributed; thread 0 also owns the
            // two boundary rows.
            let per = (n - 2).div_ceil(k.nthreads());
            let lo = (1 + k.tid() * per).min(n - 1);
            let hi = (lo + per).min(n - 1);
            let mut my_rows: Vec<usize> = (lo..hi).collect();
            if k.tid() == 0 {
                my_rows.push(0);
                my_rows.push(n - 1);
            }
            for &i in &my_rows {
                let row: Vec<f64> = (0..n).map(|j| this.initial(i, j)).collect();
                k.untraced().write_f64_slice(grid.addr(i * n), &row);
            }
            k.start_measurement(|| started.measurement_started());
            k.barrier();
            let mut rows = [vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; n]];
            let mut out = vec![0.0f64; n];
            for _ in 0..this.iterations {
                for colour in 0..2usize {
                    for i in lo..hi {
                        // The same-colour words fetched along are unused.
                        for (d, r) in rows.iter_mut().enumerate() {
                            k.read_f64_slice(grid.addr((i - 1 + d) * n), r);
                        }
                        out.copy_from_slice(&rows[1]);
                        for j in 1..(n - 1) {
                            if (i + j) % 2 == colour {
                                let nb = rows[0][j] + rows[2][j] + rows[1][j - 1] + rows[1][j + 1];
                                out[j] += OMEGA * (nb / 4.0 - rows[1][j]);
                            }
                        }
                        k.compute(n as u64 * CELL_CYCLES);
                        // Only this colour's cells: neighbour threads read
                        // the others concurrently.
                        for j in 1..(n - 1) {
                            if (i + j) % 2 == colour {
                                k.write_f64(grid.addr(i * n + j), out[j]);
                            }
                        }
                    }
                    k.barrier();
                }
            }
            let mut checksum = 0u64;
            let mut buf = vec![0.0f64; n];
            for &i in &my_rows {
                k.read_f64_slice(grid.addr(i * n), &mut buf);
                for v in &buf {
                    checksum = checksum.wrapping_add(v.to_bits());
                }
            }
            (checksum, k.finish())
        });
        marks.measurement_ended();
        KernelRun::from_report(report, |r| r)
    }

    /// The same schedule on a plain vector.
    fn reference(&self, _nthreads: usize) -> u64 {
        let n = self.n;
        let mut g: Vec<f64> = (0..n * n).map(|x| self.initial(x / n, x % n)).collect();
        for _ in 0..self.iterations {
            for colour in 0..2usize {
                for i in 1..(n - 1) {
                    for j in 1..(n - 1) {
                        if (i + j) % 2 == colour {
                            let nb = g[(i - 1) * n + j]
                                + g[(i + 1) * n + j]
                                + g[i * n + j - 1]
                                + g[i * n + j + 1];
                            g[i * n + j] += OMEGA * (nb / 4.0 - g[i * n + j]);
                        }
                    }
                }
            }
        }
        g.iter().fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxation_spreads_heat_inward() {
        let cold = Sor {
            n: 32,
            iterations: 0,
            seed: 1,
        };
        let warm = Sor {
            iterations: 40,
            ..cold
        };
        // The sweeps change the grid, and deterministically so.
        assert_ne!(cold.reference(1), warm.reference(1));
        assert_eq!(warm.reference(1), warm.reference(2));
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = Sor {
            n: 24,
            iterations: 2,
            seed: 3,
        };
        let b = Sor { seed: 4, ..a };
        let cells = |s: &Sor| -> Vec<u64> {
            (0..24 * 24)
                .map(|x| s.initial(x / 24, x % 24).to_bits())
                .collect()
        };
        assert_eq!(cells(&a), cells(&a));
        assert_ne!(cells(&a), cells(&b));
        assert_ne!(a.reference(1), b.reference(1));
        // Edges do not depend on the seed.
        assert_eq!(a.initial(5, 0), 100.0);
        assert_eq!(b.initial(0, 7), 0.0);
    }
}
