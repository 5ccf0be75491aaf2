//! `matmul_ro`: dense C = A × B, row-block decomposition, one bulk slice
//! read per B row ("ikj" order). A and B are read-only in the measured
//! section, so the read-hit path does most of the work.
//!
//! Elements are small dyadic rationals (A in quarters, B in halves), so
//! every product and partial sum is exact in `f64` and the result does not
//! depend on summation order: the integer closed form below is a
//! bit-for-bit reference.

// The indexed loops mirror the reference kernels.
#![allow(clippy::needless_range_loop)]

use super::{Kernel, KernelRun, RepMarks};
use crate::rng::element;
use crate::spans::Traced;
use argo::{ArgoMachine, GlobalF64Array};
use carina::Coherence;
use rma::Transport;
use std::sync::Arc;

/// Virtual cycles charged per fused multiply-add of the inner loop.
const FMA_CYCLES: u64 = 2;

#[derive(Debug, Clone, Copy)]
pub struct Matmul {
    pub n: usize,
    pub seed: u64,
}

impl Matmul {
    /// A\[i\]\[j\] in quarters: -4 ..= 8.
    #[inline]
    fn a_quarters(&self, i: usize, j: usize) -> i64 {
        (element(self.seed, 1, (i * self.n + j) as u64) % 13) as i64 - 4
    }

    /// B\[i\]\[j\] in halves: -4 ..= 6.
    #[inline]
    fn b_halves(&self, i: usize, j: usize) -> i64 {
        (element(self.seed, 2, (i * self.n + j) as u64) % 11) as i64 - 4
    }

    #[inline]
    fn a_elem(&self, i: usize, j: usize) -> f64 {
        self.a_quarters(i, j) as f64 * 0.25
    }

    #[inline]
    fn b_elem(&self, i: usize, j: usize) -> f64 {
        self.b_halves(i, j) as f64 * 0.5
    }

    /// One C element in eighths, the unit of the checksum.
    #[inline]
    fn eighths(c: f64) -> u64 {
        (c * 8.0) as i64 as u64
    }
}

impl Kernel for Matmul {
    fn run<T: Transport, C: Coherence, const ON: bool>(
        &self,
        machine: &Arc<ArgoMachine<T, C>>,
        marks: &Arc<RepMarks>,
    ) -> KernelRun {
        let this = *self;
        let n = self.n;
        let a = GlobalF64Array::alloc(machine.dsm(), n * n);
        let b = GlobalF64Array::alloc(machine.dsm(), n * n);
        let c = GlobalF64Array::alloc(machine.dsm(), n * n);
        let started = marks.clone();
        let report = machine.run(move |ctx| {
            let mut k = Traced::<T, C, ON>::new(ctx);
            let rows = k.untraced().my_chunk(n);
            for i in rows.clone() {
                let arow: Vec<f64> = (0..n).map(|j| this.a_elem(i, j)).collect();
                let brow: Vec<f64> = (0..n).map(|j| this.b_elem(i, j)).collect();
                k.untraced().write_f64_slice(a.addr(i * n), &arow);
                k.untraced().write_f64_slice(b.addr(i * n), &brow);
            }
            k.start_measurement(|| started.measurement_started());
            k.barrier();
            let mut checksum = 0u64;
            let mut arow = vec![0.0f64; n];
            let mut brow = vec![0.0f64; n];
            let mut crow = vec![0.0f64; n];
            for i in rows {
                k.read_f64_slice(a.addr(i * n), &mut arow);
                crow.iter_mut().for_each(|x| *x = 0.0);
                for kk in 0..n {
                    k.read_f64_slice(b.addr(kk * n), &mut brow);
                    let aik = arow[kk];
                    for j in 0..n {
                        crow[j] += aik * brow[j];
                    }
                }
                k.compute((n * n) as u64 * FMA_CYCLES);
                k.write_f64_slice(c.addr(i * n), &crow);
                for &v in &crow {
                    checksum = checksum.wrapping_add(Matmul::eighths(v));
                }
            }
            k.barrier();
            (checksum, k.finish())
        });
        marks.measurement_ended();
        KernelRun::from_report(report, |r| r)
    }

    /// Σ C = Σ_k (Σ_i A\[i\]\[k\]) · (Σ_j B\[k\]\[j\]), in eighths, in
    /// integer arithmetic — O(n²).
    fn reference(&self, _nthreads: usize) -> u64 {
        let n = self.n;
        let mut a_col_sums = vec![0i64; n];
        for i in 0..n {
            for k in 0..n {
                a_col_sums[k] += self.a_quarters(i, k);
            }
        }
        let mut total = 0i64;
        for k in 0..n {
            let b_row_sum: i64 = (0..n).map(|j| self.b_halves(k, j)).sum();
            total += a_col_sums[k] * b_row_sum;
        }
        total as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_direct_product_bit_for_bit() {
        let m = Matmul { n: 24, seed: 5 };
        let n = m.n;
        let mut direct = 0u64;
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0f64;
                for k in 0..n {
                    s += m.a_elem(i, k) * m.b_elem(k, j);
                }
                direct = direct.wrapping_add(Matmul::eighths(s));
            }
        }
        assert_eq!(direct, m.reference(1));
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = Matmul { n: 16, seed: 1 };
        let b = Matmul { n: 16, seed: 1 };
        let c = Matmul { n: 16, seed: 2 };
        let grid = |m: &Matmul| -> Vec<u64> {
            (0..16 * 16)
                .map(|x| (m.a_elem(x / 16, x % 16) + 100.0 * m.b_elem(x / 16, x % 16)).to_bits())
                .collect()
        };
        assert_eq!(grid(&a), grid(&b));
        assert_ne!(grid(&a), grid(&c));
        assert_ne!(a.reference(1), c.reference(1));
    }
}
