//! Dense matrix multiply C = A × B.
//!
//! Paper §5.4 / Figure 13d ("a naïve Matrix Multiplication benchmark",
//! inputs 2000² and 5000²). Each thread owns a block of C rows; A and B
//! are read-only after initialization, so Carina classifies their pages
//! S,NW and they survive every synchronization — the ideal case for the
//! P/S3 classification.
//!
//! The MPI port "has an algorithmic advantage as it is already faster in a
//! single node": it computes on rank-local buffers with a hand-tuned inner
//! loop (modeled by a lower per-FMA cost) after a one-time broadcast of B
//! and scatter of A — but for the small input the broadcast/gather overhead
//! eats the advantage beyond one node.


// Indexed loops below mirror the reference kernels (multi-array accesses
// keyed by one index); iterator rewrites would obscure them.
#![allow(clippy::needless_range_loop)]
use crate::costs;
use crate::harness::{chunk, outcome_of, run_mpi, MpiCtx, Outcome};
use argo::types::GlobalF64Array;
use argo::ArgoMachine;
use simnet::{CostModel, Tag};
use std::sync::Arc;
use carina::Coherence;
use rma::{Endpoint, Transport};

#[derive(Debug, Clone, Copy)]
pub struct MatmulParams {
    pub n: usize,
}

impl Default for MatmulParams {
    fn default() -> Self {
        MatmulParams { n: 256 }
    }
}

/// Deterministic input element values.
#[inline]
pub fn a_elem(i: usize, j: usize) -> f64 {
    ((i * 31 + j * 17) % 13) as f64 * 0.25 - 1.0
}

#[inline]
pub fn b_elem(i: usize, j: usize) -> f64 {
    ((i * 7 + j * 23) % 11) as f64 * 0.5 - 2.0
}

/// Sequential reference checksum (sum of all C elements).
pub fn reference_checksum(p: MatmulParams) -> f64 {
    let n = p.n;
    // sum(C) = sum_k (sum_i A[i][k]) * (sum_j B[k][j]) — O(n²).
    let mut a_col_sums = vec![0.0f64; n];
    for i in 0..n {
        for k in 0..n {
            a_col_sums[k] += a_elem(i, k);
        }
    }
    let mut total = 0.0;
    for k in 0..n {
        let mut b_row_sum = 0.0;
        for j in 0..n {
            b_row_sum += b_elem(k, j);
        }
        total += a_col_sums[k] * b_row_sum;
    }
    total
}

/// Run on an Argo cluster. Row-block decomposition of C; the kernel is the
/// rank-1-update ("ikj") order so every DSM access is row-contiguous.
pub fn run_argo<T: Transport, C: Coherence>(machine: &Arc<ArgoMachine<T, C>>, p: MatmulParams) -> Outcome {
    let dsm = machine.dsm();
    let n = p.n;
    let a = GlobalF64Array::alloc(dsm, n * n);
    let b = GlobalF64Array::alloc(dsm, n * n);
    let c = GlobalF64Array::alloc(dsm, n * n);
    let report = machine.run(move |ctx| {
        let rows = ctx.my_chunk(n);
        for i in rows.clone() {
            let arow: Vec<f64> = (0..n).map(|j| a_elem(i, j)).collect();
            let brow: Vec<f64> = (0..n).map(|j| b_elem(i, j)).collect();
            ctx.write_f64_slice(a.addr(i * n), &arow);
            ctx.write_f64_slice(b.addr(i * n), &brow);
        }
        ctx.start_measurement();
        ctx.barrier();
        let mut checksum = 0.0;
        let mut arow = vec![0.0f64; n];
        let mut brow = vec![0.0f64; n];
        let mut crow = vec![0.0f64; n];
        for i in rows {
            ctx.read_f64_slice(a.addr(i * n), &mut arow);
            crow.iter_mut().for_each(|x| *x = 0.0);
            for k in 0..n {
                ctx.read_f64_slice(b.addr(k * n), &mut brow);
                let aik = arow[k];
                for j in 0..n {
                    crow[j] += aik * brow[j];
                }
            }
            ctx.thread.compute((n * n) as u64 * costs::MATMUL_FMA);
            ctx.write_f64_slice(c.addr(i * n), &crow);
            checksum += crow.iter().sum::<f64>();
        }
        ctx.barrier();
        checksum
    });
    outcome_of(report)
}

/// Optimized per-FMA cost of the hand-tuned MPI kernel.
const MATMUL_FMA_OPTIMIZED: u64 = 1;

/// MPI port: broadcast B, scatter A row blocks, compute locally, gather C.
pub fn run_mpi_variant(nodes: usize, ranks_per_node: usize, p: MatmulParams) -> Outcome {
    let cost = CostModel::paper_2011();
    let n = p.n;
    let (cycles, results, net) = run_mpi(nodes, ranks_per_node, cost, move |ctx: &mut MpiCtx| {
        let ranks = ctx.ranks;
        let rows = ctx.my_chunk(n);
        // Broadcast of B + scatter of A, modeled as data-sized messages
        // from rank 0 (contents are regenerated locally — deterministic
        // inputs — but the wire time is charged in full).
        if ctx.rank == 0 {
            for r in 1..ranks {
                let r_rows = chunk(r, ranks, n).len();
                ctx.world
                    .send(&mut ctx.thread, 0, r, Tag(1), vec![0u8; n * n * 8]); // B
                ctx.world
                    .send(&mut ctx.thread, 0, r, Tag(2), vec![0u8; r_rows * n * 8]); // A block
            }
        } else {
            let _ = ctx.world.recv(&mut ctx.thread, ctx.rank, Some(0), Tag(1));
            let _ = ctx.world.recv(&mut ctx.thread, ctx.rank, Some(0), Tag(2));
        }
        // Local compute with the optimized kernel.
        let bmat: Vec<f64> = (0..n * n).map(|x| b_elem(x / n, x % n)).collect();
        let mut checksum = 0.0;
        let mut payload = Vec::with_capacity(rows.len() * n * 8);
        for i in rows.clone() {
            let mut crow = vec![0.0f64; n];
            for k in 0..n {
                let aik = a_elem(i, k);
                let brow = &bmat[k * n..(k + 1) * n];
                for j in 0..n {
                    crow[j] += aik * brow[j];
                }
            }
            checksum += crow.iter().sum::<f64>();
            for v in &crow {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        ctx.thread
            .compute((rows.len() * n * n) as u64 * MATMUL_FMA_OPTIMIZED);
        // Gather C at rank 0.
        if ctx.rank == 0 {
            for r in 1..ranks {
                let m = ctx.world.recv(&mut ctx.thread, 0, Some(r), Tag(3));
                for e in m.payload.chunks_exact(8) {
                    checksum += f64::from_le_bytes(e.try_into().expect("8"));
                }
            }
            checksum
        } else {
            ctx.world.send(&mut ctx.thread, ctx.rank, 0, Tag(3), payload);
            0.0
        }
    });
    Outcome {
        cycles,
        seconds: cost.cycles_to_secs(cycles),
        wall_seconds: 0.0,
        checksum: results[0],
        coherence: Default::default(),
        net,
        profile: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo::ArgoConfig;

    fn small() -> MatmulParams {
        MatmulParams { n: 48 }
    }

    #[test]
    fn reference_checksum_matches_direct_computation() {
        let n = 16;
        let mut direct = 0.0;
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a_elem(i, k) * b_elem(k, j);
                }
                direct += s;
            }
        }
        let fast = reference_checksum(MatmulParams { n });
        assert!((direct - fast).abs() < 1e-9 * direct.abs().max(1.0));
    }

    #[test]
    fn argo_matches_reference() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 2));
        let out = run_argo(&m, small());
        let reference = reference_checksum(small());
        assert!(
            (out.checksum - reference).abs() < 1e-6 * reference.abs().max(1.0),
            "argo {} vs ref {}",
            out.checksum,
            reference
        );
    }

    #[test]
    fn mpi_matches_reference() {
        let out = run_mpi_variant(2, 2, small());
        let reference = reference_checksum(small());
        assert!((out.checksum - reference).abs() < 1e-6 * reference.abs().max(1.0));
    }

    #[test]
    fn read_only_inputs_are_kept_across_barriers() {
        // A and B become S,NW: SI fences keep them (the P/S3 payoff).
        let m = ArgoMachine::new(ArgoConfig::small(2, 2));
        let out = run_argo(&m, small());
        assert!(out.coherence.si_kept > 0);
    }
}

