//! Blackscholes (PARSEC): price a portfolio of European options.
//!
//! Paper §5.4 / Figure 13c. Embarrassingly parallel with "only a single
//! barrier synchronization at the end of each benchmark iteration" — the
//! best case for Argo, which scales it to 128 nodes (2048 cores) while the
//! MPI port stops scaling at 16 nodes because its scatter/gather funnels
//! the whole portfolio through rank 0 every iteration.

use crate::costs;
use crate::harness::{chunk, outcome_of, run_mpi, MpiCtx, Outcome};

use argo::types::GlobalF64Array;
use argo::ArgoMachine;
use simnet::{CostModel, Tag};
use std::sync::Arc;
use carina::Coherence;
use rma::{Endpoint, Transport};

/// Problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct BsParams {
    pub options: usize,
    pub iterations: usize,
}

impl Default for BsParams {
    fn default() -> Self {
        BsParams {
            options: 16_384,
            iterations: 4,
        }
    }
}

/// Deterministic input generator: option `i`'s (spot, strike, rate, vol,
/// time-to-expiry).
#[inline]
pub fn option_inputs(i: usize) -> (f64, f64, f64, f64, f64) {
    let k = i as f64;
    (
        90.0 + (k % 40.0),
        95.0 + (k % 30.0),
        0.02 + (k % 7.0) * 0.005,
        0.15 + (k % 11.0) * 0.02,
        0.25 + (k % 8.0) * 0.25,
    )
}

/// Cumulative normal distribution (Abramowitz & Stegun 26.2.17), the same
/// approximation the PARSEC kernel uses.
fn cnd(x: f64) -> f64 {
    let l = x.abs();
    let k = 1.0 / (1.0 + 0.2316419 * l);
    let poly = k
        * (0.319381530
            + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
    let w = 1.0 - 1.0 / (2.0 * std::f64::consts::PI).sqrt() * (-l * l / 2.0).exp() * poly;
    if x < 0.0 {
        1.0 - w
    } else {
        w
    }
}

/// Black-Scholes European call price.
pub fn bs_call(s: f64, k: f64, r: f64, v: f64, t: f64) -> f64 {
    let d1 = ((s / k).ln() + (r + v * v / 2.0) * t) / (v * t.sqrt());
    let d2 = d1 - v * t.sqrt();
    s * cnd(d1) - k * (-r * t).exp() * cnd(d2)
}

/// Sequential reference checksum (sum of all option prices).
pub fn reference_checksum(p: BsParams) -> f64 {
    (0..p.options)
        .map(|i| {
            let (s, k, r, v, t) = option_inputs(i);
            bs_call(s, k, r, v, t)
        })
        .sum()
}

/// Run on an Argo cluster (also serves as the "Pthreads" baseline when the
/// machine has a single node).
pub fn run_argo<T: Transport, C: Coherence>(machine: &Arc<ArgoMachine<T, C>>, p: BsParams) -> Outcome {
    run_argo_with(machine, p, false)
}

/// As [`run_argo`], optionally allocating the option arrays with
/// block-distributed homes (each thread's chunk mostly node-local) — the
/// per-allocation distribution hint explored by `ablation_distribution`.
pub fn run_argo_with<T: Transport, C: Coherence>(machine: &Arc<ArgoMachine<T, C>>, p: BsParams, blocked: bool) -> Outcome {
    let dsm = machine.dsm();
    let alloc = |dsm: &carina::Dsm<T, C>, len: usize| {
        if blocked {
            GlobalF64Array::alloc_blocked(dsm, len)
        } else {
            GlobalF64Array::alloc(dsm, len)
        }
    };
    let inputs: [GlobalF64Array; 5] = std::array::from_fn(|_| alloc(dsm, p.options));
    let out = alloc(dsm, p.options);
    let report = machine.run(move |ctx| {
        let chunk = ctx.my_chunk(p.options);
        // Distributed initialization (excluded from measurement).
        for i in chunk.clone() {
            let (s, k, r, v, t) = option_inputs(i);
            for (arr, val) in inputs.iter().zip([s, k, r, v, t]) {
                arr.set(ctx, i, val);
            }
        }
        ctx.start_measurement();
        let n = chunk.len();
        let mut bufs: Vec<Vec<f64>> = (0..5).map(|_| vec![0.0; n]).collect();
        let mut prices = vec![0.0; n];
        let mut checksum = 0.0;
        for _ in 0..p.iterations {
            if n > 0 {
                for (arr, buf) in inputs.iter().zip(bufs.iter_mut()) {
                    ctx.read_f64_slice(arr.addr(chunk.start), buf);
                }
                checksum = 0.0;
                for j in 0..n {
                    prices[j] = bs_call(bufs[0][j], bufs[1][j], bufs[2][j], bufs[3][j], bufs[4][j]);
                    checksum += prices[j];
                }
                ctx.thread.compute(n as u64 * costs::BLACKSCHOLES_OPTION);
                ctx.write_f64_slice(out.addr(chunk.start), &prices);
            }
            ctx.barrier();
        }
        checksum
    });
    outcome_of(report)
}

/// MPI port: rank 0 owns the portfolio; every iteration scatters input
/// chunks and gathers prices back (the PARSEC MPI port's structure).
pub fn run_mpi_variant(nodes: usize, ranks_per_node: usize, p: BsParams) -> Outcome {
    let cost = CostModel::paper_2011();
    let (cycles, results, net) = run_mpi(nodes, ranks_per_node, cost, move |ctx: &mut MpiCtx| {
        let ranks = ctx.ranks;
        let mut checksum = 0.0;
        for iter in 0..p.iterations {
            let tag_in = Tag(100 + iter as u32);
            let tag_out = Tag(200 + iter as u32);
            if ctx.rank == 0 {
                // Scatter: send each rank its input chunk (5 f64 per option).
                for r in 1..ranks {
                    let payload = vec![0u8; chunk(r, ranks, p.options).len() * 5 * 8];
                    ctx.world.send(&mut ctx.thread, 0, r, tag_in, payload);
                }
                // Compute own chunk.
                let own = ctx.my_chunk(p.options);
                ctx.thread.compute(own.len() as u64 * costs::BLACKSCHOLES_OPTION);
                checksum = own
                    .map(|i| {
                        let (s, k, r, v, t) = option_inputs(i);
                        bs_call(s, k, r, v, t)
                    })
                    .sum();
                // Gather: receive each rank's prices.
                for r in 1..ranks {
                    let m = ctx.world.recv(&mut ctx.thread, 0, Some(r), tag_out);
                    for price in m.payload.chunks_exact(8) {
                        checksum += f64::from_le_bytes(price.try_into().expect("8 bytes"));
                    }
                }
            } else {
                let _ = ctx.world.recv(&mut ctx.thread, ctx.rank, Some(0), tag_in);
                let mine = ctx.my_chunk(p.options);
                ctx.thread.compute(mine.len() as u64 * costs::BLACKSCHOLES_OPTION);
                let mut payload = Vec::with_capacity(mine.len() * 8);
                for i in mine {
                    let (s, k, r, v, t) = option_inputs(i);
                    payload.extend_from_slice(&bs_call(s, k, r, v, t).to_le_bytes());
                }
                ctx.world.send(&mut ctx.thread, ctx.rank, 0, tag_out, payload);
            }
        }
        checksum
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

    const TOL: f64 = 1e-9;

    fn small() -> BsParams {
        BsParams {
            options: 600,
            iterations: 2,
        }
    }

    #[test]
    fn price_is_sane() {
        // At-the-money call with typical vol: positive, below spot.
        let c = bs_call(100.0, 100.0, 0.05, 0.2, 1.0);
        assert!(c > 5.0 && c < 20.0, "price {c}");
        // Deep in-the-money ≈ intrinsic value.
        let c = bs_call(200.0, 100.0, 0.05, 0.2, 0.5);
        assert!((c - 100.0).abs() < 10.0);
    }

    #[test]
    fn argo_matches_reference() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 2));
        let out = run_argo(&m, small());
        let reference = reference_checksum(small());
        assert!(
            (out.checksum - reference).abs() / reference < TOL,
            "argo {} vs ref {}",
            out.checksum,
            reference
        );
        assert!(out.cycles > 0);
    }

    #[test]
    fn mpi_matches_reference() {
        let out = run_mpi_variant(2, 2, small());
        let reference = reference_checksum(small());
        assert!((out.checksum - reference).abs() / reference < TOL);
    }

    #[test]
    fn parallel_run_is_faster_than_sequential() {
        let p = small();
        let seq = run_argo(&ArgoMachine::new(ArgoConfig::small(1, 1)), p);
        let par = run_argo(&ArgoMachine::new(ArgoConfig::small(1, 8)), p);
        assert!(par.speedup_over(&seq) > 2.0, "speedup {}", par.speedup_over(&seq));
    }
}

#[cfg(test)]
mod invariant_tests {
    use super::*;

    /// Put-call parity: C - P = S - K·e^(-rT), with the put priced via the
    /// same CND machinery. A strong check on the pricing kernel.
    #[test]
    fn put_call_parity_holds() {
        fn bs_put(s: f64, k: f64, r: f64, v: f64, t: f64) -> f64 {
            // P = C - S + K e^{-rT}
            bs_call(s, k, r, v, t) - s + k * (-r * t).exp()
        }
        for i in 0..500 {
            let (s, k, r, v, t) = option_inputs(i);
            let c = bs_call(s, k, r, v, t);
            let p = bs_put(s, k, r, v, t);
            let parity = c - p - (s - k * (-r * t).exp());
            assert!(parity.abs() < 1e-9, "parity violated at {i}: {parity}");
            // Prices are nonnegative and bounded by their no-arbitrage caps.
            assert!(c >= -1e-12 && c <= s + 1e-9, "call bounds at {i}: {c}");
            assert!(p >= -1e-12 && p <= k + 1e-9, "put bounds at {i}: {p}");
        }
    }

    /// Monotonicity in spot: calls are non-decreasing in S.
    #[test]
    fn call_monotone_in_spot() {
        for s10 in 50..150 {
            let s = s10 as f64;
            let a = bs_call(s, 100.0, 0.03, 0.25, 1.0);
            let b = bs_call(s + 1.0, 100.0, 0.03, 0.25, 1.0);
            assert!(b >= a - 1e-12, "not monotone at S={s}");
        }
    }
}
