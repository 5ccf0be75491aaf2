//! Shared infrastructure for the benchmark applications: outcome types,
//! speedup math, an MPI-style rank runner, and a hierarchical global
//! reducer for Argo programs.

use argo::ArgoCtx;
use argo::types::GlobalF64Array;
use carina::{Coherence, CoherenceSnapshot};
use rma::Transport;
use simnet::stats::NetStatsSnapshot;
use simnet::{ClusterTopology, CostModel, Interconnect, MsgWorld, NodeId, SimThread};
use std::sync::Arc;

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Virtual cycles of the measured section (0 on the native backend).
    pub cycles: u64,
    /// Seconds at the cost model's CPU frequency.
    pub seconds: f64,
    /// Wall-clock seconds of the parallel region.
    pub wall_seconds: f64,
    /// Workload-defined checksum for cross-variant validation.
    pub checksum: f64,
    pub coherence: CoherenceSnapshot,
    pub net: NetStatsSnapshot,
    /// Latency histograms of the run (merged across nodes).
    pub profile: obs::ProfileSnapshot,
}

impl Outcome {
    /// Speedup of `self` relative to a baseline run (typically sequential).
    pub fn speedup_over(&self, baseline: &Outcome) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Two checksums agree to a relative tolerance (floating-point sums
    /// reorder across thread counts).
    pub fn checksum_matches(&self, other: &Outcome, rel_tol: f64) -> bool {
        let denom = self.checksum.abs().max(other.checksum.abs()).max(1e-12);
        ((self.checksum - other.checksum).abs() / denom) < rel_tol
    }
}

/// Fold an Argo run report whose per-thread results are checksum partials
/// into an [`Outcome`] (checksum = sum of partials).
pub fn outcome_of(report: argo::RunReport<f64>) -> Outcome {
    Outcome {
        cycles: report.cycles,
        seconds: report.seconds,
        wall_seconds: report.wall_seconds,
        checksum: report.results.iter().sum(),
        coherence: report.coherence,
        net: report.net,
        profile: report.profile,
    }
}

/// Context handed to each rank of an MPI-style run.
pub struct MpiCtx {
    pub thread: SimThread,
    pub world: Arc<MsgWorld>,
    pub rank: usize,
    pub ranks: usize,
}

impl MpiCtx {
    /// This rank's contiguous chunk of `0..n`.
    pub fn my_chunk(&self, n: usize) -> std::ops::Range<usize> {
        chunk(self.rank, self.ranks, n)
    }
}

/// Rank `rank`'s contiguous chunk of `0..n` split over `ranks`.
pub fn chunk(rank: usize, ranks: usize, n: usize) -> std::ops::Range<usize> {
    let per = n.div_ceil(ranks);
    (rank * per).min(n)..((rank + 1) * per).min(n)
}

/// Run an MPI-style program: `ranks_per_node` ranks on each of `nodes`
/// machines, real threads, virtual clocks, message passing via `MsgWorld`.
/// Returns (max cycles, per-rank results).
pub fn run_mpi<R, F>(
    nodes: usize,
    ranks_per_node: usize,
    cost: CostModel,
    f: F,
) -> (u64, Vec<R>, NetStatsSnapshot)
where
    R: Send + 'static,
    F: Fn(&mut MpiCtx) -> R + Send + Sync + 'static,
{
    let topo = ClusterTopology {
        nodes,
        sockets_per_node: 4,
        cores_per_socket: ranks_per_node.div_ceil(4).max(1),
    };
    let net = Interconnect::new(topo, cost);
    let total = nodes * ranks_per_node;
    let locs: Vec<_> = (0..total)
        .map(|r| topo.loc(NodeId((r / ranks_per_node) as u16), r % ranks_per_node))
        .collect();
    let world = MsgWorld::new(net.clone(), locs.clone());
    let outcomes = simnet::run_threads(net.abort(), total, |rank| format!("mpi-r{rank}"), |rank| {
        let mut ctx = MpiCtx {
            thread: SimThread::new(locs[rank], net.clone()),
            world: world.clone(),
            rank,
            ranks: total,
        };
        let r = f(&mut ctx);
        (ctx.thread.now(), r)
    });
    let cycles = outcomes.iter().map(|(c, _)| *c).max().unwrap_or(0);
    let results = outcomes.into_iter().map(|(_, r)| r).collect();
    (cycles, results, net.stats().snapshot())
}

/// A hierarchical sum-reducer for Argo programs.
///
/// Each thread deposits its partial in a page-padded slot (avoiding false
/// sharing between writer nodes); after a barrier, thread 0 of each node
/// sums its node's slots locally-in-cache and publishes a node partial;
/// after another barrier, every thread reads the node partials and sums
/// them. Costs scale with node count, not thread count — reductions are
/// one of the things that bound CG's scaling in the paper.
pub struct GlobalReducer {
    /// One page-padded slot per thread.
    thread_slots: GlobalF64Array,
    /// One page-padded slot per node.
    node_slots: GlobalF64Array,
    threads_per_node: usize,
    nodes: usize,
}

/// f64 slots padded to one page so each lives on its own page.
const SLOT_STRIDE: usize = 512;

impl GlobalReducer {
    pub fn new<T: Transport, C: Coherence>(dsm: &carina::Dsm<T, C>, nthreads: usize, nodes: usize) -> Self {
        GlobalReducer {
            thread_slots: GlobalF64Array::alloc(dsm, nthreads * SLOT_STRIDE),
            node_slots: GlobalF64Array::alloc(dsm, nodes * SLOT_STRIDE),
            threads_per_node: nthreads / nodes,
            nodes,
        }
    }

    /// Collective sum across all region threads. Every thread receives the
    /// total. Involves two barriers.
    pub fn sum<T: Transport, C: Coherence>(&self, ctx: &mut ArgoCtx<T, C>, value: f64) -> f64 {
        let tid = ctx.tid();
        self.thread_slots.set(ctx, tid * SLOT_STRIDE, value);
        ctx.barrier();
        let node = ctx.node();
        if tid.is_multiple_of(self.threads_per_node) {
            // Node leader: sum this node's thread slots.
            let mut partial = 0.0;
            for i in 0..self.threads_per_node {
                let t = node * self.threads_per_node + i;
                partial += self.thread_slots.get(ctx, t * SLOT_STRIDE);
            }
            self.node_slots.set(ctx, node * SLOT_STRIDE, partial);
        }
        ctx.barrier();
        let mut total = 0.0;
        for n in 0..self.nodes {
            total += self.node_slots.get(ctx, n * SLOT_STRIDE);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo::{ArgoConfig, ArgoMachine};
    use simnet::Tag;

    #[test]
    fn reducer_sums_across_cluster() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 3));
        let red = Arc::new(GlobalReducer::new(m.dsm(), 6, 2));
        let report = m.run(move |ctx| red.sum(ctx, (ctx.tid() + 1) as f64));
        assert!(report.results.iter().all(|&s| s == 21.0));
    }

    #[test]
    fn mpi_runner_ring_exchange() {
        let (cycles, results, _) = run_mpi(3, 2, CostModel::paper_2011(), |ctx| {
            let next = (ctx.rank + 1) % ctx.ranks;
            let prev = (ctx.rank + ctx.ranks - 1) % ctx.ranks;
            ctx.world.send(
                &mut ctx.thread,
                ctx.rank,
                next,
                Tag(1),
                vec![ctx.rank as u8],
            );
            let m = ctx.world.recv(&mut ctx.thread, ctx.rank, Some(prev), Tag(1));
            m.payload[0] as usize
        });
        assert!(cycles > 0);
        assert_eq!(results, vec![5, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn outcome_math() {
        let mk = |cycles, checksum| Outcome {
            cycles,
            seconds: 0.0,
            wall_seconds: 0.0,
            checksum,
            coherence: Default::default(),
            net: Default::default(),
            profile: Default::default(),
        };
        let seq = mk(1000, 5.0);
        let par = mk(250, 5.0000001);
        assert_eq!(par.speedup_over(&seq), 4.0);
        assert!(par.checksum_matches(&seq, 1e-6));
        assert!(!mk(1, 6.0).checksum_matches(&seq, 1e-6));
    }
}
