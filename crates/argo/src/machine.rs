//! The Argo machine: a simulated cluster you can run DRF programs on.
//!
//! [`ArgoMachine`] bundles the interconnect, the Carina DSM, and a thread
//! team launcher. A parallel region is executed by real OS threads — one
//! per simulated core — each carrying a virtual clock; the region's
//! reported execution time is the maximum clock at region end, measured
//! from the last `start_measurement` barrier (so initialization can be
//! excluded, as the paper does).

use crate::ctx::ArgoCtx;
use carina::{CarinaConfig, CarinaSiSd, Coherence, CoherenceSnapshot, Dsm};
use rma::{Endpoint, NativeTransport, SimTransport, Transport};
use simnet::stats::NetStatsSnapshot;
use simnet::{ClusterTopology, CostModel, Interconnect, NodeId};
use std::sync::Arc;
use vela::{ClockBarrier, HierBarrier};

/// Configuration of a simulated Argo cluster.
#[derive(Debug, Clone, Copy)]
pub struct ArgoConfig {
    /// Cluster machines.
    pub nodes: usize,
    /// Worker threads per machine. The paper uses 15 of 16 cores ("leaving
    /// one to take the OS overhead").
    pub threads_per_node: usize,
    /// Global memory contributed by each node.
    pub bytes_per_node: u64,
    /// Network/cost constants.
    pub cost: CostModel,
    /// Coherence configuration.
    pub carina: CarinaConfig,
}

impl ArgoConfig {
    /// A small cluster with the paper's cost constants; convenient default
    /// for examples and tests.
    pub fn small(nodes: usize, threads_per_node: usize) -> Self {
        ArgoConfig {
            nodes,
            threads_per_node,
            bytes_per_node: 16 << 20,
            cost: CostModel::paper_2011(),
            carina: CarinaConfig::default(),
        }
    }

    /// The paper's evaluation shape: 15 worker threads on 4×4-core nodes.
    pub fn paper(nodes: usize) -> Self {
        Self::small(nodes, 15)
    }

    /// Every machine has the paper's NUMA shape, 4 sockets × 4 cores.
    pub fn topology(&self) -> ClusterTopology {
        ClusterTopology::paper(self.nodes)
    }

    pub fn total_threads(&self) -> usize {
        self.nodes * self.threads_per_node
    }
}

/// Result of running a parallel region.
#[derive(Debug, Clone)]
pub struct RunReport<R> {
    /// Virtual cycles of the measured section (max over threads, from the
    /// last `start_measurement` to region end). Always 0 on the native
    /// backend, which has no virtual clock.
    pub cycles: u64,
    /// The same in seconds at the model's CPU frequency.
    pub seconds: f64,
    /// Wall-clock seconds of the whole region (spawn to last join). This is
    /// the figure of merit on the native backend; on the simulator it only
    /// measures how fast the simulation ran.
    pub wall_seconds: f64,
    /// Per-thread return values, indexed by global thread id.
    pub results: Vec<R>,
    /// Coherence events during the region (including unmeasured prefix).
    pub coherence: CoherenceSnapshot,
    /// Network traffic during the region (including unmeasured prefix).
    pub net: NetStatsSnapshot,
    /// The threads' time tables merged: per site, latency histograms and
    /// exclusive time, plus time in no site — virtual cycles on the
    /// simulator, wall nanoseconds on the native backend — over each
    /// thread's measured section.
    pub profile: obs::ProfileSnapshot,
    /// Per-lock delegation statistics, in lock-registration order.
    pub locks: Vec<obs::LockObsSnapshot>,
    /// Flight-recorder health: ring occupancy and drops;
    /// non-zero `dropped` means the exported trace is partial.
    pub recorder: carina::RecorderStats,
    /// The coherence policy the region ran under (`Coherence::NAME`).
    pub policy: &'static str,
}

/// An Argo cluster, generic over its RMA transport. The default transport
/// is the virtual-time simulator; [`ArgoMachine::native`] builds the same
/// machine on the wall-clock shared-memory backend.
pub struct ArgoMachine<T: Transport = SimTransport, C: Coherence = CarinaSiSd> {
    config: ArgoConfig,
    net: Arc<T>,
    dsm: Arc<Dsm<T, C>>,
}

fn check_shape(config: &ArgoConfig) {
    assert!(
        config.threads_per_node <= config.topology().cores_per_node(),
        "more threads per node ({}) than cores ({})",
        config.threads_per_node,
        config.topology().cores_per_node()
    );
}

impl ArgoMachine {
    /// A simulated cluster (virtual-time interconnect).
    pub fn new(config: ArgoConfig) -> Arc<Self> {
        Self::with_policy(config)
    }
}

impl<C: Coherence> ArgoMachine<SimTransport, C> {
    /// A simulated cluster running an explicit coherence policy, e.g.
    /// `ArgoMachine::<_, Tardis>::with_policy(cfg)`.
    pub fn with_policy(config: ArgoConfig) -> Arc<Self> {
        let net = Interconnect::new(config.topology(), config.cost);
        Self::on(config, net)
    }
}

impl ArgoMachine<NativeTransport> {
    /// The same machine on real shared memory: identical protocol engine,
    /// no virtual clock, wall-clock timing in [`RunReport::wall_seconds`].
    pub fn native(config: ArgoConfig) -> Arc<Self> {
        Self::native_with_policy(config)
    }
}

impl<C: Coherence> ArgoMachine<NativeTransport, C> {
    /// [`native`](ArgoMachine::native) with an explicit coherence policy.
    pub fn native_with_policy(config: ArgoConfig) -> Arc<Self> {
        let net = NativeTransport::with_cost(config.topology(), config.cost);
        Self::on(config, net)
    }
}

impl<T: Transport, C: Coherence> ArgoMachine<T, C> {
    /// Build a machine on an existing fabric (any transport).
    pub fn on(config: ArgoConfig, net: Arc<T>) -> Arc<Self> {
        check_shape(&config);
        assert_eq!(net.topology(), &config.topology(), "fabric/config shape mismatch");
        let dsm = Dsm::with_policy(net.clone(), config.bytes_per_node, config.carina);
        Arc::new(ArgoMachine { config, net, dsm })
    }

    pub fn config(&self) -> &ArgoConfig {
        &self.config
    }

    pub fn dsm(&self) -> &Arc<Dsm<T, C>> {
        &self.dsm
    }

    pub fn net(&self) -> &Arc<T> {
        &self.net
    }

    /// Run a parallel region: `f` is invoked once per simulated thread with
    /// an [`ArgoCtx`]. Blocks until every thread finishes; returns timing
    /// and per-thread results.
    ///
    /// The measured interval starts at 0 unless some thread calls
    /// [`ArgoCtx::start_measurement`] (a collective operation), in which
    /// case it starts at that barrier.
    pub fn run<R, F>(self: &Arc<Self>, f: F) -> RunReport<R>
    where
        R: Send + 'static,
        F: Fn(&mut ArgoCtx<T, C>) -> R + Send + Sync + 'static,
    {
        let cfg = self.config;
        let topo = cfg.topology();
        let total = cfg.total_threads();
        let barrier = Arc::new(HierBarrier::new(
            self.dsm.clone(),
            &vec![cfg.threads_per_node; cfg.nodes],
        ));
        let control = Arc::new(ClockBarrier::new(total, 0));
        let wall_start = std::time::Instant::now();
        let per_node = cfg.threads_per_node;
        let name = |tid| format!("argo-n{}c{}", tid / per_node, tid % per_node);
        let outcomes = simnet::run_threads(self.net.abort(), total, name, |tid| {
            let loc = topo.loc(NodeId((tid / per_node) as u16), tid % per_node);
            let thread = T::endpoint(&self.net, loc);
            let (dsm, barrier, control) = (self.dsm.clone(), barrier.clone(), control.clone());
            let mut ctx = ArgoCtx::new(thread, dsm, barrier, control, tid, total, cfg);
            let r = f(&mut ctx);
            let (cycles, table) = (ctx.measured_cycles(), ctx.time_table());
            // The simulator's observability clock is its virtual clock:
            // there the six sites and `outside` add up to the thread's
            // measured cycles exactly.
            if ctx.thread.now() == ctx.thread.obs_now() {
                debug_assert_eq!(table.total_cycles(), cycles, "thread {tid}'s time");
            }
            (r, cycles, table)
        });
        let mut results = Vec::with_capacity(total);
        let mut cycles = 0u64;
        let mut profile = obs::ProfileSnapshot::default();
        for (r, c, table) in outcomes {
            results.push(r);
            cycles = cycles.max(c);
            profile.merge(&table);
        }
        RunReport {
            cycles,
            seconds: cfg.cost.cycles_to_secs(cycles),
            wall_seconds: wall_start.elapsed().as_secs_f64(),
            results,
            coherence: self.dsm.stats().snapshot(),
            net: self.net.stats().snapshot(),
            profile,
            locks: self.dsm.lock_registry().snapshots(),
            recorder: self.dsm.lyra().stats(),
            policy: self.dsm.policy_name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_executes_every_thread_once() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 3));
        let report = m.run(|ctx| ctx.tid());
        assert_eq!(report.results, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn report_times_the_slowest_thread() {
        let m = ArgoMachine::new(ArgoConfig::small(1, 4));
        let report = m.run(|ctx| {
            ctx.thread.compute(1000 * (ctx.tid() as u64 + 1));
        });
        assert_eq!(report.cycles, 4000);
    }

    /// The caller sees the panic that started a failure, not its peers':
    /// the leader section fails, the waiters unwind with
    /// `PEER_PANICKED`, and `run` re-raises the leader's message.
    #[test]
    #[should_panic(expected = "the leader section failed")]
    fn run_reraises_the_first_panic_that_is_not_a_peers() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 2));
        let b = Arc::new(ClockBarrier::new(4, 0));
        m.run(move |ctx| b.wait_leader(&mut ctx.thread, |_| panic!("the leader section failed")));
    }

    #[test]
    #[should_panic(expected = "more threads per node")]
    fn rejects_oversubscription() {
        ArgoMachine::new(ArgoConfig::small(1, 17));
    }
}
