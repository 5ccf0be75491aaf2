//! The native backend: real shared memory, real threads, **no virtual
//! clock**.
//!
//! Under the simulator, the data plane is already host shared memory — the
//! interconnect only *charges time*. The native backend keeps the data plane
//! and drops the time: every verb completes instantly (all [`Completion`]
//! stamps are 0), `compute`/`merge`/`fault_trap` are no-ops, and the
//! identical protocol engine executes on host threads at wall-clock speed.
//! The mutual exclusion that makes this sound (directory word atomics, line
//! seqlocks, the sync objects' `simnet::Waits`) is exactly the mutual
//! exclusion the engine already uses to keep *parallel virtual-time*
//! simulation coherent, so no protocol code changes between backends.
//!
//! Verb *accounting* is kept: [`NetStats`] and per-node counters tick the
//! same way the simulator's do, which lets the cross-backend conformance
//! suite compare traffic shapes, and lets wall-clock benchmarks report
//! verbs/second.

use crate::transport::{Completion, Endpoint, Transport, Verb, VerbError, VerbToken};
use simnet::stats::PerNodeStats;
use simnet::{
    Abort, ClusterTopology, CostModel, NetStats, NodeId, PerNodeSnapshot, ThreadLoc, TokenSlab,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A fabric with no latency model: topology + verb accounting only.
#[derive(Debug)]
pub struct NativeTransport {
    topology: ClusterTopology,
    /// Reference constants. Protocol code reads sizes (`atomic_op_bytes`)
    /// and classification knobs from here; the latency fields are never
    /// charged to anything.
    cost: CostModel,
    stats: NetStats,
    per_node: Vec<PerNodeStats>,
    /// The Lyra flight recorder; every endpoint opens its lane on it.
    recorder: Arc<obs::FlightRecorder>,
    /// Raised when a thread of this machine panics (`simnet::Waits`).
    abort: Abort,
}

impl NativeTransport {
    pub fn new(topology: ClusterTopology) -> Arc<Self> {
        Self::with_cost(topology, CostModel::paper_2011())
    }

    /// Use specific reference constants (sizes still matter even when
    /// latencies don't).
    pub fn with_cost(topology: ClusterTopology, cost: CostModel) -> Arc<Self> {
        Arc::new(NativeTransport {
            topology,
            cost,
            stats: NetStats::default(),
            per_node: (0..topology.nodes).map(|_| PerNodeStats::default()).collect(),
            recorder: Arc::new(obs::FlightRecorder::new(topology.nodes, obs::LANE_RECORDS)),
            abort: Abort::default(),
        })
    }

    /// Tick the global and per-node counters for one verb issued from
    /// node `from` — the same shape as the simulator's accounting: reads
    /// and atomics pull their footprint into the initiator, writes push it
    /// to the target, intra-node traffic is free.
    fn account(&self, from: NodeId, target: NodeId, verb: &Verb) {
        let s = &self.stats;
        let (src, dst, bytes) = match verb {
            Verb::Read { bytes } => {
                s.rdma_reads.fetch_add(1, Ordering::Relaxed);
                s.bytes_read.fetch_add(*bytes, Ordering::Relaxed);
                (target, from, *bytes)
            }
            Verb::Write { bytes } => {
                s.rdma_writes.fetch_add(1, Ordering::Relaxed);
                s.bytes_written.fetch_add(*bytes, Ordering::Relaxed);
                (from, target, *bytes)
            }
            Verb::FetchOr | Verb::FetchAdd | Verb::Cas => {
                s.rdma_atomics.fetch_add(1, Ordering::Relaxed);
                (target, from, self.cost.atomic_op_bytes)
            }
        };
        if src == dst {
            return;
        }
        self.per_node[src.idx()]
            .bytes_out
            .fetch_add(bytes, Ordering::Relaxed);
        let d = &self.per_node[dst.idx()];
        d.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        d.ops_in.fetch_add(1, Ordering::Relaxed);
    }
}

impl Transport for NativeTransport {
    type Endpoint = NativeEndpoint;

    fn endpoint(this: &Arc<Self>, loc: ThreadLoc) -> NativeEndpoint {
        NativeEndpoint {
            loc,
            net: this.clone(),
            pending: TokenSlab::default(),
            lane: obs::FlightRecorder::lane(&this.recorder, loc.node.idx()),
        }
    }

    #[inline]
    fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    #[inline]
    fn cost(&self) -> &CostModel {
        &self.cost
    }

    #[inline]
    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn per_node_stats(&self) -> Vec<PerNodeSnapshot> {
        self.per_node.iter().map(|p| p.snapshot()).collect()
    }

    fn reset_per_node_stats(&self) {
        for p in &self.per_node {
            p.reset();
        }
    }

    #[inline]
    fn recorder(&self) -> &Arc<obs::FlightRecorder> {
        &self.recorder
    }

    #[inline]
    fn abort(&self) -> &Abort {
        &self.abort
    }
}

/// A native issue port: placement plus a handle to the fabric's counters.
/// Carries no clock — `now()` is always 0.
#[derive(Debug, Clone)]
pub struct NativeEndpoint {
    loc: ThreadLoc,
    net: Arc<NativeTransport>,
    /// Verbs issued but not yet polled. The fabric completes (and accounts)
    /// everything at issue time, so entries only hold the finished
    /// [`Completion`] until the caller collects it.
    pending: TokenSlab<Completion>,
    /// Single-writer Lyra lane on the fabric's recorder.
    lane: obs::Lane,
}

impl NativeEndpoint {
    #[inline]
    pub fn net(&self) -> &Arc<NativeTransport> {
        &self.net
    }
}

impl Endpoint for NativeEndpoint {
    #[inline]
    fn loc(&self) -> ThreadLoc {
        self.loc
    }

    #[inline]
    fn now(&self) -> u64 {
        0
    }

    /// Wall nanoseconds since the first `obs_now()` call in this process.
    /// The protocol clock stays at 0; this one exists so latency histograms
    /// and traces have real durations to work with.
    #[inline]
    fn obs_now(&self) -> u64 {
        use std::sync::OnceLock;
        use std::time::Instant;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    #[inline]
    fn cost(&self) -> &CostModel {
        self.net.cost()
    }

    #[inline]
    fn abort(&self) -> &Abort {
        &self.net.abort
    }

    #[inline]
    fn compute(&mut self, _cycles: u64) {}

    #[inline]
    fn dram_access(&mut self) {}

    #[inline]
    fn fault_trap(&mut self) {}

    #[inline]
    fn merge(&mut self, _t: u64) {}

    #[inline]
    fn lyra_lane(&mut self) -> &mut obs::Lane {
        &mut self.lane
    }

    /// Nothing queues and nothing takes time: the verb is accounted here
    /// and its (instant) completion parked until the caller collects it.
    #[inline]
    fn issue(&mut self, target: NodeId, verb: &Verb, _at: u64) -> VerbToken {
        self.net.account(self.loc.node, target, verb);
        VerbToken::from_raw(self.pending.insert(Completion::instant(0)))
    }

    #[inline]
    fn poll(&mut self, token: VerbToken) -> Option<Result<Completion, VerbError>> {
        Some(Ok(self.pending.take(token.raw())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_are_instant_but_counted() {
        let net = NativeTransport::new(ClusterTopology::tiny(2));
        let loc = net.topology().loc(NodeId(0), 0);
        let mut e = <NativeTransport as Transport>::endpoint(&net, loc);
        e.compute(1_000_000);
        e.rdma_read(NodeId(1), 4096).unwrap();
        let settled = Endpoint::rdma_write(&mut e, NodeId(1), 64).unwrap();
        e.rdma_fetch_or(NodeId(1)).unwrap();
        assert_eq!(e.now(), 0);
        assert_eq!(settled, 0);
        let s = net.stats().snapshot();
        assert_eq!((s.rdma_reads, s.rdma_writes, s.rdma_atomics), (1, 1, 1));
        assert_eq!(s.bytes_read, 4096);
        let per = net.per_node_stats();
        // Read pulls into node 0; the atomic's footprint lands there too.
        assert_eq!(per[0].bytes_in, 4096 + net.cost().atomic_op_bytes);
        assert_eq!(per[1].bytes_in, 64); // write pushes into node 1
    }

    /// The protocol clock is pinned at 0, but the observability clock moves.
    #[test]
    fn obs_clock_advances_while_protocol_clock_stays_zero() {
        let net = NativeTransport::new(ClusterTopology::tiny(1));
        let loc = net.topology().loc(NodeId(0), 0);
        let e = <NativeTransport as Transport>::endpoint(&net, loc);
        let t0 = e.obs_now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t1 = e.obs_now();
        assert!(t1 > t0, "obs clock did not advance: {t0} -> {t1}");
        assert_eq!(e.now(), 0);
    }

    #[test]
    fn intra_node_traffic_is_not_accounted() {
        let net = NativeTransport::new(ClusterTopology::tiny(2));
        let loc = net.topology().loc(NodeId(0), 0);
        let mut e = <NativeTransport as Transport>::endpoint(&net, loc);
        e.rdma_read(NodeId(0), 4096).unwrap();
        assert_eq!(net.per_node_stats()[0].bytes_in, 0);
        assert_eq!(net.stats().snapshot().rdma_reads, 1);
    }
}
