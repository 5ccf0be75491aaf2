//! The interconnect: per-node NIC occupancy timelines plus verb accounting.
//!
//! A verb between two machines reserves both endpoints' NICs for the
//! bandwidth term of the transfer; reservations are first-come-first-served
//! in virtual time via a CAS loop. This makes bandwidth saturation and
//! home-node hot-spotting emerge naturally: ten nodes hammering one home
//! node's directory serialize through that node's NIC.

use crate::cost::CostModel;
use crate::stats::{NetStats, PerNodeSnapshot, PerNodeStats};
use crate::topology::{ClusterTopology, NodeId, ThreadLoc};
use crate::waits::Abort;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of charging a verb: when the initiating thread may continue and
/// when the data is settled at the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerbTiming {
    /// Virtual time at which the initiator unblocks.
    pub initiator_done: u64,
    /// Virtual time at which the payload is fully deposited at the target
    /// (relevant for posted writes, which unblock the initiator earlier).
    pub settled: u64,
}

/// Shared interconnect state: topology, cost constants, NIC timelines, stats.
#[derive(Debug)]
pub struct Interconnect {
    topology: ClusterTopology,
    cost: CostModel,
    /// `nic[i]` = virtual time until which node `i`'s NIC is busy.
    nic: Vec<AtomicU64>,
    stats: NetStats,
    per_node: Vec<PerNodeStats>,
    /// The Lyra flight recorder: every thread on this interconnect opens
    /// its single-writer [`obs::Lane`] on it.
    recorder: Arc<obs::FlightRecorder>,
    /// Raised when a thread on this interconnect panics: every wait of its
    /// machine then fails instead of hanging.
    abort: Abort,
}

impl Interconnect {
    /// A full-bisection fabric: transfers contend only at the NICs.
    ///
    /// # Panics
    /// Panics on a topology with a zero dimension, naming the shape.
    pub fn new(topology: ClusterTopology, cost: CostModel) -> Arc<Self> {
        if let Err(e) = topology.validate() {
            panic!("invalid interconnect config: {e}");
        }
        Arc::new(Interconnect {
            topology,
            cost,
            nic: (0..topology.nodes).map(|_| AtomicU64::new(0)).collect(),
            stats: NetStats::default(),
            per_node: (0..topology.nodes).map(|_| PerNodeStats::default()).collect(),
            recorder: Arc::new(obs::FlightRecorder::new(topology.nodes, obs::LANE_RECORDS)),
            abort: Abort::default(),
        })
    }

    #[inline]
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    #[inline]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The Lyra flight recorder the threads on this interconnect record to.
    #[inline]
    pub fn recorder(&self) -> &Arc<obs::FlightRecorder> {
        &self.recorder
    }

    /// The abort flag every wait of this machine checks.
    #[inline]
    pub fn abort(&self) -> &Abort {
        &self.abort
    }

    /// Per-node traffic snapshot (who is the hotspot?).
    pub fn per_node_stats(&self) -> Vec<PerNodeSnapshot> {
        self.per_node.iter().map(|p| p.snapshot()).collect()
    }

    /// Reset the per-node counters (the whole-net counters are reset via
    /// [`NetStats::reset`]).
    pub fn reset_per_node_stats(&self) {
        for p in &self.per_node {
            p.reset();
        }
    }

    /// Account a transfer of `bytes` from `src` into `dst`.
    fn account(&self, src: NodeId, dst: NodeId, bytes: u64) {
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

    /// Reserve a link timeline for `duration` cycles starting no earlier
    /// than `earliest`; returns the actual start time.
    ///
    /// Transfers whose virtual times overlap (within a contention window)
    /// serialize — that is bandwidth contention. But simulated threads run
    /// on real threads and can be *epochs* apart in virtual time at the
    /// same real instant; a reservation made far in the virtual future
    /// must not delay a transfer from the (actually idle) virtual past, or
    /// causality leaks backwards through the link. Such disjoint-epoch
    /// requests start at their own `earliest` and leave the timeline
    /// untouched.
    fn reserve_timeline(link: &AtomicU64, earliest: u64, duration: u64) -> u64 {
        // Window within which two transfers are considered concurrent.
        let window = 8 * duration + 10_000;
        let mut busy = link.load(Ordering::Relaxed);
        loop {
            if busy > earliest + window {
                // The queue ahead of us lives in a future epoch: the link
                // was idle at our time.
                return earliest;
            }
            let start = busy.max(earliest);
            match link.compare_exchange_weak(
                busy,
                start + duration,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return start,
                Err(cur) => busy = cur,
            }
        }
    }

    fn reserve_nic(&self, node: NodeId, earliest: u64, duration: u64) -> u64 {
        Self::reserve_timeline(&self.nic[node.idx()], earliest, duration)
    }

    /// Charge the wire time of a transfer of `bytes` between `src` and `dst`
    /// machines, starting no earlier than `earliest` (initiator's clock).
    /// Returns the time the last byte leaves the wire. Intra-node transfers
    /// do not touch NICs.
    fn charge_wire(&self, src: NodeId, dst: NodeId, earliest: u64, bytes: u64) -> u64 {
        let dur = self.cost.transfer_cycles(bytes);
        if src == dst {
            return earliest + dur;
        }
        // Reserve the source NIC first, then the destination starting no
        // earlier than the source's start: the packet occupies both ends.
        let s = self.reserve_nic(src, earliest, dur);
        let d = self.reserve_nic(dst, s, dur);
        d + dur
    }

    /// One-sided read of `bytes` from `target` into `from`'s node: request
    /// propagation + transfer through both NICs + response propagation.
    /// The initiator blocks for the round trip.
    pub fn rdma_read(&self, from: ThreadLoc, target: NodeId, now: u64, bytes: u64) -> VerbTiming {
        self.stats.rdma_reads.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.account(target, from.node, bytes);
        let lat = self.propagation_to(from, target);
        let wire_done = self.charge_wire(target, from.node, now + lat, bytes);
        let done = wire_done + lat;
        VerbTiming {
            initiator_done: done,
            settled: done,
        }
    }

    /// One-sided posted write of `bytes` to `target`. The initiator unblocks
    /// once the payload is handed to its NIC; the data settles at the target
    /// after propagation + wire time. SD fences await the returned `settled`
    /// for global visibility.
    pub fn rdma_write(&self, from: ThreadLoc, target: NodeId, now: u64, bytes: u64) -> VerbTiming {
        self.stats.rdma_writes.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.account(from.node, target, bytes);
        let lat = self.propagation_to(from, target);
        let wire_done = self.charge_wire(from.node, target, now, bytes);
        VerbTiming {
            initiator_done: now + self.cost.transfer_cycles(bytes),
            settled: wire_done + lat,
        }
    }

    /// Remote atomic (fetch-and-add / CAS on a directory word). Blocks the
    /// initiator for a full round trip plus a small fixed wire footprint.
    pub fn rdma_atomic(&self, from: ThreadLoc, target: NodeId, now: u64) -> VerbTiming {
        self.stats.rdma_atomics.fetch_add(1, Ordering::Relaxed);
        self.account(target, from.node, self.cost.atomic_op_bytes);
        let lat = self.propagation_to(from, target);
        let wire_done =
            self.charge_wire(target, from.node, now + lat, self.cost.atomic_op_bytes);
        let done = wire_done + lat;
        VerbTiming {
            initiator_done: done,
            settled: done,
        }
    }

    /// Message-passing send (MPI baseline): wire time plus a software
    /// message-handler invocation charged at the receiver.
    pub fn message(&self, from: ThreadLoc, target: ThreadLoc, now: u64, bytes: u64) -> VerbTiming {
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.stats.msg_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.stats.handler_invocations.fetch_add(1, Ordering::Relaxed);
        self.account(from.node, target.node, bytes);
        let lat = self.cost.propagation(from, target);
        let wire_done = self.charge_wire(from.node, target.node, now, bytes);
        let settled = wire_done + lat + self.cost.handler_cycles;
        VerbTiming {
            initiator_done: now + self.cost.transfer_cycles(bytes),
            settled,
        }
    }

    /// Propagation latency from a thread to (any core of) a target machine.
    fn propagation_to(&self, from: ThreadLoc, target: NodeId) -> u64 {
        if from.node == target {
            // Local "remote op": home node is this machine; accessing the
            // home copy still costs a DRAM access.
            self.cost.dram_latency
        } else {
            self.cost.network_latency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<Interconnect>, ThreadLoc, ThreadLoc) {
        let net = crate::testkit::tiny_net(4);
        let topo = *net.topology();
        let a = topo.loc(NodeId(0), 0);
        let b = topo.loc(NodeId(1), 0);
        (net, a, b)
    }

    #[test]
    fn read_costs_round_trip_plus_transfer() {
        let (net, a, _) = setup();
        let t = net.rdma_read(a, NodeId(1), 0, 4096);
        let c = net.cost();
        assert_eq!(
            t.initiator_done,
            2 * c.network_latency + c.transfer_cycles(4096)
        );
    }

    #[test]
    fn local_read_costs_dram() {
        let (net, a, _) = setup();
        let t = net.rdma_read(a, NodeId(0), 100, 4096);
        let c = net.cost();
        assert_eq!(
            t.initiator_done,
            100 + 2 * c.dram_latency + c.transfer_cycles(4096)
        );
    }

    #[test]
    fn posted_write_unblocks_before_settling() {
        let (net, a, _) = setup();
        let t = net.rdma_write(a, NodeId(1), 0, 4096);
        assert!(t.initiator_done < t.settled);
        assert_eq!(t.initiator_done, net.cost().transfer_cycles(4096));
    }

    #[test]
    fn nic_contention_serializes_transfers() {
        let (net, a, b) = setup();
        // Two reads from different initiators targeting node 2 at the same
        // virtual instant must serialize through node 2's NIC.
        let c = net.cost();
        let t1 = net.rdma_read(a, NodeId(2), 0, 65536);
        let t2 = net.rdma_read(b, NodeId(2), 0, 65536);
        let xfer = c.transfer_cycles(65536);
        assert_eq!(t1.initiator_done, 2 * c.network_latency + xfer);
        assert_eq!(t2.initiator_done, 2 * c.network_latency + 2 * xfer);
    }

    #[test]
    fn message_charges_handler_at_receiver() {
        let (net, a, b) = setup();
        let t = net.message(a, b, 0, 1024);
        let c = net.cost();
        assert_eq!(
            t.settled,
            c.transfer_cycles(1024) + c.network_latency + c.handler_cycles
        );
        assert_eq!(net.stats().snapshot().handler_invocations, 1);
    }

    #[test]
    fn atomic_counts_and_blocks_round_trip() {
        let (net, a, _) = setup();
        let t = net.rdma_atomic(a, NodeId(3), 0);
        let c = net.cost();
        assert_eq!(
            t.initiator_done,
            2 * c.network_latency + c.transfer_cycles(c.atomic_op_bytes)
        );
        assert_eq!(net.stats().snapshot().rdma_atomics, 1);
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        // (0 -> 2) and (1 -> 3) share no NIC: on a full-bisection fabric
        // they run concurrently.
        let (net, a, b) = setup();
        let t1 = net.rdma_read(a, NodeId(2), 0, 1 << 20);
        let t2 = net.rdma_read(b, NodeId(3), 0, 1 << 20);
        assert_eq!(t1.initiator_done, t2.initiator_done);
    }

    #[test]
    #[should_panic(expected = "0 nodes x 1 sockets x 1 cores")]
    fn an_empty_topology_is_refused_by_name() {
        let empty = ClusterTopology { nodes: 0, sockets_per_node: 1, cores_per_socket: 1 };
        Interconnect::new(empty, CostModel::paper_2011());
    }

    #[test]
    fn intra_node_transfer_skips_nics() {
        let (net, a, _) = setup();
        let busy_until = || net.nic[0].load(Ordering::Relaxed);
        let before = busy_until();
        net.rdma_read(a, NodeId(0), 0, 4096);
        assert_eq!(busy_until(), before);
    }
}
