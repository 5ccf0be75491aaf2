//! Per-thread virtual clocks.
//!
//! Every simulated application thread owns a [`SimThread`]: its placement in
//! the topology plus a monotone cycle counter. Compute work and network verbs
//! advance the counter; synchronization primitives exchange counters so that
//! causally-later events never carry earlier timestamps (a conservative
//! parallel virtual-time simulation).

use crate::net::{Interconnect, VerbTiming};
use crate::topology::{NodeId, ThreadLoc};
use std::sync::Arc;

/// A generation-tagged slab of verbs issued but not yet resolved, shared by
/// every endpoint implementation (the simulator parks [`VerbTiming`]s, the
/// `rma` backends their own pending state). Raw handles encode
/// `generation << 32 | slot`; the generation bumps every time a slot is
/// recycled, so a stale, duplicated or foreign handle is caught (and panics)
/// instead of silently resolving a different verb.
#[derive(Debug, Clone)]
pub struct TokenSlab<P> {
    slots: Vec<(u32, Option<P>)>,
    free: Vec<u32>,
}

impl<P> Default for TokenSlab<P> {
    fn default() -> Self {
        TokenSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<P> TokenSlab<P> {
    pub fn insert(&mut self, payload: P) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].1 = Some(payload);
                s
            }
            None => {
                self.slots.push((0, Some(payload)));
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].0;
        (u64::from(generation) << 32) | u64::from(slot)
    }

    pub fn take(&mut self, raw: u64) -> P {
        let slot = (raw & 0xFFFF_FFFF) as usize;
        let generation = (raw >> 32) as u32;
        let entry = self
            .slots
            .get_mut(slot)
            .filter(|(g, _)| *g == generation)
            .and_then(|(_, p)| p.take());
        let Some(payload) = entry else {
            panic!("stale or foreign verb token (raw {raw:#x})");
        };
        self.slots[slot].0 = self.slots[slot].0.wrapping_add(1);
        self.free.push(slot as u32);
        payload
    }
}

/// A simulated hardware thread: placement + virtual clock + interconnect.
///
/// `SimThread` is deliberately `!Sync`-by-usage: each OS thread owns exactly
/// one and mutates it without sharing. Clocks cross threads only as plain
/// `u64` timestamps through synchronization structures.
///
/// `SimThread` is the simulator backend's implementation of the `rma`
/// crate's `Endpoint` trait (re-exported there as `SimEndpoint`); protocol
/// code written against `rma::Transport` receives one of these when it runs
/// on the simulator. Constructing one directly is equivalent to
/// `SimTransport::endpoint(&net, loc)`:
///
/// ```
/// use simnet::{ClusterTopology, CostModel, Interconnect, NodeId, SimThread};
///
/// let topo = ClusterTopology::tiny(2);
/// let net = Interconnect::new(topo, CostModel::paper_2011());
/// let mut t = SimThread::new(topo.loc(NodeId(0), 0), net);
/// t.compute(100);
/// t.rdma_read(NodeId(1), 4096); // a remote page fetch
/// assert!(t.now() >= 100 + 2 * CostModel::paper_2011().network_latency);
/// ```
#[derive(Debug, Clone)]
pub struct SimThread {
    loc: ThreadLoc,
    now: u64,
    net: Arc<Interconnect>,
    /// Verbs issued but not yet folded into any thread's clock. Timing is
    /// computed eagerly at issue (the interconnect is a closed-form cost
    /// model), so an entry is a finished [`VerbTiming`] awaiting collection
    /// — exactly the window in which latency is hidden.
    pending: TokenSlab<VerbTiming>,
    /// Single-writer Lyra lane on the interconnect's flight recorder: this
    /// thread's records and the span it is serving.
    lane: obs::Lane,
}

impl SimThread {
    pub fn new(loc: ThreadLoc, net: Arc<Interconnect>) -> Self {
        let lane = obs::FlightRecorder::lane(net.recorder(), loc.node.idx());
        SimThread {
            loc,
            now: 0,
            net,
            pending: TokenSlab::default(),
            lane,
        }
    }

    /// This thread's single-writer Lyra lane.
    #[inline]
    pub fn lyra_lane(&mut self) -> &mut obs::Lane {
        &mut self.lane
    }

    #[inline]
    pub fn loc(&self) -> ThreadLoc {
        self.loc
    }

    #[inline]
    pub fn node(&self) -> NodeId {
        self.loc.node
    }

    #[inline]
    pub fn net(&self) -> &Arc<Interconnect> {
        &self.net
    }

    /// Current virtual time in cycles.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Charge `cycles` of local computation.
    #[inline]
    pub fn compute(&mut self, cycles: u64) {
        self.now += cycles;
    }

    /// Charge one local DRAM access (page-cache hit missing CPU caches).
    #[inline]
    pub fn dram_access(&mut self) {
        self.now += self.net.cost().dram_latency;
    }

    /// Charge a page-fault trap into the DSM runtime (models SIGSEGV entry).
    #[inline]
    pub fn fault_trap(&mut self) {
        self.now += self.net.cost().fault_trap_cycles;
    }

    /// Merge an externally observed timestamp: this thread cannot proceed
    /// before `t` (lock hand-off, barrier exit, message receipt).
    #[inline]
    pub fn merge(&mut self, t: u64) {
        self.now = self.now.max(t);
    }

    /// Blocking one-sided read of `bytes` from `target`'s memory.
    pub fn rdma_read(&mut self, target: NodeId, bytes: u64) {
        let t = self.net.rdma_read(self.loc, target, self.now, bytes);
        self.now = t.initiator_done;
    }

    /// Posted one-sided write of `bytes` to `target`'s memory. Returns the
    /// virtual time at which the payload settles remotely; SD fences collect
    /// the max of these.
    pub fn rdma_write(&mut self, target: NodeId, bytes: u64) -> u64 {
        let t = self.net.rdma_write(self.loc, target, self.now, bytes);
        self.now = t.initiator_done;
        t.settled
    }

    /// Park the timing of a verb charged on the interconnect without
    /// blocking: its NIC occupancy is already reserved, and the thread's
    /// clock is untouched. Returns a raw completion handle for
    /// [`SimThread::resolve`].
    pub fn park(&mut self, timing: VerbTiming) -> u64 {
        self.pending.insert(timing)
    }

    /// Resolve a handle from [`SimThread::park`], consuming it. The
    /// clock is *not* merged: the caller folds `initiator_done` in (via
    /// [`SimThread::merge`]) when — and only when — it actually waits on
    /// the verb. Panics on a stale or foreign handle.
    pub fn resolve(&mut self, raw: u64) -> VerbTiming {
        self.pending.take(raw)
    }

    /// Blocking remote atomic (fetch-and-add on a directory word).
    pub fn rdma_atomic(&mut self, target: NodeId) {
        let t = self.net.rdma_atomic(self.loc, target, self.now);
        self.now = t.initiator_done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn thread_on(node: u16) -> SimThread {
        crate::testkit::thread(&crate::testkit::tiny_net(4), node, 0)
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut t = thread_on(0);
        t.compute(100);
        assert_eq!(t.now(), 100);
        t.dram_access();
        assert_eq!(t.now(), 270);
        t.merge(50); // must not go backwards
        assert_eq!(t.now(), 270);
        t.merge(1000);
        assert_eq!(t.now(), 1000);
    }

    #[test]
    fn rdma_read_blocks_for_round_trip() {
        let mut t = thread_on(0);
        t.rdma_read(NodeId(1), 4096);
        let c = CostModel::paper_2011();
        assert_eq!(t.now(), 2 * c.network_latency + c.transfer_cycles(4096));
    }

    #[test]
    fn posted_write_returns_later_settle_time() {
        let mut t = thread_on(0);
        let settled = t.rdma_write(NodeId(1), 4096);
        assert!(settled > t.now());
    }

    #[test]
    fn issue_then_resolve_hides_latency() {
        let c = CostModel::paper_2011();
        // Blocking: two chained reads pay two full round trips.
        let mut seq = thread_on(0);
        seq.rdma_read(NodeId(1), 4096);
        seq.rdma_read(NodeId(2), 4096);
        // Async: both issued back to back, resolved afterwards — the
        // latencies overlap, only NIC occupancy serializes.
        let mut t = thread_on(0);
        let net = t.net().clone();
        let a = t.park(net.rdma_read(t.loc(), NodeId(1), 0, 4096));
        let b = t.park(net.rdma_read(t.loc(), NodeId(2), 0, 4096));
        assert_eq!(t.now(), 0, "issuing must not advance the clock");
        let done = t
            .resolve(a)
            .initiator_done
            .max(t.resolve(b).initiator_done);
        t.merge(done);
        assert!(t.now() < seq.now(), "overlap must beat chaining");
        assert!(t.now() >= 2 * c.network_latency + c.transfer_cycles(4096));
    }

    #[test]
    #[should_panic(expected = "stale or foreign verb token")]
    fn resolving_a_token_twice_panics() {
        let mut t = thread_on(0);
        let timing = t.net().rdma_read(t.loc(), NodeId(1), 0, 4096);
        let a = t.park(timing);
        let _ = t.resolve(a);
        let _ = t.resolve(a);
    }
}
