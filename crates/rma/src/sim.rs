//! The simulated backend: [`Transport`] implemented **directly on**
//! [`simnet::Interconnect`] and [`Endpoint`] directly on
//! [`simnet::SimThread`].
//!
//! There is deliberately no adapter struct. [`Endpoint::issue`] charges the
//! verb on the interconnect's cost model at the `at` it is given (all three
//! atomics map onto [`Interconnect::rdma_atomic`], which is how the
//! simulator prices them) and parks the eagerly computed timing on the
//! thread; everything else forwards to the inherent method of the same
//! shape. A blocking trait verb therefore performs the *same call with the
//! same arguments* as the inherent `SimThread::rdma_*` — virtual-time
//! results are bit-for-bit identical by construction, and
//! `examples/determinism_probe.rs` checks it empirically.

use crate::transport::{Completion, Endpoint, Transport, Verb, VerbError, VerbToken};
use simnet::{
    Abort, ClusterTopology, CostModel, Interconnect, NetStats, NodeId, PerNodeSnapshot,
    SimThread, ThreadLoc,
};
use std::sync::Arc;

/// The virtual-time backend *is* the interconnect.
pub type SimTransport = Interconnect;

/// The virtual-time endpoint *is* the simulated thread.
pub type SimEndpoint = SimThread;

impl Transport for Interconnect {
    type Endpoint = SimThread;

    fn endpoint(this: &Arc<Self>, loc: ThreadLoc) -> SimThread {
        SimThread::new(loc, this.clone())
    }

    #[inline]
    fn topology(&self) -> &ClusterTopology {
        Interconnect::topology(self)
    }

    #[inline]
    fn cost(&self) -> &CostModel {
        Interconnect::cost(self)
    }

    #[inline]
    fn stats(&self) -> &NetStats {
        Interconnect::stats(self)
    }

    fn per_node_stats(&self) -> Vec<PerNodeSnapshot> {
        Interconnect::per_node_stats(self)
    }

    fn reset_per_node_stats(&self) {
        Interconnect::reset_per_node_stats(self)
    }

    #[inline]
    fn recorder(&self) -> &Arc<obs::FlightRecorder> {
        Interconnect::recorder(self)
    }

    #[inline]
    fn abort(&self) -> &Abort {
        Interconnect::abort(self)
    }
}

impl Endpoint for SimThread {
    #[inline]
    fn loc(&self) -> ThreadLoc {
        SimThread::loc(self)
    }

    #[inline]
    fn now(&self) -> u64 {
        SimThread::now(self)
    }

    #[inline]
    fn cost(&self) -> &CostModel {
        self.net().cost()
    }

    #[inline]
    fn abort(&self) -> &Abort {
        self.net().abort()
    }

    #[inline]
    fn compute(&mut self, cycles: u64) {
        SimThread::compute(self, cycles)
    }

    #[inline]
    fn dram_access(&mut self) {
        SimThread::dram_access(self)
    }

    #[inline]
    fn fault_trap(&mut self) {
        SimThread::fault_trap(self)
    }

    #[inline]
    fn merge(&mut self, t: u64) {
        SimThread::merge(self, t)
    }

    #[inline]
    fn lyra_lane(&mut self) -> &mut obs::Lane {
        SimThread::lyra_lane(self)
    }

    fn issue(&mut self, target: NodeId, verb: &Verb, at: u64) -> VerbToken {
        let (net, loc) = (self.net(), SimThread::loc(self));
        let timing = match verb {
            Verb::Read { bytes } => net.rdma_read(loc, target, at, *bytes),
            Verb::Write { bytes } => net.rdma_write(loc, target, at, *bytes),
            Verb::FetchOr | Verb::FetchAdd | Verb::Cas => net.rdma_atomic(loc, target, at),
        };
        VerbToken::from_raw(self.park(timing))
    }

    #[inline]
    fn poll(&mut self, token: VerbToken) -> Option<Result<Completion, VerbError>> {
        // Timing is computed eagerly at issue, so completions are always
        // ready by the time anyone polls.
        Some(Ok(self.resolve(token.raw()).into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Arc<SimTransport> {
        Interconnect::new(ClusterTopology::tiny(2), CostModel::paper_2011())
    }

    fn pair() -> (SimEndpoint, Arc<SimTransport>, ThreadLoc) {
        let (a, b) = (fabric(), fabric());
        let loc = a.topology().loc(NodeId(0), 0);
        (<SimTransport as Transport>::endpoint(&a, loc), b, loc)
    }

    /// `issue` is the interconnect's cost model at exactly the `at` it is
    /// given — even one older than the endpoint's clock — and never touches
    /// that clock.
    #[test]
    fn verbs_enter_the_interconnect_at_the_given_instant() {
        let (mut e, net, loc) = pair();
        Endpoint::compute(&mut e, 700);
        let mut check = |verb: Verb, at: u64, want: simnet::net::VerbTiming| {
            let tok = e.issue(NodeId(1), &verb, at);
            assert_eq!(e.wait(tok).unwrap(), Completion::from(want), "{verb:?} at {at}");
            assert_eq!(Endpoint::now(&e), 700, "issue/wait moved the clock");
        };
        check(Verb::Read { bytes: 4096 }, 0, net.rdma_read(loc, NodeId(1), 0, 4096));
        check(Verb::Write { bytes: 64 }, 500, net.rdma_write(loc, NodeId(1), 500, 64));
        check(Verb::FetchOr, 90_000, net.rdma_atomic(loc, NodeId(1), 90_000));
    }

    /// All three atomic flavors price identically (the simulator models one
    /// "remote atomic" footprint). Fresh fabrics so NIC timelines don't
    /// serialize the probes.
    #[test]
    fn atomic_flavors_price_identically() {
        let price = |verb: Verb| {
            let (mut e, ..) = pair();
            let tok = e.issue(NodeId(1), &verb, 0);
            e.wait(tok).unwrap()
        };
        assert_eq!(price(Verb::FetchOr), price(Verb::FetchAdd));
        assert_eq!(price(Verb::FetchAdd), price(Verb::Cas));
    }

    /// The blocking trait verb (issue at `now` + wait + merge) lands the
    /// clock and the settle stamp where the inherent `SimThread` verb does.
    #[test]
    fn blocking_verbs_match_the_inherent_ones() {
        let (mut e, net, loc) = pair();
        let mut t = SimThread::new(loc, net);
        let settled = Endpoint::rdma_write(&mut e, NodeId(1), 4096).unwrap();
        assert_eq!((Endpoint::now(&e), settled), {
            let s = SimThread::rdma_write(&mut t, NodeId(1), 4096);
            (SimThread::now(&t), s)
        });
    }

    #[test]
    fn endpoint_is_a_sim_thread() {
        let net = fabric();
        let loc = net.topology().loc(NodeId(0), 0);
        let mut e = <SimTransport as Transport>::endpoint(&net, loc);
        Endpoint::compute(&mut e, 100);
        Endpoint::rdma_read(&mut e, NodeId(1), 4096).unwrap();
        let c = net.cost();
        assert_eq!(
            Endpoint::now(&e),
            100 + 2 * c.network_latency + c.transfer_cycles(4096)
        );
    }
}
