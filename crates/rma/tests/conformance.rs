//! Backend-conformance suite: every `Transport` implementation must satisfy
//! the same verb contract, whatever its notion of time.
//!
//! Each check is written once, generically, and instantiated against both
//! shipped backends. The contract deliberately avoids asserting *specific*
//! latencies (the simulator charges the paper's constants, the native
//! backend charges nothing); it pins down what protocol code is allowed to
//! rely on:
//!
//! - verbs resolve to a `Result` but are infallible on a healthy fabric:
//!   every completion arrives as `Ok`;
//! - completions are ordered: `settled >= initiator_done`;
//! - verbs tick the shared [`NetStats`] counters and the per-node tables;
//! - per-node accounting conserves bytes (every remote byte out lands in);
//! - intra-node traffic is free (no per-node accounting);
//! - all three atomic flavors count as `rdma_atomics`;
//! - endpoints report the placement they were built with, their clock never
//!   runs backwards, and posted writes settle no earlier than issue time;
//! - a fault-injecting wrapper with a disabled plan is indistinguishable
//!   from the bare fabric;
//! - one spike rule: an injected latency spike delays what the verb's
//!   completion delays — the initiator for reads and atomics, only the
//!   settle stamp for posted writes;
//! - every endpoint records to its fabric's Lyra recorder through its own
//!   lane, which holds the span set on the endpoint.

use rma::{ClusterTopology, Completion, Endpoint, NativeTransport, NodeId, Transport, Verb};
use rma::{CostModel, FaultPlan, FaultyTransport, Interconnect, SimTransport, VerbError};
use std::sync::Arc;

/// One of each verb.
fn every_verb() -> [Verb; 5] {
    [
        Verb::Read { bytes: 4096 },
        Verb::Write { bytes: 128 },
        Verb::FetchOr,
        Verb::FetchAdd,
        Verb::Cas,
    ]
}

/// An endpoint for thread 0 of `node`.
fn endpoint_on<T: Transport>(net: &Arc<T>, node: u16) -> T::Endpoint {
    T::endpoint(net, net.topology().loc(NodeId(node), 0))
}

/// Issue `verb` at `at` and wait for its completion (no merge).
fn post<E: Endpoint>(
    e: &mut E,
    target: u16,
    verb: &Verb,
    at: u64,
) -> Result<Completion, VerbError> {
    let token = e.issue(NodeId(target), verb, at);
    e.wait(token)
}

fn completions_are_ordered<T: Transport>(net: &Arc<T>) {
    let mut e = endpoint_on(net, 0);
    for verb in every_verb() {
        let c = post(&mut e, 1, &verb, 0).unwrap();
        assert!(c.settled >= c.initiator_done, "{verb:?} settled before unblock");
    }
}

/// A healthy fabric never fails a verb: the `Result` surface is for fault
/// injection and real NICs, and protocol code may rely on `Ok` when no
/// faults are configured.
fn healthy_fabric_is_infallible<T: Transport>(net: &Arc<T>) {
    let mut e = endpoint_on(net, 0);
    for _ in 0..64 {
        for verb in every_verb() {
            assert!(post(&mut e, 1, &verb, 0).is_ok());
        }
        assert!(e.rdma_read(NodeId(1), 4096).is_ok());
        assert!(e.rdma_write(NodeId(1), 64).is_ok());
        assert!(e.rdma_fetch_or(NodeId(1)).is_ok());
        assert!(e.rdma_fetch_add(NodeId(1)).is_ok());
        assert!(e.rdma_cas(NodeId(1)).is_ok());
    }
}

fn verbs_are_counted<T: Transport>(net: &Arc<T>) {
    let mut e = endpoint_on(net, 0);
    let before = net.stats().snapshot();
    for verb in every_verb() {
        post(&mut e, 1, &verb, 0).unwrap();
    }
    let after = net.stats().snapshot();
    assert_eq!(after.rdma_reads - before.rdma_reads, 1);
    assert_eq!(after.rdma_writes - before.rdma_writes, 1);
    assert_eq!(after.rdma_atomics - before.rdma_atomics, 3);
    assert_eq!(after.bytes_read - before.bytes_read, 4096);
    assert_eq!(after.bytes_written - before.bytes_written, 128);
}

fn per_node_accounting_conserves<T: Transport>(net: &Arc<T>) {
    net.reset_per_node_stats();
    let nodes = net.topology().nodes as u16;
    for src in 0..nodes {
        let mut e = endpoint_on(net, src);
        for dst in 0..nodes {
            e.rdma_write(NodeId(dst), 1000 + dst as u64).unwrap();
        }
    }
    let per = net.per_node_stats();
    let total_in: u64 = per.iter().map(|p| p.bytes_in).sum();
    let total_out: u64 = per.iter().map(|p| p.bytes_out).sum();
    assert_eq!(total_in, total_out, "bytes leaked in per-node accounting");
    assert!(total_in > 0, "remote transfers must be accounted");
    net.reset_per_node_stats();
}

fn intra_node_traffic_is_free<T: Transport>(net: &Arc<T>) {
    net.reset_per_node_stats();
    let mut e = endpoint_on(net, 0);
    for verb in every_verb() {
        post(&mut e, 0, &verb, 0).unwrap();
    }
    let per = net.per_node_stats();
    assert_eq!(per[0].bytes_in, 0, "intra-node traffic pulled in");
    assert_eq!(per[0].bytes_out, 0, "intra-node traffic pushed out");
    net.reset_per_node_stats();
}

fn endpoints_carry_placement_and_monotone_clocks<T: Transport>(net: &Arc<T>) {
    let loc = net.topology().loc(NodeId(1), 2);
    let mut e = T::endpoint(net, loc);
    assert_eq!(e.loc(), loc);
    assert_eq!(e.node(), NodeId(1));
    let mut last = e.now();
    e.compute(500);
    assert!(e.now() >= last, "compute reversed the clock");
    last = e.now();
    e.dram_access();
    e.fault_trap();
    assert!(e.now() >= last, "local ops reversed the clock");
    last = e.now();
    e.rdma_read(NodeId(0), 4096).unwrap();
    let settled = e.rdma_write(NodeId(0), 64).unwrap();
    assert!(e.now() >= last, "verbs reversed the clock");
    assert!(settled >= last, "posted write settled before issue");
    e.rdma_fetch_or(NodeId(0)).unwrap();
    e.rdma_fetch_add(NodeId(0)).unwrap();
    e.rdma_cas(NodeId(0)).unwrap();
    last = e.now();
    e.merge(last + 1_000);
    assert!(e.now() >= last, "merge reversed the clock");
    // Issuing and waiting are free until the caller merges.
    last = e.now();
    post(&mut e, 0, &Verb::Read { bytes: 4096 }, last).unwrap();
    assert_eq!(e.now(), last, "issue/wait moved the clock");
}

fn endpoint_clones_share_the_fabric<T: Transport>(net: &Arc<T>) {
    let e = endpoint_on(net, 0);
    let mut e2 = e.clone();
    let before = net.stats().snapshot().rdma_reads;
    e2.rdma_read(NodeId(1), 64).unwrap();
    assert_eq!(net.stats().snapshot().rdma_reads, before + 1);
}

/// Every endpoint records through its own lane on the fabric's recorder,
/// and that lane holds the endpoint's span: what `set_span` attaches,
/// `current_span` returns, on every backend and wrapper alike.
fn endpoints_record_and_hold_spans_in_their_lane<T: Transport>(net: &Arc<T>) {
    let mut e = endpoint_on(net, 1);
    assert_eq!(e.lyra_lane().node(), 1);
    assert_eq!(e.current_span(), rma::SpanId::NONE);
    let span = e.lyra_lane().mint();
    e.set_span(span);
    assert_eq!((e.current_span(), e.lyra_lane().span()), (span, span));
    let before = net.recorder().stats().submitted;
    e.lyra_lane().record(obs::VerbRecord::blank);
    assert_eq!(net.recorder().stats().submitted, before + 1);
    e.set_span(rma::SpanId::NONE);
    assert_eq!(e.current_span(), rma::SpanId::NONE);
}

fn run_all<T: Transport>(net: Arc<T>) {
    completions_are_ordered(&net);
    healthy_fabric_is_infallible(&net);
    verbs_are_counted(&net);
    per_node_accounting_conserves(&net);
    intra_node_traffic_is_free(&net);
    endpoints_record_and_hold_spans_in_their_lane(&net);
    endpoints_carry_placement_and_monotone_clocks(&net);
    endpoint_clones_share_the_fabric(&net);
}

#[test]
fn sim_transport_meets_the_contract() {
    let topo = ClusterTopology::paper(4);
    run_all::<SimTransport>(Interconnect::new(topo, CostModel::paper_2011()));
}

#[test]
fn native_transport_meets_the_contract() {
    let topo = ClusterTopology::paper(4);
    run_all(NativeTransport::new(topo));
}

/// A [`FaultyTransport`] whose plan is disabled must be indistinguishable
/// from the bare fabric — it is a pass-through, not a new backend.
#[test]
fn disabled_faulty_wrapper_meets_the_contract() {
    let topo = ClusterTopology::paper(4);
    let sim = Interconnect::new(topo, CostModel::paper_2011());
    run_all(FaultyTransport::wrap(sim, FaultPlan::disabled()));
    let native = NativeTransport::new(topo);
    run_all(FaultyTransport::wrap(native, FaultPlan::disabled()));
}

/// Even under an aggressive fault plan, every `Ok` completion still obeys
/// the ordering contract, and the injected-fault counters tick.
#[test]
fn faulty_wrapper_failures_are_typed_and_ordered() {
    let topo = ClusterTopology::tiny(2);
    let sim = Interconnect::new(topo, CostModel::paper_2011());
    let net = FaultyTransport::wrap(sim, FaultPlan::seeded(7));
    let mut e = endpoint_on(&net, 0);
    let mut failures = 0u64;
    for i in 0..512 {
        match post(&mut e, 1, &Verb::Write { bytes: 256 }, i) {
            Ok(c) => assert!(c.settled >= c.initiator_done),
            Err(_) => failures += 1,
        }
    }
    assert!(failures > 0, "seeded plan injected nothing over 512 writes");
    let snap = net.injected();
    assert_eq!(snap.dropped + snap.timed_out + snap.stalled, failures);
}

/// The one spike rule, for every verb on any backend: a spike delays
/// what the verb's completion delays. Reads and atomics complete at the
/// initiator, so the spike holds the initiator (and the settle stamp with
/// it); posted writes unblock the initiator when the payload is
/// handed to the NIC, so the spike only pushes out the settle stamp. Fresh
/// fabrics per verb so NIC timelines don't serialize the comparisons.
fn spikes_delay_what_the_completion_delays<T: Transport>(fabric: impl Fn() -> Arc<T>) {
    const EXTRA: u64 = 9_999;
    for verb in every_verb() {
        let clean = post(&mut endpoint_on(&fabric(), 0), 1, &verb, 500).unwrap();
        let plan = FaultPlan::default().with_seed(5).with_spikes(1_000_000, EXTRA);
        let net = FaultyTransport::wrap(fabric(), plan);
        let spiked = post(&mut endpoint_on(&net, 0), 1, &verb, 500).unwrap();
        assert_eq!(net.injected().spiked, 1, "{verb:?}");
        let held = if verb.is_posted() { 0 } else { EXTRA };
        assert_eq!(spiked.initiator_done, clean.initiator_done + held, "{verb:?} initiator");
        assert_eq!(spiked.settled, clean.settled + EXTRA, "{verb:?} settle");
    }
}

#[test]
fn one_spike_rule_on_every_backend() {
    let topo = ClusterTopology::tiny(2);
    spikes_delay_what_the_completion_delays(|| Interconnect::new(topo, CostModel::paper_2011()));
    spikes_delay_what_the_completion_delays(|| NativeTransport::new(topo));
}

/// The simulator additionally promises real latencies: remote verbs cost at
/// least a network round trip, which the generic contract cannot ask for.
#[test]
fn sim_transport_charges_latency() {
    let topo = ClusterTopology::tiny(2);
    let net = Interconnect::new(topo, CostModel::paper_2011());
    let c = *Transport::cost(&*net);
    let r = post(&mut endpoint_on(&net, 0), 1, &Verb::Read { bytes: 4096 }, 0).unwrap();
    assert!(r.initiator_done >= 2 * c.network_latency);
}

/// The native backend additionally promises zero time: completions are
/// always instant and endpoint clocks pinned at zero.
#[test]
fn native_transport_is_timeless() {
    let topo = ClusterTopology::tiny(2);
    let net = NativeTransport::new(topo);
    let mut e = endpoint_on(&net, 0);
    for verb in every_verb() {
        assert_eq!(post(&mut e, 1, &verb, 777), Ok(Completion::instant(0)), "{verb:?}");
    }
    e.compute(1_000_000);
    e.merge(u64::MAX / 2);
    assert_eq!(e.now(), 0);
}

// --- DSM contract: every transport x coherence-policy combination ---

/// The protocol-level contract every (transport, coherence policy) pair
/// must meet: a value written before an SD fence is observed by a remote
/// reader after its SI fence, read-your-own-writes holds without fences,
/// and the engine's internal invariants stay clean at the end.
fn dsm_meets_the_contract<T: Transport, C: carina::Coherence>(net: Arc<T>) {
    use mem::GlobalAddr;
    let dsm = carina::Dsm::<T, C>::with_policy(net.clone(), 1 << 20, carina::CarinaConfig::default());
    let topo = net.topology();
    let mut a = T::endpoint(&net, topo.loc(NodeId(0), 0));
    let mut b = T::endpoint(&net, topo.loc(NodeId(1), 0));
    let addr = GlobalAddr(dsm.total_bytes() / 2); // homed on node 1

    // Read-your-own-writes, no fences needed.
    dsm.write_u64(&mut a, addr, 7);
    assert_eq!(dsm.read_u64(&mut a, addr), 7, "{}: RYOW broke", C::NAME);

    // Release/acquire publication across nodes.
    dsm.sd_fence(&mut a);
    dsm.si_fence(&mut b);
    assert_eq!(dsm.read_u64(&mut b, addr), 7, "{}: publication broke", C::NAME);

    // A second round through the same page (lease renewal / re-fetch path).
    dsm.write_u64(&mut b, addr, 9);
    dsm.sd_fence(&mut b);
    dsm.si_fence(&mut a);
    assert_eq!(dsm.read_u64(&mut a, addr), 9, "{}: second round broke", C::NAME);

    dsm.check_invariants();
}

#[test]
fn dsm_contract_holds_for_every_policy_and_backend() {
    let topo = ClusterTopology::tiny(2);
    let cost = CostModel::paper_2011();
    dsm_meets_the_contract::<_, carina::CarinaSiSd>(Interconnect::new(topo, cost));
    dsm_meets_the_contract::<_, carina::Tardis>(Interconnect::new(topo, cost));
    dsm_meets_the_contract::<_, carina::Pyxis>(Interconnect::new(topo, cost));
    dsm_meets_the_contract::<_, carina::CarinaSiSd>(NativeTransport::with_cost(topo, cost));
    dsm_meets_the_contract::<_, carina::Tardis>(NativeTransport::with_cost(topo, cost));
    dsm_meets_the_contract::<_, carina::Pyxis>(NativeTransport::with_cost(topo, cost));
}
