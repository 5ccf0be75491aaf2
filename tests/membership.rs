//! Volans membership suite: node death, failover re-homing, online join.
//!
//! The tentpole property: killing a node mid-run is *absorbed*, not
//! survived by luck. The first exhausted retry budget declares the node
//! departed, its pages re-home to rendezvous survivors (no bytes move —
//! the flat store outlives the metadata), every cached copy is scrubbed
//! with dirty data written through, and the program completes with a
//! checksum **bit-identical** to the fault-free run — on the simulator and
//! the native backend, under all three coherence policies. Join is the
//! mirror image: a newcomer enters at an epoch bump with an empty cache
//! and warms purely by demand-faulting, no bulk transfer. The membership
//! primitives underneath (epoch monotonicity, order-independent rendezvous
//! re-homing) get randomized property coverage of their own.

use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaConfig, CarinaSiSd, Coherence, Dsm, Pyxis, Tardis};
use mem::{GlobalAddr, PAGE_BYTES};
use rma::{
    rendezvous_home, splitmix64, Endpoint, FaultPlan, FaultyTransport, Membership,
    NativeTransport, SimTransport, Transport,
};
use simnet::{Interconnect, NodeId};
use std::sync::Arc;
use workloads::harness::Outcome;
use workloads::matmul::{self, MatmulParams};

type SimChaos = FaultyTransport<SimTransport>;
type NativeChaos = FaultyTransport<NativeTransport>;

const P: MatmulParams = MatmulParams { n: 64 };
/// The node every kill test takes down.
const KILLED: u16 = 2;

fn volans_cfg() -> ArgoConfig {
    let mut cfg = ArgoConfig::small(3, 2);
    cfg.carina.volans_failover = true;
    cfg
}

fn run_sim<C: Coherence>(plan: FaultPlan) -> (Arc<ArgoMachine<SimChaos, C>>, Outcome) {
    let cfg = volans_cfg();
    let net = FaultyTransport::wrap(Interconnect::new(cfg.topology(), cfg.cost), plan);
    let m: Arc<ArgoMachine<SimChaos, C>> = ArgoMachine::on(cfg, net);
    let out = matmul::run_argo(&m, P);
    (m, out)
}

fn run_native<C: Coherence>(plan: FaultPlan) -> (Arc<ArgoMachine<NativeChaos, C>>, Outcome) {
    let cfg = volans_cfg();
    let net = FaultyTransport::wrap(NativeTransport::with_cost(cfg.topology(), cfg.cost), plan);
    let m: Arc<ArgoMachine<NativeChaos, C>> = ArgoMachine::on(cfg, net);
    let out = matmul::run_argo(&m, P);
    (m, out)
}

/// The kill contract: fault-free bits, exactly one declaration, pages
/// re-homed, the budget visibly spent, and the membership telling the
/// story afterwards.
fn assert_kill_absorbed<T: Transport, C: Coherence>(
    m: &ArgoMachine<T, C>,
    out: &Outcome,
    reference: f64,
    what: &str,
) {
    assert_eq!(
        out.checksum.to_bits(),
        reference.to_bits(),
        "{what}: kill changed the data (clean {reference} killed {})",
        out.checksum
    );
    // The blackout kills the node on its *first* touch, during matmul's
    // init phase — before `start_measurement` resets the stat shards. The
    // measured section therefore runs entirely on the post-failover
    // membership: zero further exhaustions, zero further failovers. (The
    // counters themselves are asserted by the report/scripted kill tests,
    // whose runs never reset.)
    assert_eq!(
        out.coherence.failovers, 0,
        "{what}: the measured section must run failover-free"
    );
    assert_eq!(
        out.coherence.verb_exhaustions, 0,
        "{what}: nothing may target the departed node after the re-homing"
    );
    let mem = m.dsm().membership();
    assert_eq!(mem.epoch(), 1, "{what}: one membership change, one epoch bump");
    assert_eq!(mem.nodes_alive(), 2, "{what}: two survivors");
    assert!(!mem.is_alive(KILLED), "{what}: the killed node must be out");
}

#[test]
fn kill_mid_matmul_lands_the_fault_free_checksum_on_the_simulator() {
    let (clean_m, clean) = run_sim::<CarinaSiSd>(FaultPlan::disabled());
    assert_eq!(clean.coherence.verb_exhaustions, 0);
    assert_eq!(clean.coherence.failovers, 0, "healthy runs must not fail over");
    assert_eq!(clean_m.dsm().membership().epoch(), 0, "armed Volans is zero-cost when idle");
    let (m, out) = run_sim::<CarinaSiSd>(FaultPlan::blackout(NodeId(KILLED)));
    assert_kill_absorbed(&m, &out, clean.checksum, "matmul/sim/sisd");
}

/// An epoch bump is policy-independent: Tardis leases and Pyxis modes are
/// nulled for the re-homed pages exactly like the SI/SD directory bits, so
/// all three policies land the same fault-free bits through a kill.
#[test]
fn kill_mid_matmul_is_policy_independent() {
    let (_, clean) = run_sim::<CarinaSiSd>(FaultPlan::disabled());
    let (mt, out_t) = run_sim::<Tardis>(FaultPlan::blackout(NodeId(KILLED)));
    assert_kill_absorbed(&mt, &out_t, clean.checksum, "matmul/sim/tardis");
    let (mp, out_p) = run_sim::<Pyxis>(FaultPlan::blackout(NodeId(KILLED)));
    assert_kill_absorbed(&mp, &out_p, clean.checksum, "matmul/sim/pyxis");
}

/// The same kill on the native backend: no virtual clock, real threads,
/// same protocol engine — and bit-identical to the *simulator's* fault-free
/// checksum, because failover never touches the data plane on any backend.
#[test]
fn kill_mid_matmul_is_backend_independent() {
    let (_, clean) = run_sim::<CarinaSiSd>(FaultPlan::disabled());
    let (m, out) = run_native::<CarinaSiSd>(FaultPlan::blackout(NodeId(KILLED)));
    assert_kill_absorbed(&m, &out, clean.checksum, "matmul/native/sisd");
    let (mt, out_t) = run_native::<Tardis>(FaultPlan::blackout(NodeId(KILLED)));
    assert_kill_absorbed(&mt, &out_t, clean.checksum, "matmul/native/tardis");
    let (mp, out_p) = run_native::<Pyxis>(FaultPlan::blackout(NodeId(KILLED)));
    assert_kill_absorbed(&mp, &out_p, clean.checksum, "matmul/native/pyxis");
}

/// The observability satellite end-to-end: a kill during a region that
/// never resets statistics lands `failovers`/`pages_rehomed` in the
/// [`argo::RunReport`] and the live metrics exposition, and the membership
/// epoch/alive-count ride along.
#[test]
fn failover_counters_flow_into_the_run_report() {
    use argo::types::GlobalF64Array;
    let mut cfg = ArgoConfig::small(3, 1);
    cfg.carina.volans_failover = true;
    let net = FaultyTransport::wrap(
        Interconnect::new(cfg.topology(), cfg.cost),
        FaultPlan::blackout(NodeId(KILLED)),
    );
    let m: Arc<ArgoMachine<SimChaos>> = ArgoMachine::on(cfg, net);
    let arr = GlobalF64Array::alloc(m.dsm(), 6144);
    let report = m.run(move |ctx| {
        for i in ctx.my_chunk(6144) {
            arr.set(ctx, i, (i * 3) as f64);
        }
        ctx.barrier();
        (0..6144).map(|i| arr.get(ctx, i)).sum::<f64>()
    });
    let expected: f64 = (0..6144).map(|i| (i * 3) as f64).sum();
    assert!(
        report.results.iter().all(|&s| s.to_bits() == expected.to_bits()),
        "the kill changed the data"
    );
    assert_eq!(report.coherence.failovers, 1);
    assert!(report.coherence.pages_rehomed > 0, "the dead node homed pages");
    assert!(report.coherence.verb_exhaustions >= 1, "the death signal is an exhausted budget");
    assert_eq!(report.membership_epoch, 1);
    assert_eq!(report.nodes_alive, 2);
    // The same story in the live exposition.
    let prom = m.dsm().metrics_snapshot().to_prometheus();
    assert!(prom.contains("carina_failovers{policy=\"sisd\"} 1"), "{prom}");
    assert!(prom.contains("carina_membership_epoch 1"), "{prom}");
    assert!(prom.contains("carina_nodes_alive 2"), "{prom}");
}

/// A node dies *after* a peer buffered writes against it: the failover
/// sweep writes the dirty copy through to the flat store before
/// invalidating it, so the data reappears — intact — under the new home.
/// The transition also leaves `epoch_bump`/`rehome` records in the flight
/// recorder, attributed to the exhausted verb that triggered it.
#[test]
fn mid_run_kill_preserves_buffered_writes_through_writethrough() {
    let cfg = ArgoConfig::small(2, 1);
    let ccfg = CarinaConfig { volans_failover: true, ..Default::default() };
    let net = FaultyTransport::wrap(
        Interconnect::new(cfg.topology(), cfg.cost),
        FaultPlan::outage(NodeId(1), 2_000_000, u64::MAX),
    );
    let dsm: Arc<Dsm<SimChaos>> = Dsm::new(net.clone(), 1 << 20, ccfg);
    let mut t = <SimChaos as Transport>::endpoint(&net, net.topology().loc(NodeId(0), 0));

    // Two distinct pages homed on the doomed node, and its total page count.
    let mut a = GlobalAddr(0);
    while dsm.home_of(a) != 1 {
        a = a.offset(PAGE_BYTES);
    }
    let mut b = a.offset(PAGE_BYTES);
    while dsm.home_of(b) != 1 {
        b = b.offset(PAGE_BYTES);
    }
    let total_pages = 2 * ((1u64 << 20) / PAGE_BYTES);
    let doomed = (0..total_pages)
        .filter(|&p| dsm.home_of(GlobalAddr(p * PAGE_BYTES)) == 1)
        .count() as u64;

    // Healthy phase: the write registers at node 1 and stays dirty in node
    // 0's cache and write buffer.
    dsm.write_u64(&mut t, a, 4242);
    assert!(t.now() < 2_000_000, "the write must land before the outage opens");

    // The node goes dark mid-run. The next remote touch exhausts its
    // budget, declares the death, re-homes, and retries — transparently.
    t.compute(2_000_000);
    assert_eq!(dsm.read_u64(&mut t, b), 0, "a pristine page reads zero at its new home");

    let mem = dsm.membership();
    assert_eq!(mem.epoch(), 1);
    assert!(!mem.is_alive(1));
    let snap = dsm.stats().snapshot();
    assert_eq!(snap.failovers, 1);
    assert_eq!(snap.pages_rehomed, doomed, "every page of the dead node re-homes");
    assert!(snap.verb_exhaustions >= 1);

    // The buffered write survived the death of its directory home.
    assert_eq!(dsm.home_of(a), 0, "two nodes: the survivor inherits everything");
    assert_eq!(dsm.read_u64(&mut t, a), 4242, "dirty data lost across the failover");

    // The transition is in the flight record.
    let trace = dsm.lyra().to_chrome_trace();
    assert!(trace.contains("epoch_bump"), "the epoch bump must be flight-recorded");
    assert!(trace.contains("rehome"), "the re-homing must be flight-recorded");
}

/// A home keeps no directory-cache row for its own pages, and one that
/// inherits a page in a failover is no exception. Node 0 reads page `p`,
/// homed on node 1, and node 2's read of it then tells node 0 of the P→S:
/// node 0's row for `p` holds both readers. Node 1 dies, node 0 inherits
/// `p` with an empty row, and the row stays empty once node 0 reads `p` at
/// home and node 2 re-registers it there (a P→S whose owner is the home).
#[test]
fn the_heir_keeps_no_row_for_the_pages_it_inherits() {
    let cfg = ArgoConfig::small(3, 1);
    let ccfg = CarinaConfig { volans_failover: true, ..Default::default() };
    let outage = 2_000_000;
    let net = FaultyTransport::wrap(
        Interconnect::new(cfg.topology(), cfg.cost),
        FaultPlan::outage(NodeId(1), outage, u64::MAX),
    );
    let dsm: Arc<Dsm<SimChaos>> = Dsm::new(net.clone(), 1 << 20, ccfg);
    let endpoint = |n| <SimChaos as Transport>::endpoint(&net, net.topology().loc(NodeId(n), 0));
    let (mut t0, mut t2) = (endpoint(0), endpoint(2));
    let homed_on_1 = |q: &u64| dsm.home_of(GlobalAddr(q * PAGE_BYTES)) == 1;
    let mut pages = (1..).filter(homed_on_1);
    let p = pages.find(|&q| rendezvous_home(q, &[0, 2]) == 0).unwrap();
    let (p, other) = (GlobalAddr(p * PAGE_BYTES), GlobalAddr(pages.next().unwrap() * PAGE_BYTES));

    dsm.read_u64(&mut t0, p);
    dsm.read_u64(&mut t2, p);
    assert_eq!(dsm.dir_view(0, p).readers, 0b101, "node 2's P→S reached node 0's row");
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());

    // The next touch of node 1 declares it dead and re-homes its pages.
    t0.compute(outage);
    assert_eq!(dsm.read_u64(&mut t0, other), 0);
    assert_eq!((dsm.membership().epoch(), dsm.home_of(p)), (1, 0), "node 0 inherited p");
    assert_eq!(dsm.dir_view(0, p), Default::default(), "the heir kept its row");
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());

    dsm.read_u64(&mut t0, p);
    dsm.read_u64(&mut t2, p);
    assert_eq!(dsm.home_dir_view(p).readers, 0b101);
    assert_eq!(dsm.dir_view(0, p), Default::default(), "the home was notified");
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}

/// Online join: a latent node homes nothing and is not a member; joining
/// it is an epoch bump and *zero verbs* — it warms by demand-faulting.
#[test]
fn online_join_enters_empty_and_warms_by_demand_faulting() {
    let cfg = ArgoConfig::small(3, 1);
    let ccfg = CarinaConfig { volans_latent_nodes: 1, ..Default::default() };
    let net = Interconnect::new(cfg.topology(), cfg.cost);
    let dsm: Arc<Dsm<SimTransport>> = Dsm::new(net.clone(), 1 << 20, ccfg);

    // The trailing node is latent: out of the membership, homing nothing,
    // and none of that is a membership *change* (epoch stays 0: latent
    // homing is decided statically, before any access).
    let mem = dsm.membership();
    assert_eq!(mem.nodes_alive(), 2);
    assert!(!mem.is_alive(2));
    assert_eq!(mem.epoch(), 0, "latent homing is static, not a membership change");
    let total_pages = 3 * ((1u64 << 20) / PAGE_BYTES);
    for p in 0..total_pages {
        assert_ne!(
            dsm.home_of(GlobalAddr(p * PAGE_BYTES)),
            2,
            "a latent node must home nothing"
        );
    }

    // Founders compute and publish.
    let mut t0 = <SimTransport as Transport>::endpoint(&net, net.topology().loc(NodeId(0), 0));
    for i in 0..32u64 {
        dsm.write_u64(&mut t0, GlobalAddr(i * PAGE_BYTES), i * i + 7);
    }
    dsm.sd_fence(&mut t0);

    // The join itself moves nothing: an epoch bump, no verbs, no bytes.
    let before = net.stats().snapshot();
    assert_eq!(dsm.join_node(2), 1);
    let after = net.stats().snapshot();
    assert_eq!(
        before.rdma_reads, after.rdma_reads,
        "online join must not bulk-read"
    );
    assert_eq!(
        before.rdma_writes, after.rdma_writes,
        "online join must not bulk-write"
    );
    assert_eq!(before.messages, after.messages, "online join must not message");
    assert_eq!(dsm.membership().nodes_alive(), 3);
    assert_eq!(dsm.join_node(2), 1, "joining an alive node is a no-op");

    // The newcomer warms purely by demand faults: every read is correct,
    // and the fetch traffic appears only now.
    let mut t2 = <SimTransport as Transport>::endpoint(&net, net.topology().loc(NodeId(2), 0));
    for i in 0..32u64 {
        assert_eq!(dsm.read_u64(&mut t2, GlobalAddr(i * PAGE_BYTES)), i * i + 7);
    }
    let warmed = net.stats().snapshot();
    assert!(
        warmed.rdma_reads > after.rdma_reads,
        "the newcomer's reads must demand-fault remotely"
    );
}

/// Shadow homes: with `volans_shadow` on, an SD fence mirrors its drained
/// pages to each page's rendezvous successor — modeled whole-page traffic
/// at the fence boundary, nothing on the hot path, nothing when off.
#[test]
fn shadow_mirroring_rides_the_fence_to_the_rendezvous_successor() {
    let cfg = ArgoConfig::small(3, 1);
    let run = |shadow: bool| {
        let ccfg = CarinaConfig { volans_shadow: shadow, ..Default::default() };
        let net = Interconnect::new(cfg.topology(), cfg.cost);
        let dsm: Arc<Dsm<SimTransport>> = Dsm::new(net.clone(), 1 << 20, ccfg);
        let mut t = <SimTransport as Transport>::endpoint(&net, net.topology().loc(NodeId(0), 0));
        for i in 0..24u64 {
            dsm.write_u64(&mut t, GlobalAddr(i * PAGE_BYTES), i + 1);
        }
        dsm.sd_fence(&mut t);
        (dsm.stats().snapshot(), net.stats().snapshot())
    };
    let (plain, plain_net) = run(false);
    assert_eq!(plain.shadow_mirrored, 0, "shadowing off must mirror nothing");
    let (mirrored, mirrored_net) = run(true);
    assert!(
        mirrored.shadow_mirrored > 0,
        "the fence drained remote pages; successor mirrors must post"
    );
    assert!(
        mirrored_net.bytes_written > plain_net.bytes_written,
        "mirrors are modeled whole-page writes on the wire"
    );
}

/// Randomized membership schedule against a shadow model: the epoch is
/// exactly the number of transitions, observations are monotone, and the
/// headline property holds at every step — once epoch *e + 1* has been
/// observed at a target, no verb stamped at epoch *e* is admitted there.
#[test]
fn superseded_epoch_verbs_are_never_admitted() {
    const NODES: u16 = 6;
    let mut rng = 0x5EED_CAFEu64;
    let mut draw = move |m: u64| {
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(rng) % m
    };
    let m = Membership::new(NODES as usize);
    let mut observed_model = vec![0u64; NODES as usize];
    let mut epoch_model = 0u64;
    for _ in 0..4000 {
        match draw(4) {
            0 => {
                // A death (keeping at least one survivor) is one epoch bump.
                let n = draw(NODES as u64) as u16;
                if m.is_alive(n) && m.nodes_alive() > 1 {
                    assert!(m.mark_dead(n));
                    epoch_model += 1;
                    assert_eq!(m.bump_epoch(), epoch_model);
                }
            }
            1 => {
                // A join of a dead node is one epoch bump.
                let n = draw(NODES as u64) as u16;
                if !m.is_alive(n) {
                    assert!(m.mark_alive(n));
                    epoch_model += 1;
                    assert_eq!(m.bump_epoch(), epoch_model);
                }
            }
            2 => {
                // A node observes the current epoch.
                let n = draw(NODES as u64) as u16;
                assert_eq!(m.observe(n), epoch_model);
                observed_model[n as usize] = observed_model[n as usize].max(epoch_model);
            }
            _ => {
                // A verb stamped at a random (possibly stale) epoch is
                // admitted iff its stamp is not superseded at the target.
                let target = draw(NODES as u64) as u16;
                let stamp = draw(epoch_model + 1);
                assert_eq!(
                    m.admit(stamp, target),
                    stamp >= observed_model[target as usize],
                    "verb at epoch {stamp} vs observed {} at node {target}",
                    observed_model[target as usize]
                );
            }
        }
        assert_eq!(m.epoch(), epoch_model, "epoch must count transitions exactly");
        for n in 0..NODES {
            assert_eq!(m.observed(n), observed_model[n as usize], "observation regressed");
            if observed_model[n as usize] > 0 {
                assert!(
                    !m.admit(observed_model[n as usize] - 1, n),
                    "a verb from epoch e must not land after e+1 was observed at node {n}"
                );
            }
        }
    }
    assert!(epoch_model > 100, "the schedule never exercised transitions");
}

/// Sequential failover re-homing is order-independent: whatever order a set
/// of nodes dies in, every page lands on the same final home — its initial
/// home if that survived, else the rendezvous argmax over the survivors.
#[test]
fn sequential_rehoming_is_independent_of_death_order() {
    const NODES: u16 = 6;
    const PAGES: u64 = 512;
    let final_homes = |order: &[u16]| -> Vec<u16> {
        let mut alive: Vec<u16> = (0..NODES).collect();
        let mut homes: Vec<u16> = (0..PAGES).map(|p| (p % NODES as u64) as u16).collect();
        for &dead in order {
            alive.retain(|&n| n != dead);
            for (p, h) in homes.iter_mut().enumerate() {
                if *h == dead {
                    *h = rendezvous_home(p as u64, &alive);
                }
            }
        }
        homes
    };
    let reference = final_homes(&[4, 1, 5]);
    for order in [[1u16, 4, 5], [1, 5, 4], [4, 5, 1], [5, 1, 4], [5, 4, 1]] {
        assert_eq!(final_homes(&order), reference, "death order {order:?} moved pages");
    }
    // The closed form of the final assignment.
    let survivors = [0u16, 2, 3];
    for p in 0..PAGES {
        let init = (p % NODES as u64) as u16;
        let expect = if survivors.contains(&init) {
            init
        } else {
            rendezvous_home(p, &survivors)
        };
        assert_eq!(reference[p as usize], expect);
    }
}
