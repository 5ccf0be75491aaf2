//! Cross-backend equivalence for whole applications and for what is not
//! an answer: the transport layer's promise is that backend choice changes
//! *when things cost*, never *what the memory says*. Workloads run on the
//! virtual-time simulator and the wall-clock native backend, clean and
//! under one fault plan, and their checksums agree; event counts and fault
//! schedules do not depend on the backend either. (Generated programs on
//! both backends are the DRF oracle's, `random_drf_programs.rs`.)

use argo::types::GlobalF64Array;
use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaSiSd, CoherenceSnapshot};
use obs::Site;
use rma::{Endpoint, FaultPlan, FaultyTransport, NativeTransport, Transport, VerbClass};
use simnet::{Interconnect, NodeId};
use std::sync::Arc;
use vela::Hqdl;
use workloads::{matmul, sor};

/// Bookkeeping identities a cross-node run keeps on any backend.
fn check_invariants(c: &CoherenceSnapshot) {
    assert!(c.read_misses > 0, "cross-node program must miss");
    assert!(c.write_faults > 0, "cross-node program must write-fault");
    assert!(c.si_fences > 0 && c.sd_fences > 0, "barriers must fence");
    assert!(
        c.writeback_bytes == 0 || c.writebacks > 0,
        "writeback bytes without writeback events"
    );
}

#[test]
fn matmul_end_to_end_on_native() {
    let p = matmul::MatmulParams { n: 48 };
    let sim = matmul::run_argo(&ArgoMachine::new(ArgoConfig::small(2, 2)), p);
    let nat = matmul::run_argo(&ArgoMachine::native(ArgoConfig::small(2, 2)), p);
    assert!(
        nat.checksum_matches(&sim, 1e-9),
        "matmul checksum diverged: sim {} native {}",
        sim.checksum,
        nat.checksum
    );
    assert_eq!(nat.cycles, 0, "native backend has no virtual clock");
    assert!(nat.wall_seconds > 0.0);
}

#[test]
fn sor_end_to_end_on_native() {
    let p = sor::SorParams { n: 64, iterations: 6, omega: 1.25 };
    let sim = sor::run_argo(&ArgoMachine::new(ArgoConfig::small(2, 2)), p);
    let nat = sor::run_argo(&ArgoMachine::native(ArgoConfig::small(2, 2)), p);
    assert!(
        nat.checksum_matches(&sim, 1e-9),
        "sor checksum diverged: sim {} native {}",
        sim.checksum,
        nat.checksum
    );
    assert_eq!(nat.cycles, 0);
}

/// The same fault plan on the simulator and the native backend leaves the
/// checksums in agreement: faults perturb timing and accounting on both,
/// never the data plane.
#[test]
fn matmul_under_faults_agrees_across_backends() {
    let p = matmul::MatmulParams { n: 48 };
    let plan = FaultPlan::seeded(5).with_drops(150_000).with_timeouts(50_000);
    let mut cfg = ArgoConfig::small(2, 2);
    cfg.carina.retry.max_attempts = [16; VerbClass::COUNT];
    let sim_net = FaultyTransport::wrap(Interconnect::new(cfg.topology(), cfg.cost), plan.clone());
    let nat_net = FaultyTransport::wrap(NativeTransport::with_cost(cfg.topology(), cfg.cost), plan);
    let sim = matmul::run_argo(&ArgoMachine::<_, CarinaSiSd>::on(cfg, sim_net.clone()), p);
    let nat = matmul::run_argo(&ArgoMachine::<_, CarinaSiSd>::on(cfg, nat_net.clone()), p);
    assert!(
        nat.checksum_matches(&sim, 1e-9),
        "faulted matmul diverged: sim {} native {}",
        sim.checksum,
        nat.checksum
    );
    assert!(sim_net.injected().total() > 0 && nat_net.injected().total() > 0);
    assert_eq!(sim.coherence.verb_exhaustions, 0);
    assert_eq!(nat.coherence.verb_exhaustions, 0);
    check_invariants(&sim.coherence);
    check_invariants(&nat.coherence);
}

/// Observability event *counts* are backend-independent for a deterministic
/// program (one thread per node, barrier phases, compute-only delegated
/// sections); only latency *values* differ, cycles vs nanoseconds.
#[test]
fn observability_counts_identical_on_both_backends() {
    fn counts<T: Transport>(machine: &Arc<ArgoMachine<T>>) -> [u64; 8] {
        let arr = GlobalF64Array::alloc(machine.dsm(), 1024);
        let lock = Hqdl::new_named(machine.dsm().clone(), 32, "obs");
        let report = machine.run(move |ctx| {
            for i in ctx.my_chunk(1024) {
                arr.set(ctx, i, (i * 3) as f64);
            }
            ctx.barrier();
            let s: f64 = (0..1024).map(|i| arr.get(ctx, i)).sum();
            ctx.barrier();
            for _ in 0..40 {
                lock.delegate_wait(&mut ctx.thread, |ht| ht.compute(10));
            }
            ctx.barrier();
            s
        });
        let (c, lock) = (report.coherence, &report.locks[0]);
        let sites = [Site::ReadMiss, Site::WriteFault, Site::BarrierWait];
        let [misses, faults, barriers] = sites.map(|s| report.profile.get(s).count());
        let (executed, waits) = (lock.executed(), lock.queue_wait.count());
        [c.read_misses, c.write_faults, misses, faults, barriers, lock.delegations, executed, waits]
    }
    let cs = counts(&ArgoMachine::new(ArgoConfig::small(3, 1)));
    let native = counts(&ArgoMachine::native(ArgoConfig::small(3, 1)));
    assert_eq!(cs, native, "observability event counts diverged across backends");
    assert!(cs[0] > 0 && cs[1] > 0, "program must miss and fault");
    assert_eq!(cs[0], cs[2], "every read miss must be profiled");
    assert_eq!(cs[1], cs[3], "every write fault must be profiled");
    assert_eq!(cs[4], 3 * 3, "three threads, three barriers each");
    assert_eq!(cs[5], 3 * 40);
    assert_eq!(cs[5], cs[6], "every delegation must execute exactly once");
}

/// The fault schedule is a pure function of (seed, verb kind, issue count,
/// target), virtual time left out: one issuer replaying a verb sequence
/// sees the same faults on the simulator and on native hardware.
#[test]
fn fault_schedule_is_backend_independent() {
    fn pattern<T: Transport>(fab: Arc<FaultyTransport<T>>) -> Vec<Result<(), rma::VerbError>> {
        let loc = fab.topology().loc(NodeId(0), 0);
        let mut e = <FaultyTransport<T> as Transport>::endpoint(&fab, loc);
        let mut out = Vec::new();
        for i in 0..200u64 {
            let target = NodeId(1 + (i % 2) as u16);
            out.push(e.rdma_read(target, 64 + i));
            out.push(e.rdma_write(target, 64).map(|_| ()));
            out.push(e.rdma_cas(target));
            e.compute(997); // desynchronize the clocks: the schedule must not care
        }
        out
    }
    let (plan, topo) = (FaultPlan::seeded(1234), simnet::ClusterTopology::tiny(3));
    let sim = Interconnect::new(topo, simnet::CostModel::paper_2011());
    let sim = pattern(FaultyTransport::wrap(sim, plan.clone()));
    let nat = pattern(FaultyTransport::wrap(NativeTransport::new(topo), plan));
    assert_eq!(sim, nat, "fault schedule diverged across backends");
    assert!(sim.iter().any(|r| r.is_err()), "the plan never fired");
}
