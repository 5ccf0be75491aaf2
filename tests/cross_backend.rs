//! Cross-backend equivalence: the same DRF programs, the same protocol
//! engine, two transports.
//!
//! The transport layer's promise is that backend choice changes *when
//! things cost*, never *what the memory says*. Each program here is written
//! once, generically over `rma::Transport`, and executed on both the
//! virtual-time simulator and the wall-clock native backend; final global
//! memory contents must agree bit for bit, and the coherence statistics
//! must satisfy the same structural invariants (the raw counts may differ —
//! timing changes eviction interleavings — but the protocol's bookkeeping
//! identities hold on any backend).

use argo::types::GlobalF64Array;
use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaSiSd, Coherence, CoherenceSnapshot};
use rma::{Endpoint, Transport};
use workloads::{matmul, sor};

/// Producer/consumer over a page-striped array: even tids write their
/// chunk, a barrier publishes, every thread then sums the whole array.
/// Returns (final memory words, per-thread sums, coherence stats).
fn producer_consumer<T: Transport, C: Coherence>(
    machine: &std::sync::Arc<ArgoMachine<T, C>>,
    n: usize,
) -> (Vec<u64>, Vec<f64>, CoherenceSnapshot) {
    let arr = GlobalF64Array::alloc(machine.dsm(), n);
    let report = machine.run(move |ctx| {
        for i in ctx.my_chunk(n) {
            arr.set(ctx, i, (i * i) as f64);
        }
        ctx.barrier();
        let mut sum = 0.0;
        for i in 0..n {
            sum += arr.get(ctx, i);
        }
        sum
    });
    let words = (0..n)
        .map(|i| machine.dsm().peek_u64(arr.addr(i)))
        .collect();
    (words, report.results, report.coherence)
}

/// Multi-phase barrier program: each phase, every thread increments every
/// slot it owns and reads a neighbour thread's slot from the previous
/// phase. Exercises repeated SI/SD cycles rather than one publish.
fn barrier_phases<T: Transport, C: Coherence>(
    machine: &std::sync::Arc<ArgoMachine<T, C>>,
    phases: usize,
) -> (Vec<u64>, CoherenceSnapshot) {
    let total = machine.config().total_threads();
    let stride = 512; // one page per slot: keeps the program DRF per word
    let arr = GlobalF64Array::alloc(machine.dsm(), total * stride);
    let report = machine.run(move |ctx| {
        let me = ctx.tid() * stride;
        let neighbour = ((ctx.tid() + 1) % total) * stride;
        let mut observed = 0.0;
        for _ in 0..phases {
            let v = arr.get(ctx, me);
            arr.set(ctx, me, v + 1.0);
            ctx.barrier();
            observed += arr.get(ctx, neighbour);
            ctx.barrier();
        }
        observed
    });
    let words = (0..total)
        .map(|t| machine.dsm().peek_u64(arr.addr(t * stride)))
        .collect();
    // Each neighbour slot is read once per phase, after its phase-p
    // increment: observed = 1 + 2 + ... + phases.
    let expect = (phases * (phases + 1) / 2) as f64;
    assert!(report.results.iter().all(|&o| o == expect));
    (words, report.coherence)
}

/// Bookkeeping identities that hold on any backend.
fn check_invariants(c: &CoherenceSnapshot) {
    assert!(c.read_misses > 0, "cross-node program must miss");
    assert!(c.write_faults > 0, "cross-node program must write-fault");
    assert!(c.si_fences > 0 && c.sd_fences > 0, "barriers must fence");
    assert!(
        c.writeback_bytes == 0 || c.writebacks > 0,
        "writeback bytes without writeback events"
    );
}

fn machines(nodes: usize, tpn: usize) -> (
    std::sync::Arc<ArgoMachine>,
    std::sync::Arc<ArgoMachine<rma::NativeTransport>>,
) {
    let cfg = ArgoConfig::small(nodes, tpn);
    (ArgoMachine::new(cfg), ArgoMachine::native(cfg))
}

type MachinePair<C> = (
    std::sync::Arc<ArgoMachine<rma::SimTransport, C>>,
    std::sync::Arc<ArgoMachine<rma::NativeTransport, C>>,
);

/// [`machines`] under an explicit coherence policy.
fn machines_with<C: Coherence>(nodes: usize, tpn: usize) -> MachinePair<C> {
    let cfg = ArgoConfig::small(nodes, tpn);
    (ArgoMachine::with_policy(cfg), ArgoMachine::native_with_policy(cfg))
}

/// Structural invariants that hold under any policy (Tardis never reflects
/// classification transitions, so the fence identities are all we pin).
fn check_invariants_any_policy(c: &CoherenceSnapshot) {
    assert!(c.read_misses > 0, "cross-node program must miss");
    assert!(c.write_faults > 0, "cross-node program must write-fault");
    assert!(c.si_fences > 0 && c.sd_fences > 0, "barriers must fence");
    assert!(
        c.writeback_bytes == 0 || c.writebacks > 0,
        "writeback bytes without writeback events"
    );
}

#[test]
fn producer_consumer_identical_memory_on_both_backends() {
    let (sim, native) = machines(3, 2);
    let (mem_sim, sums_sim, coh_sim) = producer_consumer(&sim, 2048);
    let (mem_nat, sums_nat, coh_nat) = producer_consumer(&native, 2048);
    assert_eq!(mem_sim, mem_nat, "final memory diverged across backends");
    assert_eq!(sums_sim, sums_nat, "observed values diverged");
    let expect: f64 = (0..2048u64).map(|i| (i * i) as f64).sum();
    assert!(sums_sim.iter().all(|&s| s == expect));
    check_invariants(&coh_sim);
    check_invariants(&coh_nat);
}

/// The backend-equivalence promise is policy-independent: the same two
/// programs must agree across backends under the Tardis lease protocol
/// too, and its lease counters must actually move.
#[test]
fn producer_consumer_identical_memory_on_both_backends_tardis() {
    let (sim, native) = machines_with::<carina::Tardis>(3, 2);
    let (mem_sim, sums_sim, coh_sim) = producer_consumer(&sim, 2048);
    let (mem_nat, sums_nat, coh_nat) = producer_consumer(&native, 2048);
    assert_eq!(mem_sim, mem_nat, "final memory diverged across backends");
    assert_eq!(sums_sim, sums_nat, "observed values diverged");
    let expect: f64 = (0..2048u64).map(|i| (i * i) as f64).sum();
    assert!(sums_sim.iter().all(|&s| s == expect));
    check_invariants_any_policy(&coh_sim);
    check_invariants_any_policy(&coh_nat);
}

#[test]
fn barrier_phases_identical_memory_on_both_backends_tardis() {
    let (sim, native) = machines_with::<carina::Tardis>(2, 3);
    let (mem_sim, coh_sim) = barrier_phases(&sim, 5);
    let (mem_nat, coh_nat) = barrier_phases(&native, 5);
    assert_eq!(mem_sim, mem_nat, "final memory diverged across backends");
    assert!(mem_sim.iter().all(|&w| f64::from_bits(w) == 5.0));
    check_invariants_any_policy(&coh_sim);
    check_invariants_any_policy(&coh_nat);
}

#[test]
fn producer_consumer_identical_memory_on_both_backends_pyxis() {
    let (sim, native) = machines_with::<carina::Pyxis>(3, 2);
    let (mem_sim, sums_sim, coh_sim) = producer_consumer(&sim, 2048);
    let (mem_nat, sums_nat, coh_nat) = producer_consumer(&native, 2048);
    assert_eq!(mem_sim, mem_nat, "final memory diverged across backends");
    assert_eq!(sums_sim, sums_nat, "observed values diverged");
    let expect: f64 = (0..2048u64).map(|i| (i * i) as f64).sum();
    assert!(sums_sim.iter().all(|&s| s == expect));
    check_invariants_any_policy(&coh_sim);
    check_invariants_any_policy(&coh_nat);
}

#[test]
fn barrier_phases_identical_memory_on_both_backends_pyxis() {
    let (sim, native) = machines_with::<carina::Pyxis>(2, 3);
    let (mem_sim, coh_sim) = barrier_phases(&sim, 5);
    let (mem_nat, coh_nat) = barrier_phases(&native, 5);
    assert_eq!(mem_sim, mem_nat, "final memory diverged across backends");
    assert!(mem_sim.iter().all(|&w| f64::from_bits(w) == 5.0));
    check_invariants_any_policy(&coh_sim);
    check_invariants_any_policy(&coh_nat);
}

#[test]
fn barrier_phases_identical_memory_on_both_backends() {
    let (sim, native) = machines(2, 3);
    let (mem_sim, coh_sim) = barrier_phases(&sim, 5);
    let (mem_nat, coh_nat) = barrier_phases(&native, 5);
    assert_eq!(mem_sim, mem_nat, "final memory diverged across backends");
    assert!(mem_sim.iter().all(|&w| f64::from_bits(w) == 5.0));
    check_invariants(&coh_sim);
    check_invariants(&coh_nat);
}

/// An SD fence's drain posts every page as its scan finishes and polls
/// them all at the end, so how a dirty set is split across fences is a
/// timing question only. The same set drained by one fence, or by two
/// fences over its halves, must leave bit-identical final home memory and
/// observed values on *both* backends, and the wire must carry the same
/// write-backs.
#[test]
fn one_fence_or_two_leave_identical_memory_on_both_backends() {
    use mem::WORDS_PER_PAGE;
    let pages = 16;
    // Thread-striped writes: every thread writes word `tid` of each page,
    // so every thread dirties (mostly remote) pages homed all over the
    // cluster — one drain posts to several homes. Pages `0..split` are
    // written before the first barrier, the rest before the second. One
    // thread per node keeps each node's push/downgrade sequence fully
    // deterministic, so the two runs' counters are exactly comparable.
    fn striped<T: Transport>(
        machine: &std::sync::Arc<ArgoMachine<T>>,
        pages: usize,
        split: usize,
    ) -> (Vec<u64>, Vec<f64>, CoherenceSnapshot) {
        let n = pages * WORDS_PER_PAGE;
        let arr = GlobalF64Array::alloc(machine.dsm(), n);
        let report = machine.run(move |ctx| {
            for half in [0..split, split..pages] {
                for page in half {
                    let i = page * WORDS_PER_PAGE + ctx.tid();
                    arr.set(ctx, i, (i * i) as f64);
                }
                ctx.barrier();
            }
            (0..n).map(|i| arr.get(ctx, i)).sum()
        });
        let words = (0..n)
            .map(|i| machine.dsm().peek_u64(arr.addr(i)))
            .collect();
        (words, report.results, report.coherence)
    }
    let run = |split: usize| {
        let cfg = ArgoConfig::small(3, 1);
        let sim = striped(&ArgoMachine::new(cfg), pages, split);
        let nat = striped(&ArgoMachine::native(cfg), pages, split);
        (sim, nat)
    };
    let (sim_one, nat_one) = run(pages);
    let (sim_two, nat_two) = run(pages / 2);
    assert_eq!(sim_one.0, sim_two.0, "sim: one fence vs two diverged");
    assert_eq!(nat_one.0, nat_two.0, "native: one fence vs two diverged");
    assert_eq!(sim_one.0, nat_one.0, "backends diverged");
    assert_eq!(sim_one.1, sim_two.1, "sim: observed sums diverged");
    assert_eq!(nat_one.1, nat_two.1, "native: observed sums diverged");
    for (one, two) in [(&sim_one.2, &sim_two.2), (&nat_one.2, &nat_two.2)] {
        check_invariants(one);
        check_invariants(two);
        assert_eq!(
            (one.writebacks, one.writeback_bytes),
            (two.writebacks, two.writeback_bytes),
            "the split changed what goes home"
        );
    }
    assert_eq!(sim_one.2.writeback_bytes, nat_one.2.writeback_bytes);
}

/// Overlapped verb issue is a timing feature only. Multi-page cache lines
/// make every read miss put several home groups' reads in flight before
/// polling any, and an SD fence posts every page's write-back before
/// polling any. Neither may change what memory says: final home memory
/// and every observed value must be bit-identical across backends.
#[test]
fn overlapped_fills_identical_memory_on_both_backends() {
    let mut cfg = ArgoConfig::small(3, 2);
    cfg.carina.cache = mem::CacheConfig::new(256, 4); // multi-group line fills
    // 96 pages: each of the six threads writes 16, at least ten of them
    // remote, so every node's fence drains overlap many postings.
    let sim = producer_consumer(&ArgoMachine::new(cfg), 49152);
    let nat = producer_consumer(&ArgoMachine::native(cfg), 49152);
    assert_eq!(sim.0, nat.0, "final memory diverged across backends");
    assert_eq!(sim.1, nat.1, "observed values diverged");
    for c in [&sim.2, &nat.2] {
        check_invariants(c);
        assert!(c.writebacks >= 60, "every node's fence drains many pages: {c:?}");
    }
}

/// Whole-page stores allocate without fetching the page. Each of the six
/// threads overwrites its own pages with one slice store each, then — after
/// a barrier — its neighbour's, which the neighbour's node holds dirty or
/// clean; then every thread reads every page. The page contents never
/// travel to a writer, so home memory and every observed value must still
/// be bit-identical across backends, and equal to the last round's stores.
#[test]
fn whole_page_stores_identical_memory_on_both_backends() {
    use argo::types::GlobalU64Array;
    use mem::WORDS_PER_PAGE;
    const PAGES: usize = 24;
    fn overwrite<T: Transport>(machine: &std::sync::Arc<ArgoMachine<T>>) -> (Vec<u64>, Vec<u64>) {
        let arr = GlobalU64Array::alloc(machine.dsm(), PAGES * WORDS_PER_PAGE);
        let value =
            |round: usize, page: usize, w: usize| (round * PAGES + page) as u64 * 1000 + w as u64;
        let report = machine.run(move |ctx| {
            let threads = ctx.nthreads();
            for round in 0..2 {
                let writer = (ctx.tid() + round) % threads;
                for page in (writer..PAGES).step_by(threads) {
                    let data: Vec<u64> =
                        (0..WORDS_PER_PAGE).map(|w| value(round, page, w)).collect();
                    ctx.write_u64_slice(arr.addr(page * WORDS_PER_PAGE), &data);
                }
                ctx.barrier();
            }
            let mut page = vec![0u64; WORDS_PER_PAGE];
            (0..PAGES).fold(0u64, |sum, p| {
                ctx.read_u64_slice(arr.addr(p * WORDS_PER_PAGE), &mut page);
                page.iter().fold(sum, |s, &v| s.rotate_left(5) ^ v)
            })
        });
        let words: Vec<u64> = (0..PAGES * WORDS_PER_PAGE)
            .map(|i| machine.dsm().peek_u64(arr.addr(i)))
            .collect();
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(w, value(1, i / WORDS_PER_PAGE, i % WORDS_PER_PAGE), "word {i}");
        }
        (words, report.results)
    }
    let (sim, native) = machines(3, 2);
    assert_eq!(overwrite(&sim), overwrite(&native), "backends diverged");
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

/// Observability event *counts* are backend-independent for a fully
/// deterministic program: one thread per node, phase-separated by
/// barriers, and delegated sections that are compute-only (so helper
/// batching nondeterminism cannot leak into miss counts). The latency
/// *values* differ by design — virtual cycles vs wall nanoseconds — but
/// both backends must observe the same events the same number of times.
#[test]
fn observability_counts_identical_on_both_backends() {
    fn counts<T: Transport>(
        machine: &std::sync::Arc<ArgoMachine<T>>,
    ) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
        let arr = GlobalF64Array::alloc(machine.dsm(), 1024);
        let lock = vela::Hqdl::new_named(machine.dsm().clone(), 32, "obs");
        let report = machine.run(move |ctx| {
            for i in ctx.my_chunk(1024) {
                arr.set(ctx, i, (i * 3) as f64);
            }
            ctx.barrier();
            let mut s = 0.0;
            for i in 0..1024 {
                s += arr.get(ctx, i);
            }
            ctx.barrier();
            for _ in 0..40 {
                lock.delegate_wait(&mut ctx.thread, |ht| ht.compute(10));
            }
            ctx.barrier();
            s
        });
        let lock = &report.locks[0];
        (
            report.coherence.read_misses,
            report.coherence.write_faults,
            report.profile.get(obs::Site::ReadMiss).count(),
            report.profile.get(obs::Site::WriteFault).count(),
            report.profile.get(obs::Site::BarrierWait).count(),
            lock.delegations,
            lock.executed(),
            lock.queue_wait.count(),
        )
    }
    let (sim, native) = machines(3, 1);
    let cs = counts(&sim);
    let cn = counts(&native);
    assert_eq!(cs, cn, "observability event counts diverged across backends");
    assert!(cs.0 > 0 && cs.1 > 0, "program must miss and fault");
    assert_eq!(cs.0, cs.2, "every read miss must be profiled");
    assert_eq!(cs.1, cs.3, "every write fault must be profiled");
    assert_eq!(cs.4, 3 * 3, "three threads, three barriers each");
    assert_eq!(cs.5, 3 * 40);
    assert_eq!(cs.5, cs.6, "every delegation must execute exactly once");
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

/// The fault schedule is a pure function of (seed, verb kind, issue count,
/// target) — virtual time is deliberately left out of the draw — so a
/// single issuer replaying the same verb sequence sees the *same* faults
/// on the simulator and on native hardware, even though their clocks are
/// unrelated.
#[test]
fn fault_schedule_is_backend_independent() {
    use rma::{Endpoint as _, FaultPlan, FaultyTransport, VerbError};
    use simnet::{ClusterTopology, NodeId};

    fn pattern<T: Transport>(fab: std::sync::Arc<FaultyTransport<T>>) -> Vec<Result<(), VerbError>> {
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
    let plan = FaultPlan::seeded(1234);
    let topo = ClusterTopology::tiny(3);
    let sim = pattern(FaultyTransport::wrap(
        simnet::Interconnect::new(topo, simnet::CostModel::paper_2011()),
        plan.clone(),
    ));
    let nat = pattern(FaultyTransport::wrap(rma::NativeTransport::new(topo), plan));
    assert_eq!(sim, nat, "fault schedule diverged across backends");
    assert!(sim.iter().any(|r| r.is_err()), "the plan never fired");
}

/// Whole-application chaos across backends: the same hostile plan on the
/// simulator and the native backend leaves the checksums in agreement —
/// faults perturb timing and accounting on both, never the data plane.
#[test]
fn matmul_under_faults_agrees_across_backends() {
    use rma::{FaultPlan, FaultyTransport, VerbClass};

    let p = matmul::MatmulParams { n: 48 };
    let plan = FaultPlan::seeded(5)
        .with_drops(150_000)
        .with_timeouts(50_000);
    let mut cfg = ArgoConfig::small(2, 2);
    cfg.carina.retry.max_attempts = [16; VerbClass::COUNT];
    let sim_net = FaultyTransport::wrap(
        simnet::Interconnect::new(cfg.topology(), cfg.cost),
        plan.clone(),
    );
    let nat_net = FaultyTransport::wrap(
        rma::NativeTransport::with_cost(cfg.topology(), cfg.cost),
        plan,
    );
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
