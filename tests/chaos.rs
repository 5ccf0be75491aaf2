//! Chaos suite: what a hostile fabric does to the protocol. Real
//! workloads (matmul, SOR, NAS EP) under every policy come out
//! bit-identical to the fault-free run (generated programs under faults are
//! the DRF oracle's, `random_drf_programs.rs`); duplicates and spikes cost
//! time only, brownouts and outages are ridden out by backoff, schedules
//! replay per seed, the flight recorder sees every fault, and an exhausted
//! budget — a permanent blackout — surfaces as a clean [`DsmError`], not a
//! hang or a poisoned machine. Every verb goes through the issue/poll
//! completion queue, so these runs stress async verbs under injection.

use argo::types::GlobalF64Array;
use argo::{ArgoConfig, ArgoMachine, RunReport};
use carina::{CarinaConfig, CarinaSiSd, Coherence, Dsm, DsmError, Pyxis, SpanId, Tardis};
use mem::{GlobalAddr, PAGE_BYTES};
use rma::{Endpoint, FaultPlan, FaultSnapshot, FaultyTransport, SimTransport, Transport};
use rma::{VerbClass, VerbError};
use simnet::{Interconnect, NodeId};
use std::sync::Arc;
use workloads::harness::Outcome;
use workloads::{ep, matmul, sor};

type ChaosNet = FaultyTransport<SimTransport>;

/// The workloads here are deliberately small, so per-mille fault rates
/// would often never fire; chaos runs get a viciously lossy fabric instead
/// (~28% of verb issues fail outright) plus frequent duplicates and spikes.
fn hostile(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        drop_per_million: 200_000,
        timeout_per_million: 100_000,
        duplicate_per_million: 150_000,
        spike_per_million: 150_000,
        spike_cycles: 20_000,
        ..FaultPlan::default()
    }
}

/// An Argo machine whose simulator fabric is wrapped in a fault injector.
/// Returns the fabric handle too, so tests can read the injection counts.
/// The retry budget is raised to 16 attempts per class: at the hostile
/// failure rate that makes spurious exhaustion astronomically unlikely
/// (0.28^16), so any panic here is a real protocol bug.
fn chaos_machine(
    nodes: usize,
    tpn: usize,
    plan: FaultPlan,
) -> (Arc<ArgoMachine<ChaosNet>>, Arc<ChaosNet>) {
    chaos_machine_with(nodes, tpn, plan)
}

/// [`chaos_machine`] under an explicit coherence policy.
fn chaos_machine_with<C: Coherence>(
    nodes: usize,
    tpn: usize,
    plan: FaultPlan,
) -> (Arc<ArgoMachine<ChaosNet, C>>, Arc<ChaosNet>) {
    let mut cfg = ArgoConfig::small(nodes, tpn);
    cfg.carina.retry.max_attempts = [16; VerbClass::COUNT];
    let net = FaultyTransport::wrap(Interconnect::new(cfg.topology(), cfg.cost), plan);
    (ArgoMachine::on(cfg, net.clone()), net)
}

/// The core chaos property: the workload `run` on `nodes × tpn` under
/// policy `C` gives the fault-free run's bits on a hostile fabric for every
/// seed, the faults fire, and — with `retries` — the retry machinery
/// accounts for them, never exhausting the budget.
fn assert_bit_identical_under_faults<C: Coherence>(
    (nodes, tpn): (usize, usize),
    seeds: &[u64],
    retries: bool,
    run: impl Fn(&Arc<ArgoMachine<ChaosNet, C>>) -> Outcome,
) {
    let what = C::NAME;
    let clean = run(&chaos_machine_with(nodes, tpn, FaultPlan::disabled()).0);
    assert_eq!(clean.coherence.verb_retries, 0, "{what}: healthy fabric must not retry");
    for &seed in seeds {
        let (m, net) = chaos_machine_with(nodes, tpn, hostile(seed));
        let faulted = run(&m);
        assert_eq!(
            faulted.checksum.to_bits(),
            clean.checksum.to_bits(),
            "{what} seed {seed}: checksum diverged under faults (clean {} faulted {})",
            clean.checksum,
            faulted.checksum
        );
        assert!(net.injected().total() > 0, "{what} seed {seed}: the fault plan never fired");
        assert_eq!(
            faulted.coherence.verb_exhaustions, 0,
            "{what} seed {seed}: a mixed plan well inside the budget must never exhaust"
        );
        assert!(
            !retries || faulted.coherence.verb_retries > 0,
            "{what} seed {seed}: faults were injected but nothing retried"
        );
    }
}

const MATMUL: matmul::MatmulParams = matmul::MatmulParams { n: 64 };
const SOR: sor::SorParams = sor::SorParams { n: 48, iterations: 4, omega: 1.25 };

#[test]
fn matmul_is_bit_identical_under_mixed_faults() {
    let run = |m: &Arc<ArgoMachine<ChaosNet, CarinaSiSd>>| matmul::run_argo(m, MATMUL);
    assert_bit_identical_under_faults((2, 2), &[11, 12, 13], true, run);
}

#[test]
fn sor_is_bit_identical_under_mixed_faults() {
    let run = |m: &Arc<ArgoMachine<ChaosNet, CarinaSiSd>>| sor::run_argo(m, SOR);
    assert_bit_identical_under_faults((3, 1), &[21, 22], true, run);
}

#[test]
fn ep_is_bit_identical_under_mixed_faults() {
    let p = ep::EpParams { pairs: 1 << 14 };
    let run = |m: &Arc<ArgoMachine<ChaosNet, CarinaSiSd>>| ep::run_argo(m, p);
    assert_bit_identical_under_faults((2, 2), &[31, 32], false, run);
}

/// The chaos contract is policy-independent: the lease machinery keeps
/// working through retries.
#[test]
fn matmul_is_bit_identical_under_mixed_faults_tardis() {
    let run = |m: &Arc<ArgoMachine<ChaosNet, Tardis>>| matmul::run_argo(m, MATMUL);
    assert_bit_identical_under_faults((2, 2), &[31, 32], true, run);
}

#[test]
fn sor_is_bit_identical_under_mixed_faults_tardis() {
    let run = |m: &Arc<ArgoMachine<ChaosNet, Tardis>>| sor::run_argo(m, SOR);
    assert_bit_identical_under_faults((3, 1), &[33, 34], true, run);
}

/// Pyxis adapts its per-page modes from signals in virtual time, which
/// retries do not perturb, so hostile fabrics leave its checksums alone.
#[test]
fn matmul_is_bit_identical_under_mixed_faults_pyxis() {
    let run = |m: &Arc<ArgoMachine<ChaosNet, Pyxis>>| matmul::run_argo(m, MATMUL);
    assert_bit_identical_under_faults((2, 2), &[35, 36], true, run);
}

#[test]
fn sor_is_bit_identical_under_mixed_faults_pyxis() {
    let run = |m: &Arc<ArgoMachine<ChaosNet, Pyxis>>| sor::run_argo(m, SOR);
    assert_bit_identical_under_faults((3, 1), &[37, 38], true, run);
}

/// Duplicates and latency spikes are not failures: nothing retries, the
/// budget never moves, and the bits still match — only timing and the
/// fabric's verb accounting change.
#[test]
fn duplicates_and_spikes_change_timing_not_results() {
    let p = matmul::MatmulParams { n: 64 };
    let clean = matmul::run_argo(&chaos_machine(2, 2, FaultPlan::disabled()).0, p);
    let plan = FaultPlan::default()
        .with_seed(99)
        .with_duplicates(400_000)
        .with_spikes(400_000, 25_000);
    let (m, net) = chaos_machine(2, 2, plan);
    let faulted = matmul::run_argo(&m, p);
    assert_eq!(faulted.checksum.to_bits(), clean.checksum.to_bits());
    let injected = net.injected();
    assert!(injected.duplicated > 0 && injected.spiked > 0);
    assert_eq!(injected.dropped + injected.timed_out + injected.stalled, 0);
    assert_eq!(faulted.coherence.verb_retries, 0, "nothing failed, nothing retries");
    assert_eq!(faulted.coherence.verb_exhaustions, 0);
    assert!(faulted.cycles > clean.cycles, "spiked completions must cost virtual time");
}

/// A transient brownout (well shorter than the retry schedule's total
/// budget) is ridden out by backoff: the program completes with the right
/// answer, and every stall it survived shows up as a retry in the
/// coherence stats and the latency profile.
#[test]
fn transient_brownout_is_survived_by_backoff() {
    let clean = sum_of_squares(&chaos_machine(2, 1, FaultPlan::disabled()).0);
    assert_eq!(clean.coherence.verb_retries, 0);
    let (m, net) = chaos_machine(2, 1, FaultPlan::default().with_brownout(NodeId(1), 0, 150_000));
    let faulted = sum_of_squares(&m);
    let (f, c) = (faulted.results[0], clean.results[0]);
    assert_eq!(f.to_bits(), c.to_bits(), "brownout changed the data");
    assert!(net.injected().stalled > 0, "the brownout window was never hit");
    assert!(faulted.coherence.verb_retries > 0, "stalls must surface as retries");
    assert_eq!(faulted.coherence.verb_exhaustions, 0);
    assert!(faulted.cycles > clean.cycles, "riding out a brownout must cost virtual time");
}

/// Each thread of a 2 × 1 machine stores its chunk of 2 048 squares, then
/// sums them all; every thread must read the same sum.
fn sum_of_squares(m: &Arc<ArgoMachine<ChaosNet>>) -> RunReport<f64> {
    let arr = GlobalF64Array::alloc(m.dsm(), 2048);
    let report = m.run(move |ctx| {
        for i in ctx.my_chunk(2048) {
            arr.set(ctx, i, (i * i) as f64);
        }
        ctx.barrier();
        (0..2048).map(|i| arr.get(ctx, i)).sum::<f64>()
    });
    assert!(report.results.iter().all(|&s| s.to_bits() == report.results[0].to_bits()));
    report
}

/// The same seed replays the same faults. A single thread is the sole verb
/// issuer, so the per-kind issue counters tick in program order and the
/// schedule is a pure function of the seed — two runs agree on every
/// injection count, and a different seed disagrees.
#[test]
fn fault_schedules_replay_exactly_per_seed() {
    fn run(seed: u64) -> (Vec<u64>, FaultSnapshot) {
        let (_, net, vals) = walk(hostile(seed), CarinaConfig::default());
        (vals, net.injected())
    }
    let (vals_a, inj_a) = run(77);
    let (vals_b, inj_b) = run(77);
    assert_eq!(vals_a, vals_b);
    assert!(vals_a.iter().enumerate().all(|(i, &v)| v == (i * i) as u64));
    assert_eq!(inj_a, inj_b, "same seed, different fault schedule");
    assert!(inj_a.total() > 0);
    let (vals_c, inj_c) = run(78);
    assert_eq!(vals_a, vals_c, "faults may never change the data plane");
    assert_ne!(inj_a, inj_c, "different seeds produced the identical schedule");
}

/// One thread of a 2 × 1 DSM under `plan` stores one word per page across
/// 24 pages (half of them remote), fences, and reads them back: write
/// faults, directory updates, fetches and drains all draw from the plan.
fn walk(plan: FaultPlan, ccfg: CarinaConfig) -> (Arc<Dsm<ChaosNet>>, Arc<ChaosNet>, Vec<u64>) {
    let cfg = ArgoConfig::small(2, 1);
    let net = FaultyTransport::wrap(Interconnect::new(cfg.topology(), cfg.cost), plan);
    let dsm: Arc<Dsm<ChaosNet>> = Dsm::new(net.clone(), 1 << 20, ccfg);
    let mut t = <ChaosNet as Transport>::endpoint(&net, net.topology().loc(NodeId(0), 0));
    for i in 0..24u64 {
        dsm.write_u64(&mut t, GlobalAddr(i * PAGE_BYTES), i * i);
    }
    dsm.sd_fence(&mut t);
    dsm.si_fence(&mut t);
    let vals = (0..24u64).map(|i| dsm.read_u64(&mut t, GlobalAddr(i * PAGE_BYTES))).collect();
    (dsm, net, vals)
}

/// [`walk`] on chaos's hostile plan with 16 attempts a verb; every word
/// must read back.
fn hostile_walk(seed: u64) -> (Arc<Dsm<ChaosNet>>, Arc<ChaosNet>) {
    let mut ccfg = CarinaConfig::default();
    ccfg.retry.max_attempts = [16; VerbClass::COUNT];
    let (dsm, net, vals) = walk(hostile(seed), ccfg);
    assert!(vals.iter().enumerate().all(|(i, &v)| v == (i * i) as u64));
    (dsm, net)
}

/// A permanent blackout exhausts the retry budget; the fallible API
/// surfaces a typed [`DsmError`] — promptly, with no deadlock — and the
/// machine stays usable for traffic that avoids the dead node.
#[test]
fn blackout_surfaces_a_clean_error_without_deadlock() {
    let cfg = ArgoConfig::small(2, 1);
    let net = FaultyTransport::wrap(
        Interconnect::new(cfg.topology(), cfg.cost),
        FaultPlan::blackout(NodeId(1)),
    );
    let dsm: Arc<Dsm<ChaosNet>> = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
    let mut t = <ChaosNet as Transport>::endpoint(&net, net.topology().loc(NodeId(0), 0));

    // Find one page homed on the dead node and one homed locally.
    let mut dead = GlobalAddr(0);
    while dsm.home_of(dead) != 1 {
        dead = dead.offset(PAGE_BYTES);
    }
    let mut alive = GlobalAddr(0);
    while dsm.home_of(alive) != 0 {
        alive = alive.offset(PAGE_BYTES);
    }

    let err = dsm
        .try_read::<u64>(&mut t, dead)
        .expect_err("a blacked-out home must not produce data");
    assert_eq!(t.current_span(), SpanId::NONE, "the failed miss left its span attached");
    assert_eq!(err.last_error, VerbError::NicStall);
    assert_eq!(err.node, 0);
    assert_eq!(err.target, 1);
    assert!(err.attempts > 1, "exhaustion implies the budget was actually spent");
    let msg = format!("{err}");
    assert!(msg.contains("failed after"), "unhelpful error: {msg}");

    // The budget was spent exactly: the error reports every configured
    // attempt for its class, no more and no fewer.
    let budget = dsm.config().retry.attempts(err.class);
    assert_eq!(err.attempts, budget, "exhaustion must spend the whole per-class budget");

    // Writes to the dead home fail the same way; both failures are counted,
    // and the retry counter carries exactly the two budgets' worth of
    // reissues (attempts minus the first try, twice).
    let werr = dsm
        .try_write(&mut t, dead, 7u64)
        .expect_err("a blacked-out home must not accept writes");
    assert_eq!(t.current_span(), SpanId::NONE, "the failed write left its span attached");
    assert_eq!(werr.attempts, budget);
    let snap = dsm.stats().snapshot();
    assert_eq!(snap.verb_exhaustions, 2);
    assert_eq!(
        snap.verb_retries,
        2 * (budget as u64 - 1),
        "retries must equal the exhausted budgets' reissues exactly"
    );
    assert!(net.injected().stalled > 0);

    // Graceful degradation: the local half of the address space still works.
    dsm.write_u64(&mut t, alive, 42);
    assert_eq!(dsm.read_u64(&mut t, alive), 42);
}

/// A node that browns out *and recovers* inside the retry schedule's total
/// budget costs only retries: the data is unchanged and no budget exhausts.
#[test]
fn outage_recovers_within_the_retry_budget() {
    fn run(plan: FaultPlan) -> (Arc<ChaosNet>, RunReport<f64>) {
        let cfg = ArgoConfig::small(2, 1);
        let net = FaultyTransport::wrap(Interconnect::new(cfg.topology(), cfg.cost), plan);
        (net.clone(), sum_of_squares(&ArgoMachine::on(cfg, net)))
    }
    let (_, clean) = run(FaultPlan::disabled());
    assert_eq!(clean.coherence.verb_retries, 0);
    let (net, faulted) = run(FaultPlan::outage(NodeId(1), 0, 150_000));
    let (f, c) = (faulted.results[0], clean.results[0]);
    assert_eq!(f.to_bits(), c.to_bits(), "a survived outage changed the data");
    assert!(net.injected().stalled > 0, "the outage window was never hit");
    assert!(faulted.coherence.verb_retries > 0, "stalls must surface as retries");
    assert_eq!(faulted.coherence.verb_exhaustions, 0, "the budget sufficed");
}

/// The lock layer degrades just as cleanly: a CAS against a dead lock home
/// returns `Err` instead of spinning forever, and leaves no residue.
#[test]
fn lock_acquire_against_dead_home_fails_cleanly() {
    let cfg = ArgoConfig::small(2, 1);
    let net = FaultyTransport::wrap(
        Interconnect::new(cfg.topology(), cfg.cost),
        FaultPlan::blackout(NodeId(0)),
    );
    let dsm: Arc<Dsm<ChaosNet>> = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
    let lock = vela::DsmGlobalLock::new(NodeId(0), dsm.config().retry);
    let mut t = <ChaosNet as Transport>::endpoint(&net, net.topology().loc(NodeId(1), 0));
    let err: DsmError = lock
        .try_acquire(&mut t)
        .expect_err("a dead lock home must not grant the lock");
    assert_eq!(err.last_error, VerbError::NicStall);
    // The failed acquisition left no residue — the lock never counted as
    // held, so nothing downstream can double-release it.
    assert_eq!(lock.stats().acquisitions, 0);
}

/// An `ArgoMutex` retries its lock word under its DSM's policy: with a
/// `LockAtomic` budget of 3, an acquire against a home that goes dark
/// after the start-up barrier gives up after 3 attempts.
#[test]
#[should_panic(expected = "lock_atomic verb from n1 to n0 failed after 3 attempts")]
fn a_mutex_retries_by_its_dsm_policy() {
    let mut cfg = ArgoConfig::small(2, 1);
    cfg.carina.retry = cfg.carina.retry.with_budget(VerbClass::LockAtomic, 3);
    let net = FaultyTransport::wrap(
        Interconnect::new(cfg.topology(), cfg.cost),
        FaultPlan::outage(NodeId(0), 1_000_000, u64::MAX),
    );
    let m: Arc<ArgoMachine<ChaosNet>> = ArgoMachine::on(cfg, net);
    let mutex = argo::ArgoMutex::new(m.dsm().clone(), 0);
    m.run(move |ctx| {
        ctx.barrier();
        if ctx.node() == 1 {
            ctx.thread.compute(1_000_000);
            mutex.with(ctx, |_| ());
        }
    });
}

/// The flight recorder under fire: a hostile fabric makes verbs retry, and
/// the Lyra trace must tell the whole story — every retried attempt links
/// by flow arrows (`s`/`t`/`f` keyed by span) to the protocol site that
/// issued it, and injected fault fates appear as `fault_injected` records.
#[test]
fn chaos_trace_links_retried_attempts_to_their_site_span() {
    use obs::{JsonValue, Site};
    let (dsm, net) = hostile_walk(77);
    assert!(net.injected().total() > 0, "the fault plan never fired");
    assert!(dsm.stats().snapshot().verb_retries > 0, "nothing retried");

    let doc = JsonValue::parse(&dsm.lyra().to_chrome_trace()).expect("valid lyra JSON");
    let items = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let span_of = |e: &JsonValue| {
        e.get("args").and_then(|a| a.get("span")).and_then(|s| s.as_str()).map(String::from)
    };

    // Every retried attempt names a span whose flow chain exists and whose
    // parent site slice (read_miss / write_fault / fence) is in the trace.
    let retry_spans: Vec<String> = items
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("verb_retry"))
        .filter_map(span_of)
        .collect();
    assert!(!retry_spans.is_empty(), "retries happened but none were recorded");
    for span in &retry_spans {
        assert_ne!(span, "0x0", "a retry must be attributed to a minted span");
        let phases: Vec<&str> = items
            .iter()
            .filter(|e| e.get("id").and_then(|i| i.as_str()) == Some(span))
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert!(
            phases.contains(&"s") && phases.contains(&"f"),
            "span {span}: retry not linked by flow arrows ({phases:?})"
        );
        assert!(
            items.iter().any(|e| {
                let name = e.get("name").and_then(|n| n.as_str()).unwrap_or("");
                Site::ALL.iter().any(|s| s.name() == name) && span_of(e).as_deref() == Some(span)
            }),
            "span {span}: no parent site slice in the trace"
        );
    }

    // The injector's decisions are first-class records with real fates.
    let fault_fates: Vec<String> = items
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("fault_injected"))
        .map(|e| e.get("args").unwrap().get("fate").unwrap().as_str().unwrap().to_string())
        .collect();
    assert!(!fault_fates.is_empty(), "injected faults left no flight records");
    assert!(
        fault_fates.iter().all(|f| f != "ok"),
        "an injected fault cannot have fate ok: {fault_fates:?}"
    );
}

/// Every fate the injector decides reaches the flight recorder — whichever
/// verb it hit (directory atomics, notifies and write-backs included, not
/// only the page fetches and fence write-backs), attributed to the protocol
/// site that issued it. The run fits in one endpoint's lane, so nothing is
/// dropped, which makes the count exact.
#[test]
fn every_injected_fault_is_flight_recorded() {
    use obs::RecordKind;
    // Every verb of the walk is issued inside a protocol site (write
    // fault, read miss, SD/SI fence), so every fault has a span.
    let (dsm, net) = hostile_walk(77);
    let injected = net.injected().total();
    assert!(injected > 0, "the fault plan never fired");
    assert_eq!(dsm.lyra().stats().dropped, 0, "ring too small for an exact count");
    let faults: Vec<_> = (0..2)
        .flat_map(|node| dsm.lyra().snapshot(node))
        .filter(|r| r.kind == RecordKind::FaultInjected)
        .collect();
    assert_eq!(faults.len() as u64, injected, "injected faults missing from the recorder");
    assert!(
        faults.iter().all(|r| r.span != rma::SpanId::NONE && r.fate != obs::Fate::Ok),
        "a fault without a span or with fate ok: {faults:?}"
    );
    assert!(dsm.check_invariants().is_empty());
}
