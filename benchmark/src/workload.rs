//! The five workloads: which kernel, at what size, on which machine — and
//! one rep of one of them.
//!
//! Load shape (all workloads): closed loop, one process per workload,
//! 2 worker threads — a cluster of 2 nodes × 1 thread, so every remote
//! path is live (remote misses, write-backs, directory atomics, the
//! cross-node barrier, global-lock handover) — 64 MiB of global memory per
//! node and the default page cache. The seed perturbs input values, the
//! op/key stream and the fault schedule; never a size.

use crate::kernels::matmul::Matmul;
use crate::kernels::mixed::Mixed;
use crate::kernels::prioq::Prioq;
use crate::kernels::sor::Sor;
use crate::kernels::{Kernel, KernelRun, RepMarks};
use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaSiSd, Coherence, Pyxis};
use rma::{FaultPlan, FaultyTransport, Interconnect, NativeTransport, Transport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Global memory each node contributes.
pub const BYTES_PER_NODE: u64 = 64 << 20;
/// Nodes (× 1 thread each) of the measured cluster.
pub const NODES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MatmulRo,
    SorStencil,
    PrioqHqdl,
    MixedPyxis,
    SorChaos,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MatmulRo,
        Workload::SorStencil,
        Workload::PrioqHqdl,
        Workload::MixedPyxis,
        Workload::SorChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatmulRo => "matmul_ro",
            Workload::SorStencil => "sor_stencil",
            Workload::PrioqHqdl => "prioq_hqdl",
            Workload::MixedPyxis => "mixed_pyxis",
            Workload::SorChaos => "sor_chaos",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (one line; `BENCHMARK.json` repeats it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MatmulRo => "read-mostly: ~1 M bulk reads of resident pages, so the access check and page-cache read-hit path do the work and the write, fence and lock layers almost none",
            Workload::SorStencil => "write path: ~46 k write faults with twins, diffs and write-backs, 20 barrier episodes with real SD drains and SI sweeps; a read-path gain that costs writes shows here",
            Workload::PrioqHqdl => "lock-bound: 40 k delegated critical sections on a DSM-resident heap through HQDL with global-lock handover and a fence pair per batch; no barriers, no bulk slices",
            Workload::MixedPyxis => "policy-bound: quiet and hot regions under the Pyxis hybrid, 2000 barrier episodes with almost no dirty data, so lease vs SI/SD mode and the fence path decide the result",
            Workload::SorChaos => "the sor_stencil kernel over a fabric failing ~3 % of verbs; the difference to sor_stencil is the retry/fault layer, which must move this one and leave sor_stencil still",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The virtual-time simulator.
    Sim,
    /// Real shared memory, wall-clock time.
    Native,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Native => "native",
        }
    }
}

/// Problem sizes: the measured ones, or tiny ones for tests and `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

fn matmul(scale: Scale, seed: u64) -> Matmul {
    let n = match scale {
        Scale::Full => 1024,
        Scale::Quick => 48,
    };
    Matmul { n, seed }
}

fn sor(scale: Scale, seed: u64) -> Sor {
    let (n, iterations) = match scale {
        Scale::Full => (1536, 10),
        Scale::Quick => (66, 3),
    };
    Sor {
        n,
        iterations,
        seed,
    }
}

fn prioq(scale: Scale, seed: u64) -> Prioq {
    let (total_ops, prefill) = match scale {
        Scale::Full => (40_000, 4096),
        Scale::Quick => (600, 64),
    };
    Prioq {
        total_ops,
        prefill,
        seed,
    }
}

fn mixed(scale: Scale, seed: u64) -> Mixed {
    let (quiet_n, hot_n, rounds) = match scale {
        Scale::Full => (256 * 1024, 64 * 1024, 1000),
        Scale::Quick => (8 * 1024, 2 * 1024, 6),
    };
    Mixed {
        quiet_n,
        hot_n,
        rounds,
        seed,
    }
}

/// The checksum a sequential execution of `w` produces.
pub fn reference(w: Workload, scale: Scale, seed: u64, nthreads: usize) -> u64 {
    match w {
        Workload::MatmulRo => matmul(scale, seed).reference(nthreads),
        Workload::SorStencil | Workload::SorChaos => sor(scale, seed).reference(nthreads),
        Workload::PrioqHqdl => prioq(scale, seed).reference(nthreads),
        Workload::MixedPyxis => mixed(scale, seed).reference(nthreads),
    }
}

/// One rep: a fresh machine, the kernel once, and what the host spent.
#[derive(Debug, Clone)]
pub struct Rep {
    pub run: KernelRun,
    /// Wall seconds from "start building the machine" to the
    /// `start_measurement` collective.
    pub setup_s: f64,
    /// Process CPU-seconds of the measured section.
    pub cpu_s: f64,
    /// Wall seconds of the measured section.
    pub wall_s: f64,
    /// Faults the fabric injected (0 on a healthy fabric).
    pub faults_injected: u64,
    /// Why the rep failed, if it did (empty = it did not).
    pub failures: Vec<String>,
}

fn finish_rep<K: Kernel, T: Transport, C: Coherence, const ON: bool>(
    kernel: &K,
    marks: &Arc<RepMarks>,
    machine: &Arc<ArgoMachine<T, C>>,
) -> Rep {
    let mut run = kernel.run::<T, C, ON>(machine, marks);
    let mut failures = std::mem::take(&mut run.problems);
    failures.extend(machine.dsm().check_invariants());
    if run.coherence.verb_exhaustions > 0 {
        failures.push(format!(
            "{} verbs exhausted their retry budget",
            run.coherence.verb_exhaustions
        ));
    }
    Rep {
        run,
        setup_s: marks.setup_s(),
        cpu_s: marks.measured_cpu_s(),
        wall_s: marks.measured_wall_s(),
        faults_injected: 0,
        failures,
    }
}

/// The kernel on a healthy fabric under policy `C`.
fn on_healthy<K: Kernel, C: Coherence, const ON: bool>(
    kernel: &K,
    backend: Backend,
    cfg: ArgoConfig,
) -> Rep {
    let marks = RepMarks::begin();
    match backend {
        Backend::Sim => {
            let m = ArgoMachine::<_, C>::with_policy(cfg);
            finish_rep::<K, _, C, ON>(kernel, &marks, &m)
        }
        Backend::Native => {
            let m = ArgoMachine::<_, C>::native_with_policy(cfg);
            finish_rep::<K, _, C, ON>(kernel, &marks, &m)
        }
    }
}

/// The kernel over a fabric that fails verbs on `FaultPlan::seeded(seed)`.
fn on_faulty<K: Kernel, const ON: bool>(
    kernel: &K,
    backend: Backend,
    cfg: ArgoConfig,
    seed: u64,
) -> Rep {
    fn go<K: Kernel, T: Transport, const ON: bool>(
        kernel: &K,
        marks: &Arc<RepMarks>,
        cfg: ArgoConfig,
        net: Arc<FaultyTransport<T>>,
    ) -> Rep {
        let m = ArgoMachine::<_, CarinaSiSd>::on(cfg, net.clone());
        let mut rep = finish_rep::<K, _, CarinaSiSd, ON>(kernel, marks, &m);
        rep.faults_injected = net.injected().total();
        rep
    }
    let marks = RepMarks::begin();
    let plan = FaultPlan::seeded(seed);
    match backend {
        Backend::Sim => {
            let inner = Interconnect::new(cfg.topology(), cfg.cost);
            go::<K, _, ON>(kernel, &marks, cfg, FaultyTransport::wrap(inner, plan))
        }
        Backend::Native => {
            let inner = NativeTransport::with_cost(cfg.topology(), cfg.cost);
            go::<K, _, ON>(kernel, &marks, cfg, FaultyTransport::wrap(inner, plan))
        }
    }
}

/// Run one rep of `w` on a fresh `nodes × 1` machine. `ON` selects the
/// traced build of the kernel. A panic inside the rep is a failed rep,
/// reported as `Err`.
pub fn run_rep<const ON: bool>(
    w: Workload,
    backend: Backend,
    nodes: usize,
    scale: Scale,
    seed: u64,
) -> Result<Rep, String> {
    let mut cfg = ArgoConfig::small(nodes, 1);
    cfg.bytes_per_node = BYTES_PER_NODE;
    catch_unwind(AssertUnwindSafe(|| match w {
        Workload::MatmulRo => on_healthy::<_, CarinaSiSd, ON>(&matmul(scale, seed), backend, cfg),
        Workload::SorStencil => on_healthy::<_, CarinaSiSd, ON>(&sor(scale, seed), backend, cfg),
        Workload::PrioqHqdl => on_healthy::<_, CarinaSiSd, ON>(&prioq(scale, seed), backend, cfg),
        Workload::MixedPyxis => on_healthy::<_, Pyxis, ON>(&mixed(scale, seed), backend, cfg),
        Workload::SorChaos => on_faulty::<_, ON>(&sor(scale, seed), backend, cfg, seed),
    }))
    .map_err(|panic| {
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        format!("rep panicked: {what}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Site;

    #[test]
    fn names_round_trip_and_fit_the_charset() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::metrics::valid_name(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    /// Every workload, both backends and the single-node machine compute
    /// the sequential reference bit for bit (tiny sizes).
    #[test]
    fn every_workload_matches_its_reference_on_every_machine() {
        for w in Workload::ALL {
            for (backend, nodes) in [(Backend::Sim, 2), (Backend::Native, 2), (Backend::Sim, 1)] {
                let rep = run_rep::<false>(w, backend, nodes, Scale::Quick, 77).expect("rep ran");
                assert_eq!(
                    rep.failures,
                    Vec::<String>::new(),
                    "{w:?} {backend:?} {nodes}"
                );
                assert_eq!(
                    rep.run.checksum,
                    reference(w, Scale::Quick, 77, nodes),
                    "{w:?} on {backend:?} x{nodes}"
                );
                assert_eq!(rep.run.logs.len(), nodes);
            }
        }
    }

    /// Span conservation on the simulator: a thread's clock only moves
    /// inside a wrapped call or a compute charge, so the sites and the
    /// charged compute sum exactly to the measured cycles.
    #[test]
    fn traced_spans_sum_to_the_measured_cycles_on_the_simulator() {
        for w in Workload::ALL {
            let rep = run_rep::<true>(w, Backend::Sim, 2, Scale::Quick, 5).expect("rep ran");
            assert!(rep.failures.is_empty(), "{w:?}: {:?}", rep.failures);
            let mut slowest = 0;
            for log in &rep.run.logs {
                assert_eq!(
                    log.in_sites() + log.compute_charged,
                    log.measured(),
                    "{w:?}: spans do not add up"
                );
                assert!(log.raw.len() as u64 <= log.sites.iter().map(|s| s.calls).sum::<u64>());
                slowest = slowest.max(log.measured());
            }
            assert_eq!(slowest, rep.run.cycles, "{w:?}: region cycles");
            let delegated: u64 = rep
                .run
                .logs
                .iter()
                .map(|l| l.sites[Site::Delegate as usize].calls)
                .sum();
            assert_eq!(delegated > 0, w == Workload::PrioqHqdl, "{w:?}");
        }
    }

    #[test]
    fn untraced_build_logs_no_spans_but_keeps_compute() {
        let rep = run_rep::<false>(Workload::MatmulRo, Backend::Sim, 2, Scale::Quick, 5).unwrap();
        for log in &rep.run.logs {
            assert_eq!(log.in_sites(), 0);
            assert!(log.raw.is_empty());
            assert!(log.compute_charged > 0);
            assert!(log.measured() > 0);
        }
    }

    #[test]
    fn chaos_injects_faults_and_stays_correct() {
        // A tiny grid issues few verbs, so look at a few fault schedules.
        let (mut injected, mut retries) = (0, 0);
        for seed in 1..=6 {
            let rep =
                run_rep::<false>(Workload::SorChaos, Backend::Sim, 2, Scale::Quick, seed).unwrap();
            assert!(rep.failures.is_empty(), "{:?}", rep.failures);
            assert_eq!(
                rep.run.checksum,
                reference(Workload::SorChaos, Scale::Quick, seed, 2)
            );
            injected += rep.faults_injected;
            retries += rep.run.coherence.verb_retries;
        }
        assert!(
            injected > 0 && retries > 0,
            "{injected} faults, {retries} retries"
        );
        let calm =
            run_rep::<false>(Workload::SorStencil, Backend::Sim, 2, Scale::Quick, 1).unwrap();
        assert_eq!(calm.faults_injected, 0);
        assert_eq!(calm.run.coherence.verb_retries, 0);
    }
}
