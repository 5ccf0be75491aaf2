//! The five workloads' kernels, owned by the benchmark so that an edit to
//! `crates/workloads` cannot silently change the load. Each kernel is
//! written against [`Traced`] only — every call into `argo`/`vela` is a
//! boundary the benchmark wraps — and carries its own sequential
//! reference, compared bit for bit on every rep.

pub mod matmul;
pub mod mixed;
pub mod prioq;
pub mod sor;

use crate::host;
use crate::spans::ThreadLog;
use argo::{ArgoMachine, RunReport};
use carina::{Coherence, CoherenceSnapshot};
use rma::Transport;
use simnet::stats::NetStatsSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Host-side marks of one rep: when machine building began, and wall and
/// CPU clocks at the `start_measurement` collective.
#[derive(Debug)]
pub struct RepMarks {
    build_start: Instant,
    setup_ns: AtomicU64,
    cpu_at_start_ns: AtomicU64,
    measured_wall_ns: AtomicU64,
    measured_cpu_ns: AtomicU64,
}

impl RepMarks {
    /// Start the set-up clock; call right before building the machine.
    pub fn begin() -> Arc<Self> {
        Arc::new(RepMarks {
            build_start: Instant::now(),
            setup_ns: AtomicU64::new(0),
            cpu_at_start_ns: AtomicU64::new(0),
            measured_wall_ns: AtomicU64::new(0),
            measured_cpu_ns: AtomicU64::new(0),
        })
    }

    /// Thread 0 calls this once it is through `start_measurement`.
    pub fn measurement_started(&self) {
        self.setup_ns.store(
            self.build_start.elapsed().as_nanos() as u64,
            Ordering::SeqCst,
        );
        self.cpu_at_start_ns
            .store(host::process_cpu_ns(), Ordering::SeqCst);
    }

    /// Wall seconds from machine build to the collective.
    pub fn setup_s(&self) -> f64 {
        self.setup_ns.load(Ordering::SeqCst) as f64 / 1e9
    }

    /// The kernel calls this when the measured region has returned (every
    /// thread joined), before any verification of its own.
    pub fn measurement_ended(&self) {
        let wall = self.build_start.elapsed().as_nanos() as u64;
        self.measured_wall_ns.store(
            wall - self.setup_ns.load(Ordering::SeqCst),
            Ordering::SeqCst,
        );
        let cpu = host::process_cpu_ns();
        self.measured_cpu_ns.store(
            cpu - self.cpu_at_start_ns.load(Ordering::SeqCst),
            Ordering::SeqCst,
        );
    }

    /// Wall seconds of the measured section.
    pub fn measured_wall_s(&self) -> f64 {
        self.measured_wall_ns.load(Ordering::SeqCst) as f64 / 1e9
    }

    /// Process CPU-seconds (all threads) of the measured section.
    pub fn measured_cpu_s(&self) -> f64 {
        self.measured_cpu_ns.load(Ordering::SeqCst) as f64 / 1e9
    }
}

/// What a kernel run hands back: the boundary counts of the measured
/// section and each thread's log.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Wrapping sum of the threads' checksums, comparable with
    /// [`Kernel::reference`].
    pub checksum: u64,
    /// Defects the kernel's own verification found (empty = none).
    pub problems: Vec<String>,
    /// Virtual cycles of the measured section (0 on the native backend).
    pub cycles: u64,
    pub coherence: CoherenceSnapshot,
    pub net: NetStatsSnapshot,
    pub locks: Vec<obs::LockObsSnapshot>,
    pub recorder_dropped: u64,
    /// Per-thread logs, indexed by thread id.
    pub logs: Vec<ThreadLog>,
}

impl KernelRun {
    /// Split a region's report into counts and per-thread results;
    /// `split` turns a thread's return value into its checksum and log.
    pub fn from_report<R>(
        report: RunReport<R>,
        mut split: impl FnMut(R) -> (u64, ThreadLog),
    ) -> Self {
        let mut checksum = 0u64;
        let mut logs = Vec::with_capacity(report.results.len());
        for r in report.results {
            let (c, log) = split(r);
            checksum = checksum.wrapping_add(c);
            logs.push(log);
        }
        KernelRun {
            checksum,
            problems: Vec::new(),
            cycles: report.cycles,
            coherence: report.coherence,
            net: report.net,
            locks: report.locks,
            recorder_dropped: report.recorder.dropped,
            logs,
        }
    }
}

/// A workload's kernel at one size and seed.
pub trait Kernel {
    /// Allocate, initialise through the DSM, pass `start_measurement`
    /// (calling `marks.measurement_started()` on thread 0), run the
    /// measured section on `machine` and call `marks.measurement_ended()`
    /// when its region returns. `ON` selects the traced build.
    fn run<T: Transport, C: Coherence, const ON: bool>(
        &self,
        machine: &Arc<ArgoMachine<T, C>>,
        marks: &Arc<RepMarks>,
    ) -> KernelRun;

    /// The checksum a sequential execution produces; `nthreads` matters
    /// only to kernels whose input stream is per thread.
    fn reference(&self, nthreads: usize) -> u64;
}
