//! Per-thread execution context for Argo programs.
//!
//! An [`ArgoCtx`] is what a simulated application thread programs against:
//! typed global memory accesses, the hierarchical barrier, explicit
//! acquire/release fences (for programs that synchronize through Vela locks
//! rather than barriers), and measurement control.

use crate::machine::ArgoConfig;
use carina::{CarinaSiSd, Coherence, Dsm};
use mem::GlobalAddr;
use rma::{Endpoint, SimTransport, Transport};
use std::sync::Arc;
use vela::{ClockBarrier, HierBarrier};

/// The handle each simulated thread receives in [`crate::ArgoMachine::run`].
pub struct ArgoCtx<T: Transport = SimTransport, C: Coherence = CarinaSiSd> {
    /// The thread's virtual clock and placement (an RMA endpoint). Public
    /// so workloads can charge their compute costs directly.
    pub thread: T::Endpoint,
    dsm: Arc<Dsm<T, C>>,
    barrier: Arc<HierBarrier<T, C>>,
    control: Arc<ClockBarrier>,
    tid: usize,
    nthreads: usize,
    config: ArgoConfig,
    measure_from: u64,
}

impl<T: Transport, C: Coherence> ArgoCtx<T, C> {
    pub(crate) fn new(
        mut thread: T::Endpoint,
        dsm: Arc<Dsm<T, C>>,
        barrier: Arc<HierBarrier<T, C>>,
        control: Arc<ClockBarrier>,
        tid: usize,
        nthreads: usize,
        config: ArgoConfig,
    ) -> Self {
        let now = thread.obs_now();
        thread.lyra_lane().restart(now);
        ArgoCtx {
            thread,
            dsm,
            barrier,
            control,
            tid,
            nthreads,
            config,
            measure_from: 0,
        }
    }

    /// Global thread id in `0..nthreads`.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Total threads in the region.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// This thread's cluster node index.
    #[inline]
    pub fn node(&self) -> usize {
        self.thread.node().idx()
    }

    /// The cluster configuration the region runs under.
    #[inline]
    pub fn config(&self) -> &ArgoConfig {
        &self.config
    }

    /// The underlying DSM (for direct protocol access, e.g. Vela locks).
    #[inline]
    pub fn dsm(&self) -> &Arc<Dsm<T, C>> {
        &self.dsm
    }

    // --- memory ---

    #[inline]
    pub fn read_u64(&mut self, addr: GlobalAddr) -> u64 {
        self.dsm.read_u64(&mut self.thread, addr)
    }

    #[inline]
    pub fn write_u64(&mut self, addr: GlobalAddr, v: u64) {
        self.dsm.write_u64(&mut self.thread, addr, v)
    }

    #[inline]
    pub fn read_f64(&mut self, addr: GlobalAddr) -> f64 {
        self.dsm.read_f64(&mut self.thread, addr)
    }

    #[inline]
    pub fn write_f64(&mut self, addr: GlobalAddr, v: f64) {
        self.dsm.write_f64(&mut self.thread, addr, v)
    }

    /// Bulk read of consecutive f64s (see `Dsm::read_f64_slice`).
    #[inline]
    pub fn read_f64_slice(&mut self, addr: GlobalAddr, out: &mut [f64]) {
        self.dsm.read_f64_slice(&mut self.thread, addr, out)
    }

    /// Bulk write of consecutive f64s.
    #[inline]
    pub fn write_f64_slice(&mut self, addr: GlobalAddr, data: &[f64]) {
        self.dsm.write_f64_slice(&mut self.thread, addr, data)
    }

    /// Bulk read of consecutive u64s.
    #[inline]
    pub fn read_u64_slice(&mut self, addr: GlobalAddr, out: &mut [u64]) {
        self.dsm.read_u64_slice(&mut self.thread, addr, out)
    }

    /// Bulk write of consecutive u64s.
    #[inline]
    pub fn write_u64_slice(&mut self, addr: GlobalAddr, data: &[u64]) {
        self.dsm.write_u64_slice(&mut self.thread, addr, data)
    }

    // --- synchronization ---

    /// The hierarchical barrier over all region threads (paper §4.1).
    pub fn barrier(&mut self) {
        self.barrier.wait(&mut self.thread);
    }

    /// Acquire fence: self-invalidate (use after winning a data-race-free
    /// synchronization not expressed through Argo primitives).
    pub fn acquire(&mut self) {
        self.dsm.si_fence(&mut self.thread);
    }

    /// Release fence: self-downgrade.
    pub fn release(&mut self) {
        self.dsm.sd_fence(&mut self.thread);
    }

    // --- measurement ---

    /// Collective: end of initialization, start of the measured parallel
    /// section. Implements the paper's §3.4 rule — "initialization writes
    /// do not count": the reader/writer full maps are reset to null, caches
    /// are flushed home, and coherence/network statistics restart. The
    /// measured interval of [`crate::RunReport`] begins here.
    pub fn start_measurement(&mut self) {
        let dsm = self.dsm.clone();
        self.control.wait_leader(&mut self.thread, move |_| {
            dsm.reset_for_parallel_section();
            dsm.net().stats().reset();
        });
        self.measure_from = self.thread.now();
        let now = self.thread.obs_now();
        self.thread.lyra_lane().restart(now);
    }

    /// Collective: decay the classification so pages re-classify to the
    /// next phase's access pattern (the paper's adaptive extension,
    /// §3.2). All threads must call this together; the last arrival
    /// performs the charged cluster-wide sweep.
    pub fn adapt_classification(&mut self) {
        let dsm = self.dsm.clone();
        self.control.wait_leader(&mut self.thread, move |t| {
            dsm.decay_classification(t);
        });
    }

    /// Cycles of the measured section so far.
    pub fn measured_cycles(&self) -> u64 {
        self.thread.now().saturating_sub(self.measure_from)
    }

    /// Where this thread's time went in the measured section so far, by
    /// site (restarted with it): on the simulator its
    /// [`obs::ProfileSnapshot::total_cycles`] is [`Self::measured_cycles`].
    pub fn time_table(&mut self) -> obs::ProfileSnapshot {
        let now = self.thread.obs_now();
        self.thread.lyra_lane().table(now)
    }

    // --- work distribution helpers ---

    /// This thread's contiguous chunk of `0..n` under block distribution.
    pub fn my_chunk(&self, n: usize) -> std::ops::Range<usize> {
        let per = n.div_ceil(self.nthreads);
        let lo = (self.tid * per).min(n);
        let hi = ((self.tid + 1) * per).min(n);
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ArgoMachine;

    #[test]
    fn chunks_partition_exactly() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 2));
        let report = m.run(|ctx| ctx.my_chunk(10));
        let mut covered = [false; 10];
        for r in &report.results {
            for i in r.clone() {
                assert!(!covered[i], "overlap at {i}");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn measurement_excludes_prefix() {
        let m = ArgoMachine::new(ArgoConfig::small(1, 2));
        let report = m.run(|ctx| {
            ctx.thread.compute(1_000_000); // init, excluded
            ctx.start_measurement();
            ctx.thread.compute(500);
        });
        assert!(report.cycles >= 500);
        assert!(report.cycles < 1_000_000);
    }

    #[test]
    fn barrier_publishes_between_threads() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 1));
        let dsm = m.dsm().clone();
        let addr = dsm.allocator().alloc_pages(4).unwrap();
        let report = m.run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.write_u64(addr, 31);
            } else {
                let _ = ctx.read_u64(addr); // cache stale value
            }
            ctx.barrier();
            ctx.read_u64(addr)
        });
        assert!(report.results.iter().all(|&v| v == 31));
    }
}
