//! Call-boundary spans: every call a kernel makes into `argo`/`vela` goes
//! through [`Traced`], which (when `ON`) stamps the thread's observability
//! clock — virtual cycles on the simulator, wall nanoseconds on the native
//! backend — before and after the call. Spans stay in per-thread memory
//! and are written out when the run ends. With `ON = false` the wrapper
//! compiles to the bare calls; end-to-end numbers come from that build of
//! the kernel.

use crate::json::Value;
use crate::stats::Log2Hist;
use argo::ArgoCtx;
use carina::{Coherence, Dsm};
use mem::GlobalAddr;
use rma::{Endpoint, Transport};
use std::sync::Arc;
use vela::Hqdl;

/// The boundaries a kernel crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    Read = 0,
    Write = 1,
    Barrier = 2,
    Delegate = 3,
}

impl Site {
    pub const ALL: [Site; 4] = [Site::Read, Site::Write, Site::Barrier, Site::Delegate];

    pub fn name(self) -> &'static str {
        match self {
            Site::Read => "argo.read",
            Site::Write => "argo.write",
            Site::Barrier => "argo.barrier",
            Site::Delegate => "vela.delegate",
        }
    }
}

/// Name of the self-time pseudo-site: what a thread spent outside every
/// wrapped call.
pub const COMPUTE_SITE: &str = "app.compute";

/// Raw spans kept per thread (the rest only reach the aggregates).
pub const RAW_SPANS: usize = 4096;

#[derive(Debug, Clone, Default)]
pub struct SiteLog {
    pub calls: u64,
    pub sum: u64,
    pub hist: Log2Hist,
}

#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub site: Site,
    pub start: u64,
    pub dur: u64,
}

/// What one thread's measured section left behind.
#[derive(Debug, Clone, Default)]
pub struct ThreadLog {
    /// Observability-clock stamp right after the `start_measurement`
    /// collective, and at the end of the kernel.
    pub t0: u64,
    pub t1: u64,
    /// Virtual cycles the kernel charged for its own computation in the
    /// measured section (kept with tracing off too: the cost model needs it).
    pub compute_charged: u64,
    pub sites: [SiteLog; 4],
    pub raw: Vec<RawSpan>,
}

impl ThreadLog {
    /// Clock units between the two stamps.
    pub fn measured(&self) -> u64 {
        self.t1 - self.t0
    }

    /// Clock units inside wrapped calls.
    pub fn in_sites(&self) -> u64 {
        self.sites.iter().map(|s| s.sum).sum()
    }

    /// Self time: the measured section minus every wrapped call.
    pub fn self_time(&self) -> u64 {
        self.measured() - self.in_sites()
    }

    #[inline]
    fn record(&mut self, site: Site, start: u64, end: u64) {
        let dur = end.saturating_sub(start);
        let log = &mut self.sites[site as usize];
        log.calls += 1;
        log.sum += dur;
        log.hist.record(dur);
        if self.raw.len() < RAW_SPANS {
            self.raw.push(RawSpan { site, start, dur });
        }
    }
}

/// A kernel's view of its thread context. Every `argo`/`vela` call the
/// kernel makes is a method here, so the set of methods *is* the traced
/// boundary.
pub struct Traced<'a, T: Transport, C: Coherence, const ON: bool> {
    ctx: &'a mut ArgoCtx<T, C>,
    log: ThreadLog,
}

impl<'a, T: Transport, C: Coherence, const ON: bool> Traced<'a, T, C, ON> {
    pub fn new(ctx: &'a mut ArgoCtx<T, C>) -> Self {
        Traced {
            ctx,
            log: ThreadLog::default(),
        }
    }

    #[inline]
    pub fn tid(&self) -> usize {
        self.ctx.tid()
    }

    #[inline]
    pub fn nthreads(&self) -> usize {
        self.ctx.nthreads()
    }

    /// The DSM handle delegated critical sections capture.
    pub fn dsm(&self) -> Arc<Dsm<T, C>> {
        self.ctx.dsm().clone()
    }

    /// The bare context, for untimed set-up and verification code.
    pub fn untraced(&mut self) -> &mut ArgoCtx<T, C> {
        self.ctx
    }

    #[inline]
    fn span<R>(&mut self, site: Site, f: impl FnOnce(&mut ArgoCtx<T, C>) -> R) -> R {
        if ON {
            let start = self.ctx.thread.obs_now();
            let r = f(self.ctx);
            let end = self.ctx.thread.obs_now();
            self.log.record(site, start, end);
            r
        } else {
            f(self.ctx)
        }
    }

    /// The `start_measurement` collective; `after` runs on thread 0 once
    /// it is through (the rep's set-up/CPU marks). Everything logged
    /// before this point is dropped.
    pub fn start_measurement(&mut self, after: impl FnOnce()) {
        self.ctx.start_measurement();
        if self.ctx.tid() == 0 {
            after();
        }
        self.log = ThreadLog::default();
        self.log.t0 = self.ctx.thread.obs_now();
    }

    /// End of the kernel: take the final stamp and hand the log over.
    pub fn finish(mut self) -> ThreadLog {
        self.log.t1 = self.ctx.thread.obs_now();
        self.log
    }

    #[inline]
    pub fn read_f64(&mut self, addr: GlobalAddr) -> f64 {
        self.span(Site::Read, |c| c.read_f64(addr))
    }

    #[inline]
    pub fn write_f64(&mut self, addr: GlobalAddr, v: f64) {
        self.span(Site::Write, |c| c.write_f64(addr, v))
    }

    #[inline]
    pub fn read_f64_slice(&mut self, addr: GlobalAddr, out: &mut [f64]) {
        self.span(Site::Read, |c| c.read_f64_slice(addr, out))
    }

    #[inline]
    pub fn write_f64_slice(&mut self, addr: GlobalAddr, data: &[f64]) {
        self.span(Site::Write, |c| c.write_f64_slice(addr, data))
    }

    #[inline]
    pub fn barrier(&mut self) {
        self.span(Site::Barrier, |c| c.barrier())
    }

    /// Charge `cycles` of the kernel's own computation.
    #[inline]
    pub fn compute(&mut self, cycles: u64) {
        self.ctx.thread.compute(cycles);
        self.log.compute_charged += cycles;
    }

    /// Detached delegation of a critical section.
    #[inline]
    pub fn delegate(
        &mut self,
        lock: &Arc<Hqdl<T, C>>,
        f: impl FnOnce(&mut T::Endpoint) + Send + 'static,
    ) {
        self.span(Site::Delegate, |c| {
            let _detached = lock.delegate(&mut c.thread, f);
        })
    }

    /// Delegation that waits for the section's result.
    #[inline]
    pub fn delegate_wait<R: Send + 'static>(
        &mut self,
        lock: &Arc<Hqdl<T, C>>,
        f: impl FnOnce(&mut T::Endpoint) -> R + Send + 'static,
    ) -> R {
        self.span(Site::Delegate, |c| lock.delegate_wait(&mut c.thread, f))
    }
}

/// Chrome-trace ("Trace Event Format") events of one rep: a parent span
/// per thread covering the measured section, and the thread's raw spans
/// under it. `ts`/`dur` are the clock units divided by 1000 — microseconds
/// on the native backend, kilocycles on the simulator.
pub fn chrome_events(rep_name: &str, pid: u64, logs: &[ThreadLog]) -> Vec<Value> {
    let event = |name: &str, tid: usize, start: u64, dur: u64| {
        Value::obj()
            .with("name", name)
            .with("ph", "X")
            .with("pid", pid)
            .with("tid", tid)
            .with("ts", start as f64 / 1000.0)
            .with("dur", dur as f64 / 1000.0)
    };
    let mut events = Vec::new();
    for (tid, log) in logs.iter().enumerate() {
        events.push(event(rep_name, tid, log.t0, log.measured()));
        for s in &log.raw {
            events.push(event(s.site.name(), tid, s.start, s.dur));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_aggregates_and_caps_raw_spans() {
        let mut log = ThreadLog {
            t0: 100,
            ..ThreadLog::default()
        };
        for i in 0..(RAW_SPANS as u64 + 10) {
            log.record(Site::Read, 100 + i * 10, 100 + i * 10 + 4);
        }
        log.record(Site::Barrier, 50_000, 50_100);
        log.t1 = 60_000;
        assert_eq!(log.raw.len(), RAW_SPANS);
        assert_eq!(log.sites[Site::Read as usize].calls, RAW_SPANS as u64 + 10);
        assert_eq!(
            log.sites[Site::Read as usize].sum,
            4 * (RAW_SPANS as u64 + 10)
        );
        assert_eq!(log.sites[Site::Barrier as usize].hist.percentile(0.99), 127);
        assert_eq!(log.measured(), 59_900);
        assert_eq!(log.self_time(), 59_900 - log.in_sites());
    }

    #[test]
    fn chrome_events_nest_spans_under_the_rep() {
        let mut log = ThreadLog {
            t0: 1000,
            t1: 9000,
            ..ThreadLog::default()
        };
        log.record(Site::Write, 2000, 2500);
        let events = chrome_events("rep:x", 1, &[log]);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("rep:x"));
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(8.0));
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("argo.write"));
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(2.0));
    }
}
