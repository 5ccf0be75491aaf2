//! Pthreads-compatible synchronization for Argo programs.
//!
//! The paper: "It runs unmodified Pthreads (data-race-free) shared memory
//! programs" — a pthread mutex on Argo is a cluster-wide lock whose
//! acquire/release carry the Carina fences implicitly (SI on a lock that
//! arrives from another node, SD on unlock), so lock-protected data is
//! coherent with no source changes.
//! (For lock-*intensive* code the paper recommends porting to HQDL —
//! `vela::Hqdl` — which is what Figure 12 measures.)

use crate::ctx::ArgoCtx;
use carina::{CarinaSiSd, Coherence, Dsm};
use rma::{Endpoint, SimTransport, Transport};
use simnet::NodeId;
use std::convert::Infallible;
use std::sync::Arc;
use vela::DsmGlobalLock;

/// A cluster-wide mutex with pthreads semantics (SI on a cross-node lock
/// handover, SD on unlock).
pub struct ArgoMutex<T: Transport = SimTransport, C: Coherence = CarinaSiSd> {
    dsm: Arc<Dsm<T, C>>,
    lock: Arc<DsmGlobalLock>,
    obs: Arc<obs::LockObs>,
}

impl<T: Transport, C: Coherence> ArgoMutex<T, C> {
    /// Create a mutex whose lock word lives on `home`.
    pub fn new(dsm: Arc<Dsm<T, C>>, home: u16) -> Arc<Self> {
        Self::new_named(dsm, home, "mutex")
    }

    /// [`new`](Self::new) with a name for per-lock statistics in run
    /// reports.
    pub fn new_named(dsm: Arc<Dsm<T, C>>, home: u16, name: &str) -> Arc<Self> {
        let obs = dsm.lock_registry().register(name);
        Arc::new(ArgoMutex {
            lock: DsmGlobalLock::new(NodeId(home), dsm.config().retry),
            dsm,
            obs,
        })
    }

    /// This mutex's live observability counters.
    pub fn observer(&self) -> &Arc<obs::LockObs> {
        &self.obs
    }

    /// Acquire: take the global lock and, if another node released it
    /// last, self-invalidate so this thread observes that node's critical
    /// sections. Sections of this node's own threads are already visible
    /// here — in the node-wide page cache or, once evicted, at the page's
    /// home (the handover rule on [`DsmGlobalLock`], enforced by
    /// [`Dsm::acquire_fence`]).
    pub fn lock(&self, ctx: &mut ArgoCtx<T, C>) -> ArgoMutexGuard<'_, T, C> {
        let t = &mut ctx.thread;
        let Ok(switched) = self.dsm.site(t, obs::Site::LockAcquire, 0, |t, _| {
            let start = t.obs_now();
            let switched = self.lock.acquire_tracked(t);
            self.obs.acquire.record(t.obs_now() - start);
            Ok::<_, Infallible>(switched)
        });
        if switched {
            obs::LockObs::bump(&self.obs.handovers);
        }
        self.dsm.acquire_fence(t, switched);
        ArgoMutexGuard { mutex: self }
    }

    /// Run `f` as a critical section (lock, f, unlock).
    pub fn with<R>(&self, ctx: &mut ArgoCtx<T, C>, f: impl FnOnce(&mut ArgoCtx<T, C>) -> R) -> R {
        let guard = self.lock(ctx);
        let r = f(ctx);
        guard.unlock(ctx);
        r
    }
}

/// Proof of ownership; must be explicitly released with the owning thread's
/// context (the context cannot be captured in the guard because the critical
/// section itself needs it mutably).
#[must_use = "the mutex stays locked until unlock(ctx) is called"]
pub struct ArgoMutexGuard<'a, T: Transport = SimTransport, C: Coherence = CarinaSiSd> {
    mutex: &'a ArgoMutex<T, C>,
}

impl<T: Transport, C: Coherence> ArgoMutexGuard<'_, T, C> {
    /// Release: self-downgrade (publish this section's writes), then free
    /// the global lock. The next holder waits for the write-backs to
    /// settle; this thread does not.
    pub fn unlock(self, ctx: &mut ArgoCtx<T, C>) {
        let stamp = self.mutex.dsm.publish(&mut ctx.thread);
        self.mutex.lock.release(&mut ctx.thread, stamp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ArgoConfig, ArgoMachine};
    use crate::types::GlobalU64Array;

    #[test]
    fn mutex_protects_cross_node_counter() {
        let m = ArgoMachine::new(ArgoConfig::small(3, 2));
        let arr = GlobalU64Array::alloc(m.dsm(), 8);
        let mutex = ArgoMutex::new(m.dsm().clone(), 0);
        let report = m.run(move |ctx| {
            for _ in 0..100 {
                mutex.with(ctx, |ctx| {
                    let v = arr.get(ctx, 0);
                    arr.set(ctx, 0, v + 1);
                });
            }
            ctx.barrier();
            arr.get(ctx, 0)
        });
        assert!(report.results.iter().all(|&v| v == 600));
        let locks = &report.locks;
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].name, "mutex");
        assert_eq!(locks[0].acquire.count(), 600);
        assert!(locks[0].handovers >= 2, "three nodes contended");
        assert_eq!(report.profile.get(obs::Site::LockAcquire).count(), 600);
    }

    #[test]
    fn critical_sections_are_serialized_in_virtual_time() {
        // Time inside the mutex must be monotone across all acquisitions.
        let m = ArgoMachine::new(ArgoConfig::small(2, 2));
        let arr = GlobalU64Array::alloc(m.dsm(), 8);
        let mutex = ArgoMutex::new(m.dsm().clone(), 0);
        let report = m.run(move |ctx| {
            let mut ok = true;
            for _ in 0..50 {
                mutex.with(ctx, |ctx| {
                    let last = arr.get(ctx, 1);
                    ok &= ctx.thread.now() >= last;
                    arr.set(ctx, 1, ctx.thread.now());
                    ctx.thread.compute(100);
                });
            }
            ok
        });
        assert!(report.results.iter().all(|&ok| ok));
    }

    /// Unlock posts the section's write-back and returns without waiting
    /// for it; the next holder starts no earlier than it settles — a
    /// sibling on the same node at the settle, a thread of another node
    /// one network hop after it. Threads take turns through a host
    /// barrier, which carries no clock.
    #[test]
    fn the_next_holder_waits_for_the_settle_unlock_skipped() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 2));
        let arr = GlobalU64Array::alloc(m.dsm(), 2 * mem::WORDS_PER_PAGE);
        let addr = (0..2)
            .map(|p| arr.addr(p * mem::WORDS_PER_PAGE))
            .find(|&a| m.dsm().home_of(a) == 1)
            .expect("one of two pages is homed on node 1");
        let mutex = ArgoMutex::new(m.dsm().clone(), 0);
        let latency = m.config().cost.network_latency;
        let turn = Arc::new(std::sync::Barrier::new(4));
        let report = m.run(move |ctx| {
            let me = (ctx.node(), ctx.tid() % 2);
            // (unlocked at, settle) of node 0's writing tenure, then the
            // start of the next holder's.
            let mut seen = Vec::new();
            for next in [(0, 1), (1, 0)] {
                if me == (0, 0) {
                    mutex.with(ctx, |ctx| ctx.write_u64(addr, 7));
                    let settle = ctx.dsm().settle_stamp(0).0;
                    seen.extend([ctx.thread.now(), settle]);
                }
                turn.wait();
                if me == next {
                    let guard = mutex.lock(ctx);
                    seen.push(ctx.thread.now());
                    guard.unlock(ctx);
                }
                turn.wait();
            }
            seen
        });
        let writer = &report.results[0];
        let (sibling, other) = (report.results[1][0], report.results[2][0]);
        let (unlocked, settle) = (writer[0], writer[1]);
        assert!(unlocked < settle, "unlock waited for its write-back");
        assert!(sibling >= settle, "a same-node holder started before the settle");
        let (unlocked, settle) = (writer[2], writer[3]);
        assert!(unlocked < settle, "unlock waited for its write-back");
        assert!(other >= settle + latency, "a handover started before the settle");
    }

    #[test]
    fn guard_requires_explicit_unlock() {
        let m = ArgoMachine::new(ArgoConfig::small(1, 1));
        let mutex = ArgoMutex::new(m.dsm().clone(), 0);
        let report = m.run(move |ctx| {
            let g = mutex.lock(ctx);
            ctx.thread.compute(10);
            g.unlock(ctx);
            ctx.thread.now()
        });
        assert!(report.results[0] > 0);
    }
}
