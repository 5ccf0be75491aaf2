//! A cohort lock running over the DSM — the distributed baseline of
//! Figure 12.
//!
//! Classic cohort locking (no delegation): each thread acquires a node-
//! local lock, then the global lock (unless its node already holds it), and
//! executes the critical section *itself*. Coherence fences are placed
//! hierarchically, mirroring HQDL's reasoning: SI when the global lock
//! arrives at a node *from another node* (the handover rule on
//! [`DsmGlobalLock`]), SD when it leaves. The remaining per-section cost —
//! local lock hand-offs between cores/sockets and the migration of the
//! protected data into each executing thread's context — is exactly what
//! delegation eliminates, and is why HQDL wins in Figure 12.

use crate::dsm::global_lock::{DsmGlobalLock, GlobalLockStats};
use carina::{CarinaSiSd, Coherence, Dsm};
use rma::{Endpoint, SimTransport, Transport};
use simnet::{NodeId, Waits};
use std::sync::Arc;

#[derive(Default)]
struct TierState {
    locked: bool,
    owns_global: bool,
    passes: u64,
    waiters: usize,
    last_release: u64,
}

/// Where a lock places its Carina fences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FencePlacement {
    /// SI on every acquire, SD on every release — the semantics any
    /// off-the-shelf lock gets on Argo (§4: "Once synchronization is
    /// achieved via a data race, Carina must self-invalidate and/or
    /// self-downgrade all cached data"). This is the Figure 12 baseline.
    PerSection,
    /// SI only when the global lock arrives at a node from another node,
    /// SD only when it leaves — the hierarchical reasoning HQDL introduces,
    /// grafted onto cohorting (an ablation, not a paper configuration).
    Hierarchical,
}

/// A hierarchical (cohort) lock over a DSM cluster.
pub struct DsmCohortLock<T: Transport = SimTransport, C: Coherence = CarinaSiSd> {
    dsm: Arc<Dsm<T, C>>,
    global: Arc<DsmGlobalLock>,
    tiers: Vec<Waits<TierState>>,
    pass_limit: u64,
    fencing: FencePlacement,
}

impl<T: Transport, C: Coherence> DsmCohortLock<T, C> {
    /// The paper's baseline configuration: per-section fences.
    pub fn new(dsm: Arc<Dsm<T, C>>, pass_limit: u64) -> Arc<Self> {
        Self::with_fencing(dsm, pass_limit, FencePlacement::PerSection)
    }

    pub fn with_fencing(
        dsm: Arc<Dsm<T, C>>,
        pass_limit: u64,
        fencing: FencePlacement,
    ) -> Arc<Self> {
        let nodes = dsm.net().topology().nodes;
        Arc::new(DsmCohortLock {
            global: DsmGlobalLock::new(NodeId(0), dsm.config().retry),
            tiers: (0..nodes).map(|_| Waits::default()).collect(),
            dsm,
            pass_limit,
            fencing,
        })
    }

    /// Acquisitions and cross-node handovers of the global tier.
    pub fn global_stats(&self) -> GlobalLockStats {
        self.global.stats()
    }

    /// Execute `f` as a critical section from thread `t`.
    pub fn with<R>(&self, t: &mut T::Endpoint, f: impl FnOnce(&mut T::Endpoint) -> R) -> R {
        let node = t.node().idx();
        let tier = &self.tiers[node];
        // Local tier acquire.
        {
            tier.lock().waiters += 1;
            let mut st = tier.wait_until(t.abort(), |s| !s.locked);
            st.waiters -= 1;
            st.locked = true;
            // Local hand-off: the previous holder's release flag crossed a
            // socket at worst.
            let handoff = st.last_release + t.cost().intersocket_latency;
            t.merge(handoff);
            if !st.owns_global {
                drop(st);
                let switched = self.global.acquire_tracked(t);
                // After a handover, observe the other node's critical
                // sections. (Vanilla acquire semantics self-invalidate
                // regardless.)
                self.dsm
                    .acquire_fence(t, switched || self.fencing == FencePlacement::PerSection);
                let mut st = tier.lock();
                st.owns_global = true;
                st.passes = 0;
            } else if self.fencing == FencePlacement::PerSection {
                drop(st);
                // Vanilla acquire semantics: self-invalidate even on a
                // local hand-off.
                self.dsm.si_fence(t);
            }
        }
        let result = f(t);
        if self.fencing == FencePlacement::PerSection {
            // Vanilla release semantics: publish this section's writes now.
            self.dsm.sd_fence(t);
        }
        // Release policy: pass locally while waiters remain and the
        // fairness budget allows; otherwise publish and surrender.
        let mut st = tier.lock();
        if st.waiters > 0 && st.passes < self.pass_limit {
            st.passes += 1;
        } else {
            st.owns_global = false;
            drop(st);
            // The lock leaves this node: publish our sections' writes. The
            // next global holder waits for them to settle.
            let stamp = self.dsm.publish(t);
            self.global.release(t, stamp);
            st = tier.lock();
        }
        st.locked = false;
        st.last_release = t.now();
        drop(st);
        tier.notify_one();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carina::CarinaConfig;
    use mem::{GlobalAddr, PAGE_BYTES};
    use simnet::testkit::{thread, tiny_net};

    #[test]
    fn counter_across_nodes() {
        let net = tiny_net(3);
        let dsm = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
        let addr = GlobalAddr(4 * PAGE_BYTES);
        let lock = DsmCohortLock::new(dsm.clone(), 16);
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let lock = lock.clone();
                let dsm = dsm.clone();
                let net = net.clone();
                std::thread::spawn(move || {
                    let mut t = thread(&net, (i % 3) as u16, i / 3);
                    for _ in 0..250 {
                        lock.with(&mut t, |ht| {
                            let v = dsm.read_u64(ht, addr);
                            dsm.write_u64(ht, addr, v + 1);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut t = thread(&net, 0, 0);
        let v = lock.with(&mut t, |ht| dsm.read_u64(ht, addr));
        assert_eq!(v, 1500);
    }

    #[test]
    fn fences_only_on_node_switches() {
        // One node, one thread, no waiters: every section surrenders and
        // re-acquires the global lock, but it never changes nodes.
        let si_fences = |fencing| {
            let net = tiny_net(1);
            let dsm = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
            let lock = DsmCohortLock::with_fencing(dsm.clone(), 1_000_000, fencing);
            let mut t = thread(&net, 0, 0);
            for _ in 0..100 {
                lock.with(&mut t, |_| {});
            }
            let st = lock.global_stats();
            assert_eq!((st.acquisitions, st.node_switches), (100, 1));
            dsm.stats().snapshot().si_fences
        };
        // Hierarchical: only the first arrival fences.
        assert_eq!(si_fences(FencePlacement::Hierarchical), 1);
        // The per-section ablation keeps vanilla acquire semantics.
        assert_eq!(si_fences(FencePlacement::PerSection), 100);
    }
}
