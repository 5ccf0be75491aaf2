//! Hierarchical Queue Delegation Locking — the paper's second contribution
//! (§4.2).
//!
//! Plain (flat) queue delegation does not survive distribution: delegating
//! a section to a *remote* helper forces the delegator to self-downgrade
//! first (the helper must see its writes) and to self-invalidate on wait —
//! delegation saves nothing. HQDL therefore only allows delegation **from
//! the same node as the lock holder**:
//!
//! 1. A node's would-be helper acquires a *global* lock; the node becomes
//!    the active node.
//! 2. The helper performs one SI fence *per handover* ("see data possibly
//!    written in earlier executions of critical sections in other nodes"):
//!    only when the global lock arrived from another node. A tenure that
//!    re-acquires a lock its own node released last has nothing remote to
//!    observe — see the handover rule on [`DsmGlobalLock`].
//! 3. Threads of the active node delegate critical sections into the node
//!    queue; the helper executes them back to back on one core — no
//!    fences, no lock hand-offs, local cache reuse.
//! 4. After the queue is empty (or a batch limit is reached), **one** SD
//!    fence publishes every executed section's writes, and the global lock
//!    moves on carrying the fence's settle stamp: the next holder waits for
//!    the write-backs to land, the helper does not.
//!
//! Threads on non-active nodes simply wait to become the active node; "if
//! the program depends on lock performance, it has enough work even on a
//! single node, otherwise there are only negligible stalls on other nodes."

use crate::dsm::global_lock::DsmGlobalLock;
use carina::{CarinaSiSd, Coherence, Dsm};
use crossbeam::queue::SegQueue;
use parking_lot::Mutex;
use rma::{Endpoint, SimTransport, Transport};
use simnet::{NodeId, Waits};
use std::convert::Infallible;
use std::sync::Arc;

type DsmJob<T> = Box<dyn FnOnce(&mut <T as Transport>::Endpoint) + Send>;

/// A delegated section's outcome once it ran: the helper's virtual clock
/// when it completed (the waiter merges it) and its result.
type Slot<R> = Mutex<Option<(u64, R)>>;

/// Handle to a delegated (possibly detached) DSM critical section.
pub struct DsmFuture<R> {
    slot: Arc<Slot<R>>,
}

impl<R> DsmFuture<R> {
    pub fn is_done(&self) -> bool {
        self.slot.lock().is_some()
    }
}

struct NodeQueue<T: Transport> {
    queue: SegQueue<DsmJob<T>>,
    /// Whether a thread holds this node's helper role. Its waiters block
    /// here until their section is done or the role is free.
    helping: Waits<bool>,
}

impl<T: Transport> NodeQueue<T> {
    /// Give up the helper role and wake the node's waiters.
    fn resign(&self) {
        *self.helping.lock() = false;
        self.helping.notify_all();
    }
}

/// A hierarchical queue delegation lock over a DSM cluster.
pub struct Hqdl<T: Transport = SimTransport, C: Coherence = CarinaSiSd> {
    dsm: Arc<Dsm<T, C>>,
    global: Arc<DsmGlobalLock>,
    node_queues: Vec<NodeQueue<T>>,
    batch_limit: usize,
    /// Per-lock observability, registered with the DSM's lock registry.
    obs: Arc<obs::LockObs>,
}

impl<T: Transport, C: Coherence> Hqdl<T, C> {
    /// `batch_limit`: maximum sections executed per global-lock tenure
    /// ("either because there are no more, or a limit is reached").
    pub fn new(dsm: Arc<Dsm<T, C>>, batch_limit: usize) -> Arc<Self> {
        Self::new_named(dsm, batch_limit, "hqdl")
    }

    /// [`new`](Self::new) with a name for per-lock statistics: the lock
    /// registers itself in the DSM's [`obs::LockRegistry`] so run reports
    /// can attribute delegation behaviour to individual locks.
    pub fn new_named(dsm: Arc<Dsm<T, C>>, batch_limit: usize, name: &str) -> Arc<Self> {
        assert!(batch_limit > 0, "batch limit must be positive");
        let nodes = dsm.net().topology().nodes;
        let obs = dsm.lock_registry().register(name);
        Arc::new(Hqdl {
            global: DsmGlobalLock::new(NodeId(0), dsm.config().retry),
            node_queues: (0..nodes)
                .map(|_| NodeQueue {
                    queue: SegQueue::new(),
                    helping: Waits::new(false),
                })
                .collect(),
            dsm,
            batch_limit,
            obs,
        })
    }

    /// This lock's live observability counters.
    pub fn observer(&self) -> &Arc<obs::LockObs> {
        &self.obs
    }

    /// Delegate a critical section from `t`'s node; returns immediately
    /// (detached execution). The closure runs on the node's helper thread
    /// with the helper's virtual clock and may access the DSM freely.
    pub fn delegate<R: Send + 'static>(
        self: &Arc<Self>,
        t: &mut T::Endpoint,
        f: impl FnOnce(&mut T::Endpoint) -> R + Send + 'static,
    ) -> DsmFuture<R> {
        let slot = Arc::new(Slot::new(None));
        let s = slot.clone();
        // Publication cost: writing the request where the helper reads it
        // (same node, possibly another socket).
        let publish = t.cost().intersocket_latency;
        t.compute(publish);
        let node = t.node().idx();
        obs::LockObs::bump(&self.obs.delegations);
        let lock_obs = self.obs.clone();
        let enqueued_at = t.obs_now();
        let delegator = t.loc();
        self.node_queues[node].queue.push(Box::new(move |ht: &mut T::Endpoint| {
            // Helpers can run with a clock behind the delegator's on the
            // sim transport; a saturating difference keeps the histogram
            // honest rather than wrapping.
            lock_obs
                .queue_wait
                .record(ht.obs_now().saturating_sub(enqueued_at));
            if ht.loc() == delegator {
                obs::LockObs::bump(&lock_obs.executed_local);
            } else {
                obs::LockObs::bump(&lock_obs.executed_remote);
            }
            let r = f(ht);
            *s.lock() = Some((ht.now(), r));
        }));
        // Deliberately do NOT help here: detached delegation returns
        // immediately, letting sections accumulate so the eventual helper
        // executes a large batch (the whole point of QDL). Execution is
        // guaranteed by any subsequent `wait` (including our own), or by a
        // flushing `delegate_wait`.
        DsmFuture { slot }
    }

    /// Wait for a delegated section, helping if the helper role is free.
    pub fn wait<R>(self: &Arc<Self>, t: &mut T::Endpoint, future: DsmFuture<R>) -> R {
        let node = t.node().idx();
        loop {
            // The result was produced at the helper's clock; we cannot
            // have it earlier.
            if let Some((clock, r)) = future.slot.lock().take() {
                t.merge(clock);
                return r;
            }
            if !self.try_help(t, node) {
                // Another thread helps: our section is in its batch or
                // still queued when the role comes free.
                let helping = &self.node_queues[node].helping;
                drop(helping.wait_until(t.abort(), |&busy| !busy || future.is_done()));
            }
        }
    }

    /// Delegate and wait (synchronous critical section).
    pub fn delegate_wait<R: Send + 'static>(
        self: &Arc<Self>,
        t: &mut T::Endpoint,
        f: impl FnOnce(&mut T::Endpoint) -> R + Send + 'static,
    ) -> R {
        let fut = self.delegate(t, f);
        self.wait(t, fut)
    }

    /// Become this node's helper if the role is free and the queue is
    /// non-empty: acquire the global lock, SI if it came from another node,
    /// run a batch, SD once, release. Returns whether it ran a tenure.
    fn try_help(&self, t: &mut T::Endpoint, node: usize) -> bool {
        let nq = &self.node_queues[node];
        if nq.queue.is_empty() || std::mem::replace(&mut *nq.helping.lock(), true) {
            return false;
        }
        if nq.queue.is_empty() {
            // Raced with a previous helper that drained everything.
            nq.resign();
            return false;
        }
        // The acquire's span stays attached for the whole tenure: the
        // lock-word verbs of the acquire and of the closing release link
        // back to it in the flight-recorder timeline. Fences, misses and
        // faults inside the tenure are sites that mint their own spans.
        let outer = t.current_span();
        let Ok((switched, span)) = self.dsm.site(t, obs::Site::LockAcquire, 0, |t, span| {
            let start = t.obs_now();
            let switched = self.global.acquire_tracked(t);
            self.obs.acquire.record(t.obs_now() - start);
            Ok::<_, Infallible>((switched, span))
        });
        t.set_span(span);
        if switched {
            obs::LockObs::bump(&self.obs.handovers);
        }
        // Open the delegation queue: after a handover, one SI to observe
        // the critical sections other nodes executed since this node last
        // held the lock.
        self.dsm.acquire_fence(t, switched);
        let mut executed = 0usize;
        'batch: while executed < self.batch_limit {
            match nq.queue.pop() {
                Some(job) => {
                    job(t);
                    executed += 1;
                    // The section's waiter may sleep on the role.
                    nq.helping.notify_all();
                }
                None => {
                    // The queue is open while we hold the lock: linger
                    // briefly for sections being enqueued right now, so
                    // real-thread scheduling doesn't shatter the batch.
                    // Yield rather than spin — on an oversubscribed host
                    // the producers need the CPU to enqueue anything.
                    // Bounded, so outside `simnet::Waits`; a scheduler
                    // that runs one simulated thread at a time deletes it.
                    for _ in 0..48 {
                        std::thread::yield_now();
                        if !nq.queue.is_empty() {
                            continue 'batch;
                        }
                    }
                    break;
                }
            }
        }
        obs::LockObs::bump(&self.obs.batches);
        self.obs.batch_size.record(executed as u64);
        // Close the queue: one SD to publish every section's writes. The
        // helper does not wait for them to settle; the next holder does.
        let stamp = self.dsm.publish(t);
        self.global.release(t, stamp);
        t.set_span(outer);
        nq.resign();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carina::CarinaConfig;
    use mem::{GlobalAddr, PAGE_BYTES};
    use simnet::testkit::{thread, tiny_net};
    use simnet::{Interconnect, SimThread};

    fn setup(nodes: usize) -> (Arc<Dsm>, Arc<Interconnect>) {
        let net = tiny_net(nodes);
        let dsm = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
        (dsm, net)
    }

    #[test]
    fn delegated_counter_across_nodes() {
        let (dsm, net) = setup(3);
        let addr = GlobalAddr(5 * PAGE_BYTES);
        let lock = Hqdl::new(dsm.clone(), 64);
        let handles: Vec<_> = (0..3)
            .map(|n| {
                let lock = lock.clone();
                let dsm = dsm.clone();
                let net = net.clone();
                std::thread::spawn(move || {
                    let mut t = thread(&net, n as u16, 0);
                    for _ in 0..500 {
                        let d = dsm.clone();
                        lock.delegate_wait(&mut t, move |ht| {
                            let v = d.read_u64(ht, addr);
                            d.write_u64(ht, addr, v + 1);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut t = thread(&net, 0, 0);
        let final_v = lock.delegate_wait(&mut t, {
            let d = dsm.clone();
            move |ht| d.read_u64(ht, addr)
        });
        assert_eq!(final_v, 1500);

        // The lock registered itself and its observer saw every section.
        let snaps = dsm.lock_registry().snapshots();
        assert_eq!(snaps.len(), 1);
        let obs = &snaps[0];
        assert_eq!(obs.name, "hqdl");
        assert_eq!(obs.delegations, 1501);
        assert_eq!(obs.executed(), 1501);
        // The batches, one per tenure, add up to every section executed.
        assert_eq!(obs.batch_size.sum, 1501);
        // Batching: no more global-lock tenures than sections.
        assert!(obs.batches <= obs.batch_size.sum);
        assert_eq!(obs.queue_wait.count(), 1501);
        assert_eq!(obs.batch_size.count(), obs.batches);
        assert_eq!(obs.acquire.count(), obs.batches);
        // Three nodes contended: the global lock changed hands.
        assert!(obs.handovers >= 2);
        // One thread per node: every delegator is its own helper.
        assert_eq!(obs.executed_local, 1501);
        // Acquire latency also lands in the lanes' profile.
        let prof = dsm.lyra().profile();
        assert_eq!(prof.get(obs::Site::LockAcquire).count(), obs.batches);
    }

    #[test]
    fn helper_executing_anothers_section_counts_as_remote() {
        let (dsm, net) = setup(1);
        let addr = GlobalAddr(PAGE_BYTES);
        let lock = Hqdl::new_named(dsm.clone(), 64, "counter");
        // Core 0 delegates a detached increment; core 1's helper drains it
        // (FIFO, so the increment lands before core 1's own read).
        let mut a = thread(&net, 0, 0);
        let d = dsm.clone();
        let fut = lock.delegate(&mut a, move |ht| {
            let v = d.read_u64(ht, addr);
            d.write_u64(ht, addr, v + 1);
        });
        let mut b = thread(&net, 0, 1);
        let d = dsm.clone();
        assert_eq!(lock.delegate_wait(&mut b, move |ht| d.read_u64(ht, addr)), 1);
        assert!(fut.is_done());
        let snap = lock.observer().snapshot();
        assert_eq!(snap.name, "counter");
        assert_eq!(snap.executed_remote, 1); // a's section, run by b
        assert_eq!(snap.executed_local, 1); // b's own section
        assert_eq!(snap.queue_wait.count(), 2);
    }

    #[test]
    fn detached_sections_complete_on_wait() {
        let (dsm, net) = setup(1);
        let addr = GlobalAddr(PAGE_BYTES);
        let lock = Hqdl::new(dsm.clone(), 1024);
        let mut t = thread(&net, 0, 0);
        let futs: Vec<_> = (0..100)
            .map(|_| {
                let d = dsm.clone();
                lock.delegate(&mut t, move |ht| {
                    let v = d.read_u64(ht, addr);
                    d.write_u64(ht, addr, v + 1);
                })
            })
            .collect();
        for f in futs {
            lock.wait(&mut t, f);
        }
        let d = dsm.clone();
        assert_eq!(lock.delegate_wait(&mut t, move |ht| d.read_u64(ht, addr)), 100);
    }

    /// A tenure's SD fence posts its write-backs and the helper runs on
    /// without waiting for them; the next tenure starts no earlier than
    /// they settle — a sibling's on the same node at the settle, another
    /// node's one network hop after it (the release stamp).
    #[test]
    fn the_next_tenure_waits_for_the_settle_the_helper_skipped() {
        let (dsm, net) = setup(2);
        let addr = GlobalAddr(3 * PAGE_BYTES);
        assert_eq!(dsm.home_of(addr), 1, "node 0's write-back must cross the network");
        let lock = Hqdl::new(dsm.clone(), 8);
        let latency = net.cost().network_latency;
        let (mut a, mut a2, mut b) = (thread(&net, 0, 0), thread(&net, 0, 1), thread(&net, 1, 0));
        let write = |t: &mut SimThread, v: u64| {
            let d = dsm.clone();
            lock.delegate_wait(t, move |ht| d.write_u64(ht, addr, v));
        };
        let start = |t: &mut SimThread| lock.delegate_wait(t, |ht| ht.now());

        write(&mut a, 1);
        let settle = dsm.settle_stamp(0).0;
        assert!(a.now() < settle, "the helper waited for its write-back");
        assert!(start(&mut a2) >= settle, "a same-node tenure started before the settle");

        write(&mut a, 2);
        let settle = dsm.settle_stamp(0).0;
        assert!(a.now() < settle, "the helper waited for its write-back");
        assert!(start(&mut b) >= settle + latency, "a handover started before the settle");
    }

    #[test]
    fn waiter_clock_includes_helper_time() {
        let (dsm, net) = setup(2);
        let lock = Hqdl::new(dsm.clone(), 8);
        let mut t = thread(&net, 0, 0);
        let before = t.now();
        lock.delegate_wait(&mut t, |ht| ht.compute(10_000));
        assert!(t.now() >= before + 10_000);
    }
}
