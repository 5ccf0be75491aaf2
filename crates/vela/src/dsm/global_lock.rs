//! A cluster-wide lock acquired with one-sided atomics.
//!
//! Models an MCS-style queue lock whose word lives in one node's share of
//! global memory: acquisition is a remote atomic (one round trip); a
//! contended hand-off is the previous holder's one-way flag write. The
//! *coherence* consequences of locking (SI on acquire / SD on release) are
//! deliberately **not** part of this type — HQDL's whole point is choosing
//! where those fences go (paper §4.2).
//!
//! # The lock word and the handover rule
//!
//! The modelled word is 8 bytes: a held bit plus the node id of the last
//! releaser. A release is one posted 8-byte write that clears the bit and
//! stamps the releaser's id; the acquirer's CAS returns the old word, so
//! learning *who released last* costs no verb beyond the two every passage
//! already pays. [`DsmGlobalLock::acquire_tracked`] reports whether that
//! node differs from the acquirer's — a **handover**.
//!
//! Callers that place Carina fences (`Hqdl`, `DsmCohortLock`, `ArgoMutex`)
//! hand that answer to `carina::Dsm::acquire_fence`, the one function
//! that enforces the rule: self-invalidate on acquire only after a
//! handover. Soundness: every release is preceded by the releaser's SD
//! fence, and a node's page cache is shared by all its threads. If node `n`
//! both released the lock last and acquires it now, no other node ran a
//! critical section in between, so every write this release→acquire edge
//! orders was made on `n` itself: it is in `n`'s cache, or — once evicted —
//! in the page's home memory, which `n`'s next miss reads. Writes of
//! *earlier* remote tenures
//! were covered by the SI fence `n` ran when the lock last arrived from
//! elsewhere. A never-held lock reports a handover, so a node's first
//! tenure always fences. Data published through another synchronization
//! object (a barrier, a `DsmFlag`) is ordered by that object's own fences.
//!
//! # The release stamp
//!
//! The SD fence before a release *posts* its write-backs and does not wait
//! for them (`carina::Dsm::publish`). The release carries the returned
//! stamp — when the last of them settles at its home — and every next
//! holder starts no earlier than it: a same-node holder at the stamp, a
//! handover one network hop after it. The same node waits too: the lock
//! word's release is physically visible only after the write-backs it
//! follows, either on the same ordered channel (when the word and the
//! pages share a home) or behind a WAIT on the others. Only the releasing
//! CPU runs on. In virtual time, then, every acquirer still sees the
//! release's writes settled, exactly as when the releaser waited itself.
//!
//! A lock word on the acquirer's own node is local memory: its CAS and
//! its release are one DRAM access each and issue no verb.

use carina::{DsmError, Published};
use rma::{Endpoint, RetryExhausted, RetryPolicy, Verb, VerbClass};
use simnet::{NodeId, Waits};
use std::sync::Arc;

/// Access a synchronization word homed on `home`: a node's own lock and
/// flag words are local memory — one DRAM access, no verb, nothing to
/// retry — and anyone else's take `verb`, reissued until it completes or
/// `class`'s budget runs out.
pub(crate) fn local_or_remote<E: Endpoint>(
    t: &mut E,
    retry: &RetryPolicy,
    class: VerbClass,
    salt: u64,
    home: NodeId,
    verb: &Verb,
) -> Result<(), DsmError> {
    if t.node() == home {
        t.dram_access();
        return Ok(());
    }
    retry
        .run_blocking(t, class, salt, home, verb)
        .map(|_| ())
        .map_err(|e| lock_fault(e, t.node().0, home.0))
}

/// Translate an exhausted retry budget into the DSM-level error, naming
/// the route (Vela builds it field-wise; the carina constructor is private
/// to the protocol engine).
pub(crate) fn lock_fault(e: RetryExhausted, node: u16, target: u16) -> DsmError {
    DsmError {
        class: e.class,
        attempts: e.attempts,
        last_error: e.last_error,
        node,
        target,
    }
}

#[derive(Default)]
struct LockState {
    locked: bool,
    /// Virtual time of the last release (what the next holder merges).
    last_release: u64,
    /// The node id stamped into the lock word by the last release (`None`
    /// while the lock has never been held). Decides whether an acquisition
    /// is a handover — callers skip their acquire-side SI fence when it is
    /// not, so this is protocol state, not a statistic.
    last_holder: Option<u16>,
}

/// Statistics of a [`DsmGlobalLock`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalLockStats {
    pub acquisitions: u64,
    /// Acquisitions where the lock came from a different node.
    pub node_switches: u64,
}

/// A global (cluster-wide) mutual-exclusion lock with virtual-time costs.
pub struct DsmGlobalLock {
    home: NodeId,
    retry: RetryPolicy,
    state: Waits<(LockState, GlobalLockStats)>,
}

impl DsmGlobalLock {
    /// `home`: the node whose memory holds the lock word; `retry`: how
    /// its CAS and hand-off write are reissued when the fabric drops them
    /// — the lock's DSM's policy (`dsm.config().retry`).
    pub fn new(home: NodeId, retry: RetryPolicy) -> Arc<Self> {
        Arc::new(DsmGlobalLock {
            home,
            retry,
            state: Waits::default(),
        })
    }

    /// Acquire: one remote atomic on the lock word, plus waiting for the
    /// previous holder's release to propagate.
    ///
    /// Panics if the fabric stays broken past the retry budget; see
    /// [`Self::try_acquire`] for the fallible flavor.
    pub fn acquire<E: Endpoint>(&self, t: &mut E) {
        self.acquire_tracked(t);
    }

    /// Fallible flavor of [`Self::acquire`].
    pub fn try_acquire<E: Endpoint>(&self, t: &mut E) -> Result<(), DsmError> {
        self.try_acquire_tracked(t).map(|_| ())
    }

    /// [`acquire`](Self::acquire), reporting whether the lock changed hands
    /// between nodes (a *handover*: the previous holder was a different
    /// node — or there was none — so the release flag crossed the network
    /// to reach us and the caller owes an SI fence; see the module docs).
    pub fn acquire_tracked<E: Endpoint>(&self, t: &mut E) -> bool {
        match self.try_acquire_tracked(t) {
            Ok(switched) => switched,
            Err(e) => panic!("unrecoverable DSM fault: {e}"),
        }
    }

    /// Fallible flavor of [`Self::acquire_tracked`]: an exhausted CAS
    /// budget surfaces *before* any queue state changes, so a failed
    /// acquisition leaves the lock exactly as it found it.
    pub fn try_acquire_tracked<E: Endpoint>(&self, t: &mut E) -> Result<bool, DsmError> {
        // The CAS on the lock word costs a round trip regardless of
        // outcome; a dropped CAS is reissued after backing off locally.
        self.access_word(t, self.home.0 as u64, &Verb::Cas)?;
        let mut st = self.state.wait_until(t.abort(), |s| !s.0.locked);
        st.0.locked = true;
        st.1.acquisitions += 1;
        let me = t.node().0;
        let switched = st.0.last_holder != Some(me);
        let before = t.now();
        // `last_release` already covers the release's published stamp.
        if switched {
            st.1.node_switches += 1;
            // Hand-off from another node: the release flag travelled one
            // network hop to reach us.
            t.merge(st.0.last_release + t.cost().network_latency);
        } else {
            t.merge(st.0.last_release);
        }
        st.0.last_holder = Some(me);
        drop(st);
        let jump = t.now() - before;
        if switched && jump > 0 {
            // Real-time shadow of the virtual wait (~0.3 ns per simulated
            // cycle, capped). Without this, waiting out another node's
            // tenure is instantaneous in wall-clock terms and delegation
            // queues never accumulate the way they do on real hardware —
            // queue *dynamics* must track the virtual timeline for HQDL
            // batching (and cohort pass behaviour) to be representative.
            // Bounded, so outside `simnet::Waits`; a scheduler that runs
            // one simulated thread at a time grants in virtual-time order
            // and deletes it.
            let shadow = std::time::Duration::from_nanos((jump * 3 / 10).min(100_000));
            let start = std::time::Instant::now();
            while start.elapsed() < shadow {
                std::thread::yield_now();
            }
        }
        Ok(switched)
    }

    /// Release: a posted write of the lock word (the successor's spin
    /// flag). `stamp` is what the release publishes
    /// (`carina::Dsm::publish`): the next holder — on this node or another
    /// — starts no earlier than it, so the releasing thread need not wait
    /// for its own write-backs. A release that published nothing passes
    /// `Published::default()`.
    ///
    /// Panics if the fabric stays broken past the retry budget; see
    /// [`Self::try_release`] for the fallible flavor.
    pub fn release<E: Endpoint>(&self, t: &mut E, stamp: Published) {
        if let Err(e) = self.try_release(t, stamp) {
            panic!("unrecoverable DSM fault: {e}");
        }
    }

    /// Fallible flavor of [`Self::release`]: if the hand-off write never
    /// lands, the lock stays held (the successor must not observe a release
    /// that did not reach the fabric).
    pub fn try_release<E: Endpoint>(&self, t: &mut E, stamp: Published) -> Result<(), DsmError> {
        self.access_word(t, !(self.home.0 as u64), &Verb::Write { bytes: 8 })?;
        {
            let mut st = self.state.lock();
            assert!(st.0.locked, "releasing an unheld global lock");
            st.0.locked = false;
            // Physically the release becomes visible only after its
            // write-backs settle: behind them on the same channel when the
            // lock word shares their target (RC ordering), behind a
            // cross-channel WAIT when not.
            st.0.last_release = t.now().max(stamp.0);
        }
        self.state.notify_one();
        Ok(())
    }

    /// One access to the lock word: a local DRAM access when `t` runs on
    /// the word's home node, else `verb`, reissued as the retry policy says.
    fn access_word<E: Endpoint>(&self, t: &mut E, salt: u64, verb: &Verb) -> Result<(), DsmError> {
        local_or_remote(t, &self.retry, VerbClass::LockAtomic, salt, self.home, verb)
    }

    pub fn stats(&self) -> GlobalLockStats {
        self.state.lock().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simnet::testkit::{thread, tiny_net};
    use simnet::CostModel;

    #[test]
    fn mutual_exclusion_and_clock_monotonicity() {
        let net = tiny_net(4);
        let lock = DsmGlobalLock::new(NodeId(0), RetryPolicy::default());
        let shared = Arc::new(Mutex::new((0u64, 0u64))); // (counter, last_clock)
        let handles: Vec<_> = (0..4)
            .map(|n| {
                let lock = lock.clone();
                let net = net.clone();
                let shared = shared.clone();
                std::thread::spawn(move || {
                    let mut t = thread(&net, n as u16, 0);
                    for _ in 0..200 {
                        lock.acquire(&mut t);
                        {
                            let mut s = shared.lock();
                            s.0 += 1;
                            // Virtual time inside the lock is monotone
                            // across holders.
                            assert!(t.now() >= s.1);
                            s.1 = t.now();
                        }
                        t.compute(50);
                        lock.release(&mut t, Published::default());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.lock().0, 800);
        let st = lock.stats();
        assert_eq!(st.acquisitions, 800);
        assert!(st.node_switches >= 3);
    }

    #[test]
    fn acquisition_costs_a_round_trip() {
        let net = tiny_net(2);
        let lock = DsmGlobalLock::new(NodeId(1), RetryPolicy::default());
        let mut t = thread(&net, 0, 0);
        lock.acquire(&mut t);
        let c = CostModel::paper_2011();
        assert!(t.now() >= 2 * c.network_latency);
        lock.release(&mut t, Published::default());
    }

    #[test]
    fn tracked_acquire_reports_handovers_only() {
        let net = tiny_net(2);
        let lock = DsmGlobalLock::new(NodeId(0), RetryPolicy::default());
        let mut a = thread(&net, 0, 0);
        let mut a2 = thread(&net, 0, 1);
        let mut b = thread(&net, 1, 0);
        let acquire = |t: &mut _| {
            let switched = lock.try_acquire_tracked(t).unwrap();
            lock.release(t, Published::default());
            switched
        };
        // Never held: the first tenure always counts as a handover.
        assert!(acquire(&mut a));
        // Same node — same or sibling thread — is not.
        assert!(!acquire(&mut a));
        assert!(!acquire(&mut a2));
        // Cross-node, in both directions, is.
        assert!(acquire(&mut b));
        assert!(!acquire(&mut b));
        assert!(acquire(&mut a2));
        let st = lock.stats();
        assert_eq!((st.acquisitions, st.node_switches), (6, 3));
    }

    /// A node's own lock word is local memory: the CAS and the release are
    /// one DRAM access each, and the fabric sees nothing.
    #[test]
    fn a_lock_homed_on_the_acquirer_is_local_memory() {
        let net = tiny_net(2);
        let lock = DsmGlobalLock::new(NodeId(1), RetryPolicy::default());
        let mut t = thread(&net, 1, 0);
        let before = net.stats().snapshot();
        assert!(lock.acquire_tracked(&mut t));
        lock.release(&mut t, Published::default());
        assert!(!lock.acquire_tracked(&mut t));
        lock.release(&mut t, Published::default());
        assert_eq!(net.stats().snapshot(), before);
        // Four DRAM accesses; the never-held first acquire counts as a
        // handover and merges the empty release one hop out, past the
        // first access.
        let c = CostModel::paper_2011();
        assert_eq!(t.now(), c.network_latency + 3 * c.dram_latency);
    }

    /// The next holder starts at the release's stamp, the releaser's clock
    /// notwithstanding: on the same node at it, after a handover one
    /// network hop after it.
    #[test]
    fn the_next_holder_merges_the_release_stamp() {
        let net = tiny_net(2);
        let lock = DsmGlobalLock::new(NodeId(0), RetryPolicy::default());
        let latency = CostModel::paper_2011().network_latency;
        let (mut a, mut a2, mut b) = (thread(&net, 0, 0), thread(&net, 0, 1), thread(&net, 1, 0));
        let stamp = Published(1_000_000);
        lock.acquire(&mut a);
        lock.release(&mut a, stamp);
        assert!(a.now() < stamp.0, "the releaser runs on");
        assert!(!lock.acquire_tracked(&mut a2));
        assert_eq!(a2.now(), stamp.0);
        lock.release(&mut a2, Published(2_000_000));
        assert!(lock.acquire_tracked(&mut b));
        assert_eq!(b.now(), 2_000_000 + latency);
        lock.release(&mut b, Published::default());
    }

    #[test]
    #[should_panic(expected = "unheld")]
    fn double_release_is_a_bug() {
        let lock = DsmGlobalLock::new(NodeId(0), RetryPolicy::default());
        let mut t = thread(&tiny_net(1), 0, 0);
        lock.acquire(&mut t);
        lock.release(&mut t, Published::default());
        lock.release(&mut t, Published::default());
    }
}
