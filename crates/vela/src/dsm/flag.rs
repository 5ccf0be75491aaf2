//! Signal/wait: point-to-point synchronization (mentioned as part of
//! Vela's API in §4 — "among other primitives such as signal/wait").
//!
//! A [`DsmFlag`] is the DSM analogue of a condition flag: the signaller
//! self-downgrades (release semantics) before raising the flag; waiters
//! self-invalidate (acquire semantics) after observing it, so everything
//! written before `signal` is visible after `wait` — without a full
//! barrier episode across all threads.
//!
//! The flag word itself is synchronization (a deliberate data race in the
//! application's terms), so it is exercised through one-sided atomics on
//! its home node, not through the page cache.

use crate::dsm::global_lock::lock_fault;
use carina::{CarinaSiSd, Coherence, Dsm, DsmError};
use parking_lot::{Condvar, Mutex};
use rma::{Endpoint, SimTransport, Transport, Verb, VerbClass};
use simnet::NodeId;
use std::sync::Arc;

struct FlagState {
    /// Generation counter: signal increments, waiters wait for `> seen`.
    generation: u64,
    /// Virtual time of the latest signal.
    signal_clock: u64,
}

/// A cluster-wide signal/wait flag with release/acquire fence semantics.
pub struct DsmFlag<T: Transport = SimTransport, C: Coherence = CarinaSiSd> {
    dsm: Arc<Dsm<T, C>>,
    home: NodeId,
    state: Mutex<FlagState>,
    cond: Condvar,
}

impl<T: Transport, C: Coherence> DsmFlag<T, C> {
    /// Create a flag whose word lives on `home`.
    pub fn new(dsm: Arc<Dsm<T, C>>, home: NodeId) -> Arc<Self> {
        Arc::new(DsmFlag {
            dsm,
            home,
            state: Mutex::new(FlagState {
                generation: 0,
                signal_clock: 0,
            }),
            cond: Condvar::new(),
        })
    }

    /// Release semantics: publish all our writes (SD fence), then raise
    /// the flag with a one-sided write to its home.
    ///
    /// Panics if the fabric stays broken past the retry budget; see
    /// [`Self::try_signal`] for the fallible flavor.
    pub fn signal(&self, t: &mut T::Endpoint) {
        if let Err(e) = self.try_signal(t) {
            panic!("unrecoverable DSM fault: {e}");
        }
    }

    /// Fallible flavor of [`Self::signal`]: the generation only advances if
    /// both the fence and the flag write reach the fabric, so waiters never
    /// observe a signal whose payload was lost.
    pub fn try_signal(&self, t: &mut T::Endpoint) -> Result<(), DsmError> {
        self.dsm.try_sd_fence(t)?;
        self.dsm
            .config()
            .retry
            .run_blocking(
                t,
                VerbClass::FlagWrite,
                self.home.0 as u64,
                self.home,
                &Verb::Write { bytes: 8 },
            )
            .map_err(|e| lock_fault(e, t.node().0, self.home.0))?;
        let mut st = self.state.lock();
        st.generation += 1;
        st.signal_clock = st.signal_clock.max(t.now());
        self.cond.notify_all();
        Ok(())
    }

    /// Current generation (for [`Self::wait_past`]).
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// Acquire semantics: block until the flag's generation exceeds
    /// `seen`, then self-invalidate. In the real system this is a remote
    /// polling loop; each poll is a one-sided read, charged on wakeup as a
    /// final successful poll.
    pub fn wait_past(&self, t: &mut T::Endpoint, seen: u64) {
        if let Err(e) = self.try_wait_past(t, seen) {
            panic!("unrecoverable DSM fault: {e}");
        }
    }

    /// Fallible flavor of [`Self::wait_past`].
    pub fn try_wait_past(&self, t: &mut T::Endpoint, seen: u64) -> Result<(), DsmError> {
        {
            let mut st = self.state.lock();
            while st.generation <= seen {
                self.cond.wait(&mut st);
            }
            t.merge(st.signal_clock);
        }
        // The successful poll: one remote read of the flag word. A dropped
        // poll is just another unsuccessful poll — reissue after backing off.
        self.dsm
            .config()
            .retry
            .run_blocking(
                t,
                VerbClass::FlagWrite,
                !(self.home.0 as u64),
                self.home,
                &Verb::Read { bytes: 8 },
            )
            .map_err(|e| lock_fault(e, t.node().0, self.home.0))?;
        self.dsm.try_si_fence(t)
    }

    /// Wait for the *next* signal after this call. Note: if the signal of
    /// interest may already have fired, use [`Self::wait_past`] with a
    /// generation observed *before* the signaller could run — otherwise
    /// this blocks until a further signal.
    pub fn wait(&self, t: &mut T::Endpoint) {
        let seen = self.generation();
        self.wait_past(t, seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carina::CarinaConfig;
    use mem::{GlobalAddr, PAGE_BYTES};
    use simnet::testkit::{thread, tiny_net};
    use simnet::Interconnect;

    fn setup(nodes: usize) -> (Arc<Dsm>, Arc<Interconnect>) {
        let net = tiny_net(nodes);
        let dsm = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
        (dsm, net)
    }

    #[test]
    fn signal_publishes_prior_writes() {
        let (dsm, net) = setup(2);
        let flag = DsmFlag::new(dsm.clone(), NodeId(0));
        let addr = GlobalAddr(3 * PAGE_BYTES);

        let d = dsm.clone();
        let f = flag.clone();
        let n = net.clone();
        let producer = std::thread::spawn(move || {
            let mut t = thread(&n, 0, 0);
            d.write_u64(&mut t, addr, 1234);
            f.signal(&mut t);
        });
        let mut t = thread(&net, 1, 0);
        // Cache a stale copy first.
        let _ = dsm.read_u64(&mut t, addr);
        // Wait for the first signal ever (generation > 0) — the producer
        // may already have fired.
        flag.wait_past(&mut t, 0);
        assert_eq!(dsm.read_u64(&mut t, addr), 1234);
        producer.join().unwrap();
    }

    #[test]
    fn waiter_clock_reflects_signal_time() {
        let (dsm, net) = setup(2);
        let flag = DsmFlag::new(dsm, NodeId(0));
        let f = flag.clone();
        let n = net.clone();
        let signaller = std::thread::spawn(move || {
            let mut t = thread(&n, 0, 0);
            t.compute(50_000);
            f.signal(&mut t);
            t.now()
        });
        let mut t = thread(&net, 1, 0);
        flag.wait_past(&mut t, 0);
        let signal_time = signaller.join().unwrap();
        assert!(t.now() >= signal_time);
    }

    #[test]
    fn generations_support_repeated_signalling() {
        let (dsm, net) = setup(2);
        let flag = DsmFlag::new(dsm, NodeId(0));
        let mut t0 = thread(&net, 0, 0);
        let mut t1 = thread(&net, 1, 0);
        for i in 0..5 {
            let seen = flag.generation();
            assert_eq!(seen, i);
            flag.signal(&mut t0);
            flag.wait_past(&mut t1, seen);
        }
        assert_eq!(flag.generation(), 5);
    }
}
