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
//! application's terms), so it is exercised through one-sided verbs on its
//! home node, not through the page cache — or, on the home node itself, as
//! plain local memory.
//!
//! The signaller's SD fence posts its write-backs without waiting for them
//! (`carina::Dsm::publish`); the flag carries their settle stamp and every
//! waiter starts at or after it.

use crate::dsm::global_lock::local_or_remote;
use carina::{CarinaSiSd, Coherence, Dsm, DsmError};
use rma::{Endpoint, SimTransport, Transport, Verb, VerbClass};
use simnet::{NodeId, Waits};
use std::sync::Arc;

#[derive(Default)]
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
    state: Waits<FlagState>,
}

impl<T: Transport, C: Coherence> DsmFlag<T, C> {
    /// Create a flag whose word lives on `home`.
    pub fn new(dsm: Arc<Dsm<T, C>>, home: NodeId) -> Arc<Self> {
        Arc::new(DsmFlag {
            dsm,
            home,
            state: Waits::default(),
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
        let stamp = self.dsm.try_publish(t)?;
        self.access_word(t, self.home.0 as u64, &Verb::Write { bytes: 8 })?;
        {
            let mut st = self.state.lock();
            st.generation += 1;
            // A waiter starts once the signal is out and the write-backs it
            // follows have settled; the signaller runs on.
            st.signal_clock = st.signal_clock.max(t.now()).max(stamp.0);
        }
        self.state.notify_all();
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
        let signal_clock = self.state.wait_until(t.abort(), |s| s.generation > seen).signal_clock;
        t.merge(signal_clock);
        // The successful poll: one read of the flag word. A dropped poll is
        // just another unsuccessful poll — reissue after backing off.
        self.access_word(t, !(self.home.0 as u64), &Verb::Read { bytes: 8 })?;
        self.dsm.try_si_fence(t)
    }

    /// One access to the flag word: local memory on its home node, else
    /// `verb` under the DSM's retry policy.
    fn access_word(&self, t: &mut T::Endpoint, salt: u64, verb: &Verb) -> Result<(), DsmError> {
        let retry = &self.dsm.config().retry;
        local_or_remote(t, retry, VerbClass::FlagWrite, salt, self.home, verb)
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

    /// The signaller's SD fence posts its write-back and the signaller
    /// runs on; the waiter starts no earlier than the write-back settles.
    #[test]
    fn the_waiter_starts_after_the_signallers_settle() {
        let (dsm, net) = setup(2);
        let flag = DsmFlag::new(dsm.clone(), NodeId(0));
        let addr = GlobalAddr(3 * PAGE_BYTES);
        assert_eq!(dsm.home_of(addr), 1, "the write-back must cross the network");
        let (mut t0, mut t1) = (thread(&net, 0, 0), thread(&net, 1, 0));
        dsm.write_u64(&mut t0, addr, 5);
        flag.signal(&mut t0);
        let settle = dsm.settle_stamp(0).0;
        assert!(t0.now() < settle, "the signaller waited for its write-back");
        flag.wait_past(&mut t1, 0);
        assert!(t1.now() >= settle);
        assert_eq!(dsm.read_u64(&mut t1, addr), 5);
    }

    /// A flag homed on the signaller's and the waiter's node is local
    /// memory: with nothing to publish or drop, the fabric sees nothing.
    #[test]
    fn a_flag_on_its_home_node_is_local_memory() {
        let (dsm, net) = setup(2);
        let flag = DsmFlag::new(dsm, NodeId(1));
        let (mut a, mut b) = (thread(&net, 1, 0), thread(&net, 1, 1));
        let before = net.stats().snapshot();
        flag.signal(&mut a);
        flag.wait_past(&mut b, 0);
        assert_eq!(net.stats().snapshot(), before);
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
