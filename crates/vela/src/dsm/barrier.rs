//! Barriers with virtual-clock merging, and Argo's hierarchical barrier
//! (paper §4.1).
//!
//! The hierarchical barrier is: node-local barrier → leader self-downgrades
//! the node's write buffer → global barrier across node leaders → leader
//! self-invalidates the node's cache → node-local release. One SD and one
//! SI per *node* per barrier episode, not per thread. A leader's SD fence
//! posts its write-backs without waiting for them and brings their settle
//! stamp to the global rendezvous, which departs no earlier than the
//! latest leader's stamp.

use carina::{CarinaSiSd, Coherence, Dsm, Published};
use rma::{Endpoint, SimTransport, Transport};
use simnet::Waits;
use std::convert::Infallible;
use std::sync::Arc;

#[derive(Default)]
struct BarrierState {
    entered: usize,
    generation: u64,
    max_clock: u64,
    /// The largest release stamp an arrival of this episode carried.
    max_stamp: u64,
    release_clock: u64,
}

/// A reusable barrier for `n` participants that merges virtual clocks:
/// every participant leaves with `max(entry clocks) + exit_cost`.
pub struct ClockBarrier {
    n: usize,
    exit_cost: u64,
    state: Waits<BarrierState>,
}

impl ClockBarrier {
    pub fn new(n: usize, exit_cost: u64) -> Self {
        assert!(n > 0, "barrier needs participants");
        ClockBarrier {
            n,
            exit_cost,
            state: Waits::default(),
        }
    }

    /// Wait for all participants; merge clocks.
    pub fn wait<E: Endpoint>(&self, t: &mut E) {
        self.wait_leader(t, |_| {});
    }

    /// [`wait`](Self::wait) for an arrival that carries a release: nobody
    /// departs before `stamp`, the settle time of the write-backs the
    /// arrival posted without waiting for them. The stamp rides the
    /// rendezvous as a number, so the rendezvous overlaps the write-backs'
    /// flight: departure is `max(max(arrivals) + exit_cost, max(stamps))`.
    pub fn wait_published<E: Endpoint>(&self, t: &mut E, stamp: Published) {
        self.rendezvous(t, stamp, |_| {});
    }

    /// Wait for all participants; the **last** to arrive runs `leader`
    /// (with the merged clock) before everyone is released with the
    /// leader's final clock. This is how the hierarchical barrier performs
    /// its one-per-node fences.
    pub fn wait_leader<E: Endpoint>(&self, t: &mut E, leader: impl FnOnce(&mut E)) {
        self.rendezvous(t, Published::default(), leader);
    }

    /// # Panics
    /// With `simnet::PEER_PANICKED` if a thread of the machine panicked
    /// while this one waited, a leader section of this barrier included.
    fn rendezvous<E: Endpoint>(&self, t: &mut E, stamp: Published, leader: impl FnOnce(&mut E)) {
        let mut st = self.state.lock();
        let my_gen = st.generation;
        st.entered += 1;
        st.max_clock = st.max_clock.max(t.now());
        st.max_stamp = st.max_stamp.max(stamp.0);
        if st.entered == self.n {
            // Leader: everyone has arrived. Run the leader section at the
            // merged clock, then release.
            t.merge(st.max_clock);
            drop(st);
            leader(t);
            t.compute(self.exit_cost);
            let mut st = self.state.lock();
            t.merge(std::mem::take(&mut st.max_stamp));
            st.entered = 0;
            st.generation += 1;
            st.max_clock = 0;
            st.release_clock = t.now();
            drop(st);
            self.state.notify_all();
        } else {
            drop(st);
            let st = self.state.wait_until(t.abort(), |s| s.generation != my_gen);
            t.merge(st.release_clock);
        }
    }
}

/// Argo's hierarchical barrier over a DSM cluster.
pub struct HierBarrier<T: Transport = SimTransport, C: Coherence = CarinaSiSd> {
    dsm: Arc<Dsm<T, C>>,
    node_barriers: Vec<ClockBarrier>,
    global: Arc<ClockBarrier>,
}

impl<T: Transport, C: Coherence> HierBarrier<T, C> {
    /// `threads_per_node[i]` = participating threads on node `i`. Nodes
    /// with zero threads do not participate.
    pub fn new(dsm: Arc<Dsm<T, C>>, threads_per_node: &[usize]) -> Self {
        let cost = dsm.net().cost();
        let active_nodes = threads_per_node.iter().filter(|&&n| n > 0).count();
        assert!(active_nodes > 0, "barrier needs at least one active node");
        let local_cost = 2 * cost.intersocket_latency;
        let rounds = (active_nodes as u64).next_power_of_two().trailing_zeros() as u64;
        let global_cost = 2 * cost.network_latency * rounds.max(if active_nodes > 1 { 1 } else { 0 });
        HierBarrier {
            dsm,
            node_barriers: threads_per_node
                .iter()
                // A node with one thread has nobody to meet locally.
                .map(|&n| ClockBarrier::new(n.max(1), if n > 1 { local_cost } else { 0 }))
                .collect(),
            global: Arc::new(ClockBarrier::new(active_nodes, global_cost)),
        }
    }

    /// Wait at the barrier. DRF programs may rely on: every write before
    /// the barrier (on any thread) is visible to every read after it.
    pub fn wait(&self, t: &mut T::Endpoint) {
        let node = t.node().idx();
        let (dsm, global) = (&self.dsm, &self.global);
        // The whole episode — local rendezvous, leader fences, global
        // rendezvous — is this thread's barrier wait; the leader's fences
        // are their own sites inside it.
        let Ok(()) = dsm.site(t, obs::Site::BarrierWait, 0, |t, _| {
            self.node_barriers[node].wait_leader(t, |t| {
                // The global rendezvous departs no earlier than every
                // leader's write-backs settle; no leader waits for its own.
                let stamp = dsm.publish(t);
                global.wait_published(t, stamp);
                dsm.si_fence(t);
            });
            Ok::<(), Infallible>(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carina::CarinaConfig;
    use mem::{GlobalAddr, PAGE_BYTES};
    use simnet::testkit::{thread, tiny_net};

    #[test]
    fn clock_barrier_merges_to_max_plus_cost() {
        let b = Arc::new(ClockBarrier::new(3, 100));
        let net = tiny_net(1);
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let b = b.clone();
                let net = net.clone();
                std::thread::spawn(move || {
                    let mut t = thread(&net, 0, 0);
                    t.compute((i as u64 + 1) * 500);
                    b.wait(&mut t);
                    t.now()
                })
            })
            .collect();
        let exits: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(exits.iter().all(|&e| e == 1600)); // max(500,1000,1500)+100
    }

    #[test]
    fn clock_barrier_is_reusable() {
        let b = ClockBarrier::new(1, 10);
        let mut t = thread(&tiny_net(1), 0, 0);
        b.wait(&mut t);
        b.wait(&mut t);
        assert_eq!(t.now(), 20);
    }

    /// The text a panic carried.
    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().map_or_else(|_| "?".into(), |s| s.to_string()),
        }
    }

    /// A leader section that panics fails the run instead of hanging it:
    /// the waiters, whose release never comes, unwind with
    /// `PEER_PANICKED`, `run_threads` re-raises the leader's message, and
    /// a later arrival fails at once.
    #[test]
    fn a_panicking_leader_fails_every_waiter() {
        let b = Arc::new(ClockBarrier::new(3, 100));
        let net = tiny_net(1);
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let (b, net) = (b.clone(), net.clone());
            std::thread::spawn(move || {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    simnet::run_threads(net.abort(), 3, |i| format!("t{i}"), |_| {
                        let mut t = thread(&net, 0, 0);
                        b.wait_leader(&mut t, |_| panic!("the leader section failed"));
                    })
                }));
                let _ = tx.send(run.map_err(panic_text));
            });
        }
        let run = rx.recv_timeout(std::time::Duration::from_secs(5));
        let failure = run.expect("the waiters still hang on the barrier").unwrap_err();
        assert_eq!(failure, "the leader section failed");
        let mut t = thread(&net, 0, 0);
        let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait(&mut t)));
        assert_eq!(panic_text(late.unwrap_err()), simnet::PEER_PANICKED);
    }

    #[test]
    fn hier_barrier_publishes_writes() {
        // Two nodes, one thread each: node 0 writes, both barrier, node 1
        // must read the new value.
        let net = tiny_net(2);
        let dsm = carina::Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
        let barrier = Arc::new(HierBarrier::new(dsm.clone(), &[1, 1]));
        let addr = GlobalAddr(3 * PAGE_BYTES); // homed on node 1

        let d0 = dsm.clone();
        let b0 = barrier.clone();
        let n0 = net.clone();
        let writer = std::thread::spawn(move || {
            let mut t = thread(&n0, 0, 0);
            d0.write_u64(&mut t, addr, 123);
            b0.wait(&mut t);
        });
        let reader = std::thread::spawn(move || {
            let mut t = thread(&net, 1, 0);
            // Cache the stale value first to prove SI happens.
            let _ = dsm.read_u64(&mut t, addr);
            barrier.wait(&mut t);
            dsm.read_u64(&mut t, addr)
        });
        writer.join().unwrap();
        assert_eq!(reader.join().unwrap(), 123);
    }

    /// Each leader's SD fence posts its node's write-back and arrives at
    /// the global rendezvous without waiting for it; nobody departs before
    /// every leader's write-backs settle.
    #[test]
    fn departure_waits_for_every_leaders_settle() {
        let net = tiny_net(2);
        let dsm = carina::Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
        let barrier = Arc::new(HierBarrier::new(dsm.clone(), &[2, 1]));
        let handles: Vec<_> = [(0, 0), (0, 1), (1, 0)]
            .into_iter()
            .map(|(node, core)| {
                let (dsm, barrier, net) = (dsm.clone(), barrier.clone(), net.clone());
                std::thread::spawn(move || {
                    let mut t = thread(&net, node, core);
                    // Each node writes a page homed on the other one.
                    let addr = GlobalAddr((3 + 2 * core as u64 + node as u64) * PAGE_BYTES);
                    assert_ne!(dsm.home_of(addr), node);
                    dsm.write_u64(&mut t, addr, 1);
                    barrier.wait(&mut t);
                    t.now()
                })
            })
            .collect();
        let departures: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let settles = [dsm.settle_stamp(0).0, dsm.settle_stamp(1).0];
        assert!(settles.iter().all(|&s| s > 0), "both nodes posted a write-back");
        for d in departures {
            assert!(settles.iter().all(|&s| d >= s), "departed at {d} before {settles:?}");
        }
    }

    /// With one thread per node there is no node-local rendezvous to pay
    /// for: everyone departs at the last arrival plus the global round.
    #[test]
    fn one_thread_per_node_departs_after_the_global_round_only() {
        let net = tiny_net(2);
        let dsm = carina::Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
        let barrier = Arc::new(HierBarrier::new(dsm, &[1, 1]));
        let handles: Vec<_> = [(0, 500), (1, 1_500)]
            .into_iter()
            .map(|(node, arrival)| {
                let (barrier, net) = (barrier.clone(), net.clone());
                std::thread::spawn(move || {
                    let mut t = thread(&net, node, 0);
                    t.compute(arrival);
                    barrier.wait(&mut t);
                    t.now()
                })
            })
            .collect();
        let departures: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(departures, [1_500 + 2 * net.cost().network_latency; 2]);
    }

    #[test]
    fn barrier_wait_lands_in_latency_profile() {
        let net = tiny_net(1);
        let dsm = carina::Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
        let barrier = HierBarrier::new(dsm.clone(), &[1]);
        let mut t = thread(&net, 0, 0);
        barrier.wait(&mut t);
        barrier.wait(&mut t);
        let prof = dsm.lyra().profile();
        assert_eq!(prof.get(obs::Site::BarrierWait).count(), 2);
    }

    /// The leader's two fences are sites of their own inside its barrier
    /// wait: their exclusive cycles and the barrier's add up to the wait.
    #[test]
    fn a_leaders_fences_are_carved_out_of_its_barrier_wait() {
        use obs::Site;
        let net = tiny_net(2);
        let dsm = carina::Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
        let addr = GlobalAddr(3 * PAGE_BYTES);
        assert_eq!(dsm.home_of(addr), 1, "the write-back must cross the network");
        let barrier = HierBarrier::new(dsm.clone(), &[1, 0]);
        let mut t = thread(&net, 0, 0);
        dsm.write_u64(&mut t, addr, 7);
        let now = t.now();
        t.lyra_lane().restart(now);
        barrier.wait(&mut t);
        let now = t.now();
        let table = t.lyra_lane().table(now);
        let wait = table.get(Site::BarrierWait);
        assert_eq!(wait.count(), 1);
        let fences = table.exclusive(Site::SdFence) + table.exclusive(Site::SiFence);
        assert!(table.exclusive(Site::SdFence) > 0, "the fence drained a write-back");
        assert_eq!(table.exclusive(Site::BarrierWait) + fences, wait.sum);
        assert_eq!((table.get(Site::SdFence).count(), table.get(Site::SiFence).count()), (1, 1));
        assert_eq!(table.total_cycles(), wait.sum, "nothing ran outside the barrier");
    }

    #[test]
    fn single_node_barrier_costs_no_network() {
        let net = tiny_net(1);
        let dsm = carina::Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
        let barrier = HierBarrier::new(dsm, &[1]);
        let mut t = thread(&net, 0, 0);
        barrier.wait(&mut t);
        assert_eq!(net.stats().snapshot().messages, 0);
        assert!(t.now() < 10_000);
    }
}
