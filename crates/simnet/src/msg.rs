//! Message passing for MPI-style baselines.
//!
//! The paper compares Argo against MPI ports of several benchmarks. This
//! module provides the minimal two-sided layer those ports need: tagged
//! send/receive between ranks, a barrier, and an all-reduce — all with
//! virtual-time semantics. Every receive pays the software message-handler
//! cost that Argo's passive protocol avoids.

use crate::clock::SimThread;
use crate::net::Interconnect;
use crate::topology::ThreadLoc;
use crate::waits::Waits;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Message tag for matching sends to receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u32);

/// A delivered message.
#[derive(Debug)]
pub struct Msg {
    pub src: usize,
    pub tag: Tag,
    pub payload: Vec<u8>,
    /// Virtual time at which the message (and its handler) completed at the
    /// receiver; merged into the receiving thread's clock.
    pub settled: u64,
}

#[derive(Default)]
struct BarrierState {
    entered: usize,
    generation: u64,
    max_clock: u64,
    /// Exit timestamp of the generation that just completed.
    release_clock: u64,
    /// Scratch for all-reduce sums.
    acc: f64,
    result: f64,
}

/// A communicator over `ranks` participants (one per simulated process).
pub struct MsgWorld {
    net: Arc<Interconnect>,
    locs: Vec<ThreadLoc>,
    mailboxes: Vec<Waits<VecDeque<Msg>>>,
    barrier: Waits<BarrierState>,
}

impl MsgWorld {
    /// Create a world with one rank per entry of `locs` (rank i lives at
    /// `locs[i]`).
    pub fn new(net: Arc<Interconnect>, locs: Vec<ThreadLoc>) -> Arc<Self> {
        let ranks = locs.len();
        assert!(ranks > 0, "MsgWorld needs at least one rank");
        Arc::new(MsgWorld {
            net,
            locs,
            mailboxes: (0..ranks).map(|_| Waits::default()).collect(),
            barrier: Waits::default(),
        })
    }

    pub fn ranks(&self) -> usize {
        self.locs.len()
    }

    /// Send `payload` from `thread` (which must be rank `src`) to rank `dst`.
    /// Buffered-send semantics: the sender unblocks after handing the
    /// payload to its NIC.
    pub fn send(&self, thread: &mut SimThread, src: usize, dst: usize, tag: Tag, payload: Vec<u8>) {
        assert!(dst < self.ranks(), "rank {dst} out of range");
        let timing = self.net.message(
            self.locs[src],
            self.locs[dst],
            thread.now(),
            payload.len() as u64,
        );
        thread.merge(timing.initiator_done);
        let msg = Msg {
            src,
            tag,
            payload,
            settled: timing.settled,
        };
        let mailbox = &self.mailboxes[dst];
        mailbox.lock().push_back(msg);
        mailbox.notify_all();
    }

    /// Blocking receive at rank `dst` of a message matching `src`/`tag`
    /// (`None` src = wildcard). Merges the message's settle time into the
    /// receiving clock.
    pub fn recv(&self, thread: &mut SimThread, dst: usize, src: Option<usize>, tag: Tag) -> Msg {
        self.recv_timeout(thread, dst, src, tag, Duration::from_secs(300))
            .expect("recv deadlocked (no matching message within 300s wall clock)")
    }

    /// [`Self::recv`] with a wall-clock timeout: `None` if no matching
    /// message arrived in time, which in a correct program means the
    /// communication pattern deadlocked.
    pub fn recv_timeout(
        &self,
        thread: &mut SimThread,
        dst: usize,
        src: Option<usize>,
        tag: Tag,
        timeout: Duration,
    ) -> Option<Msg> {
        let matches = |m: &Msg| m.tag == tag && src.is_none_or(|s| s == m.src);
        let mailbox = &self.mailboxes[dst];
        let mut queue =
            mailbox.wait_until_timeout(self.net.abort(), timeout, |q| q.iter().any(matches))?;
        let msg = queue.iter().position(matches).and_then(|pos| queue.remove(pos))?;
        thread.merge(msg.settled);
        Some(msg)
    }

    /// Barrier across all ranks. Exit clock = max(entry clocks) + a
    /// dissemination-tree cost of `2 * latency * ceil(log2(ranks))`.
    pub fn barrier(&self, thread: &mut SimThread) {
        self.reduce_internal(thread, 0.0);
    }

    /// All-reduce sum of one f64 across all ranks; every rank receives the
    /// total. Costs the same tree traversal as a barrier.
    pub fn allreduce_sum(&self, thread: &mut SimThread, value: f64) -> f64 {
        self.reduce_internal(thread, value)
    }

    fn tree_cost(&self) -> u64 {
        let n = self.ranks() as u64;
        let rounds = 64 - (n - 1).leading_zeros() as u64; // ceil(log2(n))
        2 * self.net.cost().network_latency * rounds
            + self.net.cost().handler_cycles * rounds
    }

    fn reduce_internal(&self, thread: &mut SimThread, value: f64) -> f64 {
        let n = self.ranks();
        if n == 1 {
            return value;
        }
        let cost = self.tree_cost();
        let mut st = self.barrier.lock();
        let my_gen = st.generation;
        st.entered += 1;
        st.max_clock = st.max_clock.max(thread.now());
        st.acc += value;
        let (release_clock, result) = if st.entered == n {
            st.entered = 0;
            st.generation += 1;
            st.release_clock = st.max_clock + cost;
            st.result = st.acc;
            st.max_clock = 0;
            st.acc = 0.0;
            let out = (st.release_clock, st.result);
            drop(st);
            self.barrier.notify_all();
            out
        } else {
            drop(st);
            let st = self.barrier.wait_until(self.net.abort(), |s| s.generation != my_gen);
            (st.release_clock, st.result)
        };
        thread.merge(release_clock);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::topology::NodeId;

    fn world(n: usize) -> (Arc<MsgWorld>, Vec<SimThread>) {
        let net = crate::testkit::tiny_net(n);
        let topo = *net.topology();
        let locs: Vec<_> = (0..n).map(|i| topo.loc(NodeId(i as u16), 0)).collect();
        let threads = locs
            .iter()
            .map(|&l| SimThread::new(l, net.clone()))
            .collect();
        (MsgWorld::new(net, locs), threads)
    }

    #[test]
    fn send_recv_delivers_payload_and_time() {
        let (w, mut ts) = world(2);
        let mut t0 = ts.remove(0);
        let mut t1 = ts.remove(0);
        w.send(&mut t0, 0, 1, Tag(7), vec![1, 2, 3]);
        let m = w.recv(&mut t1, 1, Some(0), Tag(7));
        assert_eq!(m.payload, vec![1, 2, 3]);
        let c = CostModel::paper_2011();
        // Receiver clock includes propagation + handler.
        assert!(t1.now() >= c.network_latency + c.handler_cycles);
        // Sender unblocked after only the wire-injection time.
        assert!(t0.now() < c.network_latency);
    }

    #[test]
    fn recv_matches_by_tag() {
        let (w, mut ts) = world(2);
        let mut t0 = ts.remove(0);
        let mut t1 = ts.remove(0);
        w.send(&mut t0, 0, 1, Tag(1), vec![1]);
        w.send(&mut t0, 0, 1, Tag(2), vec![2]);
        let m2 = w.recv(&mut t1, 1, None, Tag(2));
        let m1 = w.recv(&mut t1, 1, None, Tag(1));
        assert_eq!(m2.payload, vec![2]);
        assert_eq!(m1.payload, vec![1]);
    }

    #[test]
    fn recv_timeout_reports_deadlock() {
        let (w, mut ts) = world(2);
        let mut t1 = ts.remove(1);
        assert!(w.recv_timeout(&mut t1, 1, None, Tag(0), Duration::from_millis(10)).is_none());
    }

    #[test]
    fn barrier_merges_clocks_across_real_threads() {
        let (w, ts) = world(4);
        let handles: Vec<_> = ts
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                let w = w.clone();
                std::thread::spawn(move || {
                    t.compute((i as u64 + 1) * 1000);
                    w.barrier(&mut t);
                    t.now()
                })
            })
            .collect();
        let exits: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All exits equal and at least max entry (4000) plus tree cost.
        assert!(exits.iter().all(|&e| e == exits[0]));
        assert!(exits[0] >= 4000);
    }

    #[test]
    fn allreduce_sums_across_threads() {
        let (w, ts) = world(3);
        let handles: Vec<_> = ts
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                let w = w.clone();
                std::thread::spawn(move || w.allreduce_sum(&mut t, (i + 1) as f64))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 6.0);
        }
    }

    #[test]
    fn single_rank_world_is_free() {
        let (w, mut ts) = world(1);
        let mut t = ts.remove(0);
        w.barrier(&mut t);
        assert_eq!(t.now(), 0);
        assert_eq!(w.allreduce_sum(&mut t, 5.0), 5.0);
    }
}
