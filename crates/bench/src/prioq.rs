//! The concurrent priority-queue microbenchmark of §5.3 (Figures 11/12):
//! a sequential pairing heap protected by a lock; each thread alternates
//! thread-local work with a global operation (insert or extract_min with
//! equal probability). Inserts don't need a result and may be delegated
//! detached; extract_min waits.

use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaSiSd, Dsm, Published};
use rand::prelude::*;
use rma::SimTransport;
use simnet::SimThread;
use std::sync::Arc;
use vela::{DsmCohortLock, DsmGlobalLock, DsmPairingHeap, FencePlacement, Hqdl};

/// One unit of thread-local work: two updates to random elements of a
/// thread-local array of 64 integers (exactly the paper's definition).
pub struct LocalWork {
    array: [u64; 64],
    rng: SmallRng,
}

impl LocalWork {
    pub fn new(seed: u64) -> Self {
        LocalWork { array: [0; 64], rng: SmallRng::seed_from_u64(seed) }
    }

    /// Perform `units` work units; returns a sink value so the work is not
    /// optimized away.
    #[inline]
    pub fn run(&mut self, units: usize) -> u64 {
        let mut sink = 0;
        for _ in 0..units {
            let i = (self.rng.random::<u32>() as usize) % 64;
            let j = (self.rng.random::<u32>() as usize) % 64;
            self.array[i] = self.array[i].wrapping_add(1);
            self.array[j] ^= self.array[i];
            sink ^= self.array[j];
        }
        sink
    }

    /// Flip a fair coin: true = insert, false = extract_min.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.rng.random_bool(0.5)
    }

    /// A random key.
    #[inline]
    pub fn key(&mut self) -> u64 {
        self.rng.random()
    }
}

/// Virtual cycles for one unit of local work (a handful of ALU ops and two
/// L1 accesses).
pub const WORK_UNIT_CYCLES: u64 = 20;

/// Work units between two global operations (the paper's setting).
pub const WORK_UNITS: usize = 48;

/// The simulated DSM the queue lives in.
pub type SimDsm = Dsm<SimTransport, CarinaSiSd>;

/// A thread's global operation on the heap, then one `Drain` as its last
/// call: a lock that detaches sections waits for them there.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Insert(u64),
    ExtractMin,
    Drain,
}

/// One run's shape: cluster, operations per thread, heap capacity, and
/// the prefill (`prefill` keys `k * stride`).
#[derive(Clone, Copy, Debug)]
pub struct Queue {
    pub nodes: usize,
    pub tpn: usize,
    pub ops: usize,
    pub capacity: u64,
    pub prefill: u64,
    pub stride: u64,
    pub bytes_per_node: u64,
}

impl Queue {
    /// Throughput in operations per virtual µs, with every global
    /// operation going through the section `lock` builds on the machine's
    /// DSM and heap.
    pub fn ops_per_us<L>(self, lock: impl FnOnce(&Arc<SimDsm>, DsmPairingHeap) -> L) -> f64
    where
        L: Fn(&mut SimThread, Op) + Send + Sync + 'static,
    {
        let mut cfg = ArgoConfig::small(self.nodes, self.tpn);
        cfg.bytes_per_node = self.bytes_per_node;
        let m = ArgoMachine::new(cfg);
        let dsm = m.dsm().clone();
        let base = dsm.allocator().alloc(DsmPairingHeap::bytes_needed(self.capacity), 8).expect("global memory");
        let heap = DsmPairingHeap::attach(base);
        let section = lock(&dsm, heap);
        let report = m.run(move |ctx| {
            if ctx.tid() == 0 {
                let h = DsmPairingHeap::init(&dsm, &mut ctx.thread, base, self.capacity);
                for k in 0..self.prefill {
                    h.insert(&dsm, &mut ctx.thread, k.wrapping_mul(self.stride));
                }
            }
            ctx.start_measurement();
            let mut w = LocalWork::new(ctx.tid() as u64 + 1);
            for _ in 0..self.ops {
                std::hint::black_box(w.run(WORK_UNITS));
                ctx.thread.compute(WORK_UNITS as u64 * WORK_UNIT_CYCLES);
                let op = if w.coin() { Op::Insert(w.key()) } else { Op::ExtractMin };
                section(&mut ctx.thread, op);
            }
            section(&mut ctx.thread, Op::Drain);
            0.0
        });
        let total_ops = (self.ops * self.nodes * self.tpn) as f64;
        total_ops / (report.cycles as f64 / m.config().cost.cpu_ghz / 1e3)
    }
}

/// Run `op` on the heap; `Drain` is a no-op here.
fn apply(heap: DsmPairingHeap, dsm: &SimDsm, t: &mut SimThread, op: Op) {
    match op {
        Op::Insert(key) => heap.insert(dsm, t, key),
        Op::ExtractMin => drop(heap.extract_min(dsm, t)),
        Op::Drain => {}
    }
}

/// Argo's HQDL: inserts delegated detached, extracts waited for, the
/// node's outstanding delegations flushed at the end.
pub fn hqdl(dsm: &Arc<SimDsm>, heap: DsmPairingHeap, batch: usize) -> impl Fn(&mut SimThread, Op) + Send + Sync {
    let (lock, dsm) = (Hqdl::new(dsm.clone(), batch), dsm.clone());
    move |t, op| {
        let d = dsm.clone();
        match op {
            Op::Insert(_) => drop(lock.delegate(t, move |ht| apply(heap, &d, ht, op))),
            Op::ExtractMin => lock.delegate_wait(t, move |ht| apply(heap, &d, ht, op)),
            Op::Drain => lock.delegate_wait(t, |_| {}),
        }
    }
}

/// The distributed Cohort lock: each thread runs its own section.
pub fn cohort(dsm: &Arc<SimDsm>, heap: DsmPairingHeap, fencing: FencePlacement) -> impl Fn(&mut SimThread, Op) + Send + Sync {
    let (lock, dsm) = (DsmCohortLock::with_fencing(dsm.clone(), 48, fencing), dsm.clone());
    move |t, op| {
        if !matches!(op, Op::Drain) {
            lock.with(t, |ht| apply(heap, &dsm, ht, op));
        }
    }
}

/// A location-blind mutex: the bare global lock, whose line bounces to
/// every acquirer regardless of placement (one inter-socket hop each).
pub fn mutex(dsm: &Arc<SimDsm>, heap: DsmPairingHeap) -> impl Fn(&mut SimThread, Op) + Send + Sync {
    let (lock, dsm) = (DsmGlobalLock::new(simnet::NodeId(0)), dsm.clone());
    move |t, op| {
        if !matches!(op, Op::Drain) {
            lock.acquire(t);
            t.compute(t.net().cost().intersocket_latency);
            apply(heap, &dsm, t, op);
            lock.release(t, Published::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_work_is_deterministic_per_seed() {
        let mut a = LocalWork::new(7);
        let mut b = LocalWork::new(7);
        assert_eq!(a.run(100), b.run(100));
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut w = LocalWork::new(3);
        let heads = (0..10_000).filter(|_| w.coin()).count();
        assert!((4_000..6_000).contains(&heads), "{heads}");
    }
}
