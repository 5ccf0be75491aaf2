//! `prioq_hqdl`: the lock-synchronised priority queue of the paper's
//! Figure 12. Each thread alternates thread-local work with an operation
//! on a pairing heap resident in global memory — an insert (delegated and
//! detached) or an extract-min (delegated and waited for), with equal
//! probability — all through one hierarchical queue delegation lock. The
//! two threads sit on different nodes, so every batch hands the global
//! lock over and pays one SI/SD fence pair; there are no barriers and no
//! bulk slices.
//!
//! Which keys a thread extracts depends on the interleaving, so the
//! oracle is conservation: what went in (pre-fill + every insert of the
//! seeded op streams) equals what came out (every extract + what a final
//! drain finds), by count and by wrapping key sum, and the drain comes out
//! in order.

use super::{Kernel, KernelRun, RepMarks};
use crate::rng::{element, Rng};
use crate::spans::Traced;
use argo::{ArgoMachine, GlobalU64Array};
use carina::Coherence;
use rma::Transport;
use std::sync::Arc;
use vela::{DsmPairingHeap, Hqdl};

/// Units of thread-local work between two heap operations (the paper's
/// setting); one unit is two updates of a thread-local 64-word array.
const WORK_UNITS: usize = 48;
/// Virtual cycles charged per unit.
const WORK_UNIT_CYCLES: u64 = 20;
/// Keys the heap has room for.
const HEAP_CAPACITY: u64 = 1 << 18;
/// Sections one helper tenure may execute.
const BATCH_LIMIT: usize = 1024;

#[derive(Debug, Clone, Copy)]
pub struct Prioq {
    /// Heap operations over all threads (split evenly).
    pub total_ops: usize,
    /// Keys inserted before the measured section.
    pub prefill: u64,
    pub seed: u64,
}

/// What one thread put in and took out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    inserted: u64,
    inserted_keys: u64,
    extracted: u64,
    extracted_keys: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.inserted += other.inserted;
        self.inserted_keys = self.inserted_keys.wrapping_add(other.inserted_keys);
        self.extracted += other.extracted;
        self.extracted_keys = self.extracted_keys.wrapping_add(other.extracted_keys);
    }
}

/// The thread-local work between operations: updates scattered over a
/// private array, on a stream of its own so that the op stream can be
/// replayed without it.
struct LocalWork {
    array: [u64; 64],
    rng: Rng,
}

impl LocalWork {
    fn new(seed: u64, tid: usize) -> Self {
        LocalWork {
            array: [0; 64],
            rng: Rng::new(seed, 100 + tid as u64),
        }
    }

    #[inline]
    fn run(&mut self, units: usize) -> u64 {
        let mut sink = 0;
        for _ in 0..units {
            let r = self.rng.next_u64();
            let i = (r & 63) as usize;
            let j = ((r >> 32) & 63) as usize;
            self.array[i] = self.array[i].wrapping_add(1);
            self.array[j] ^= self.array[i];
            sink ^= self.array[j];
        }
        sink
    }
}

impl Prioq {
    fn ops_per_thread(&self, nthreads: usize) -> usize {
        self.total_ops / nthreads
    }

    fn prefill_key(&self, k: u64) -> u64 {
        element(self.seed, 7, k)
    }

    /// Thread `tid`'s op stream: `Some(key)` inserts, `None` extracts.
    fn ops(&self, tid: usize, nthreads: usize) -> impl Iterator<Item = Option<u64>> {
        let mut rng = Rng::new(self.seed, 10 + tid as u64);
        (0..self.ops_per_thread(nthreads)).map(move |_| rng.coin().then(|| rng.next_u64()))
    }
}

impl Kernel for Prioq {
    fn run<T: Transport, C: Coherence, const ON: bool>(
        &self,
        machine: &Arc<ArgoMachine<T, C>>,
        marks: &Arc<RepMarks>,
    ) -> KernelRun {
        let this = *self;
        let words = DsmPairingHeap::bytes_needed(HEAP_CAPACITY).div_ceil(8) as usize;
        let base = GlobalU64Array::alloc(machine.dsm(), words).base();
        let lock = Hqdl::new(machine.dsm().clone(), BATCH_LIMIT);
        let started = marks.clone();
        let report = machine.run(move |ctx| {
            let mut k = Traced::<T, C, ON>::new(ctx);
            let dsm = k.dsm();
            if k.tid() == 0 {
                let t = &mut k.untraced().thread;
                let h = DsmPairingHeap::init(&dsm, t, base, HEAP_CAPACITY);
                for i in 0..this.prefill {
                    h.insert(&dsm, t, this.prefill_key(i));
                }
            }
            k.start_measurement(|| started.measurement_started());
            let heap = DsmPairingHeap::attach(base);
            let mut work = LocalWork::new(this.seed, k.tid());
            let mut tally = Tally::default();
            for op in this.ops(k.tid(), k.nthreads()) {
                std::hint::black_box(work.run(WORK_UNITS));
                k.compute(WORK_UNITS as u64 * WORK_UNIT_CYCLES);
                let dsm = dsm.clone();
                match op {
                    Some(key) => {
                        tally.inserted += 1;
                        tally.inserted_keys = tally.inserted_keys.wrapping_add(key);
                        k.delegate(&lock, move |ht| heap.insert(&dsm, ht, key));
                    }
                    None => {
                        if let Some(key) =
                            k.delegate_wait(&lock, move |ht| heap.extract_min(&dsm, ht))
                        {
                            tally.extracted += 1;
                            tally.extracted_keys = tally.extracted_keys.wrapping_add(key);
                        }
                    }
                }
            }
            // Flush this node's outstanding detached inserts.
            k.delegate_wait(&lock, |_| {});
            (tally, k.finish())
        });
        marks.measurement_ended();
        let mut total = Tally::default();
        let mut run = KernelRun::from_report(report, |(tally, log)| {
            total.add(&tally);
            (tally.extracted_keys, log)
        });

        // A second, unmeasured region drains what is left.
        let drained = machine.run(move |ctx| {
            if ctx.tid() != 0 {
                return (0u64, 0u64, true);
            }
            ctx.acquire();
            let dsm = ctx.dsm().clone();
            let heap = DsmPairingHeap::attach(base);
            let (mut count, mut keys, mut ordered, mut last) = (0u64, 0u64, true, 0u64);
            while let Some(key) = heap.extract_min(&dsm, &mut ctx.thread) {
                ordered &= key >= last;
                last = key;
                count += 1;
                keys = keys.wrapping_add(key);
            }
            (count, keys, ordered)
        });
        let (remaining, remaining_keys, ordered) = drained.results[0];
        run.checksum = run.checksum.wrapping_add(remaining_keys);
        if this.prefill + total.inserted != total.extracted + remaining {
            run.problems.push(format!(
                "count not conserved: {} pre-filled + {} inserted != {} extracted + {} remaining",
                this.prefill, total.inserted, total.extracted, remaining
            ));
        }
        if !ordered {
            run.problems
                .push("final drain came out of order".to_string());
        }
        run
    }

    /// Wrapping key sum of everything that goes in.
    fn reference(&self, nthreads: usize) -> u64 {
        let prefill = (0..self.prefill)
            .map(|k| self.prefill_key(k))
            .fold(0u64, u64::wrapping_add);
        (0..nthreads)
            .flat_map(|tid| self.ops(tid, nthreads))
            .flatten()
            .fold(prefill, u64::wrapping_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_follows_the_seed_and_is_half_inserts() {
        let p = Prioq {
            total_ops: 4000,
            prefill: 16,
            seed: 21,
        };
        let a: Vec<_> = p.ops(0, 2).collect();
        assert_eq!(a, p.ops(0, 2).collect::<Vec<_>>());
        assert_ne!(a, p.ops(1, 2).collect::<Vec<_>>());
        assert_ne!(a, Prioq { seed: 22, ..p }.ops(0, 2).collect::<Vec<_>>());
        assert_eq!(a.len(), 2000);
        let inserts = a.iter().flatten().count();
        assert!((800..1200).contains(&inserts), "{inserts}");
    }

    #[test]
    fn reference_is_prefill_plus_inserted_keys() {
        let p = Prioq {
            total_ops: 100,
            prefill: 8,
            seed: 3,
        };
        let mut expect = 0u64;
        for k in 0..8 {
            expect = expect.wrapping_add(p.prefill_key(k));
        }
        for tid in 0..2 {
            for key in p.ops(tid, 2).flatten() {
                expect = expect.wrapping_add(key);
            }
        }
        assert_eq!(p.reference(2), expect);
        assert_ne!(p.reference(2), p.reference(1));
    }

    #[test]
    fn local_work_is_deterministic() {
        let mut a = LocalWork::new(5, 0);
        let mut b = LocalWork::new(5, 0);
        assert_eq!(a.run(100), b.run(100));
    }
}
