//! A PGAS-style (UPC-like) access mode, for the paper's UPC baselines.
//!
//! In PGAS there is **no remote caching** (paper §2.1): the address space
//! is partitioned, every access to a non-local element is a fine-grained
//! remote operation, and programmers move data in bulk to thread-local
//! space by hand. `PgasCtx` wraps a `SimThread` and provides exactly that
//! cost model over the same global memory layout — no page cache, no
//! directory, no fences.

use carina::{CarinaSiSd, Coherence, Dsm};
use mem::GlobalAddr;
use rma::{Endpoint, SimTransport, Transport, Verb, VerbClass};
use simnet::NodeId;
use std::sync::Arc;

/// Fine-grained remote element size (UPC shared scalar access).
const ELEM_BYTES: u64 = 8;

/// PGAS access handle: same global memory, UPC cost semantics.
pub struct PgasCtx<T: Transport = SimTransport, C: Coherence = CarinaSiSd> {
    dsm: Arc<Dsm<T, C>>,
}

impl<T: Transport, C: Coherence> PgasCtx<T, C> {
    pub fn new(dsm: Arc<Dsm<T, C>>) -> Self {
        PgasCtx { dsm }
    }

    /// Reissue a fine-grained PGAS verb against `home` until it lands,
    /// charging backoff as local compute. PGAS has no coherence to fall
    /// back on, so an exhausted budget aborts (same contract as the DSM's
    /// panicking ops).
    fn insist(&self, t: &mut T::Endpoint, class: VerbClass, salt: u64, home: u16, verb: Verb) {
        let retry = &self.dsm.config().retry;
        if let Err(e) = retry.run_blocking(t, class, salt, NodeId(home), &verb) {
            panic!("unrecoverable DSM fault: {e}");
        }
    }

    /// Charge moving `verb`'s bytes between `t` and `addr`'s home: a DRAM
    /// access if the element is local, the remote verb otherwise.
    fn charge(&self, t: &mut T::Endpoint, addr: GlobalAddr, verb: Verb) {
        let home = self.dsm.home_of(addr);
        if home == t.node().0 {
            t.dram_access();
        } else {
            let class = if verb.is_posted() { VerbClass::Downgrade } else { VerbClass::PageFetch };
            self.insist(t, class, addr.0, home, verb);
        }
    }

    /// Fine-grained shared read (remote unless the element is local).
    pub fn read_u64(&self, t: &mut T::Endpoint, addr: GlobalAddr) -> u64 {
        self.charge(t, addr, Verb::Read { bytes: ELEM_BYTES });
        self.dsm.peek_u64(addr)
    }

    pub fn write_u64(&self, t: &mut T::Endpoint, addr: GlobalAddr, v: u64) {
        self.charge(t, addr, Verb::Write { bytes: ELEM_BYTES });
        self.dsm.poke_u64(addr, v);
    }

    pub fn read_f64(&self, t: &mut T::Endpoint, addr: GlobalAddr) -> f64 {
        f64::from_bits(self.read_u64(t, addr))
    }

    pub fn write_f64(&self, t: &mut T::Endpoint, addr: GlobalAddr, v: f64) {
        self.write_u64(t, addr, v.to_bits())
    }

    /// Bulk transfer of `words` elements starting at `addr` into local
    /// space ("programmers are advised to cast such pointers to local
    /// pointers" / move data in bulk). One message per home node touched.
    pub fn bulk_read_f64(&self, t: &mut T::Endpoint, addr: GlobalAddr, words: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(words);
        // Charge one transfer per home-node run of the interleaved pages.
        for (a, run) in addr.page_runs(words) {
            let bytes = run.len() as u64 * ELEM_BYTES;
            self.charge(t, a, Verb::Read { bytes });
            out.extend(
                run.map(|i| f64::from_bits(self.dsm.peek_u64(addr.offset(i as u64 * ELEM_BYTES)))),
            );
        }
        out
    }

    /// Bulk write of local data back to shared space.
    pub fn bulk_write_f64(&self, t: &mut T::Endpoint, addr: GlobalAddr, data: &[f64]) {
        for (a, run) in addr.page_runs(data.len()) {
            let bytes = run.len() as u64 * ELEM_BYTES;
            self.charge(t, a, Verb::Write { bytes });
            for i in run {
                self.dsm.poke_u64(addr.offset(i as u64 * ELEM_BYTES), data[i].to_bits());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ArgoConfig, ArgoMachine};
    use simnet::CostModel;

    #[test]
    fn fine_grained_remote_access_charges_round_trip() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 1));
        let addr = m.dsm().allocator().alloc_pages(4).unwrap();
        let pgas = PgasCtx::new(m.dsm().clone());
        let report = m.run(move |ctx| {
            // Find an element homed on the *other* node.
            let mut a = addr;
            while pgas_home(ctx.dsm(), a) == ctx.node() as u16 {
                a = a.offset(mem::PAGE_BYTES);
            }
            let before = ctx.thread.now();
            let _ = pgas.read_u64(&mut ctx.thread, a);
            ctx.thread.now() - before
        });
        let c = CostModel::paper_2011();
        for cycles in report.results {
            assert!(cycles >= 2 * c.network_latency);
        }

        fn pgas_home(dsm: &Dsm, a: GlobalAddr) -> u16 {
            dsm.home_of(a)
        }
    }

    #[test]
    fn bulk_read_matches_values() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 1));
        let addr = m.dsm().allocator().alloc_pages(2).unwrap();
        let report = m.run(move |ctx| {
            let pgas = PgasCtx::new(ctx.dsm().clone());
            if ctx.tid() == 0 {
                for i in 0..100 {
                    pgas.write_f64(&mut ctx.thread, addr.offset(i * 8), i as f64);
                }
            }
            ctx.barrier();
            let data = pgas.bulk_read_f64(&mut ctx.thread, addr, 100);
            data.iter().sum::<f64>()
        });
        assert!(report.results.iter().all(|&s| s == 4950.0));
    }
}
