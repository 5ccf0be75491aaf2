//! Typed views over global memory.
//!
//! Thin, copyable handles describing arrays of 8-byte elements in the
//! global address space. They hold no data — every access goes through the
//! coherence layer via an [`crate::ArgoCtx`].

use crate::ctx::ArgoCtx;
use carina::{Coherence, Dsm};
use mem::{GlobalAddr, Word, PAGE_BYTES};
use rma::Transport;
use std::marker::PhantomData;

/// An array of 8-byte words — `u64` or `f64` — in global memory.
#[derive(Debug, Clone, Copy)]
pub struct GlobalArray<W> {
    base: GlobalAddr,
    len: usize,
    elem: PhantomData<W>,
}

/// An array of `u64` in global memory.
pub type GlobalU64Array = GlobalArray<u64>;
/// An array of `f64` in global memory.
pub type GlobalF64Array = GlobalArray<f64>;

impl<W: Word> GlobalArray<W> {
    /// Allocate page-aligned storage for `len` elements.
    pub fn alloc<T: Transport, C: Coherence>(dsm: &Dsm<T, C>, len: usize) -> Self {
        let bytes = (len as u64 * 8).div_ceil(PAGE_BYTES) * PAGE_BYTES;
        let base = dsm
            .allocator()
            .alloc(bytes, PAGE_BYTES)
            .expect("out of global memory");
        Self::at(base, len)
    }

    /// View an existing allocation as an array.
    pub fn at(base: GlobalAddr, len: usize) -> Self {
        GlobalArray { base, len, elem: PhantomData }
    }

    /// Allocate with pages block-distributed across nodes, so each
    /// node's block-partitioned chunk of the array is homed
    /// locally (see `Dsm::alloc_blocked`).
    pub fn alloc_blocked<T: Transport, C: Coherence>(dsm: &Dsm<T, C>, len: usize) -> Self {
        let bytes = (len as u64 * 8).div_ceil(PAGE_BYTES) * PAGE_BYTES;
        let base = dsm.alloc_blocked(bytes).expect("out of global memory");
        Self::at(base, len)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn addr(&self, i: usize) -> GlobalAddr {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base.offset(i as u64 * 8)
    }

    #[inline]
    pub fn base(&self) -> GlobalAddr {
        self.base
    }

    #[inline]
    pub fn get<T: Transport, C: Coherence>(&self, ctx: &mut ArgoCtx<T, C>, i: usize) -> W {
        W::from_bits(ctx.read_u64(self.addr(i)))
    }

    #[inline]
    pub fn set<T: Transport, C: Coherence>(&self, ctx: &mut ArgoCtx<T, C>, i: usize, v: W) {
        ctx.write_u64(self.addr(i), v.to_bits())
    }
}

/// A dense row-major matrix of `f64` in global memory.
#[derive(Debug, Clone, Copy)]
pub struct GlobalMatrix {
    data: GlobalF64Array,
    rows: usize,
    cols: usize,
}

impl GlobalMatrix {
    pub fn alloc<T: Transport, C: Coherence>(dsm: &Dsm<T, C>, rows: usize, cols: usize) -> Self {
        GlobalMatrix {
            data: GlobalF64Array::alloc(dsm, rows * cols),
            rows,
            cols,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get<T: Transport, C: Coherence>(&self, ctx: &mut ArgoCtx<T, C>, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        self.data.get(ctx, r * self.cols + c)
    }

    #[inline]
    pub fn set<T: Transport, C: Coherence>(&self, ctx: &mut ArgoCtx<T, C>, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        self.data.set(ctx, r * self.cols + c, v)
    }

    /// The backing array (for bulk/row-wise access patterns).
    #[inline]
    pub fn array(&self) -> GlobalF64Array {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ArgoConfig, ArgoMachine};

    #[test]
    fn arrays_round_trip_values() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 1));
        let arr = GlobalF64Array::alloc(m.dsm(), 100);
        let report = m.run(move |ctx| {
            if ctx.tid() == 0 {
                for i in 0..100 {
                    arr.set(ctx, i, i as f64 * 1.5);
                }
            }
            ctx.barrier();
            (0..100).map(|i| arr.get(ctx, i)).sum::<f64>()
        });
        let expect: f64 = (0..100).map(|i| i as f64 * 1.5).sum();
        for r in report.results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn matrix_indexing_is_row_major() {
        let m = ArgoMachine::new(ArgoConfig::small(1, 1));
        let mat = GlobalMatrix::alloc(m.dsm(), 3, 4);
        let report = m.run(move |ctx| {
            mat.set(ctx, 1, 2, 42.0);
            mat.array().get(ctx, 4 + 2)
        });
        assert_eq!(report.results[0], 42.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let m = ArgoMachine::new(ArgoConfig::small(1, 1));
        let arr = GlobalU64Array::alloc(m.dsm(), 4);
        arr.addr(4);
    }

    #[test]
    fn allocations_are_page_aligned_and_disjoint() {
        let m = ArgoMachine::new(ArgoConfig::small(1, 1));
        let a = GlobalU64Array::alloc(m.dsm(), 10);
        let b = GlobalU64Array::alloc(m.dsm(), 10);
        assert_eq!(a.base().0 % PAGE_BYTES, 0);
        assert_eq!(b.base().0 % PAGE_BYTES, 0);
        assert!(b.base().0 >= a.base().0 + PAGE_BYTES);
    }
}
