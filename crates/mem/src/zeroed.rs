//! Zero-initialised shared state that costs what a run touches.
//!
//! Real Argo's global memory is one MPI-3 window per node and its page
//! cache an mmap'd region, so the OS backs both lazily. [`zeroed_slice`]
//! gives this reproduction the same property: it allocates through
//! `alloc_zeroed`, and glibc's `calloc` serves a large request with fresh,
//! untouched mappings, so a page of the slice becomes resident only when
//! something first stores to it. The home store, every page-cache arena
//! and the policies' page-indexed tables are such slices; their resets go
//! through [`clear_nonzero`], which stores only where a run stored.

use std::alloc::Layout;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

pub(crate) mod sealed {
    /// Back to all-zero bytes, storing only to nonzero words: a store to a
    /// never-touched page would make it resident, a load maps the shared
    /// zero page.
    pub trait Sealed {
        fn clear(&self);
    }
}

/// A type whose all-zero bytes are a valid value: `AtomicU64`,
/// `AtomicI64`, [`crate::PageData`] and arrays of these, and sealed to
/// those.
///
/// # Safety
/// All-zero bytes must be a valid `Self`.
pub unsafe trait Zeroed: sealed::Sealed {}

macro_rules! zeroed_atomics {
    ($($atomic:ty),*) => {$(
        impl sealed::Sealed for $atomic {
            #[inline]
            fn clear(&self) {
                if self.load(Ordering::Relaxed) != 0 {
                    self.store(0, Ordering::Relaxed);
                }
            }
        }
        // SAFETY: an atomic integer is its integer, and zero is one.
        unsafe impl Zeroed for $atomic {}
    )*};
}
zeroed_atomics!(AtomicU64, AtomicI64);

// SAFETY: `PageData` is `#[repr(transparent)]` over `[AtomicU64; _]`.
unsafe impl Zeroed for crate::PageData {}

impl<A: Zeroed, const N: usize> sealed::Sealed for [A; N] {
    #[inline]
    fn clear(&self) {
        clear_nonzero(self);
    }
}
// SAFETY: an array is its elements, and all-zero bytes are each of them.
unsafe impl<A: Zeroed, const N: usize> Zeroed for [A; N] {}

/// `n` zeroed `T`s in one allocation that the OS backs lazily.
///
/// # Panics
/// Panics if `n` `T`s exceed `isize::MAX` bytes.
pub fn zeroed_slice<T: Zeroed>(n: usize) -> Box<[T]> {
    // Above 16, `alloc_zeroed` leaves `calloc` for an aligned allocation
    // that it clears eagerly.
    const { assert!(std::mem::align_of::<T>() <= 16) };
    if let Err(e) = Layout::array::<T>(n) {
        panic!("{n} elements of {} bytes: {e}", std::mem::size_of::<T>());
    }
    // SAFETY: `T: Zeroed`, so the zeroed elements are initialised.
    unsafe { Box::<[T]>::new_zeroed_slice(n).assume_init() }
}

/// Return every cell of `cells` to zero, storing only where one is not.
pub fn clear_nonzero<T: Zeroed>(cells: &[T]) {
    for c in cells {
        c.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageData;

    #[test]
    fn every_zeroed_type_comes_back_zero() {
        let words = zeroed_slice::<AtomicU64>(1000);
        assert!(words.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        let signed = zeroed_slice::<AtomicI64>(1000);
        assert!(signed.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        let pages = zeroed_slice::<PageData>(3);
        assert!(pages
            .iter()
            .all(|p| (0..crate::WORDS_PER_PAGE).all(|w| p.load(w) == 0)));
        let quads = zeroed_slice::<[AtomicU64; 4]>(1000);
        assert!(quads.iter().flatten().all(|w| w.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn empty_slices_allocate_nothing() {
        assert!(zeroed_slice::<AtomicU64>(0).is_empty());
        assert!(zeroed_slice::<AtomicI64>(0).is_empty());
        assert!(zeroed_slice::<PageData>(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "4096 bytes")]
    fn oversized_slices_are_refused() {
        zeroed_slice::<PageData>(usize::MAX / 4096);
    }

    #[test]
    fn clear_nonzero_zeroes_what_was_stored() {
        let cells = zeroed_slice::<AtomicI64>(64);
        cells[3].store(-5, Ordering::Relaxed);
        cells[63].store(9, Ordering::Relaxed);
        clear_nonzero(&cells);
        assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 0));
        let pages = zeroed_slice::<PageData>(2);
        pages[1].store(511, 7);
        clear_nonzero(&pages);
        assert_eq!(pages[1].load(511), 0);
        let quads = zeroed_slice::<[AtomicU64; 4]>(8);
        quads[7][3].store(u64::MAX, Ordering::Relaxed);
        quads[0][0].store(1, Ordering::Relaxed);
        clear_nonzero(&quads);
        assert!(quads.iter().flatten().all(|w| w.load(Ordering::Relaxed) == 0));
    }
}
