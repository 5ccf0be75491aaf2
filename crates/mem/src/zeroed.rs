//! Zero-initialised shared state that costs what a run touches.
//!
//! Real Argo's global memory is one MPI-3 window per node and its page
//! cache an mmap'd region, so the OS backs both lazily, one frame per page
//! touched. [`zeroed_slice`], the one allocator of such state here, keeps
//! two rules:
//!
//! - **Lazily mapped.** It is `calloc` (`alloc_zeroed`, alignment ≤ 16),
//!   which glibc serves above its mmap threshold with untouched mappings.
//!   Freeing a mapped chunk of up to 32 MiB raises that threshold from
//!   128 KiB to the chunk's size, and a rebuilt machine's arenas would then
//!   come from recycled heap, cleared eagerly; so a request of ≥ 128 KiB
//!   is made ≥ 32 MiB, address space never touched.
//! - **A page-sized element starts on an OS-page boundary.** `calloc`
//!   returns a pointer 16 bytes past one, so a lone 4 KiB
//!   [`crate::PageData`] would cost two frames. Such an arena gets a page
//!   of slack and starts at the first boundary in it (an aligned `Layout`
//!   would be cleared eagerly).
//!
//! The home store, the page caches' arenas and the policies' page-indexed
//! tables are [`Arena`]s; resets go through [`clear_nonzero`], which
//! stores only where a run stored.

use crate::PAGE_BYTES;
use std::alloc::Layout;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

pub(crate) mod sealed {
    /// Back to all-zero bytes, storing only to nonzero words: a store to a
    /// never-touched page would make it resident, a load maps the shared
    /// zero page.
    pub trait Sealed {
        fn clear(&self);
        /// Is every cell of `cells` zero? One slice at a time, so the
        /// loop is compiled here, at this crate's optimisation level.
        fn all_zero(cells: &[Self]) -> bool
        where
            Self: Sized;
    }

    /// What [`super::zeroed_slice`] allocates: every [`super::Zeroed`]
    /// type, and the page caches' slot and metadata cells, which only a
    /// slot's lock holder changes.
    ///
    /// # Safety
    /// All-zero bytes must be a valid `Self`.
    pub unsafe trait ZeroValid {}
}

/// A type whose all-zero bytes are a valid value: `AtomicU64`,
/// `AtomicI64`, [`crate::PageData`] and arrays of these, and sealed to
/// those.
///
/// # Safety
/// All-zero bytes must be a valid `Self`.
pub unsafe trait Zeroed: sealed::Sealed {}

// SAFETY: `Zeroed` promises the same.
unsafe impl<T: Zeroed> sealed::ZeroValid for T {}

macro_rules! zeroed_atomics {
    ($($atomic:ty),*) => {$(
        impl sealed::Sealed for $atomic {
            #[inline]
            fn clear(&self) {
                if self.load(Ordering::Relaxed) != 0 {
                    self.store(0, Ordering::Relaxed);
                }
            }
            fn all_zero(cells: &[Self]) -> bool {
                cells.iter().all(|c| c.load(Ordering::Relaxed) == 0)
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
    fn all_zero(cells: &[Self]) -> bool {
        A::all_zero(cells.as_flattened())
    }
}
// SAFETY: an array is its elements, and all-zero bytes are each of them.
unsafe impl<A: Zeroed, const N: usize> Zeroed for [A; N] {}

/// The OS page, which page-sized elements are aligned to.
const OS_PAGE: usize = PAGE_BYTES as usize;
/// glibc's initial mmap threshold, and the most it rises to (64-bit).
const MMAP_THRESHOLD: usize = 128 << 10;
const MMAP_THRESHOLD_MAX: usize = 32 << 20;

/// `len` zeroed `T`s in one allocation that the OS backs lazily: what
/// [`zeroed_slice`] returns, a `[T]` by `Deref`.
#[derive(Debug)]
pub struct Arena<T> {
    /// The first element: on an OS-page boundary if `T` is page-sized.
    first: NonNull<T>,
    len: usize,
    /// What `alloc_zeroed` returned for `layout` (dangling if zero-sized).
    block: NonNull<u8>,
    layout: Layout,
}

// SAFETY: an arena owns its elements, as a `Box<[T]>` does.
unsafe impl<T: Send> Send for Arena<T> {}
// SAFETY: as above; a shared arena hands out only `&[T]`.
unsafe impl<T: Sync> Sync for Arena<T> {}

impl<T> Deref for Arena<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `first` starts `len` initialised `T`s inside `block`,
        // which lives as long as `self`.
        unsafe { std::slice::from_raw_parts(self.first.as_ptr(), self.len) }
    }
}

impl<T> Drop for Arena<T> {
    fn drop(&mut self) {
        if self.layout.size() != 0 {
            // SAFETY: `block` came from `alloc_zeroed(layout)`, and a `T`
            // needs no drop (`zeroed_slice` asserts it).
            unsafe { std::alloc::dealloc(self.block.as_ptr(), self.layout) }
        }
    }
}

/// `n` zeroed `T`s in one allocation that the OS backs lazily; a
/// page-sized `T` starts on an OS-page boundary.
///
/// # Panics
/// Panics if `n` `T`s, plus a page of padding for a page-sized `T`,
/// exceed `isize::MAX` bytes.
pub fn zeroed_slice<T: sealed::ZeroValid>(n: usize) -> Arena<T> {
    // Above 16, `alloc_zeroed` leaves `calloc` for an aligned allocation
    // that it clears eagerly.
    const { assert!(std::mem::align_of::<T>() <= 16 && !std::mem::needs_drop::<T>()) };
    let size = std::mem::size_of::<T>();
    let paged = size.is_multiple_of(OS_PAGE);
    let layout = Layout::array::<T>(n).and_then(|array| {
        let slack = if paged && array.size() > 0 { OS_PAGE } else { 0 };
        let bytes = array.size().saturating_add(slack);
        let bytes = if bytes >= MMAP_THRESHOLD { bytes.max(MMAP_THRESHOLD_MAX) } else { bytes };
        Layout::from_size_align(bytes, array.align())
    });
    let layout = layout.unwrap_or_else(|e| panic!("{n} elements of {size} bytes: {e}"));
    if layout.size() == 0 {
        return Arena { first: NonNull::dangling(), len: n, block: NonNull::dangling(), layout };
    }
    // SAFETY: `layout` is not zero-sized.
    let block = unsafe { std::alloc::alloc_zeroed(layout) };
    let Some(block) = NonNull::new(block) else { std::alloc::handle_alloc_error(layout) };
    let at = block.as_ptr().addr();
    let skip = if paged { at.next_multiple_of(OS_PAGE) - at } else { 0 };
    // SAFETY: `skip` is less than the page of padding a paged layout
    // carries, and all-zero `T`s from there on are valid (`ZeroValid`).
    let first = unsafe { block.add(skip) }.cast::<T>();
    Arena { first, len: n, block, layout }
}

/// Return every cell of `cells` to zero, storing only where one is not.
pub fn clear_nonzero<T: Zeroed>(cells: &[T]) {
    for c in cells {
        c.clear();
    }
}

/// Is every cell of `cells` zero? (Loads map a never-touched page's zero
/// frame, which is not resident.)
pub fn all_zero<T: Zeroed>(cells: &[T]) -> bool {
    T::all_zero(cells)
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
        assert!(!all_zero(&pages));
        clear_nonzero(&pages);
        assert_eq!(pages[1].load(511), 0);
        let quads = zeroed_slice::<[AtomicU64; 4]>(8);
        quads[7][3].store(u64::MAX, Ordering::Relaxed);
        quads[0][0].store(1, Ordering::Relaxed);
        assert!(!all_zero(&quads));
        clear_nonzero(&quads);
        assert!(quads.iter().flatten().all(|w| w.load(Ordering::Relaxed) == 0));
        assert!(all_zero(&quads) && all_zero(&pages) && all_zero(&cells));
    }

    /// This process's resident set in KiB (`VmRSS` of `/proc/self/status`).
    #[cfg(target_os = "linux")]
    fn rss_kib() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("reading status");
        let kib = status.lines().find_map(|line| line.strip_prefix("VmRSS:"));
        kib.and_then(|k| k.split_whitespace().next()?.parse().ok()).expect("no VmRSS line")
    }

    /// Built twice, the second time after freeing a mapped 16 MiB chunk,
    /// which raises glibc's mmap threshold past a 4 MiB arena, and 40 MiB
    /// of written heap blocks, which the heap gives back to the OS but
    /// would clear again for a `calloc` it serves: both builds must stay
    /// aligned and lazy.
    #[test]
    #[cfg(target_os = "linux")]
    fn page_arenas_start_on_a_page_and_cost_nothing_untouched() {
        const PAGES: usize = 16 << 10; // 64 MiB
        const WORDS: usize = 512 << 10; // 4 MiB
        for build in 1..=2 {
            let before = rss_kib();
            let (pages, words) = (zeroed_slice::<PageData>(PAGES), zeroed_slice::<AtomicU64>(WORDS));
            let grown = rss_kib().saturating_sub(before);
            assert!(grown < 1024, "build {build}: untouched arenas made {grown} KiB resident");
            let small = zeroed_slice::<PageData>(3);
            for page in [&pages[0], &pages[1], &pages[PAGES - 1], &small[0], &small[2]] {
                let at = std::ptr::from_ref(page).addr();
                assert_eq!(at % OS_PAGE, 0, "build {build}: a page at {at:#x}");
            }
            drop((pages, words));
            drop(std::hint::black_box(vec![0u8; 16 << 20]));
            let blocks: Vec<Box<[u8]>> = (0..40).map(|_| vec![1u8; 1 << 20].into()).collect();
            drop(std::hint::black_box(blocks));
        }
    }
}
