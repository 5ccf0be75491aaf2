//! Collective allocation over the global address space.
//!
//! The paper's Argo initializes the shared virtual range on every node and
//! hands out addresses "using our own allocator" (§3). Because every node
//! maps the same range, allocation must yield identical addresses
//! everywhere; we achieve this with a single shared bump pointer.

use crate::addr::{GlobalAddr, PAGE_BYTES};
use crate::zeroed::{zeroed_slice, Arena};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone bump allocator over `[0, capacity_bytes)` of global memory.
///
/// There is no free: DSM applications in the paper allocate their shared
/// data structures once at startup. Allocation is thread-safe (CAS bump).
#[derive(Debug)]
pub struct GlobalAllocator {
    next: AtomicU64,
    capacity: u64,
    /// One bit per page: an allocation starts in it.
    starts: Arena<AtomicU64>,
}

/// Error returned when the global space is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfGlobalMemory {
    pub requested: u64,
    pub capacity: u64,
}

impl std::fmt::Display for OutOfGlobalMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of global memory: requested {} bytes from a {}-byte space",
            self.requested, self.capacity
        )
    }
}

impl std::error::Error for OutOfGlobalMemory {}

impl GlobalAllocator {
    pub fn new(capacity_bytes: u64) -> Self {
        let pages = capacity_bytes.div_ceil(PAGE_BYTES) as usize;
        GlobalAllocator {
            next: AtomicU64::new(0),
            capacity: capacity_bytes,
            starts: zeroed_slice(pages.div_ceil(64)),
        }
    }

    /// Allocate `bytes` with the given power-of-two alignment.
    pub fn alloc(&self, bytes: u64, align: u64) -> Result<GlobalAddr, OutOfGlobalMemory> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            let base = (cur + align - 1) & !(align - 1);
            let end = base + bytes;
            if end > self.capacity {
                return Err(OutOfGlobalMemory {
                    requested: bytes,
                    capacity: self.capacity,
                });
            }
            match self.next.compare_exchange_weak(
                cur,
                end,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // A page of it exists: `base` lies below `end`.
                    if bytes > 0 {
                        let page = (base / PAGE_BYTES) as usize;
                        self.starts[page / 64].fetch_or(1 << (page % 64), Ordering::Relaxed);
                    }
                    return Ok(GlobalAddr(base));
                }
                Err(c) => cur = c,
            }
        }
    }

    /// The high-water mark: the end of the last allocation, in bytes. No
    /// program data lies at or past it.
    pub fn high_water(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Whether an allocation starts in one of `pages`: a scan along the
    /// address space that crosses one leaves a data structure.
    pub fn starts_in(&self, pages: Range<u64>) -> bool {
        pages.into_iter().any(|p| {
            let word = self.starts.get(p as usize / 64);
            word.is_some_and(|w| w.load(Ordering::Relaxed) & (1 << (p % 64)) != 0)
        })
    }

    /// Allocate whole pages (page-aligned). Convenient for arrays that
    /// should not false-share pages with unrelated data.
    pub fn alloc_pages(&self, pages: u64) -> Result<GlobalAddr, OutOfGlobalMemory> {
        self.alloc(pages * PAGE_BYTES, PAGE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sequential_allocations_do_not_overlap() {
        let a = GlobalAllocator::new(1 << 20);
        let x = a.alloc(100, 8).unwrap();
        let y = a.alloc(100, 8).unwrap();
        assert!(y.0 >= x.0 + 100);
    }

    #[test]
    fn alignment_respected() {
        let a = GlobalAllocator::new(1 << 20);
        a.alloc(3, 1).unwrap();
        let x = a.alloc(16, 64).unwrap();
        assert_eq!(x.0 % 64, 0);
        let p = a.alloc_pages(2).unwrap();
        assert_eq!(p.0 % PAGE_BYTES, 0);
    }

    #[test]
    fn high_water_is_the_last_allocation_end() {
        let a = GlobalAllocator::new(1 << 20);
        assert_eq!(a.high_water(), 0);
        a.alloc(3, 1).unwrap();
        let p = a.alloc_pages(2).unwrap();
        assert_eq!(a.high_water(), p.0 + 2 * PAGE_BYTES);
    }

    #[test]
    fn starts_mark_the_page_an_allocation_begins_in() {
        let a = GlobalAllocator::new(1 << 20);
        a.alloc(3, 1).unwrap();
        let p = a.alloc_pages(2).unwrap().page().0;
        let q = a.alloc(8, 8).unwrap().page().0;
        assert_eq!((p, q), (1, 3));
        assert!(a.starts_in(0..1) && a.starts_in(1..2) && a.starts_in(3..4));
        assert!(!a.starts_in(2..3) && !a.starts_in(4..256) && !a.starts_in(300..310));
        // A full space still hands out an empty allocation, at its end.
        let full = GlobalAllocator::new(64 * PAGE_BYTES);
        full.alloc_pages(64).unwrap();
        assert_eq!(full.alloc(0, 8).unwrap(), GlobalAddr(64 * PAGE_BYTES));
    }

    #[test]
    fn exhaustion_reported() {
        let a = GlobalAllocator::new(PAGE_BYTES);
        assert!(a.alloc_pages(1).is_ok());
        let err = a.alloc(1, 1).unwrap_err();
        assert_eq!(err.capacity, PAGE_BYTES);
    }

    #[test]
    fn concurrent_allocations_are_disjoint() {
        use std::sync::Arc;
        let a = Arc::new(GlobalAllocator::new(1 << 24));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let a = a.clone();
                std::thread::spawn(move || {
                    (0..100).map(|_| a.alloc(64, 8).unwrap().0).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[1] - w[0] >= 64, "overlapping allocations");
        }
    }

    proptest! {
        #[test]
        fn prop_allocations_stay_in_bounds(
            sizes in proptest::collection::vec(1u64..5000, 1..50),
            align_pow in 0u32..7,
        ) {
            let cap = 1u64 << 18;
            let a = GlobalAllocator::new(cap);
            let align = 1u64 << align_pow;
            for s in sizes {
                if let Ok(addr) = a.alloc(s, align) {
                    prop_assert!(addr.0 % align == 0);
                    prop_assert!(addr.0 + s <= cap);
                }
            }
        }
    }
}
