//! Home storage for the global address space.
//!
//! Every node contributes an equal share of memory to the shared space
//! (paper §5). `GlobalMemory` owns the *home* copy of every page — the copy
//! that self-downgrades write back to and read misses fetch from.
//!
//! In the simulator all pages live in one flat store; *which node's memory
//! a page belongs to* is metadata (it determines timing: local vs remote
//! access) kept per page, interleaved at first (page `p` on node `p mod N`,
//! the paper's prototype) and adjustable per allocation (`set_home`) to
//! express distribution hints — the "more sophisticated data distribution
//! schemes" the paper leaves for future work. A hint is set before the page's first access; a page's
//! home never changes after that.

use crate::addr::{PageNum, PAGE_BYTES};
use crate::page::PageData;
use crate::zeroed::{zeroed_slice, Arena};
use std::sync::atomic::{AtomicU16, Ordering};

/// The home copies of all pages, with per-page home-node metadata.
#[derive(Debug)]
pub struct GlobalMemory {
    nodes: usize,
    /// `homes[page]` = node whose memory serves this page.
    homes: Vec<AtomicU16>,
    /// `store[page]` = the home copy: one zero-mapped arena (the split
    /// across nodes is expressed by `homes`), resident where written.
    store: Arena<PageData>,
}

impl GlobalMemory {
    /// Allocate a space of `nodes * bytes_per_node` bytes, page `p` homed
    /// on node `p mod nodes`. `bytes_per_node` is rounded up to whole pages.
    ///
    /// # Panics
    /// Panics if there are no nodes, or if the space's size in bytes
    /// overflows.
    pub fn new(nodes: usize, bytes_per_node: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        let pages_per_node = bytes_per_node.div_ceil(PAGE_BYTES);
        let total = u64::try_from(nodes)
            .ok()
            .and_then(|n| n.checked_mul(pages_per_node))
            .filter(|t| t.checked_mul(PAGE_BYTES).is_some())
            .and_then(|t| usize::try_from(t).ok())
            .unwrap_or_else(|| {
                panic!("a space of {nodes} nodes × {bytes_per_node} bytes overflows")
            });
        let store = zeroed_slice(total);
        GlobalMemory {
            nodes,
            homes: (0..total).map(|p| AtomicU16::new((p % nodes) as u16)).collect(),
            store,
        }
    }

    /// Total pages in the global space.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.store.len() as u64
    }

    /// Total bytes in the global space.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * PAGE_BYTES
    }

    /// Home node of a page.
    #[inline]
    pub fn home_of(&self, page: PageNum) -> u16 {
        self.homes[page.0 as usize].load(Ordering::Relaxed)
    }

    /// Re-home a page: a distribution hint, set before the page is first
    /// accessed through the coherence layer. No bytes move — the flat
    /// store is indexed by page number regardless of home metadata.
    pub fn set_home(&self, page: PageNum, node: u16) {
        assert!((node as usize) < self.nodes, "node {node} out of range");
        self.homes[page.0 as usize].store(node, Ordering::Relaxed);
    }

    /// The home copy of `page`.
    ///
    /// # Panics
    /// Panics if the page is outside the allocated space.
    #[inline]
    pub fn home_page(&self, page: PageNum) -> &PageData {
        &self.store[page.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_round_up_to_pages() {
        let g = GlobalMemory::new(4, PAGE_BYTES + 1);
        assert_eq!(g.total_pages(), 8);
        assert_eq!(g.total_bytes(), 8 * PAGE_BYTES);
    }

    #[test]
    fn home_pages_are_distinct_storage() {
        let g = GlobalMemory::new(2, 4 * PAGE_BYTES);
        g.home_page(PageNum(0)).store(0, 111);
        g.home_page(PageNum(1)).store(0, 222);
        assert_eq!(g.home_page(PageNum(0)).load(0), 111);
        assert_eq!(g.home_page(PageNum(1)).load(0), 222);
        assert_eq!(g.home_page(PageNum(2)).load(0), 0);
    }

    #[test]
    fn pages_interleave_across_nodes() {
        let g = GlobalMemory::new(3, 8 * PAGE_BYTES);
        for p in 0..g.total_pages() {
            assert_eq!(g.home_of(PageNum(p)), (p % 3) as u16);
        }
    }

    #[test]
    fn set_home_rehomes_metadata_not_data() {
        let g = GlobalMemory::new(4, 4 * PAGE_BYTES);
        g.home_page(PageNum(5)).store(0, 99);
        assert_eq!(g.home_of(PageNum(5)), 1); // interleaved default
        g.set_home(PageNum(5), 3);
        assert_eq!(g.home_of(PageNum(5)), 3);
        assert_eq!(g.home_page(PageNum(5)).load(0), 99); // data untouched
    }

    #[test]
    #[should_panic(expected = "4 nodes × 18446744073709551615 bytes overflows")]
    fn oversized_spaces_are_refused() {
        GlobalMemory::new(4, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_home_rejects_bad_node() {
        GlobalMemory::new(2, PAGE_BYTES).set_home(PageNum(0), 7);
    }
}
