//! Global addresses and their decomposition into pages and words.

use std::ops::Range;

/// Bytes per DSM page (the paper's granularity: a 4 KiB virtual page).
pub const PAGE_BYTES: u64 = 4096;
/// Bytes per atomic word of simulated DRAM.
pub(crate) const WORD_BYTES: u64 = 8;
/// Words per page.
pub const WORDS_PER_PAGE: usize = (PAGE_BYTES / WORD_BYTES) as usize;

/// How pages map to home nodes.
///
/// The paper's prototype interleaves ("node 0 serves the lower addresses …
/// a simplistic approach; more sophisticated data distribution schemes are
/// orthogonal … left for future work", §3). `Blocked` is the first such
/// scheme: contiguous page ranges per node, which aligns chunked workloads'
/// data with the threads that touch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HomePolicy {
    /// Page `p` lives on node `p mod N` (the paper's prototype).
    #[default]
    Interleaved,
    /// Node `k` serves pages `[k·P, (k+1)·P)` where `P` = pages per node.
    Blocked,
}

/// The page→home mapping for a concrete address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HomeMap {
    pub(crate) nodes: usize,
    pub(crate) pages_per_node: u64,
    pub(crate) policy: HomePolicy,
}

impl HomeMap {
    /// Home node of `page`.
    #[inline]
    pub(crate) fn home(&self, page: PageNum) -> u16 {
        match self.policy {
            HomePolicy::Interleaved => (page.0 % self.nodes as u64) as u16,
            HomePolicy::Blocked => {
                ((page.0 / self.pages_per_node).min(self.nodes as u64 - 1)) as u16
            }
        }
    }
}

/// A page number within the global address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageNum(pub u64);

/// A byte address in the global shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalAddr(pub u64);

impl GlobalAddr {
    #[inline]
    pub fn page(self) -> PageNum {
        PageNum(self.0 / PAGE_BYTES)
    }

    /// Byte offset within the page.
    #[inline]
    pub(crate) fn page_offset(self) -> u64 {
        self.0 % PAGE_BYTES
    }

    /// Word index within the page. The address must be word aligned.
    ///
    /// # Panics
    /// Panics on a misaligned address: simulated DRAM is word-atomic, and all
    /// typed accessors in `argo` produce aligned addresses.
    #[inline]
    pub fn word_index(self) -> usize {
        assert!(
            self.0.is_multiple_of(WORD_BYTES),
            "unaligned word access at global address {:#x}",
            self.0
        );
        (self.page_offset() / WORD_BYTES) as usize
    }

    #[inline]
    pub fn offset(self, bytes: u64) -> GlobalAddr {
        GlobalAddr(self.0 + bytes)
    }

    /// Split `len` consecutive words starting at `self` into per-page runs:
    /// each item is a run's first address and its index range in `0..len`.
    /// Bulk accessors do their per-page work once per item.
    pub fn page_runs(self, len: usize) -> impl Iterator<Item = (GlobalAddr, Range<usize>)> {
        let mut i = 0;
        std::iter::from_fn(move || {
            if i == len {
                return None;
            }
            let a = self.offset(i as u64 * WORD_BYTES);
            let run = (WORDS_PER_PAGE - a.word_index()).min(len - i);
            i += run;
            Some((a, i - run..i))
        })
    }
}

impl std::fmt::Display for GlobalAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_decomposition() {
        let a = GlobalAddr(2 * PAGE_BYTES + 24);
        assert_eq!(a.page(), PageNum(2));
        assert_eq!(a.page_offset(), 24);
        assert_eq!(a.word_index(), 3);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn word_index_rejects_misaligned() {
        GlobalAddr(13).word_index();
    }

    #[test]
    fn blocked_policy_maps_contiguous_ranges() {
        let m = HomeMap {
            nodes: 4,
            pages_per_node: 8,
            policy: HomePolicy::Blocked,
        };
        for p in 0..32u64 {
            assert_eq!(m.home(PageNum(p)) as u64, p / 8);
        }
        // Out-of-range pages clamp to the last node (defensive).
        assert_eq!(m.home(PageNum(100)), 3);
    }
}
