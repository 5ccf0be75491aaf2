//! Global addresses and their decomposition into pages and words.

use std::ops::Range;

/// Bytes per DSM page (the paper's granularity: a 4 KiB virtual page).
pub const PAGE_BYTES: u64 = 4096;
/// Bytes per atomic word of simulated DRAM.
pub(crate) const WORD_BYTES: u64 = 8;
/// Words per page.
pub const WORDS_PER_PAGE: usize = (PAGE_BYTES / WORD_BYTES) as usize;

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
}
