//! Page data: 512 atomic 64-bit words of simulated DRAM.
//!
//! All data-plane loads and stores are `Relaxed`: ordering between nodes is
//! the job of the coherence protocol's fences (which synchronize through
//! acquire/release control structures), never of individual data words —
//! mirroring how real DRAM provides no ordering by itself.

use crate::addr::WORDS_PER_PAGE;
use std::sync::atomic::{AtomicU64, Ordering};

/// Words covered by one `WriteMask` bit word (one "chunk").
const CHUNK_WORDS: usize = 64;
/// `u64`s in a [`WriteMask`]: one bit per page word.
const MASK_WORDS: usize = WORDS_PER_PAGE / CHUNK_WORDS;

const _: () = assert!(WORDS_PER_PAGE.is_multiple_of(CHUNK_WORDS));

/// A 512-bit per-page write mask: bit `w` is set when word `w` of the page
/// was stored to since the page last went clean (or was re-armed) —
/// exactly the stored words, a store of the value already present
/// included. Under a data-race-free program no other node writes those
/// words in the epoch, so they are the page's diff by themselves
/// ([`PageData::masked_words`]). Bits are set on the DSM store fast path
/// and cleared when the page is downgraded or invalidated.
#[derive(Debug, Default)]
pub struct WriteMask {
    bits: [AtomicU64; MASK_WORDS],
}

impl WriteMask {
    /// An empty mask.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a store to `word`.
    ///
    /// Mutators must be externally serialized (the page's slot lock, which
    /// every DSM store path already holds): the atomics exist for interior
    /// mutability through `&self`, not for lock-free mutation, so the write
    /// fast path pays a load + store, never an RMW.
    #[inline]
    pub fn set(&self, word: usize) {
        self.cover(word, 1);
    }

    /// Record stores to `len` consecutive words starting at `first`, one
    /// mask-word update per touched chunk. Same external serialization
    /// contract as [`Self::set`].
    #[inline]
    pub fn cover(&self, first: usize, len: usize) {
        if len == 0 {
            return;
        }
        let last = first + len - 1;
        for chunk in first / CHUNK_WORDS..=last / CHUNK_WORDS {
            let lo = (first.max(chunk * CHUNK_WORDS)) % CHUNK_WORDS;
            let hi = (last.min(chunk * CHUNK_WORDS + CHUNK_WORDS - 1)) % CHUNK_WORDS;
            let bits = if hi - lo == CHUNK_WORDS - 1 {
                u64::MAX
            } else {
                ((1u64 << (hi - lo + 1)) - 1) << lo
            };
            let w = &self.bits[chunk];
            let cur = w.load(Ordering::Relaxed);
            if cur & bits != bits {
                // (not yet fully masked: a hot loop's re-store skips this)
                w.store(cur | bits, Ordering::Relaxed);
            }
        }
    }

    /// Reset every bit (page went clean).
    pub fn clear(&self) {
        for b in &self.bits {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// No bits set?
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|b| b.load(Ordering::Relaxed) == 0)
    }

    /// Number of set bits (words stored to).
    pub fn count(&self) -> usize {
        self.bits
            .iter()
            .map(|b| b.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

/// One 4 KiB page of word-atomic memory: exactly its words, so a slice of
/// pages is one flat arena ([`crate::zeroed_slice`]).
#[derive(Debug)]
#[repr(transparent)]
pub struct PageData {
    words: [AtomicU64; WORDS_PER_PAGE],
}

const _: () = assert!(
    std::mem::size_of::<PageData>() == crate::PAGE_BYTES as usize
        && std::mem::align_of::<PageData>() <= 16
);

impl PageData {
    /// A zeroed page.
    pub fn zeroed() -> Self {
        PageData { words: [const { AtomicU64::new(0) }; WORDS_PER_PAGE] }
    }

    #[inline]
    pub fn load(&self, word: usize) -> u64 {
        self.words[word].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn store(&self, word: usize, value: u64) {
        self.words[word].store(value, Ordering::Relaxed);
    }

    /// Load `out.len()` consecutive words starting at `first` into `out`.
    #[inline]
    pub fn load_run(&self, first: usize, out: &mut [u64]) {
        for (w, o) in self.words[first..first + out.len()].iter().zip(out) {
            *o = w.load(Ordering::Relaxed);
        }
    }

    /// Store `data` to the consecutive words starting at `first`.
    #[inline]
    pub fn store_run(&self, first: usize, data: &[u64]) {
        for (w, &v) in self.words[first..first + data.len()].iter().zip(data) {
            w.store(v, Ordering::Relaxed);
        }
    }

    /// Copy every word of `src` into `self` (an RDMA page transfer).
    ///
    /// Iterates the two word slices in lockstep so the loop carries no
    /// bounds checks — the bulk path shared by page fetches and full-page
    /// writebacks.
    pub fn copy_from(&self, src: &PageData) {
        for (dst, src) in self.words.iter().zip(src.words.iter()) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Hand `visit` every word `mask` covers, as `(index, value)` in
    /// ascending order — the one walk over a written page: the write-back
    /// posts exactly these words (DRF makes them the page's diff), and
    /// [`Self::diff_against_masked`] filters them.
    #[inline]
    pub fn masked_words(&self, mask: &WriteMask, mut visit: impl FnMut(usize, u64)) {
        for (chunk, bits) in mask.bits.iter().enumerate() {
            let base = chunk * CHUNK_WORDS;
            let mut bits = bits.load(Ordering::Relaxed);
            if bits == u64::MAX {
                // Fully-written chunk (the dense-workload steady state):
                // straight sweep, no per-bit extraction.
                for (w, v) in self.words[base..base + CHUNK_WORDS].iter().enumerate() {
                    visit(base + w, v.load(Ordering::Relaxed));
                }
                continue;
            }
            while bits != 0 {
                let w = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                visit(w, self.load(w));
            }
        }
    }

    /// The masked words whose value differs from `twin`, as `(index,
    /// new_value)` pairs: the paper's diff against a twin copy (§3.2),
    /// taken over [`Self::masked_words`].
    pub fn diff_against_masked(&self, twin: &PageData, mask: &WriteMask) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        self.masked_words(mask, |w, v| {
            if v != twin.load(w) {
                out.push((w, v));
            }
        });
        out
    }
}

impl crate::zeroed::sealed::Sealed for PageData {
    fn clear(&self) {
        crate::clear_nonzero(&self.words);
    }
    fn all_zero(cells: &[Self]) -> bool {
        cells.iter().all(|page| crate::zeroed::all_zero(&page.words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-page diff against a twin: the reference the masked walk is
    /// checked against.
    fn diff_against(page: &PageData, twin: &PageData) -> Vec<(usize, u64)> {
        (0..WORDS_PER_PAGE)
            .map(|w| (w, page.load(w)))
            .filter(|&(w, v)| v != twin.load(w))
            .collect()
    }

    /// A fresh copy of `page`.
    fn twin_of(page: &PageData) -> PageData {
        let twin = PageData::zeroed();
        twin.copy_from(page);
        twin
    }

    /// The word indices `mask` covers, ascending.
    fn masked(mask: &WriteMask) -> Vec<usize> {
        let mut out = Vec::new();
        PageData::zeroed().masked_words(mask, |w, _| out.push(w));
        out
    }

    #[test]
    fn zeroed_page_is_zero() {
        let p = PageData::zeroed();
        assert_eq!(p.load(0), 0);
        assert_eq!(p.load(WORDS_PER_PAGE - 1), 0);
    }

    #[test]
    fn f64_round_trips() {
        use crate::Word;
        let p = PageData::zeroed();
        p.store(7, Word::to_bits(-3.25f64));
        assert_eq!(<f64 as Word>::from_bits(p.load(7)), -3.25);
        p.store(7, Word::to_bits(f64::NEG_INFINITY));
        assert_eq!(<f64 as Word>::from_bits(p.load(7)), f64::NEG_INFINITY);
    }

    #[test]
    fn copy_replicates_all_words() {
        let a = PageData::zeroed();
        a.store(0, 1);
        a.store(511, 2);
        let b = PageData::zeroed();
        b.copy_from(&a);
        assert_eq!(b.load(0), 1);
        assert_eq!(b.load(511), 2);
    }

    #[test]
    fn diff_finds_only_changed_words() {
        let p = PageData::zeroed();
        let twin = twin_of(&p);
        p.store(3, 42);
        p.store(100, 7);
        assert_eq!(diff_against(&p, &twin), vec![(3, 42), (100, 7)]);
    }

    #[test]
    fn mask_set_records_each_stored_word() {
        let m = WriteMask::new();
        m.set(5);
        m.set(5); // a repeat store
        m.set(63);
        m.set(64);
        assert_eq!(masked(&m), vec![5, 63, 64]);
        assert_eq!(m.count(), 3);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn cover_marks_runs() {
        let m = WriteMask::new();
        m.cover(60, 10); // spans chunks 0 and 1
        assert_eq!(masked(&m), (60..70).collect::<Vec<_>>());
        m.cover(0, 128); // full chunks
        assert_eq!(masked(&m), (0..128).collect::<Vec<_>>());
        m.cover(0, 0);
        assert_eq!(m.count(), 128);
    }

    proptest! {
        #[test]
        fn prop_diff_of_identical_is_empty(seed in any::<u64>()) {
            let p = PageData::zeroed();
            p.store((seed % 512) as usize, seed);
            let twin = twin_of(&p);
            prop_assert!(diff_against(&p, &twin).is_empty());
        }

        #[test]
        fn prop_masked_diff_equals_full_diff(
            writes in proptest::collection::vec((0usize..WORDS_PER_PAGE, any::<u64>()), 0..96),
            extra_mask in proptest::collection::vec(0usize..WORDS_PER_PAGE, 0..32),
        ) {
            // Populate a page with arbitrary prior contents, twin it, then
            // apply an arbitrary write set while maintaining the mask the
            // way the store fast path does. Extra mask bits on unwritten
            // words model stores of unchanged values: filtered against the
            // twin, the masked walk must still equal the full diff.
            let page = PageData::zeroed();
            for &(w, v) in &writes {
                page.store(w, v.rotate_left(17));
            }
            let twin = twin_of(&page);
            let mask = WriteMask::new();
            for &(w, v) in &writes {
                mask.set(w);
                page.store(w, v);
            }
            for &w in &extra_mask {
                mask.set(w);
            }
            prop_assert_eq!(
                page.diff_against_masked(&twin, &mask),
                diff_against(&page, &twin)
            );
        }
    }
}
