//! Page data: 512 atomic 64-bit words of simulated DRAM.
//!
//! All data-plane loads and stores are `Relaxed`: ordering between nodes is
//! the job of the coherence protocol's fences (which synchronize through
//! acquire/release control structures), never of individual data words —
//! mirroring how real DRAM provides no ordering by itself.

use crate::addr::WORDS_PER_PAGE;
use std::sync::atomic::{AtomicU64, Ordering};

/// Words covered by one `WriteMask` bit word (one "chunk").
pub const CHUNK_WORDS: usize = 64;
/// `u64`s in a [`WriteMask`]: one bit per page word.
pub const MASK_WORDS: usize = WORDS_PER_PAGE / CHUNK_WORDS;

const _: () = assert!(WORDS_PER_PAGE.is_multiple_of(CHUNK_WORDS));

/// A 512-bit per-page write mask: bit `w` is set when word `w` of the page
/// has (possibly) been stored to since the page last went clean.
///
/// The mask is a cheap *superset* of the changed words — a store of the
/// value already present still sets its bit — so it can prune the diff scan
/// ([`PageData::diff_against_masked`]) without ever hiding a real change.
/// Bits are set on the DSM store fast path and cleared when the page is
/// downgraded or invalidated.
#[derive(Debug, Default)]
pub struct WriteMask {
    bits: [AtomicU64; MASK_WORDS],
}

impl WriteMask {
    /// An empty mask.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a store to `word`. Returns `true` when this is the first bit
    /// set in the word's 64-word chunk — the caller's cue to lazily
    /// materialize that chunk of the twin before the store lands.
    ///
    /// Mutators must be externally serialized (the page's slot lock, which
    /// every DSM store path already holds): the atomics exist for interior
    /// mutability through `&self`, not for lock-free mutation, so the write
    /// fast path pays a load + store, never an RMW.
    #[inline]
    pub fn set(&self, word: usize) -> bool {
        let bit = 1u64 << (word % CHUNK_WORDS);
        let w = &self.bits[word / CHUNK_WORDS];
        let cur = w.load(Ordering::Relaxed);
        if cur & bit != 0 {
            return false;
        }
        w.store(cur | bit, Ordering::Relaxed);
        cur == 0
    }

    /// Record stores to `len` consecutive words starting at `first` — the
    /// bulk counterpart of [`Self::set`], one mask-word update per touched
    /// chunk. Invokes `on_new_chunk(chunk)` for each chunk whose mask word
    /// was previously empty, *before* the caller's stores land, so lazy
    /// twin chunks can be materialized from pre-store values. Same external
    /// serialization contract as [`Self::set`].
    pub fn cover(&self, first: usize, len: usize, mut on_new_chunk: impl FnMut(usize)) {
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
            if cur & bits == bits {
                continue; // fully masked already (hot-loop re-store)
            }
            if cur == 0 {
                on_new_chunk(chunk);
            }
            w.store(cur | bits, Ordering::Relaxed);
        }
    }

    /// Whether the bit for `word` is set.
    #[inline]
    pub fn is_set(&self, word: usize) -> bool {
        self.bits[word / CHUNK_WORDS].load(Ordering::Relaxed) & (1u64 << (word % CHUNK_WORDS)) != 0
    }

    /// The 64-bit chunk of mask bits covering words
    /// `[chunk * CHUNK_WORDS, (chunk + 1) * CHUNK_WORDS)`.
    #[inline]
    pub fn chunk(&self, chunk: usize) -> u64 {
        self.bits[chunk].load(Ordering::Relaxed)
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

    /// Number of set bits (words possibly written).
    pub fn count(&self) -> usize {
        self.bits
            .iter()
            .map(|b| b.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

/// One 4 KiB page of word-atomic memory.
#[derive(Debug)]
pub struct PageData {
    words: Box<[AtomicU64]>,
}

impl PageData {
    /// A zeroed page. Allocated as a plain `u64` buffer so the allocator's
    /// zeroed-memory fast path applies — this sits on the write-fault path
    /// (twin allocation), where a per-word constructor loop shows up.
    pub fn zeroed() -> Self {
        let raw: Box<[u64]> = vec![0u64; WORDS_PER_PAGE].into_boxed_slice();
        // SAFETY: AtomicU64 has the same size and alignment as u64
        // (guaranteed by std), and all-zero bytes are a valid AtomicU64.
        let words = unsafe { Box::from_raw(Box::into_raw(raw) as *mut [AtomicU64]) };
        PageData { words }
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

    /// Copy the 64-word chunk `chunk` of `src` into `self` — lazy twin
    /// materialization copies only the chunks the writer actually touches.
    pub fn copy_chunk_from(&self, src: &PageData, chunk: usize) {
        let lo = chunk * CHUNK_WORDS;
        let hi = lo + CHUNK_WORDS;
        for (dst, src) in self.words[lo..hi].iter().zip(src.words[lo..hi].iter()) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Fill with zeroes.
    pub fn clear(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Words where `self` differs from `twin`, as `(index, new_value)` pairs
    /// — the paper's diff creation against a twin copy (§3.2), used to
    /// downgrade multiple-writer pages without clobbering concurrent writers
    /// of *other* words (false sharing).
    pub fn diff_against(&self, twin: &PageData) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for w in 0..WORDS_PER_PAGE {
            let v = self.load(w);
            if v != twin.load(w) {
                out.push((w, v));
            }
        }
        out
    }

    /// [`Self::diff_against`] pruned by a write mask: visits only words whose
    /// mask bit is set. Because the mask is a superset of the changed words
    /// (every store sets its bit before any diff can run), this produces the
    /// *identical* diff — same words, same ascending order — at O(written)
    /// cost instead of O(page).
    ///
    /// When the mask's chunks are lazily twinned, `twin` is only meaningful
    /// inside masked chunks; this never reads outside them.
    pub fn diff_against_masked(&self, twin: &PageData, mask: &WriteMask) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for chunk in 0..MASK_WORDS {
            let mut bits = mask.chunk(chunk);
            if bits == u64::MAX {
                // Fully-written chunk (the dense-workload steady state):
                // straight sweep, no per-bit extraction.
                for w in chunk * CHUNK_WORDS..(chunk + 1) * CHUNK_WORDS {
                    let v = self.load(w);
                    if v != twin.load(w) {
                        out.push((w, v));
                    }
                }
                continue;
            }
            while bits != 0 {
                let w = chunk * CHUNK_WORDS + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = self.load(w);
                if v != twin.load(w) {
                    out.push((w, v));
                }
            }
        }
        out
    }

    /// Apply a diff produced by [`Self::diff_against`].
    pub fn apply_diff(&self, diff: &[(usize, u64)]) {
        for &(w, v) in diff {
            self.store(w, v);
        }
    }

    /// Snapshot into a fresh page (twin creation on first write miss).
    /// Builds the twin directly from the source words — no zeroed
    /// intermediate page that every word would then overwrite.
    pub fn snapshot(&self) -> PageData {
        PageData {
            words: self
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl Default for PageData {
    fn default() -> Self {
        Self::zeroed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let twin = p.snapshot();
        p.store(3, 42);
        p.store(100, 7);
        let d = p.diff_against(&twin);
        assert_eq!(d, vec![(3, 42), (100, 7)]);
    }

    #[test]
    fn diff_merges_nonoverlapping_writers() {
        // The false-sharing scenario diffs exist for: two nodes write
        // disjoint words of the same page; applying both diffs at home
        // preserves both updates.
        let home = PageData::zeroed();
        let twin_a = home.snapshot();
        let twin_b = home.snapshot();
        let copy_a = home.snapshot();
        let copy_b = home.snapshot();
        copy_a.store(1, 11);
        copy_b.store(2, 22);
        home.apply_diff(&copy_a.diff_against(&twin_a));
        home.apply_diff(&copy_b.diff_against(&twin_b));
        assert_eq!(home.load(1), 11);
        assert_eq!(home.load(2), 22);
    }

    #[test]
    fn mask_set_reports_first_touch_per_chunk() {
        let m = WriteMask::new();
        assert!(m.set(5), "first bit in chunk 0");
        assert!(!m.set(5), "repeat store");
        assert!(!m.set(63), "same chunk, different word");
        assert!(m.set(64), "first bit in chunk 1");
        assert!(m.is_set(5));
        assert!(m.is_set(64));
        assert!(!m.is_set(6));
        assert_eq!(m.count(), 3);
        m.clear();
        assert!(m.is_empty());
        assert!(m.set(5), "cleared mask treats chunk as fresh again");
    }

    #[test]
    fn cover_marks_runs_and_reports_fresh_chunks() {
        let m = WriteMask::new();
        let mut fresh = Vec::new();
        m.cover(60, 10, |c| fresh.push(c)); // spans chunks 0 and 1
        assert_eq!(fresh, vec![0, 1]);
        for w in 60..70 {
            assert!(m.is_set(w));
        }
        assert!(!m.is_set(59));
        assert!(!m.is_set(70));
        assert_eq!(m.count(), 10);
        fresh.clear();
        m.cover(0, 128, |c| fresh.push(c)); // full chunks, already touched
        assert_eq!(fresh, Vec::<usize>::new());
        assert_eq!(m.count(), 128);
        m.cover(0, 0, |_| panic!("empty cover must not touch chunks"));
    }

    #[test]
    fn masked_diff_skips_unmasked_chunks_entirely() {
        // Lazy twinning leaves untouched chunks of the twin as garbage;
        // the masked diff must never look at them.
        let p = PageData::zeroed();
        let twin = PageData::zeroed();
        let mask = WriteMask::new();
        // Chunk 7 of the twin is "garbage" (differs from p) but unmasked.
        twin.store(7 * CHUNK_WORDS + 3, 999);
        mask.set(10);
        p.store(10, 1);
        twin.copy_chunk_from(&p, 0); // then diverge word 10
        twin.store(10, 0);
        assert_eq!(p.diff_against_masked(&twin, &mask), vec![(10, 1)]);
    }

    proptest! {
        #[test]
        fn prop_diff_apply_reconstructs(
            writes in proptest::collection::vec((0usize..WORDS_PER_PAGE, any::<u64>()), 0..64)
        ) {
            let original = PageData::zeroed();
            let twin = original.snapshot();
            let modified = original.snapshot();
            for &(w, v) in &writes {
                modified.store(w, v);
            }
            // Applying the diff to a fresh copy of the original must equal
            // the modified page.
            let target = original.snapshot();
            target.apply_diff(&modified.diff_against(&twin));
            for w in 0..WORDS_PER_PAGE {
                prop_assert_eq!(target.load(w), modified.load(w));
            }
        }

        #[test]
        fn prop_diff_of_identical_is_empty(seed in any::<u64>()) {
            let p = PageData::zeroed();
            p.store((seed % 512) as usize, seed);
            let twin = p.snapshot();
            prop_assert!(p.diff_against(&twin).is_empty());
        }

        #[test]
        fn prop_masked_diff_equals_full_diff(
            writes in proptest::collection::vec((0usize..WORDS_PER_PAGE, any::<u64>()), 0..96),
            extra_mask in proptest::collection::vec(0usize..WORDS_PER_PAGE, 0..32),
        ) {
            // Populate a page with arbitrary prior contents, twin it, then
            // apply an arbitrary write set while maintaining the mask the
            // way the store fast path does. Extra mask bits on unwritten
            // words model the superset property (e.g. stores of unchanged
            // values): the masked diff must still equal the full diff.
            let page = PageData::zeroed();
            for &(w, v) in &writes {
                page.store(w, v.rotate_left(17));
            }
            let twin = page.snapshot();
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
                page.diff_against(&twin)
            );
        }
    }
}
