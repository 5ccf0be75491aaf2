//! Pyxis: the passive classification directory.
//!
//! A directory entry is nothing but four 64-bit words of home-node memory —
//! a 128-bit reader full map and a 128-bit writer full map. Requesting nodes
//! deposit their ID with a remote fetch-or (the paper uses MPI `Fetch&Add`)
//! and receive the updated maps; **no code ever runs at the home node**.
//!
//! Each node additionally keeps a *directory cache*: a local copy of every
//! remote entry it has consulted. When a node causes a classification
//! transition, it is that node's burden to notify the affected node(s) — by
//! remotely OR-ing the new bits into *their* directory caches (again plain
//! RDMA, no handler). The affected node observes the change at its next
//! synchronization or request: *deferred invalidation* (paper §3.4.1).
//!
//! Both are page-indexed tables of [`DirWords`] (`coherence::page_table`,
//! `coherence::NodePageTable`), zeroed where a run never touched them, so
//! a 128-node cluster over a large address space is resident only where
//! it consulted an entry.

use crate::classification::DirView;
use std::sync::atomic::{AtomicU64, Ordering};

/// One directory entry's storage: the reader map's low and high words,
/// then the writer map's — full maps for up to 128 nodes.
pub(crate) type DirWords = [AtomicU64; 4];

const READERS: usize = 0;
const WRITERS: usize = 2;

/// A directory entry: the operations on its four words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirEntry<'a>(pub(crate) &'a DirWords);

#[inline]
fn split(map: u128) -> (u64, u64) {
    (map as u64, (map >> 64) as u64)
}

#[inline]
fn join(lo: u64, hi: u64) -> u128 {
    lo as u128 | ((hi as u128) << 64)
}

impl DirEntry<'_> {
    fn load_map(self, map: usize) -> u128 {
        join(self.0[map].load(Ordering::Acquire), self.0[map + 1].load(Ordering::Acquire))
    }

    /// Decode the current maps.
    pub(crate) fn view(self) -> DirView {
        DirView { readers: self.load_map(READERS), writers: self.load_map(WRITERS) }
    }

    /// OR `bits` into `map`; returns the map from before, exactly (the
    /// fetch-or's own reply, not an earlier load a racer could slip past).
    fn or_map(self, map: usize, bits: u128) -> u128 {
        let (lo, hi) = split(bits);
        join(
            self.0[map].fetch_or(lo, Ordering::SeqCst),
            self.0[map + 1].fetch_or(hi, Ordering::SeqCst),
        )
    }

    /// Atomically OR `bits` into the reader map; returns the view before
    /// this update (what the initiating node uses to detect transitions).
    /// The other map is read *after* the fetch-or: of two nodes first
    /// touching a page at once, at least one then sees the other.
    pub(crate) fn or_readers(self, bits: u128) -> DirView {
        let readers = self.or_map(READERS, bits);
        DirView { readers, writers: self.or_map(WRITERS, 0) }
    }

    /// Atomically OR `bits` into the writer map; returns the prior view.
    pub(crate) fn or_writers(self, bits: u128) -> DirView {
        let writers = self.or_map(WRITERS, bits);
        DirView { readers: self.or_map(READERS, 0), writers }
    }

    /// OR both maps (remote notification of a transition).
    pub(crate) fn or_view(self, v: DirView) {
        if v.readers != 0 {
            self.or_readers(v.readers);
        }
        if v.writers != 0 {
            self.or_writers(v.writers);
        }
    }

    /// Reset to empty maps (end-of-initialization reset, paper §3.4). The
    /// only overwrite: between resets a view only grows, and any store of
    /// a value derived from an earlier load can erase a concurrent `or_*`.
    /// The stores are relaxed: resets run at quiescent points or, for a
    /// re-homed page, before the membership epoch's `AcqRel` bump, which
    /// an access that sees the new epoch acquires.
    pub(crate) fn reset(self) {
        mem::clear_nonzero(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classification::node_bit;

    #[test]
    fn or_returns_prior_view() {
        let words = DirWords::default();
        let e = DirEntry(&words);
        let before = e.or_readers(node_bit(3));
        assert_eq!(before.readers, 0);
        let before = e.or_readers(node_bit(70));
        assert_eq!(before.readers, node_bit(3));
        assert_eq!(e.view().readers, node_bit(3) | node_bit(70));
    }

    #[test]
    fn high_node_ids_use_second_word() {
        let words = DirWords::default();
        DirEntry(&words).or_writers(node_bit(127));
        assert_eq!(DirEntry(&words).view().writers, 1u128 << 127);
        assert_eq!(words[WRITERS + 1].load(Ordering::Relaxed), 1 << 63);
    }

    #[test]
    fn reset_empties_both_maps() {
        let words = DirWords::default();
        let e = DirEntry(&words);
        e.or_view(DirView { readers: node_bit(5), writers: node_bit(100) });
        assert_eq!(e.view(), DirView { readers: node_bit(5), writers: node_bit(100) });
        e.reset();
        assert_eq!(e.view(), DirView::default());
    }

    /// Two nodes first-touch one page at the same moment, one reading,
    /// one writing. Whoever's fetch-or lands second must see the other in
    /// its reply — if both came back blind, neither would notify the
    /// other, and both would keep the page as private for ever.
    #[test]
    fn concurrent_first_touches_are_never_both_blind() {
        use std::sync::{Arc, Barrier};
        const ROUNDS: usize = 20_000;
        let entries: Arc<[DirWords]> = mem::zeroed_slice(ROUNDS).into();
        let start = Arc::new(Barrier::new(2));
        let writer = {
            let (entries, start) = (entries.clone(), start.clone());
            std::thread::spawn(move || {
                entries
                    .iter()
                    .map(|e| {
                        start.wait();
                        DirEntry(e).or_writers(node_bit(5)).readers
                    })
                    .collect::<Vec<_>>()
            })
        };
        let reader_saw: Vec<u128> = entries
            .iter()
            .map(|e| {
                start.wait();
                DirEntry(e).or_readers(node_bit(2)).writers
            })
            .collect();
        let writer_saw = writer.join().unwrap();
        for (round, (r, w)) in reader_saw.iter().zip(&writer_saw).enumerate() {
            assert!(*r != 0 || *w != 0, "round {round}: neither first-toucher saw the other");
        }
    }

    #[test]
    fn concurrent_or_preserves_all_bits() {
        use std::sync::Arc;
        let words = Arc::new(DirWords::default());
        let handles: Vec<_> = (0..16u16)
            .map(|n| {
                let words = words.clone();
                std::thread::spawn(move || {
                    DirEntry(&words).or_readers(node_bit(n));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(DirEntry(&words).view().readers.count_ones(), 16);
    }
}
