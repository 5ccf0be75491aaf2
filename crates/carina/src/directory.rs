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

use crate::classification::DirView;
use mem::PageNum;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// One directory entry: reader and writer full maps for up to 128 nodes.
#[derive(Debug, Default)]
pub(crate) struct DirEntry {
    readers: [AtomicU64; 2],
    writers: [AtomicU64; 2],
}

#[inline]
fn split(map: u128) -> (u64, u64) {
    (map as u64, (map >> 64) as u64)
}

#[inline]
fn join(lo: u64, hi: u64) -> u128 {
    lo as u128 | ((hi as u128) << 64)
}

impl DirEntry {
    /// Decode the current maps.
    pub(crate) fn view(&self) -> DirView {
        DirView {
            readers: join(
                self.readers[0].load(Ordering::Acquire),
                self.readers[1].load(Ordering::Acquire),
            ),
            writers: join(
                self.writers[0].load(Ordering::Acquire),
                self.writers[1].load(Ordering::Acquire),
            ),
        }
    }

    /// OR `bits` into `map`; returns the map from before, exactly (the
    /// fetch-or's own reply, not an earlier load a racer could slip past).
    fn or_map(map: &[AtomicU64; 2], bits: u128) -> u128 {
        let (lo, hi) = split(bits);
        join(map[0].fetch_or(lo, Ordering::SeqCst), map[1].fetch_or(hi, Ordering::SeqCst))
    }

    /// Atomically OR `bits` into the reader map; returns the view before
    /// this update (what the initiating node uses to detect transitions).
    /// The other map is read *after* the fetch-or: of two nodes first
    /// touching a page at once, at least one then sees the other.
    pub(crate) fn or_readers(&self, bits: u128) -> DirView {
        let readers = Self::or_map(&self.readers, bits);
        DirView { readers, writers: Self::or_map(&self.writers, 0) }
    }

    /// Atomically OR `bits` into the writer map; returns the prior view.
    pub(crate) fn or_writers(&self, bits: u128) -> DirView {
        let writers = Self::or_map(&self.writers, bits);
        DirView { readers: Self::or_map(&self.readers, 0), writers }
    }

    /// Overwrite with a full view. Private: between resets a view only
    /// grows, and any store of a value derived from an earlier load can
    /// erase a concurrent `or_*` — so `reset` is the only overwrite.
    fn store_view(&self, v: DirView) {
        let (rlo, rhi) = split(v.readers);
        let (wlo, whi) = split(v.writers);
        self.readers[0].store(rlo, Ordering::Release);
        self.readers[1].store(rhi, Ordering::Release);
        self.writers[0].store(wlo, Ordering::Release);
        self.writers[1].store(whi, Ordering::Release);
    }

    /// OR both maps (remote notification of a transition).
    pub(crate) fn or_view(&self, v: DirView) {
        if v.readers != 0 {
            self.or_readers(v.readers);
        }
        if v.writers != 0 {
            self.or_writers(v.writers);
        }
    }

    /// Reset to empty maps (end-of-initialization reset, paper §3.4).
    pub(crate) fn reset(&self) {
        self.store_view(DirView::default());
    }
}

/// The home-side directory: one entry per page, living in the page's home
/// node's memory (like the data pages, the placement is timing metadata in
/// the simulator; the entries themselves are stored flat).
#[derive(Debug)]
pub(crate) struct Pyxis {
    entries: Vec<DirEntry>,
}

impl Pyxis {
    pub(crate) fn new(total_pages: u64) -> Self {
        Pyxis {
            entries: (0..total_pages).map(|_| DirEntry::default()).collect(),
        }
    }

    /// The home entry for `page`.
    #[inline]
    pub(crate) fn entry(&self, page: PageNum) -> &DirEntry {
        &self.entries[page.0 as usize]
    }

    /// How many pages the directory covers.
    #[inline]
    pub(crate) fn total_pages(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Reset every entry — the paper's "initialization writes do not count"
    /// rule: reader/writer maps are nulled when the parallel section starts.
    pub(crate) fn reset_all(&self) {
        for e in &self.entries {
            e.reset();
        }
    }
}

/// Per-node directory caches: `caches[node]` holds that node's local copy of
/// every directory entry it has consulted, indexed by global page number.
///
/// Other nodes write into these remotely on classification transitions; the
/// owner reads them locally at fences. That asymmetry is the whole point:
/// the *causing* node pays, the affected node stays passive.
///
/// Every protocol operation consults a directory cache, so the lookup is a
/// hot path: a flat page-indexed table of entries, grown lazily in
/// fixed-size chunks that are published with a compare-and-swap. Lookups
/// are two dependent loads and return a plain `&DirEntry` — no locks, no
/// reference-count traffic. Laziness matters at scale: a 128-node cluster
/// over a large address space would otherwise need gigabytes of
/// always-resident metadata for pages most nodes never touch.
#[derive(Debug)]
pub(crate) struct DirCaches {
    caches: Vec<NodeDirCache>,
}

/// Entries per lazily-allocated chunk (32 KiB of `DirEntry`s).
const DIR_CHUNK: usize = 1024;

type DirChunk = [DirEntry; DIR_CHUNK];

fn new_chunk() -> Box<DirChunk> {
    let entries: Box<[DirEntry]> = (0..DIR_CHUNK).map(|_| DirEntry::default()).collect();
    // Infallible: the slice has exactly DIR_CHUNK elements.
    entries.try_into().unwrap()
}

#[derive(Debug)]
struct NodeDirCache {
    chunks: Box<[AtomicPtr<DirChunk>]>,
}

impl NodeDirCache {
    fn new(total_pages: u64) -> Self {
        let n = (total_pages as usize).div_ceil(DIR_CHUNK);
        NodeDirCache {
            chunks: (0..n).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect(),
        }
    }

    #[inline]
    fn entry(&self, page: PageNum) -> &DirEntry {
        let (c, o) = (page.0 as usize / DIR_CHUNK, page.0 as usize % DIR_CHUNK);
        let ptr = self.chunks[c].load(Ordering::Acquire);
        let chunk = if ptr.is_null() {
            self.alloc_chunk(c)
        } else {
            // Safety: non-null chunk pointers are only installed by
            // `alloc_chunk` below and stay valid until `Drop`.
            unsafe { &*ptr }
        };
        &chunk[o]
    }

    #[cold]
    fn alloc_chunk(&self, c: usize) -> &DirChunk {
        let fresh = Box::into_raw(new_chunk());
        match self.chunks[c].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // Safety: we just installed `fresh`; it is never removed or
            // freed before `Drop`.
            Ok(_) => unsafe { &*fresh },
            Err(existing) => {
                // Lost the race: free ours, use the winner's.
                // Safety: `fresh` came from Box::into_raw above and was
                // never shared; `existing` is a published chunk.
                unsafe {
                    drop(Box::from_raw(fresh));
                    &*existing
                }
            }
        }
    }

    fn reset(&self) {
        for chunk in self.chunks.iter() {
            let ptr = chunk.load(Ordering::Acquire);
            if !ptr.is_null() {
                // Safety: published chunks stay valid until `Drop`.
                for e in unsafe { &*ptr }.iter() {
                    e.reset();
                }
            }
        }
    }
}

impl Drop for NodeDirCache {
    fn drop(&mut self) {
        for chunk in self.chunks.iter_mut() {
            let ptr = *chunk.get_mut();
            if !ptr.is_null() {
                // Safety: exclusively owned at drop time; installed via
                // Box::into_raw.
                unsafe { drop(Box::from_raw(ptr)) };
            }
        }
    }
}

impl DirCaches {
    pub(crate) fn new(nodes: usize, total_pages: u64) -> Self {
        DirCaches {
            caches: (0..nodes).map(|_| NodeDirCache::new(total_pages)).collect(),
        }
    }

    /// `node`'s cached copy of the entry for `page` (created empty on first
    /// touch).
    #[inline]
    pub(crate) fn entry(&self, node: u16, page: PageNum) -> &DirEntry {
        self.caches[node as usize].entry(page)
    }

    pub(crate) fn reset_all(&self) {
        for node in &self.caches {
            node.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classification::node_bit;

    #[test]
    fn or_returns_prior_view() {
        let e = DirEntry::default();
        let before = e.or_readers(node_bit(3));
        assert_eq!(before.readers, 0);
        let before = e.or_readers(node_bit(70));
        assert_eq!(before.readers, node_bit(3));
        assert_eq!(e.view().readers, node_bit(3) | node_bit(70));
    }

    #[test]
    fn high_node_ids_use_second_word() {
        let e = DirEntry::default();
        e.or_writers(node_bit(127));
        assert_eq!(e.view().writers, 1u128 << 127);
    }

    #[test]
    fn store_view_overwrites() {
        let e = DirEntry::default();
        e.or_readers(node_bit(1));
        e.store_view(DirView {
            readers: node_bit(5),
            writers: node_bit(6),
        });
        let v = e.view();
        assert_eq!(v.readers, node_bit(5));
        assert_eq!(v.writers, node_bit(6));
        e.reset();
        assert_eq!(e.view(), DirView::default());
    }

    #[test]
    fn pyxis_shards_like_data_pages() {
        let p = Pyxis::new(32);
        // Pages 1 and 5 both live on home node 1; distinct entries.
        p.entry(PageNum(1)).or_readers(node_bit(0));
        assert_eq!(p.entry(PageNum(5)).view().readers, 0);
        assert_eq!(p.entry(PageNum(1)).view().readers, node_bit(0));
        p.reset_all();
        assert_eq!(p.entry(PageNum(1)).view().readers, 0);
    }

    #[test]
    fn dir_caches_are_per_node() {
        let d = DirCaches::new(2, 16);
        d.entry(0, PageNum(3)).or_view(DirView {
            readers: node_bit(1),
            writers: 0,
        });
        assert_eq!(d.entry(0, PageNum(3)).view().readers, node_bit(1));
        assert_eq!(d.entry(1, PageNum(3)).view().readers, 0);
    }

    /// Two nodes first-touch one page at the same moment, one reading,
    /// one writing. Whoever's fetch-or lands second must see the other in
    /// its reply — if both came back blind, neither would notify the
    /// other, and both would keep the page as private for ever.
    #[test]
    fn concurrent_first_touches_are_never_both_blind() {
        use std::sync::{Arc, Barrier};
        const ROUNDS: usize = 20_000;
        let entries: Arc<Vec<DirEntry>> = Arc::new((0..ROUNDS).map(|_| DirEntry::default()).collect());
        let start = Arc::new(Barrier::new(2));
        let writer = {
            let (entries, start) = (entries.clone(), start.clone());
            std::thread::spawn(move || {
                entries
                    .iter()
                    .map(|e| {
                        start.wait();
                        e.or_writers(node_bit(5)).readers
                    })
                    .collect::<Vec<_>>()
            })
        };
        let reader_saw: Vec<u128> = entries
            .iter()
            .map(|e| {
                start.wait();
                e.or_readers(node_bit(2)).writers
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
        let e = Arc::new(DirEntry::default());
        let handles: Vec<_> = (0..16u16)
            .map(|n| {
                let e = e.clone();
                std::thread::spawn(move || {
                    e.or_readers(node_bit(n));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.view().readers.count_ones(), 16);
    }
}
