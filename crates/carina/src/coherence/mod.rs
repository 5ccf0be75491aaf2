//! Pluggable coherence policies.
//!
//! The Carina engine ([`crate::protocol::Dsm`]) owns the *mechanism*: the
//! data plane, transport verbs, retry/fault plumbing, write buffer, and
//! issue/poll overlap. Everything that is a protocol *decision* — what a
//! read miss registers, how a write fault classifies, what an SI fence must
//! invalidate, what an SD fence owes beyond the drain, and what metadata
//! the directory carries — lives behind the [`Coherence`] trait, so the
//! paper's SI/SD protocol ([`CarinaSiSd`]) can be compared head-to-head
//! against alternatives on the identical engine.
//!
//! Three policies ship:
//! - [`CarinaSiSd`] — the paper's protocol: Pyxis reader/writer full maps,
//!   P/S × NW/SW/MW classification (Table 1), deferred invalidation via
//!   directory-cache notifications.
//! - [`Tardis`] — a timestamp-lease protocol in the spirit of TARDIS
//!   (Yu & Devadas, PACT'15), adapted to the DSM's fence model: reads
//!   install a bounded lease (`rts = pts + lease`), writes bump `wts` past
//!   every granted lease, and an acquire fence invalidates only *expired*
//!   leases against the acquirer's logical clock. No sharer bitmap, no
//!   extra verbs — the same one-sided directory atomics carry timestamps
//!   instead of full maps.
//! - [`Pyxis`] — a census-driven hybrid that runs each page under
//!   whichever of the two fits its access pattern: leases on read-mostly
//!   pages, SI/SD classification on write-shared ones, switching per page
//!   at fence boundaries with hysteresis (DESIGN.md §13).
//!
//! Policy metadata is tables, as in the paper, where the directory is only
//! words in home memory: every page-indexed column — the home directory,
//! the directory caches, Tardis's timestamps, the hybrid's census signals
//! — and every registration bitset is a [`PageTable`]: zero-mapped,
//! resident only where a run stored, and reset and checked only in the
//! chunks a run stored to. The trait asks only what the engine cannot
//! derive: whether a drain keeps a write-hot page, and which dirty pages
//! the naïve P/S sweep checkpoints, both follow from
//! [`Coherence::write_buffered`] and [`Coherence::page_mode`].
//!
//! Dispatch is static, mirroring the transport generic: `Dsm<T, C>` with
//! `C: Coherence` defaulting to [`CarinaSiSd`], so existing call sites
//! compile unchanged and any policy monomorphizes to straight-line code.

mod carina_sisd;
mod lease_clock;
mod pyxis;
mod tardis;

pub use carina_sisd::CarinaSiSd;
pub use pyxis::Pyxis;
pub use tardis::Tardis;

use crate::config::CarinaConfig;
use crate::stats::StatShard;
use mem::PageNum;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cells per chunk of a [`PageTable`] row: the unit a reset or a check
/// visits.
const CHUNK_PAGES: usize = 1024;

/// A rows × pages table of zero-initialised cells: one row per node (the
/// directory caches, lease and census cells), or one row for a per-page
/// column (the home directory, Tardis's timestamps, the hybrid's mode and
/// score). The cells are one zero-mapped arena ([`mem::zeroed_slice`]),
/// resident only where a run stored, and each row is cut into chunks of
/// [`CHUNK_PAGES`] cells. [`Self::get`] reads a cell without a trace;
/// every store goes through [`Self::at`], which marks the cell's chunk.
/// A reset and a check visit only marked chunks, which is sound because
/// an unmarked chunk holds only zeros: they cost what a run stored to,
/// not what the machine could hold.
#[derive(Debug)]
pub(crate) struct PageTable<A = AtomicU64> {
    rows: usize,
    pages: usize,
    cells: mem::Arena<A>,
    /// Words of `marks` per row: a row's chunk bits start on a word.
    row_words: usize,
    /// One bit per chunk, row by row: set by the first store into it.
    marks: mem::Arena<AtomicU64>,
}

impl<A: mem::Zeroed> PageTable<A> {
    pub(crate) fn new(rows: usize, pages: u64) -> Self {
        let pages =
            usize::try_from(pages).unwrap_or_else(|_| panic!("{pages} pages overflow usize"));
        let cells = rows.checked_mul(pages).unwrap_or_else(|| panic!("{rows} rows overflow"));
        let row_words = pages.div_ceil(CHUNK_PAGES).div_ceil(64);
        let (cells, marks) = (mem::zeroed_slice(cells), mem::zeroed_slice(rows * row_words));
        PageTable { rows, pages, cells, row_words, marks }
    }

    pub(crate) fn rows(&self) -> u16 {
        self.rows as u16
    }

    #[inline]
    fn index(&self, row: u16, page: PageNum) -> usize {
        let q = page.0 as usize;
        assert!(q < self.pages, "page {q} outside a {}-page table", self.pages);
        row as usize * self.pages + q
    }

    /// `row`'s cell for `page`, to read.
    #[inline]
    pub(crate) fn get(&self, row: u16, page: PageNum) -> &A {
        &self.cells[self.index(row, page)]
    }

    /// `row`'s cell for `page`, to store to: marks its chunk.
    #[inline]
    pub(crate) fn at(&self, row: u16, page: PageNum) -> &A {
        let cell = &self.cells[self.index(row, page)];
        let chunk = page.0 as usize / CHUNK_PAGES;
        let word = &self.marks[row as usize * self.row_words + chunk / 64];
        let bit = 1 << (chunk % 64);
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
        cell
    }

    /// The cells of `row`'s marked chunks, with their pages.
    pub(crate) fn touched(&self, row: u16) -> impl Iterator<Item = (PageNum, &A)> {
        self.chunks(row).flat_map(|(first, cells)| {
            cells.iter().enumerate().map(move |(i, c)| (PageNum((first + i) as u64), c))
        })
    }

    /// `row`'s marked chunks, each as its first page and its cells.
    fn chunks(&self, row: u16) -> impl Iterator<Item = (usize, &[A])> {
        let (base, words) = (row as usize * self.pages, row as usize * self.row_words);
        #[cfg(test)]
        let key = (std::ptr::from_ref(self).addr(), row);
        self.marks[words..words + self.row_words].iter().enumerate().flat_map(move |(w, word)| {
            let mut bits = word.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                let chunk = w * 64 + pop_lowest(&mut bits)? as usize;
                #[cfg(test)]
                visits::note(key);
                let first = chunk * CHUNK_PAGES;
                let cells = &self.cells[base + first..base + self.pages.min(first + CHUNK_PAGES)];
                Some((first, cells))
            })
        })
    }

    /// Zero every marked chunk and unmark it. Debug builds then check every
    /// cell, which catches a store that bypassed [`Self::at`].
    pub(crate) fn clear_all(&self) {
        for row in 0..self.rows() {
            for (_, cells) in self.chunks(row) {
                mem::clear_nonzero(cells);
            }
        }
        mem::clear_nonzero(&self.marks);
        debug_assert!(mem::all_zero(&self.cells), "a store to an unmarked chunk");
    }
}

/// The index of `bits`' lowest set bit, cleared; `None` once none is left.
#[inline]
fn pop_lowest(bits: &mut u64) -> Option<u32> {
    let b = (*bits != 0).then(|| bits.trailing_zeros())?;
    *bits &= *bits - 1;
    Some(b)
}

/// A lock-free bit per node and page, rows of words of 64 pages: the
/// fast-path mirror of "this node has registered with the home directory"
/// (or holds a lease), checked on every access.
#[derive(Debug)]
pub(crate) struct PageBitSet(PageTable);

impl PageBitSet {
    pub(crate) fn new(nodes: usize, pages: u64) -> Self {
        PageBitSet(PageTable::new(nodes, pages.div_ceil(64)))
    }

    #[inline]
    pub(crate) fn get(&self, node: u16, page: PageNum) -> bool {
        self.0.get(node, PageNum(page.0 / 64)).load(Ordering::Relaxed) & (1 << (page.0 % 64)) != 0
    }

    #[inline]
    pub(crate) fn set(&self, node: u16, page: PageNum) {
        self.0.at(node, PageNum(page.0 / 64)).fetch_or(1 << (page.0 % 64), Ordering::Relaxed);
    }

    /// `node`'s set pages.
    pub(crate) fn ones(&self, node: u16) -> impl Iterator<Item = PageNum> + '_ {
        self.0.touched(node).flat_map(|(w, word)| {
            let mut bits = word.load(Ordering::Relaxed);
            std::iter::from_fn(move || Some(PageNum(w.0 * 64 + u64::from(pop_lowest(&mut bits)?))))
        })
    }

    pub(crate) fn clear_all(&self) {
        self.0.clear_all();
    }
}

/// What a registration decided: wire work the engine must now perform on
/// the policy's behalf. The policy has already applied its local metadata
/// mutations and bumped its transition counters; the engine prices and
/// posts the verbs (with retry and settle tracking) and flight-records the
/// transitions with its endpoint clock.
#[derive(Debug, Default)]
pub struct RegisterOutcome {
    /// Nodes whose directory caches this registration must update remotely
    /// (the passive notification mechanism), as a node map like a
    /// [`DirView`](crate::classification::DirView)'s: a node appears once
    /// however many transitions name it. The engine posts one notification
    /// verb per bit; the metadata itself was already deposited by the
    /// policy (host-side, like the real one-sided write). Only nodes whose
    /// Table 1 answers the registration changes: a row may lag the home
    /// view on transitions that change none of its answers. Never the
    /// registering node, never the page's home: the home does not cache
    /// its own pages.
    pub(crate) notify: u128,
    /// Service this fill from `owner`'s checkpoint with one extra page
    /// fetch (the naïve P/S scheme's P→S obligation, §3.4.2). Never the
    /// page's home: its stores are in the home memory the fill reads.
    pub(crate) fetch_from: Option<u16>,
    /// The classification transitions this registration caused, as
    /// `(detail kind, other node)` — at most a P→S plus one writer-class
    /// step. The engine turns them into Lyra detail records.
    pub(crate) transitions: [Option<(obs::RecordKind, u32)>; 2],
}

impl RegisterOutcome {
    /// A registration that caused no transition: nothing to post or record.
    #[inline]
    pub(crate) fn quiet() -> Self {
        RegisterOutcome::default()
    }

    /// True if the engine has no wire or recording work to do — the common
    /// case.
    #[inline]
    pub(crate) fn is_quiet(&self) -> bool {
        self.notify == 0 && self.fetch_from.is_none() && self.transitions == [None; 2]
    }
}

/// Which protocol family governs a page right now. Single-protocol
/// policies answer uniformly; [`Pyxis`] answers per page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageMode {
    /// SI/SD classification: Table 1 fence predicates over the sharer maps.
    #[default]
    Classify,
    /// Timestamp leases: expiry against the acquirer's logical clock.
    Lease,
}

/// A coherence policy: every protocol *decision* point of the engine.
///
/// Methods take `me` (the acting node) and, where the distinction matters
/// for cost or semantics, the page's `home`. The engine guarantees:
///
/// - `register_reader` / `register_writer` are only called when the
///   corresponding `*_registered` check returned `false`, and the
///   directory access (local DRAM or remote atomic verb) has already been
///   charged/performed — the policy applies pure metadata mutations.
/// - `write_buffered` and `note_written_epoch` are called after
///   `register_writer` for the same page (under the page's slot lock, for
///   a cached copy);
///   fence drains and the checkpoint sweep re-ask `write_buffered` later,
///   so it answers from the page's current classification.
/// - `begin_si_fence` runs before any `must_self_invalidate` query of that
///   fence; `end_sd_fence` runs after the fence's drain has posted every
///   write-back (their bytes are in home memory; their virtual settle is
///   the acquirer's to wait for).
/// - `reset_all` is only called at quiescent points.
pub trait Coherence: std::fmt::Debug + Send + Sync + Sized + 'static {
    /// Short lowercase name (CLI value, bench ids, report labels).
    const NAME: &'static str;

    /// Build policy state for `nodes` nodes over `total_pages` pages.
    fn new(nodes: usize, total_pages: u64, config: &CarinaConfig) -> Self;

    // --- fast-path registration checks -------------------------------

    /// Is `me`'s read registration for `page` still current (no directory
    /// access needed before serving the fill)?
    fn read_registered(&self, me: u16, home: u16, page: PageNum) -> bool;

    /// Is `me`'s write registration for `page` still current?
    fn write_registered(&self, me: u16, home: u16, page: PageNum) -> bool;

    // --- registration (read-miss fill / write-fault classification) --

    /// Deposit `me`'s read registration for `page` and decide the fallout.
    fn register_reader(
        &self,
        me: u16,
        home: u16,
        page: PageNum,
        shard: &StatShard,
    ) -> RegisterOutcome;

    /// Deposit `me`'s write registration for `page` and decide the fallout.
    fn register_writer(
        &self,
        me: u16,
        home: u16,
        page: PageNum,
        shard: &StatShard,
    ) -> RegisterOutcome;

    /// Does `me`'s dirty copy of `page` belong in the FIFO write buffer,
    /// so fences (and overflow) drain it? Pure. Policies that
    /// self-downgrade everything say `true`; the naïve P/S scheme exempts
    /// private pages and checkpoints them instead. (There is no diff
    /// decision: every store marks its words, and every downgrade posts
    /// the masked words — what lets multiple writers of one page coexist.)
    ///
    /// The engine derives two more decisions from it. An SD-fence drain
    /// keeps a write-hot copy writable only where it is buffered (the next
    /// fence finds it) and the page is in [`PageMode::Classify`] — a
    /// leased page's written copy is self-invalidated at the writer's next
    /// acquire, so keeping it would be pointless. And the checkpoint sweep
    /// checkpoints exactly the dirty pages that are not buffered.
    fn write_buffered(&self, me: u16, page: PageNum) -> bool;

    /// The clean→dirty event (census signals hang off it): raised once per
    /// *written* epoch of `me`'s copy of `page` — by the write fault if the
    /// epoch began protected, by the fence drain that found the stores if
    /// it began writable (kept write-hot). A home node has no copy: its
    /// stores raise it at their write registration, so a policy sees a home
    /// page's written epochs exactly as often as `write_registered` lapses.
    fn note_written_epoch(&self, _me: u16, _page: PageNum) {}

    // --- fences --------------------------------------------------------

    /// Acquire-side hook, before the invalidation sweep. Fence hooks are
    /// the protocol's epoch-safe points: adaptive policies apply their
    /// deferred per-page decisions (mode switches) here and nowhere else.
    fn begin_si_fence(&self, me: u16, shard: &StatShard);

    /// Must `me` invalidate its cached copy of `page` at this acquire?
    /// Called once per resident page per SI fence.
    fn must_self_invalidate(&self, me: u16, page: PageNum, shard: &StatShard) -> bool;

    /// Release-side hook, after the drain has posted every write-back.
    fn end_sd_fence(&self, me: u16, shard: &StatShard);

    /// Does every dirty page go through the write buffer? Policies that
    /// exempt pages from buffering (naïve P/S privates) answer `false`:
    /// their release runs the checkpoint sweep over the dirty pages the
    /// buffer does not hold, and the write buffer equals the dirty set at
    /// quiescent points (check 2 of `Dsm::check_invariants`) only where
    /// this is `true`.
    fn buffers_every_dirty_page(&self) -> bool {
        true
    }

    // --- downgrades ------------------------------------------------------

    /// `me`'s dirty copy of `page` just landed in home memory (fence
    /// drain, write-buffer overflow, or eviction). This — not the write
    /// fault — is the moment a new version of the page exists anywhere
    /// another node can fetch it, so timestamp policies advance the page's
    /// version here: bumping at fault time would stamp a version whose
    /// bytes are not home yet, and a concurrent read fill could be granted
    /// a lease on stale data that outlives the writer's release.
    fn note_downgrade(&self, _me: u16, _page: PageNum) {}

    // --- diagnostics & invariants -----------------------------------

    /// The protocol family currently governing `page`. Static for
    /// single-protocol policies, per page for hybrids.
    fn page_mode(&self, _page: PageNum) -> PageMode {
        PageMode::Classify
    }

    /// Policy-specific invariant violations, given each node's dirty page
    /// set at a quiescent point (`dirty[n]`) and every page's current home.
    /// Appended to the engine's own checks. Visits only the table chunks a
    /// run stored to: a zero cell passes every check.
    fn invariant_problems(
        &self,
        dirty: &[Vec<PageNum>],
        home_of: impl Fn(PageNum) -> u16,
    ) -> Vec<String>;

    /// Null all policy metadata (end-of-initialization reset, decay).
    fn reset_all(&self);
}

/// How many chunks each sweep of a table's row visits: test builds count
/// them per thread, keyed by the table's address and the row.
#[cfg(test)]
pub(crate) mod visits {
    use std::cell::RefCell;
    use std::collections::HashMap;

    thread_local! {
        static VISITS: RefCell<HashMap<(usize, u16), usize>> = RefCell::default();
    }

    pub(super) fn note(key: (usize, u16)) {
        VISITS.with(|v| *v.borrow_mut().entry(key).or_default() += 1);
    }

    /// The counts since the last call, per (table, row).
    pub(crate) fn take() -> HashMap<(usize, u16), usize> {
        VISITS.with(|v| std::mem::take(&mut *v.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_get_clear() {
        let b = PageBitSet::new(2, 130);
        assert!(!b.get(1, PageNum(129)));
        b.set(1, PageNum(129));
        b.set(1, PageNum(0));
        assert!(b.get(1, PageNum(129)) && b.get(1, PageNum(0)));
        assert!(!b.get(1, PageNum(64)) && !b.get(0, PageNum(129)), "a row per node");
        assert_eq!(b.ones(1).collect::<Vec<_>>(), [PageNum(0), PageNum(129)]);
        assert_eq!(b.ones(0).count(), 0);
        b.clear_all();
        assert!(!b.get(1, PageNum(129)));
        assert_eq!(b.ones(1).count(), 0);
    }

    #[test]
    fn page_tables_have_a_row_per_node_and_mark_on_store() {
        let t = PageTable::<AtomicU64>::new(2, 3 * CHUNK_PAGES as u64 - 5);
        let page = PageNum(2 * CHUNK_PAGES as u64);
        assert_eq!(t.get(0, page).load(Ordering::Relaxed), 0);
        assert_eq!(t.touched(0).count() + t.touched(1).count(), 0, "`get` marks nothing");
        t.at(1, page).store(7, Ordering::Relaxed);
        assert_eq!(t.touched(0).count(), 0);
        let last: Vec<_> = t.touched(1).map(|(p, c)| (p, c.load(Ordering::Relaxed))).collect();
        assert_eq!(last.len(), CHUNK_PAGES - 5, "node 1's last chunk, cut at the table's end");
        assert_eq!(last[0], (page, 7));
        assert_eq!(t.get(0, page).load(Ordering::Relaxed), 0);
        t.clear_all();
        assert_eq!(t.get(1, page).load(Ordering::Relaxed), 0);
        assert_eq!(t.touched(1).count(), 0, "the reset unmarks");
    }

    /// A reset visits each row's marked chunks, once.
    #[test]
    fn a_reset_visits_only_marked_chunks() {
        let t = PageTable::<AtomicU64>::new(4, 64 * CHUNK_PAGES as u64);
        for (row, page) in [(0, 5), (0, 6), (0, 40 * CHUNK_PAGES), (3, 64 * CHUNK_PAGES - 1)] {
            t.at(row, PageNum(page as u64)).store(1, Ordering::Relaxed);
        }
        visits::take();
        t.clear_all();
        let mut seen: Vec<_> = visits::take().into_iter().map(|((_, row), n)| (row, n)).collect();
        seen.sort_unstable();
        assert_eq!(seen, [(0, 2), (3, 1)]);
    }

    #[test]
    #[should_panic(expected = "outside a 16-page table")]
    fn page_tables_refuse_pages_past_their_end() {
        PageTable::<AtomicU64>::new(2, 16).get(0, PageNum(16));
    }

    #[test]
    fn quiet_outcome_is_quiet() {
        assert!(RegisterOutcome::quiet().is_quiet());
        let oc = RegisterOutcome { notify: 1 << 1, ..Default::default() };
        assert!(!oc.is_quiet());
    }
}
