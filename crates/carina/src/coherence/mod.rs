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
//! — is a zero-mapped [`page_table`] or a [`NodePageTable`] of zeroed
//! chunks, resident only where a run touched and reset by
//! `mem::clear_nonzero`. The trait asks only what the engine cannot
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

use crate::classification::DirView;
use crate::config::CarinaConfig;
use crate::stats::StatShard;
use mem::PageNum;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A page-indexed table of zero-initialised cells, resident only where a
/// run stored ([`mem::zeroed_slice`]).
pub(crate) fn page_table<A: mem::Zeroed>(pages: u64) -> Box<[A]> {
    let n = usize::try_from(pages).unwrap_or_else(|_| panic!("{pages} pages overflow usize"));
    mem::zeroed_slice(n)
}

/// Cells per lazily allocated chunk of a [`NodePageTable`] row.
const CHUNK_PAGES: usize = 1024;

/// A node × page table of zero-initialised cells (counters by default;
/// SI/SD's directory caches are one of `DirWords`). Each node's row is cut
/// into chunks of [`CHUNK_PAGES`] cells, allocated zeroed on first touch,
/// and a reset visits only the chunks a run touched. One zero-mapped
/// table would be lazy only on a machine's first build: glibc serves a
/// rebuilt small machine's tables from recycled heap, which `calloc`
/// clears eagerly.
#[derive(Debug)]
pub(crate) struct NodePageTable<A = AtomicU64> {
    pages: usize,
    row_chunks: usize,
    chunks: Box<[OnceLock<Box<[A]>>]>,
}

impl<A: mem::Zeroed> NodePageTable<A> {
    pub(crate) fn new(nodes: usize, pages: u64) -> Self {
        let pages =
            usize::try_from(pages).unwrap_or_else(|_| panic!("{pages} pages overflow usize"));
        let row_chunks = pages.div_ceil(CHUNK_PAGES);
        let chunks = (0..row_chunks * nodes).map(|_| OnceLock::new()).collect();
        NodePageTable { pages, row_chunks, chunks }
    }

    /// `node`'s cell for `page`.
    #[inline]
    pub(crate) fn at(&self, node: u16, page: PageNum) -> &A {
        let q = page.0 as usize;
        assert!(q < self.pages, "page {q} outside a {}-page table", self.pages);
        let chunk = &self.chunks[node as usize * self.row_chunks + q / CHUNK_PAGES];
        &chunk.get_or_init(|| mem::zeroed_slice(CHUNK_PAGES))[q % CHUNK_PAGES]
    }

    /// The cells of every chunk a run touched.
    #[cfg(test)]
    fn touched(&self) -> impl Iterator<Item = &A> {
        self.chunks.iter().filter_map(OnceLock::get).flat_map(|cells| cells.iter())
    }

    /// Zero every cell (storing only to nonzero ones).
    pub(crate) fn clear_all(&self) {
        for cells in self.chunks.iter().filter_map(OnceLock::get) {
            mem::clear_nonzero(cells);
        }
    }
}

/// A lock-free page-indexed bitset: the fast-path mirror of "this node has
/// registered with the home directory", checked on every access.
#[derive(Debug)]
pub(crate) struct PageBitSet {
    words: Box<[AtomicU64]>,
}

impl PageBitSet {
    pub(crate) fn new(pages: u64) -> Self {
        PageBitSet { words: page_table(pages.div_ceil(64)) }
    }

    #[inline]
    pub(crate) fn get(&self, page: PageNum) -> bool {
        let w = (page.0 / 64) as usize;
        self.words[w].load(Ordering::Relaxed) & (1 << (page.0 % 64)) != 0
    }

    #[inline]
    pub(crate) fn set(&self, page: PageNum) {
        let w = (page.0 / 64) as usize;
        self.words[w].fetch_or(1 << (page.0 % 64), Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn clear(&self, page: PageNum) {
        let w = (page.0 / 64) as usize;
        self.words[w].fetch_and(!(1 << (page.0 % 64)), Ordering::Relaxed);
    }

    pub(crate) fn clear_all(&self) {
        mem::clear_nonzero(&self.words);
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
    /// (the passive notification mechanism). The engine posts one
    /// notification verb per target; the metadata itself was already
    /// deposited by the policy (host-side, like the real one-sided write).
    pub(crate) notify: Vec<u16>,
    /// Service this fill from `owner`'s checkpoint with one extra page
    /// fetch (the naïve P/S scheme's P→S obligation, §3.4.2).
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
    /// case, kept cheap (no allocation ever happened for a quiet outcome).
    #[inline]
    pub(crate) fn is_quiet(&self) -> bool {
        self.notify.is_empty() && self.fetch_from.is_none() && self.transitions == [None; 2]
    }
}

/// Which protocol family governs a page right now — the census's per-page
/// mode column. Single-protocol policies answer uniformly; [`Pyxis`]
/// answers per page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageMode {
    /// SI/SD classification: Table 1 fence predicates over the sharer maps.
    #[default]
    Classify,
    /// Timestamp leases: expiry against the acquirer's logical clock.
    Lease,
}

impl PageMode {
    pub(crate) fn name(self) -> &'static str {
        match self {
            PageMode::Classify => "si/sd",
            PageMode::Lease => "lease",
        }
    }
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
///   `register_writer` for the same page (under the page's slot lock);
///   fence drains and the checkpoint sweep re-ask `write_buffered` later,
///   so it answers from the page's current classification.
/// - `begin_si_fence` runs before any `must_self_invalidate` query of that
///   fence; `end_sd_fence` runs after the fence's drain has settled.
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

    /// The clean→dirty event (census signals hang off it): raised exactly
    /// once per *written* epoch of `me`'s copy of `page` — by the write
    /// fault if the epoch began protected, by the fence drain that found
    /// the stores if it began writable (kept write-hot).
    fn note_written_epoch(&self, _me: u16, _page: PageNum) {}

    // --- fences --------------------------------------------------------

    /// Acquire-side hook, before the invalidation sweep. Fence hooks are
    /// the protocol's epoch-safe points: adaptive policies apply their
    /// deferred per-page decisions (mode switches) here and nowhere else.
    fn begin_si_fence(&self, me: u16, shard: &StatShard);

    /// Must `me` invalidate its cached copy of `page` at this acquire?
    /// Called once per resident page per SI fence.
    fn must_self_invalidate(&self, me: u16, page: PageNum, shard: &StatShard) -> bool;

    /// Release-side hook, after the drain has settled.
    fn end_sd_fence(&self, me: u16, shard: &StatShard);

    /// Does every dirty page go through the write buffer? Policies that
    /// exempt pages from buffering (naïve P/S privates) answer `false`:
    /// their release runs the checkpoint sweep over the dirty pages the
    /// buffer does not hold, and the write buffer equals the dirty set at
    /// quiescent points (invariant 3) only where this is `true`.
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

    /// A best-effort accessor view of `page` for the census and tests.
    /// Authoritative under [`CarinaSiSd`]; synthesized from grant state
    /// under timestamp policies (documented per policy).
    fn census_view(&self, page: PageNum) -> DirView;

    /// The protocol family currently governing `page` (the census's mode
    /// column). Static for single-protocol policies, per page for hybrids.
    fn page_mode(&self, _page: PageNum) -> PageMode {
        PageMode::Classify
    }

    /// Policy-specific invariant violations for `node`, given its dirty
    /// page set at a quiescent point. Appended to the engine's own checks.
    fn invariant_problems(&self, node: u16, dirty: &[PageNum]) -> Vec<String>;

    /// Volans membership change: `rehomed` pages just moved to new home
    /// nodes (their old home departed). The policy must null every piece of
    /// per-page metadata tied to the old home — registrations, directory
    /// caches, granted leases — so the first access under the new epoch
    /// re-registers from scratch, exactly like the Pyxis mode-epoch
    /// reconcile. Called under the engine's membership-transition lock,
    /// after the re-homed pages' cached copies have been scrubbed.
    fn on_membership_change(&self, _rehomed: &[PageNum]) {}

    /// Null all policy metadata (end-of-initialization reset, decay).
    fn reset_all(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_get_clear() {
        let b = PageBitSet::new(130);
        assert!(!b.get(PageNum(129)));
        b.set(PageNum(129));
        b.set(PageNum(0));
        assert!(b.get(PageNum(129)));
        assert!(b.get(PageNum(0)));
        assert!(!b.get(PageNum(64)));
        b.clear(PageNum(0));
        assert!(!b.get(PageNum(0)));
        assert!(b.get(PageNum(129)), "clear only drops its own bit");
        b.clear_all();
        assert!(!b.get(PageNum(129)));
    }

    #[test]
    fn node_page_tables_have_a_row_per_node_and_allocate_on_touch() {
        let t = NodePageTable::<AtomicU64>::new(2, 3 * CHUNK_PAGES as u64 - 5);
        assert_eq!(t.touched().count(), 0);
        t.at(1, PageNum(2 * CHUNK_PAGES as u64)).store(7, Ordering::Relaxed);
        assert_eq!(t.touched().count(), CHUNK_PAGES, "one chunk, of node 1's row");
        assert_eq!(t.at(0, PageNum(2 * CHUNK_PAGES as u64)).load(Ordering::Relaxed), 0);
        assert_eq!(t.at(1, PageNum(2 * CHUNK_PAGES as u64)).load(Ordering::Relaxed), 7);
        t.clear_all();
        assert!(t.touched().all(|c| c.load(Ordering::Relaxed) == 0));
    }

    #[test]
    #[should_panic(expected = "outside a 16-page table")]
    fn node_page_tables_refuse_pages_past_their_end() {
        NodePageTable::<AtomicU64>::new(2, 16).at(0, PageNum(16));
    }

    #[test]
    fn quiet_outcome_is_quiet() {
        assert!(RegisterOutcome::quiet().is_quiet());
        let oc = RegisterOutcome {
            notify: vec![1],
            ..Default::default()
        };
        assert!(!oc.is_quiet());
    }
}
