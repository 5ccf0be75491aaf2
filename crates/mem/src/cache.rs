//! Per-node page caches.
//!
//! Each node caches remote pages in a local, **direct-mapped** cache whose
//! unit of fill is a *line* of consecutive pages (paper §3.6.2: on a miss
//! Argo fetches not just the page but a configurable line of pages, trading
//! bandwidth for latency). A thread missing on a page that is already being
//! fetched waits for that fill — modeled by the line's `ready_at` virtual
//! timestamp, which every hit merges into its clock.
//!
//! Host-side engineering (none of it visible in virtual time):
//!
//! - **Three zero-mapped arenas, nothing per slot.** A cache is a slot
//!   table (five words a slot), each page's [`CachedPage`] metadata and
//!   each page's contents, the last two indexed
//!   `slot × pages_per_line + idx`, all from [`crate::zeroed_slice`]. A
//!   cache is sized for the worst case (8 192 slots, 32 MiB of pages per
//!   node by default). Every page starts on its own OS page and all-zero
//!   slot words and metadata are an empty slot, so a page a run fills
//!   costs one frame and a slot it never uses costs none.
//! - **Seqlock read path.** A slot's tag, valid mask and fill timestamp
//!   are words of the slot table — their only copy — guarded by a
//!   sequence word ([`SlotRef::try_read`]). Read hits — the overwhelming
//!   majority of protocol operations — validate them optimistically and
//!   never take the slot lock; any concurrent change is caught by the
//!   sequence check and falls back to the locked path. Page contents are
//!   word-atomic, so the optimistic loads are race-free by construction.
//! - **Occupancy bitsets.** Which slots hold a valid page and which a dirty
//!   one, so fence sweeps visit O(resident) slots, not every slot.
//!
//! [`SlotGuard`], the only handle through which a line can change, holds
//! the slot's lock and publishes the slot words and bitsets in its `Drop`
//! (a fill marks its slot occupied as it begins), so they never drift from
//! the locked view. Fill, eviction and invalidation *policy* and all
//! network charging live in `carina`.

use crate::addr::PageNum;
use crate::page::{PageData, WriteMask};
use crate::zeroed::{sealed::ZeroValid, zeroed_slice, Arena};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

/// Geometry of a node's page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of direct-mapped line slots.
    pub(crate) lines: usize,
    /// Consecutive pages fetched per line (the paper's prefetch "cache line
    /// size"; 1 disables prefetching).
    pub pages_per_line: usize,
}

impl CacheConfig {
    pub fn new(lines: usize, pages_per_line: usize) -> Self {
        assert!(lines > 0 && pages_per_line > 0, "cache dimensions must be positive");
        // The per-slot valid mask is one 64-bit word.
        assert!(pages_per_line <= 64, "lines are limited to 64 pages");
        CacheConfig { lines, pages_per_line }
    }

    /// Total pages the cache can hold.
    ///
    /// # Panics
    /// Panics if the count overflows `usize`.
    pub fn capacity_pages(&self) -> usize {
        self.lines.checked_mul(self.pages_per_line).unwrap_or_else(|| {
            panic!("a cache of {} lines × {} pages overflows", self.lines, self.pages_per_line)
        })
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        // Roomy default: 8192 single-page lines = 32 MiB of cache.
        CacheConfig::new(8192, 1)
    }
}

/// What the protocol remembers of a cached page besides `valid` and its
/// mask: it survives the SI drop and the slot falling empty, and resets when
/// another line takes the slot. Only `CachedPage::step` changes it (`·`: a
/// step the engine never makes, which `step` `debug_assert!`s):
///
/// | standing         | Fill     | Refill   | Touch    | WriteFault     | SiDrop  | Invalidate | Checkpoint   |
/// |------------------|----------|----------|----------|----------------|---------|------------|--------------|
/// | `Cold`           | Cold     | ·        | ·        | Written{false} | Dropped | Cold       | ·            |
/// | `Dropped`        | Consumer | Refilled | ·        | ·              | ·       | Cold       | ·            |
/// | `Consumer`       | ·        | ·        | ·        | Written{false} | Dropped | Cold       | ·            |
/// | `Refilled`       | ·        | ·        | Consumer | Written{false} | Dropped | Cold       | ·            |
/// | `Protected{hot}` | ·        | ·        | ·        | Written{true}  | Dropped | Cold       | ·            |
/// | `Written{hot}`   | ·        | ·        | ·        | ·              | ·       | Cold       | Written{hot} |
/// | `Kept{idle}`     | ·        | ·        | ·        | ·              | ·       | Cold       | ·            |
///
/// `Drain{fence, gate, bound}` steps the dirty two. With `posted` = "the
/// mask was non-empty", `idle'` = `idle + 1` for an unposted `Kept`, else 0,
/// and every `Kept` hot: `fence ∧ gate ∧ hot ∧ idle' < bound` → `Kept{idle'}`;
/// else `Protected{hot}`, so a kept page demoted at the bound stays hot.
/// Fill and Refill want no copy, Invalidate either, the other events a copy.
/// `repr(u8)` makes `Cold` the all-zero standing, as a fresh slot needs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Standing {
    /// No history, with or without a copy.
    #[default]
    Cold,
    /// No copy: an SI fence dropped the last one.
    Dropped,
    /// Fetched after an SI drop (refilled, then touched), not written since.
    Consumer,
    /// Refilled, untouched: off the lock-free path, so the touch is seen.
    Refilled,
    /// Clean, and write-faulted once, or (`hot`) more often or demoted
    /// from `Kept`.
    Protected { hot: bool },
    /// Dirty since a write fault, `hot` unless it was the copy's first.
    Written { hot: bool },
    /// Dirty, re-armed by a fence drain, and unwritten for `idle` fences since.
    Kept { idle: u16 },
}

/// What happens to a cached page: [`Standing`]'s columns. A touch is the
/// first locked access to a refilled copy; invalidation includes a retag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    Fill,
    Refill,
    Touch,
    WriteFault,
    /// The stores went home; a `fence` drain may keep a hot page writable.
    Drain { fence: bool, gate: bool, bound: u64 },
    SiDrop,
    Invalidate,
    /// A naïve-P/S checkpoint put the stores home; the page stays dirty.
    Checkpoint,
}

/// [`Standing`]'s table; `None` for a step the engine never makes.
fn next(from: Standing, event: Event, posted: bool) -> Option<Standing> {
    use Standing::*;
    Some(match (from, event) {
        (_, Event::Invalidate) | (Cold, Event::Fill) => Cold,
        (Dropped, Event::Fill) | (Refilled, Event::Touch) => Consumer,
        (Dropped, Event::Refill) => Refilled,
        (Cold | Consumer | Refilled, Event::WriteFault) => Written { hot: false },
        (Protected { .. }, Event::WriteFault) => Written { hot: true },
        (Cold | Consumer | Refilled | Protected { .. }, Event::SiDrop) => Dropped,
        (Written { .. }, Event::Checkpoint) => from,
        (Written { .. } | Kept { .. }, Event::Drain { fence, gate, bound }) => {
            let (hot, idle) = match from {
                Kept { idle } => (true, if posted { 0 } else { idle.saturating_add(1) }),
                _ => (from == Written { hot: true }, 0),
            };
            if fence && gate && hot && u64::from(idle) < bound {
                Kept { idle }
            } else {
                Protected { hot }
            }
        }
        _ => return None,
    })
}

/// Protocol metadata of one cached page within a line, in the cache's
/// metadata arena: all-zero bytes are the default, an invalid, clean,
/// `Cold` page. The page *contents* live in the page arena, where
/// lock-free readers reach them.
#[derive(Debug, Default)]
pub struct CachedPage {
    /// Holds a valid copy of the tagged page.
    pub valid: bool,
    /// Exactly the words stored since the page last went clean (or was
    /// re-armed): what the next write-back posts home.
    pub mask: WriteMask,
    pub standing: Standing,
}

impl CachedPage {
    /// Written since the last downgrade, or kept writable by it.
    #[inline]
    pub fn dirty(&self) -> bool {
        matches!(self.standing, Standing::Written { .. } | Standing::Kept { .. })
    }

    /// Apply `event`, the one way `valid` and the standing change and the
    /// mask clears; returns the standing the page had.
    pub fn step(&mut self, event: Event) -> Standing {
        let (was, copy) = (self.standing, !matches!(event, Event::Fill | Event::Refill));
        debug_assert!(event == Event::Invalidate || self.valid == copy, "{event:?} on {self:?}");
        let next = next(was, event, !self.mask.is_empty());
        debug_assert!(next.is_some(), "no {event:?} step from {was:?}");
        let Some(next) = next else { return was };
        self.standing = next;
        match event {
            Event::Touch | Event::WriteFault => return was,
            Event::Fill | Event::Refill => self.valid = true,
            Event::SiDrop | Event::Invalidate => self.valid = false,
            Event::Drain { .. } | Event::Checkpoint => {}
        }
        self.mask.clear();
        was
    }
}

/// A locked line's page metadata, in the metadata arena: what a
/// [`SlotGuard`] dereferences to.
#[derive(Debug)]
#[repr(transparent)]
pub struct Line {
    pub pages: [CachedPage],
}

/// A direct-mapped slot: five words of the cache's slot table, all zero
/// for a slot never used.
///
/// Writer protocol (inside [`SlotGuard`]): take `lock`; before the first
/// change bump `seq` to odd behind a release fence; change the line; store
/// `tag`, `valid` and `ready`; bump `seq` back to even with a release
/// store; release `lock`. Readers ([`SlotRef::try_read`]) load `seq`
/// (acquire), read the words and data, then re-check `seq` behind an
/// acquire fence.
#[derive(Debug)]
struct LineSlot {
    /// 0 free; 1 held by a [`SlotGuard`]; 2 held, with waiters asleep.
    lock: AtomicU64,
    /// Seqlock word: odd while a change is in flight.
    seq: AtomicU64,
    /// The resident line's id (`page / pages_per_line`), biased by one
    /// (0 = empty slot).
    tag: AtomicU64,
    /// The valid pages' bits, less [`Standing::Refilled`] pages.
    valid: AtomicU64,
    /// Virtual time at which the resident line's fill completed.
    ready: AtomicU64,
}

/// Where the waiters of held slots sleep: per stripe of slots (by address),
/// each parked thread and the slot it waits for, so a slot needs nothing
/// but its zero-valid lock word.
static PARKED: [Mutex<Vec<(usize, Thread)>>; 16] = [const { Mutex::new(Vec::new()) }; 16];

impl LineSlot {
    #[inline]
    fn try_lock(&self) -> bool {
        // Acquire: pairs with the release in `unlock`.
        self.lock.compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed).is_ok()
    }

    /// A futex-style mutex: spin while the holder runs alone (`lock` 1),
    /// then mark it 2 and park until the holder's `unlock` wakes this
    /// waiter, and only this one.
    #[inline]
    fn lock(&self) {
        if !self.try_lock() {
            self.lock_contended();
        }
    }

    #[cold]
    fn lock_contended(&self) {
        let mut state = self.spin();
        if state == 0 && self.try_lock() {
            return;
        }
        let me = std::thread::current();
        while state == 2 || self.lock.swap(2, Ordering::Acquire) != 0 {
            let mut parked = self.parked();
            // Under the queue's lock, so the holder's `unlock` finds this
            // thread queued.
            if self.lock.load(Ordering::Relaxed) == 2 {
                parked.push((self.addr(), me.clone()));
                drop(parked);
                // `unlock` dequeues before it unparks: any other return from
                // `park` is spurious.
                while self.parked().iter().any(|(_, t)| t.id() == me.id()) {
                    std::thread::park();
                }
            }
            state = self.spin();
        }
    }

    /// The lock word once it is no longer 1, or after 100 spins.
    fn spin(&self) -> u64 {
        for _ in 0..100 {
            match self.lock.load(Ordering::Relaxed) {
                1 => std::hint::spin_loop(),
                state => return state,
            }
        }
        self.lock.load(Ordering::Relaxed)
    }

    #[inline]
    fn unlock(&self) {
        if self.lock.swap(0, Ordering::Release) == 2 {
            let mut parked = self.parked();
            if let Some(i) = parked.iter().position(|(slot, _)| *slot == self.addr()) {
                let (_, waiter) = parked.remove(i);
                drop(parked);
                waiter.unpark();
            }
        }
    }

    fn addr(&self) -> usize {
        std::ptr::from_ref(self).addr()
    }

    fn parked(&self) -> MutexGuard<'static, Vec<(usize, Thread)>> {
        let queue = &PARKED[self.addr() / size_of::<Self>() % PARKED.len()];
        queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One page's [`CachedPage`] in the metadata arena, changed only through a
/// [`SlotGuard`] of its slot.
#[derive(Debug)]
#[repr(transparent)]
struct MetaCell(UnsafeCell<CachedPage>);

// SAFETY: a slot is five atomic words, and zero is each of them.
unsafe impl ZeroValid for LineSlot {}
// SAFETY: all-zero bytes are a `CachedPage`: `valid` false, an empty mask
// of atomic words, and `Standing::Cold`, the `repr(u8)` enum's zero.
unsafe impl ZeroValid for MetaCell {}
// SAFETY: only the holder of its slot's lock reaches a cell
// (`PageCache::locked`), so no two threads share one.
unsafe impl Sync for MetaCell {}

/// A slot with its line's page contents: the lock-free read path's handle
/// ([`PageCache::slot_for`]).
#[derive(Debug, Clone, Copy)]
pub struct SlotRef<'a> {
    slot: &'a LineSlot,
    /// The line's pages in the page arena, indexed like [`Line::pages`].
    data: &'a [PageData],
}

impl SlotRef<'_> {
    /// The one-word case of [`Self::try_read_run`]: the value of `word` and
    /// the line's `ready_at`.
    #[inline]
    pub fn try_read(&self, tag: u64, idx: usize, word: usize) -> Option<(u64, u64)> {
        let mut value = [0u64];
        let ready = self.try_read_run(tag, idx, word, &mut value)?;
        Some((value[0], ready))
    }

    /// Optimistic lock-free read of the page at `idx`, provided the slot
    /// currently holds line `tag` and that page is valid: fills `out` from
    /// consecutive words starting at `first_word` and returns the line's
    /// `ready_at`. `None` means the caller must take the locked path (miss,
    /// or a concurrent mutation).
    #[inline]
    pub fn try_read_run(
        &self,
        tag: u64,
        idx: usize,
        first_word: usize,
        out: &mut [u64],
    ) -> Option<u64> {
        let slot = self.slot;
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 & 1 != 0 {
            return None;
        }
        if slot.tag.load(Ordering::Relaxed) != tag.wrapping_add(1)
            || slot.valid.load(Ordering::Relaxed) & (1u64 << idx) == 0
        {
            return None;
        }
        let ready = slot.ready.load(Ordering::Relaxed);
        self.data[idx].load_run(first_word, out);
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != s1 {
            return None;
        }
        Some(ready)
    }
}

#[inline]
fn bitset_words(bits: usize) -> Arena<AtomicU64> {
    zeroed_slice(bits.div_ceil(64))
}

#[inline]
fn bitset_write(words: &[AtomicU64], i: usize, on: bool) {
    let mask = 1u64 << (i % 64);
    if on {
        words[i / 64].fetch_or(mask, Ordering::Relaxed);
    } else {
        words[i / 64].fetch_and(!mask, Ordering::Relaxed);
    }
}

fn bitset_indices(words: &[AtomicU64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, word)| {
        let mut bits = word.load(Ordering::Relaxed);
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(w * 64 + b)
        })
    })
}

/// A node's page cache.
#[derive(Debug)]
pub struct PageCache {
    config: CacheConfig,
    slots: Arena<LineSlot>,
    /// Page metadata, `slot × pages_per_line + idx`.
    meta: Arena<MetaCell>,
    /// Page contents, indexed like `meta`.
    data: Arena<PageData>,
    /// Slots currently holding a valid page.
    occupied: Arena<AtomicU64>,
    /// Slots currently holding at least one dirty page.
    dirty: Arena<AtomicU64>,
}

impl PageCache {
    pub fn new(config: CacheConfig) -> Self {
        PageCache {
            meta: zeroed_slice(config.capacity_pages()),
            data: zeroed_slice(config.capacity_pages()),
            config,
            slots: zeroed_slice(config.lines),
            occupied: bitset_words(config.lines),
            dirty: bitset_words(config.lines),
        }
    }

    /// Line id containing `page`.
    #[inline]
    pub fn line_of(&self, page: PageNum) -> u64 {
        page.0 / self.config.pages_per_line as u64
    }

    /// First page of line `line`.
    #[inline]
    pub fn line_base(&self, line: u64) -> PageNum {
        PageNum(line * self.config.pages_per_line as u64)
    }

    /// Index of `page` within its line.
    #[inline]
    pub fn index_in_line(&self, page: PageNum) -> usize {
        (page.0 % self.config.pages_per_line as u64) as usize
    }

    /// The direct-mapped slot that `page` maps to (for the lock-free read
    /// path; mutations go through [`Self::lock_slot`]).
    #[inline]
    pub fn slot_for(&self, page: PageNum) -> SlotRef<'_> {
        let index = self.slot_index_for(page);
        SlotRef { slot: &self.slots[index], data: self.line_data(index) }
    }

    /// The page contents of slot `index`'s line.
    #[inline]
    fn line_data(&self, index: usize) -> &[PageData] {
        let n = self.config.pages_per_line;
        &self.data[index * n..][..n]
    }

    #[inline]
    fn slot_index_for(&self, page: PageNum) -> usize {
        (self.line_of(page) % self.config.lines as u64) as usize
    }

    /// Lock the slot that `page` maps to.
    #[inline]
    pub fn lock_slot(&self, page: PageNum) -> SlotGuard<'_> {
        self.lock_index(self.slot_index_for(page))
    }

    /// Lock slot `index` (used with the occupancy iterators for sweeps).
    #[inline]
    pub fn lock_index(&self, index: usize) -> SlotGuard<'_> {
        self.slots[index].lock();
        self.locked(index)
    }

    /// The guard of slot `index`, whose lock the caller has just taken.
    #[inline]
    fn locked(&self, index: usize) -> SlotGuard<'_> {
        let slot = &self.slots[index];
        SlotGuard {
            tag: slot.tag.load(Ordering::Relaxed).checked_sub(1),
            ready_at: slot.ready.load(Ordering::Relaxed),
            cache: self,
            index,
            wrote: false,
        }
    }

    /// Indices of slots currently holding a valid page, ascending.
    /// A lock-free snapshot: slots mutated concurrently may appear or not,
    /// exactly as they might under a full scan — callers re-check under the
    /// slot lock.
    pub fn occupied_indices(&self) -> impl Iterator<Item = usize> + '_ {
        bitset_indices(&self.occupied)
    }

    /// Indices of slots currently holding at least one dirty page,
    /// ascending (same snapshot semantics as [`Self::occupied_indices`]).
    pub fn dirty_indices(&self) -> impl Iterator<Item = usize> + '_ {
        bitset_indices(&self.dirty)
    }

    /// Lock the slot that `page` maps to unless someone else holds it.
    #[inline]
    pub fn try_lock_slot(&self, page: PageNum) -> Option<SlotGuard<'_>> {
        let index = self.slot_index_for(page);
        self.slots[index].try_lock().then(|| self.locked(index))
    }

    /// The sweep every fence, reset and decay walks: lock, in ascending
    /// order, each slot of `indices` — feed it [`Self::occupied_indices`]
    /// or [`Self::dirty_indices`] — and hand `visit` every valid page of
    /// the line it holds (with its index in the line). A line the visit
    /// leaves without a valid page gives its slot up — it leaves the
    /// occupied set, so fence cost stays proportional to what survives
    /// fences — but keeps its tag, and with it each page's [`Standing`], until
    /// a different line takes the slot. Stops at the first error.
    pub fn sweep<E>(
        &self,
        indices: impl Iterator<Item = usize>,
        mut visit: impl FnMut(&mut SlotGuard<'_>, usize, PageNum) -> Result<(), E>,
    ) -> Result<(), E> {
        for index in indices {
            let mut st = self.lock_index(index);
            let Some(tag) = st.tag() else { continue };
            let base = self.line_base(tag);
            for idx in 0..st.pages.len() {
                if st.pages[idx].valid {
                    visit(&mut st, idx, PageNum(base.0 + idx as u64))?;
                }
            }
        }
        Ok(())
    }
}

/// Exclusive access to one slot: its lock.
///
/// Dereferences to the slot's [`Line`]. The first change — a mutable
/// dereference, [`Self::retag`] or [`Self::set_ready`] — flips the slot's
/// seqlock odd (fencing out optimistic readers); dropping the guard after
/// one stores the slot words and the cache's occupancy bitsets, then flips
/// the seqlock even — all before the lock is released, so locked and
/// lock-free views can never disagree. Read-only uses pay none of this.
pub struct SlotGuard<'a> {
    tag: Option<u64>,
    ready_at: u64,
    cache: &'a PageCache,
    index: usize,
    wrote: bool,
}

impl<'a> SlotGuard<'a> {
    /// Data storage of the page at `idx` (zeros until first filled). The
    /// reference is tied to the cache, not the guard, so it can be used
    /// while metadata is mutably borrowed; contents are word-atomic.
    #[inline]
    pub fn data(&self, idx: usize) -> &'a PageData {
        &self.cache.line_data(self.index)[idx]
    }

    /// Alias of [`Self::data`] for callers about to fill the page: every
    /// page's storage exists from the cache's creation.
    #[inline]
    pub fn alloc_data(&self, idx: usize) -> &'a PageData {
        self.data(idx)
    }

    /// Line id (`page / pages_per_line`) resident in the slot, if any.
    #[inline]
    pub fn tag(&self) -> Option<u64> {
        self.tag
    }

    /// Virtual time at which the resident line's fill completed. Hits merge
    /// this: a thread cannot consume data before it arrived.
    #[inline]
    pub fn ready_at(&self) -> u64 {
        self.ready_at
    }

    #[inline]
    pub fn set_ready(&mut self, at: u64) {
        self.begin_write();
        self.ready_at = at;
    }

    /// Reset the slot for a new line tag; all pages become invalid/clean.
    pub fn retag(&mut self, tag: u64) {
        self.tag = Some(tag);
        self.ready_at = 0;
        for p in &mut self.pages {
            p.step(Event::Invalidate);
        }
    }

    /// The line's metadata cells, viewed as a [`Line`].
    #[inline]
    fn line(&self) -> *mut Line {
        let n = self.cache.config.pages_per_line;
        let cells: *const [MetaCell] = &self.cache.meta[self.index * n..][..n];
        // `MetaCell` is a transparent `UnsafeCell<CachedPage>`, `Line` a
        // transparent `[CachedPage]`.
        cells as *mut Line
    }

    /// Announce a fill before its data is copied: a sweep starting meanwhile
    /// sees the slot occupied and waits for the fill instead of skipping it.
    pub fn begin_fill(&mut self) {
        self.begin_write();
        bitset_write(&self.cache.occupied, self.index, true);
    }

    /// Seqlock writer entry, once per guard: odd store, then a release
    /// fence so the odd value is visible before any change.
    #[inline]
    fn begin_write(&mut self) {
        if !self.wrote {
            self.wrote = true;
            let seq = &self.cache.slots[self.index].seq;
            seq.store(seq.load(Ordering::Relaxed).wrapping_add(1), Ordering::Relaxed);
            fence(Ordering::Release);
        }
    }
}

impl Deref for SlotGuard<'_> {
    type Target = Line;

    #[inline]
    fn deref(&self) -> &Line {
        // SAFETY: as in `deref_mut`, and `&self` lends no `&mut Line`.
        unsafe { &*self.line() }
    }
}

impl DerefMut for SlotGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Line {
        self.begin_write();
        // SAFETY: the slot lock hands its holder its own line's metadata,
        // as a `MutexGuard` does: the guard holds the lock, so no other
        // thread reaches these cells (`MetaCell`), and the line is
        // borrowed no longer than the guard.
        unsafe { &mut *self.line() }
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let slot = &self.cache.slots[self.index];
        if self.wrote {
            let (mut valid, mut hits, mut any_dirty) = (0u64, 0u64, false);
            for (i, p) in self.pages.iter().enumerate() {
                valid |= u64::from(p.valid) << i;
                hits |= u64::from(p.valid && p.standing != Standing::Refilled) << i;
                any_dirty |= p.dirty();
            }
            slot.tag.store(self.tag.map_or(0, |t| t.wrapping_add(1)), Ordering::Relaxed);
            slot.valid.store(hits, Ordering::Relaxed);
            slot.ready.store(self.ready_at, Ordering::Relaxed);
            bitset_write(&self.cache.occupied, self.index, valid != 0);
            bitset_write(&self.cache.dirty, self.index, any_dirty);
            // Seqlock writer exit: back to even, releasing the changes.
            let s = slot.seq.load(Ordering::Relaxed);
            slot.seq.store(s.wrapping_add(1), Ordering::Release);
        }
        slot.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn direct_mapping_is_stable_and_conflicting() {
        let c = PageCache::new(CacheConfig::new(4, 2));
        // Pages 0 and 1 share line 0; page 8 maps to line 4 which conflicts
        // with line 0 in a 4-slot cache.
        assert_eq!(c.line_of(PageNum(0)), 0);
        assert_eq!(c.line_of(PageNum(1)), 0);
        assert_eq!(c.line_of(PageNum(8)), 4);
        let slot = |page| c.slot_for(PageNum(page)).slot;
        assert!(std::ptr::eq(slot(0), slot(1)));
        assert!(std::ptr::eq(slot(0), slot(8)));
        assert!(!std::ptr::eq(slot(0), slot(2)));
        assert!(std::ptr::eq(c.slot_for(PageNum(8)).data, c.line_data(0)));
    }

    #[test]
    fn a_never_filled_page_reads_zeros() {
        let c = PageCache::new(CacheConfig::new(4, 2));
        let g = c.lock_slot(PageNum(7));
        assert!((0..crate::WORDS_PER_PAGE).all(|w| g.data(1).load(w) == 0));
        assert!(std::ptr::eq(g.data(1), g.data(1)));
    }

    #[test]
    #[should_panic(expected = "a cache of 18446744073709551615 lines × 2 pages overflows")]
    fn oversized_caches_are_refused() {
        PageCache::new(CacheConfig::new(usize::MAX, 2));
    }

    #[test]
    fn retag_invalidates_all_pages() {
        let c = PageCache::new(CacheConfig::new(2, 2));
        let mut st = c.lock_slot(PageNum(0));
        st.tag = Some(0);
        st.pages[0].step(Event::Fill);
        st.pages[0].step(Event::WriteFault);
        st.pages[0].mask.set(3);
        st.retag(5);
        assert_eq!(st.tag(), Some(5));
        assert!(!st.pages[0].valid);
        assert!(!st.pages[0].dirty());
        assert!(st.pages[0].mask.is_empty());
    }

    #[test]
    fn every_standing_steps_by_the_table() {
        use Standing::*;
        let (cold, gone, k) = (Some(Cold), Some(Dropped), |idle| Some(Kept { idle }));
        let (p0, p1) = (Some(Protected { hot: false }), Some(Protected { hot: true }));
        let (w0, w1) = (Some(Written { hot: false }), Some(Written { hot: true }));
        let events = [
            Event::Fill,
            Event::Refill,
            Event::Touch,
            Event::WriteFault,
            Event::SiDrop,
            Event::Invalidate,
            Event::Checkpoint,
        ];
        // Each standing's row of the table, then its drains at bound 7 by
        // (fence, gate, posted) = FFF FFT FTF FTT TFF TFT TTF TTT.
        let rows = [
            (Cold, [cold, None, None, w0, gone, cold, None], [None; 8]),
            (Dropped, [Some(Consumer), Some(Refilled), None, None, None, cold, None], [None; 8]),
            (Consumer, [None, None, None, w0, gone, cold, None], [None; 8]),
            (Refilled, [None, None, Some(Consumer), w0, gone, cold, None], [None; 8]),
            (Protected { hot: false }, [None, None, None, w1, gone, cold, None], [None; 8]),
            (Protected { hot: true }, [None, None, None, w1, gone, cold, None], [None; 8]),
            (Written { hot: false }, [None, None, None, None, None, cold, w0], [p0; 8]),
            (
                Written { hot: true },
                [None, None, None, None, None, cold, w1],
                [p1, p1, p1, p1, p1, p1, k(0), k(0)],
            ),
            (
                Kept { idle: 0 },
                [None, None, None, None, None, cold, None],
                [p1, p1, p1, p1, p1, p1, k(1), k(0)],
            ),
            (
                Kept { idle: 6 },
                [None, None, None, None, None, cold, None],
                [p1, p1, p1, p1, p1, p1, p1, k(0)],
            ),
        ];
        for (standing, row, drains) in rows {
            for (event, want) in events.into_iter().zip(row) {
                for posted in [false, true] {
                    assert_eq!(next(standing, event, posted), want, "{standing:?} × {event:?}");
                }
            }
            for (i, want) in drains.into_iter().enumerate() {
                let (fence, gate, posted) = (i & 4 != 0, i & 2 != 0, i & 1 != 0);
                let drain = Event::Drain { fence, gate, bound: 7 };
                assert_eq!(
                    next(standing, drain, posted),
                    want,
                    "{standing:?} × {drain:?}, {posted}"
                );
            }
        }
        let (saturated, keep) =
            (Kept { idle: u16::MAX }, Event::Drain { fence: true, gate: true, bound: u64::MAX });
        assert_eq!(next(saturated, keep, false), Some(saturated), "the idle count saturates");
    }

    #[test]
    fn write_history_rides_in_the_flags_word() {
        // 8192 of these per node: the 64-byte mask and one word holding
        // `valid` and the standing.
        assert_eq!(std::mem::size_of::<CachedPage>(), 64 + 8);
        let mut p =
            CachedPage { valid: true, standing: Standing::Kept { idle: 2 }, ..Default::default() };
        p.step(Event::Drain { fence: true, gate: true, bound: 7 });
        assert!(p.dirty() && p.mask.is_empty() && p.standing == Standing::Kept { idle: 3 });
        p.mask.set(0);
        p.step(Event::Drain { fence: false, gate: true, bound: 7 });
        assert!(p.valid && p.mask.is_empty());
        assert_eq!(p.standing, Standing::Protected { hot: true }, "history survives a protect");
        p.step(Event::Invalidate);
        assert_eq!(p.standing, Standing::Cold, "but not an invalidation");
    }

    #[test]
    fn reuse_survives_the_slot_falling_empty_but_not_a_new_line() {
        let c = PageCache::new(CacheConfig::new(4, 1));
        let standing = |page: u64| c.lock_slot(PageNum(page)).pages[0].standing;
        let fill = |page: u64| {
            let mut g = c.lock_slot(PageNum(page));
            if g.tag() != Some(page) {
                g.retag(page);
            }
            g.pages[0].step(Event::Fill);
        };
        let si_drop_all = || {
            c.sweep(c.occupied_indices(), |st, idx, _| {
                st.pages[idx].step(Event::SiDrop);
                Ok::<(), ()>(())
            })
        };
        fill(1);
        si_drop_all().unwrap();
        assert_eq!(c.occupied_indices().count(), 0, "the emptied slot is given up");
        assert_eq!(standing(1), Standing::Dropped);
        fill(1);
        assert_eq!(standing(1), Standing::Consumer, "re-fetched after an SI drop");
        si_drop_all().unwrap();
        assert_eq!(standing(1), Standing::Dropped);
        fill(5); // the same slot, another line
        assert_eq!(standing(5), Standing::Cold);
    }

    #[test]
    fn refilled_pages_stay_off_the_lock_free_path_until_touched() {
        let c = PageCache::new(CacheConfig::new(4, 1));
        {
            let mut g = c.lock_slot(PageNum(2));
            g.retag(2);
            g.data(0).store(0, 9);
            g.pages[0].step(Event::Fill);
            g.pages[0].step(Event::SiDrop);
            g.pages[0].step(Event::Refill);
        }
        assert_eq!(c.slot_for(PageNum(2)).try_read(2, 0, 0), None);
        assert_eq!(c.occupied_indices().count(), 1);
        c.lock_slot(PageNum(2)).pages[0].step(Event::Touch);
        assert_eq!(c.slot_for(PageNum(2)).try_read(2, 0, 0), Some((9, 0)));
    }

    #[test]
    fn line_base_and_index_round_trip() {
        let c = PageCache::new(CacheConfig::new(8, 4));
        let p = PageNum(13);
        let line = c.line_of(p);
        assert_eq!(line, 3);
        assert_eq!(c.line_base(line), PageNum(12));
        assert_eq!(c.index_in_line(p), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lines_rejected() {
        CacheConfig::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "64")]
    fn oversized_lines_rejected() {
        CacheConfig::new(1, 65);
    }

    #[test]
    fn occupancy_bitsets_track_guard_mutations() {
        let c = PageCache::new(CacheConfig::new(128, 1));
        assert_eq!(c.occupied_indices().count(), 0);
        for page in [3u64, 70, 100] {
            let mut g = c.lock_slot(PageNum(page));
            let line = c.line_of(PageNum(page));
            g.retag(line);
            g.data(0).store(0, page);
            g.pages[0].step(Event::Fill);
        }
        assert_eq!(c.occupied_indices().collect::<Vec<_>>(), vec![3, 70, 100]);
        assert_eq!(c.dirty_indices().count(), 0);
        {
            let mut g = c.lock_slot(PageNum(70));
            g.pages[0].step(Event::WriteFault);
        }
        assert_eq!(c.dirty_indices().collect::<Vec<_>>(), vec![70]);
        {
            let mut g = c.lock_slot(PageNum(70));
            g.pages[0].step(Event::Invalidate);
            g.tag = None;
        }
        assert_eq!(c.occupied_indices().collect::<Vec<_>>(), vec![3, 100]);
        assert_eq!(c.dirty_indices().count(), 0);
    }

    #[test]
    fn a_waiter_sleeps_until_the_holder_lets_go() {
        let c = Arc::new(PageCache::new(CacheConfig::new(1, 1)));
        let held = c.lock_index(0);
        let waiter = {
            let c = c.clone();
            std::thread::spawn(move || c.lock_index(0).set_ready(1))
        };
        while c.slots[0].lock.load(Ordering::Relaxed) != 2 {
            std::thread::yield_now();
        }
        drop(held);
        waiter.join().unwrap();
        assert_eq!(c.lock_index(0).ready_at(), 1);
        assert_eq!(c.slots[0].lock.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn read_only_guard_leaves_seqlock_untouched() {
        let c = PageCache::new(CacheConfig::new(4, 1));
        let before = c.slots[0].seq.load(Ordering::Relaxed);
        {
            let g = c.lock_index(0);
            assert_eq!(g.tag(), None);
        }
        assert_eq!(c.slots[0].seq.load(Ordering::Relaxed), before);
    }

    #[test]
    fn try_read_hits_only_valid_tagged_pages() {
        let c = PageCache::new(CacheConfig::new(4, 2));
        let slot = c.slot_for(PageNum(0));
        assert_eq!(slot.try_read(0, 0, 0), None); // empty slot
        {
            let mut g = c.lock_slot(PageNum(0));
            g.retag(0);
            g.data(0).store(7, 42);
            g.pages[0].step(Event::Fill);
            g.set_ready(123);
        }
        assert_eq!(slot.try_read(0, 0, 7), Some((42, 123)));
        assert_eq!(slot.try_read(0, 1, 7), None); // page 1 invalid
        assert_eq!(slot.try_read(9, 0, 7), None); // wrong tag
        {
            let mut g = c.lock_slot(PageNum(0));
            g.pages[0].step(Event::Invalidate);
        }
        assert_eq!(slot.try_read(0, 0, 7), None); // invalidated
    }

    #[test]
    fn try_read_run_reads_consecutive_words() {
        let c = PageCache::new(CacheConfig::new(4, 1));
        {
            let mut g = c.lock_slot(PageNum(5));
            g.retag(5);
            let d = g.data(0);
            for w in 0..8 {
                d.store(w, (w as u64) * 11);
            }
            g.pages[0].step(Event::Fill);
            g.set_ready(9);
        }
        let mut out = [0u64; 4];
        let slot = c.slot_for(PageNum(5));
        assert_eq!(slot.try_read_run(5, 0, 2, &mut out), Some(9));
        assert_eq!(out, [22, 33, 44, 55]);
        assert_eq!(slot.try_read_run(6, 0, 2, &mut out), None);
    }

    #[test]
    fn concurrent_retag_and_fill_is_consistent() {
        let cache = Arc::new(PageCache::new(CacheConfig::new(4, 2)));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for round in 0..500u64 {
                        let page = PageNum((t * 500 + round) * 2);
                        let mut st = cache.lock_slot(page);
                        let line = cache.line_of(page);
                        if st.tag() != Some(line) {
                            st.retag(line);
                        }
                        let idx = cache.index_in_line(page);
                        st.data(idx).store(0, t * 1000 + round);
                        st.pages[idx].step(Event::Fill);
                        // Invariant under the lock: tag matches what we set.
                        assert_eq!(st.tag(), Some(line));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn seqlock_readers_never_observe_torn_state() {
        // One thread alternates slot contents between two (tag, value)
        // pairs; readers must only ever observe matched pairs.
        let cache = Arc::new(PageCache::new(CacheConfig::new(1, 1)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cache = cache.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for tag in [0u64, 1] {
                            let slot = cache.slot_for(PageNum(tag));
                            if let Some((v, ready)) = slot.try_read(tag, 0, 0) {
                                assert_eq!(v, tag * 1000 + 5, "torn value for tag {tag}");
                                assert_eq!(ready, tag + 7, "torn ready_at for tag {tag}");
                                hits += 1;
                            }
                        }
                    }
                    hits
                })
            })
            .collect();
        for round in 0..20_000u64 {
            let tag = round % 2;
            let mut g = cache.lock_slot(PageNum(tag));
            g.retag(tag);
            g.data(0).store(0, tag * 1000 + 5);
            g.pages[0].step(Event::Fill);
            g.set_ready(tag + 7);
        }
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
    }
}
