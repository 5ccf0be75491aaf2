//! The typed access path (paper §3.3–§3.6): check the page cache; a miss
//! fetches and registers, the first write to a clean page registers, and
//! every store marks its words in the page's write mask. Two per-page
//! steps — `read_run` and `write_run` — under four generic entry points; a
//! scalar access is the run of one word.

use super::*;
use crate::config::{HIT_CYCLES, PAGE_COPY_CYCLES, STREAM_WORD_CYCLES};
use mem::{Word, WORDS_PER_PAGE};

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Read the aligned word at `addr`, surfacing retry-budget exhaustion
    /// as a [`DsmError`] instead of panicking.
    #[inline]
    pub fn try_read<W: Word>(&self, t: &mut T::Endpoint, addr: GlobalAddr) -> Result<W, DsmError> {
        let mut word = [0u64];
        self.read_run(t, addr, &mut word, 0)?;
        Ok(W::from_bits(word[0]))
    }

    /// Write the aligned word at `addr` (fallible; see [`Self::try_read`]).
    #[inline]
    pub fn try_write<W: Word>(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        value: W,
    ) -> Result<(), DsmError> {
        self.write_run(t, addr, &[value.to_bits()], 0)
    }

    /// Bulk read of `out.len()` consecutive words starting at `addr`
    /// (fallible; see [`Self::try_read`]).
    ///
    /// Semantically identical to a loop of scalar reads, but the protocol
    /// work (slot locking, hit check) is done once per *page* and streaming
    /// words are charged [`STREAM_WORD_CYCLES`] each — modeling a loop whose
    /// per-element cost is hidden by hardware caches. Workload kernels use
    /// this for row-contiguous access. An empty slice touches nothing.
    #[inline]
    pub fn try_read_slice<W: Word>(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        out: &mut [W],
    ) -> Result<(), DsmError> {
        let out = W::as_words_mut(out);
        addr.page_runs(out.len()).try_for_each(|(a, run)| {
            let stream = run.len() as u64 * STREAM_WORD_CYCLES;
            self.read_run(t, a, &mut out[run], stream)
        })
    }

    /// Bulk write of consecutive words (see [`Self::try_read_slice`]).
    #[inline]
    pub fn try_write_slice<W: Word>(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        data: &[W],
    ) -> Result<(), DsmError> {
        let data = W::as_words(data);
        addr.page_runs(data.len()).try_for_each(|(a, run)| {
            let stream = run.len() as u64 * STREAM_WORD_CYCLES;
            self.write_run(t, a, &data[run], stream)
        })
    }

    // The panicking names: programs that opted out of fault handling abort
    // if the fabric stays broken past the retry budget.

    /// Read an aligned 64-bit word at `addr`.
    pub fn read_u64(&self, t: &mut T::Endpoint, addr: GlobalAddr) -> u64 {
        Self::unrecoverable(self.try_read(t, addr))
    }

    /// Write an aligned 64-bit word at `addr`.
    pub fn write_u64(&self, t: &mut T::Endpoint, addr: GlobalAddr, value: u64) {
        Self::unrecoverable(self.try_write(t, addr, value))
    }

    /// Read an aligned f64.
    pub fn read_f64(&self, t: &mut T::Endpoint, addr: GlobalAddr) -> f64 {
        Self::unrecoverable(self.try_read(t, addr))
    }

    /// Write an aligned f64.
    pub fn write_f64(&self, t: &mut T::Endpoint, addr: GlobalAddr, value: f64) {
        Self::unrecoverable(self.try_write(t, addr, value))
    }

    /// Bulk u64 read (see [`Self::try_read_slice`]).
    pub fn read_u64_slice(&self, t: &mut T::Endpoint, addr: GlobalAddr, out: &mut [u64]) {
        Self::unrecoverable(self.try_read_slice(t, addr, out))
    }

    /// Bulk u64 write (see [`Self::try_read_slice`]).
    pub fn write_u64_slice(&self, t: &mut T::Endpoint, addr: GlobalAddr, data: &[u64]) {
        Self::unrecoverable(self.try_write_slice(t, addr, data))
    }

    /// Bulk f64 read (see [`Self::try_read_slice`]).
    pub fn read_f64_slice(&self, t: &mut T::Endpoint, addr: GlobalAddr, out: &mut [f64]) {
        Self::unrecoverable(self.try_read_slice(t, addr, out))
    }

    /// Bulk f64 write (see [`Self::try_read_slice`]).
    pub fn write_f64_slice(&self, t: &mut T::Endpoint, addr: GlobalAddr, data: &[f64]) {
        Self::unrecoverable(self.try_write_slice(t, addr, data))
    }

    /// The read step: fill `out` from the words at `addr`, all within one
    /// page. Charges one hit plus the caller's `stream` cycles (0 for a
    /// scalar; one [`STREAM_WORD_CYCLES`] per word of a slice run).
    #[inline]
    fn read_run(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        out: &mut [u64],
        stream: u64,
    ) -> Result<(), DsmError> {
        let (page, first) = (addr.page(), addr.word_index());
        let me = t.node().0;
        t.compute(HIT_CYCLES + stream);
        if self.global.home_of(page) == me {
            self.register_home(t, page, me, false)?;
            self.global.home_page(page).load_run(first, out);
            return Ok(());
        }
        let ns = &self.nodes[me as usize];
        let line = ns.cache.line_of(page);
        let idx = ns.cache.index_in_line(page);
        // Hit fast path: the run is copied under one optimistic seqlock
        // window, no slot lock. Falls through to the locked path on a miss
        // or a concurrent mutation.
        if let Some(ready) = ns.cache.slot_for(page).try_read_run(line, idx, first, out) {
            CoherenceStats::bump(&self.stats.shard(me).read_hits);
            t.merge(ready);
            return Ok(());
        }
        let mut st = ns.cache.lock_slot(page);
        if st.tag() == Some(line) && st.pages[idx].valid {
            CoherenceStats::bump(&self.stats.shard(me).read_hits);
            t.merge(st.ready_at());
            if st.pages[idx].standing == Standing::Refilled {
                st.pages[idx].step(Event::Touch);
            }
        } else {
            self.read_miss(t, &mut st, page, me, false)?;
        }
        st.data(idx).load_run(first, out);
        Ok(())
    }

    /// The write step: store `data` to the words at `addr`, all within one
    /// page (cost rule as in [`Self::read_run`]).
    #[inline]
    fn write_run(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        data: &[u64],
        stream: u64,
    ) -> Result<(), DsmError> {
        let (page, first) = (addr.page(), addr.word_index());
        let me = t.node().0;
        t.compute(HIT_CYCLES + stream);
        if self.global.home_of(page) == me {
            self.register_home(t, page, me, true)?;
            self.global.home_page(page).store_run(first, data);
            // A sibling thread's release may have closed our write epoch
            // between the registration above and the stores landing, in
            // which case the epoch's version bump did not cover these
            // bytes. Re-checking after the stores re-registers the page so
            // the next release covers it. (No-op for map-based policies.)
            return self.register_home(t, page, me, true);
        }
        let ns = &self.nodes[me as usize];
        let mut st = ns.cache.lock_slot(page);
        let idx = ns.cache.index_in_line(page);
        let missing = st.tag() != Some(ns.cache.line_of(page)) || !st.pages[idx].valid;
        let overwrite = missing && data.len() == WORDS_PER_PAGE;
        if missing {
            // Write-allocate; a store of the whole page fetches none of it.
            self.read_miss(t, &mut st, page, me, overwrite)?;
        } else if st.pages[idx].standing == Standing::Refilled {
            t.merge(st.ready_at()); // the store lands on the refilled data
        }
        let buffered = if st.pages[idx].dirty() {
            CoherenceStats::bump(&self.stats.shard(me).write_hits);
            false
        } else {
            let fault = self.write_fault_locked(t, &mut st, page, me);
            if fault.is_err() && overwrite {
                // The store will not land: drop the copy no verb fetched.
                st.pages[idx].step(Event::Invalidate);
            }
            fault?
        };
        // The mask records exactly the stored words — the diff the
        // write-back posts. Sound because all stores to cached pages happen
        // under the slot lock, which the downgrade that reads and clears
        // the mask takes too. The page is buffered before the lock goes: a
        // sibling's store to it pushes nothing, and must not miss a release.
        st.pages[idx].mask.cover(first, data.len());
        st.data(idx).store_run(first, data);
        let victim = buffered.then(|| ns.wbuf.push(page)).flatten();
        drop(st);
        self.downgrade_victim(t, victim, me)
    }

    /// The clean→dirty transition of a cached page (a protection fault in
    /// the real implementation): register as writer, mark dirty. Returns
    /// whether the page should enter the write buffer; the caller pushes it
    /// under the slot lock and downgrades the overflow victim after.
    fn write_fault_locked(
        &self,
        t: &mut T::Endpoint,
        st: &mut SlotGuard<'_>,
        page: PageNum,
        me: u16,
    ) -> Result<bool, DsmError> {
        let idx = self.nodes[me as usize].cache.index_in_line(page);
        self.site(t, obs::Site::WriteFault, page.0, |t, _| {
            CoherenceStats::bump(&self.stats.shard(me).write_faults);
            t.fault_trap();
            self.register_writer(t, page, me)?;
            let buffer = self.coherence.write_buffered(me, page);
            self.coherence.note_written_epoch(me, page);
            debug_assert!(st.pages[idx].mask.is_empty(), "clean page carries mask bits");
            // The paper twins here, because its trap cannot say which words
            // will be stored; the mask can, so the host copies nothing. The
            // simulated machine still pays the paper's hot page copy.
            t.compute(PAGE_COPY_CYCLES);
            st.pages[idx].step(Event::WriteFault);
            Ok(buffer)
        })
    }
}
