//! Self-downgrade (paper §3.2 diffs, §3.6.1 write buffer): the one way a
//! dirty page reaches home memory (`write_home`), the write-back step every
//! downgrade runs, the keep-or-protect decision that follows it
//! (`downgrade_local`), and its postings: one at a time, or pipelined
//! behind the scan for a fence.

use super::*;
use crate::config::{PAGE_COPY_CYCLES, PROTECT_CYCLES};

/// Wire overhead of a downgrade message header (address + length).
const DOWNGRADE_HEADER_BYTES: u64 = 32;
/// Wire bytes per diffed word (8 data + 2 index).
const DIFF_WORD_BYTES: u64 = 10;

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// The one way home: copy the words the write mask covers from the
    /// dirty cached page at `idx` of the locked slot into `page`'s home
    /// memory — **always** just those, however many: a false sharer's
    /// words that drained earlier must survive this node's stale copy of
    /// them. The mask is the diff: under DRF no other node writes a masked
    /// word in this epoch, so posting it — even unchanged (a silent store)
    /// — loses nothing. Returns the words posted. Data plane only: no
    /// cycles, no counters, the page stays dirty.
    pub(super) fn write_home(&self, st: &SlotGuard<'_>, page: PageNum, idx: usize) -> u64 {
        let (mask, home) = (&st.pages[idx].mask, self.global.home_page(page));
        st.data(idx).masked_words(mask, |w, v| home.store(w, v));
        mask.count() as u64
    }

    /// Where `st` — `node`'s locked slot for `page` — holds the page dirty:
    /// its index in the line; `None` if the page is clean, invalid, or was
    /// evicted (and flushed) since it entered the write buffer.
    pub(super) fn dirty_index(&self, st: &SlotGuard, page: PageNum, node: u16) -> Option<usize> {
        let cache = &self.nodes[node as usize].cache;
        let idx = cache.index_in_line(page);
        let cp = &st.pages[idx];
        (st.tag == Some(cache.line_of(page)) && cp.valid && cp.dirty).then_some(idx)
    }

    /// Fences in a row a kept page may sit unwritten: until its scans cost
    /// what the protect + trap they put off would (0: never keep).
    fn idle_scan_bound(&self) -> u64 {
        (self.net.cost().fault_trap_cycles + PROTECT_CYCLES) / PAGE_COPY_CYCLES
    }

    /// The write-back step of every downgrade: move `owner`'s dirty copy of
    /// `page` home; returns where `st` holds it and the wire size of the
    /// message now owed to the home — `None` if the page needed no
    /// downgrade. The diff scan is charged to `t`, the counters to `owner`
    /// (the collective decay downgrades on other nodes' behalf). The page
    /// stays dirty: the caller protects, invalidates or re-arms it.
    ///
    /// The wire size is a *cost* rule on top of [`Self::write_home`]'s data
    /// rule: a diff travels as header + 10 bytes per word, capped at one
    /// page (a sender would ship the page instead). A page kept
    /// writable that nobody stored to since owes nothing and posts
    /// nothing, but its empty mask is a host shortcut, not a cost one: the
    /// simulated machine learns it by scanning, and pays for the scan.
    pub(super) fn write_back(
        &self,
        t: &mut T::Endpoint,
        st: &SlotGuard<'_>,
        page: PageNum,
        owner: u16,
    ) -> Option<(usize, Option<u64>)> {
        let idx = self.dirty_index(st, page, owner)?;
        let shard = self.stats.shard(owner);
        if st.pages[idx].mask.is_empty() {
            t.compute(PAGE_COPY_CYCLES);
            CoherenceStats::bump(&shard.retained_idle_scans);
            return Some((idx, None));
        }
        let words = self.write_home(st, page, idx);
        t.compute(PAGE_COPY_CYCLES); // the paper's diff scan
        let diff_bytes = DOWNGRADE_HEADER_BYTES + words * DIFF_WORD_BYTES;
        if diff_bytes < PAGE_BYTES {
            CoherenceStats::add(&shard.diff_words, words);
        }
        let bytes = diff_bytes.min(PAGE_BYTES);
        CoherenceStats::bump(&shard.writebacks);
        CoherenceStats::add(&shard.writeback_bytes, bytes);
        Some((idx, Some(bytes)))
    }

    /// The local half of a node's own downgrade — all drain paths (fence,
    /// overflow, eviction) funnel through here: [`Self::write_back`], the
    /// one keep-or-protect decision, and, if there were stores, retiring
    /// any speculative snapshot of the old version and the policy's clock
    /// advance. A `fence` drain keeps a write-hot page writable if it is
    /// buffered in classification mode, re-arming its mask for the price of
    /// the paper's eager re-twin (a leased page's written copy dies at the
    /// writer's next acquire, so keeping it buys nothing); anything else —
    /// another path, a cold page, one idle for [`Self::idle_scan_bound`]
    /// fences (demoted: history cleared) — is re-protected and faults on its next write. A kept
    /// page re-enters the write buffer before the slot lock is released
    /// (a sibling's store must find it buffered). Returns the wire bytes
    /// owed to the home, if any, and the overflow victim that re-entry
    /// pushed out, for the caller to downgrade once the lock is released.
    fn downgrade_local(
        &self,
        t: &mut T::Endpoint,
        st: &mut SlotGuard<'_>,
        page: PageNum,
        me: u16,
        fence: bool,
    ) -> (Option<u64>, Option<PageNum>) {
        let Some((idx, bytes)) = self.write_back(t, st, page, me) else {
            return (None, None);
        };
        let cp = &mut st.pages[idx];
        let began_writable = cp.kept_idle.is_some();
        let idle = cp.kept_idle.filter(|_| bytes.is_none()).map_or(0, |k| k.saturating_add(1));
        let keep = fence
            && cp.write_faults >= 2
            && u64::from(idle) < self.idle_scan_bound()
            && self.coherence.page_mode(page) == PageMode::Classify
            && self.coherence.write_buffered(me, page);
        let mut victim = None;
        if keep {
            cp.rearm(idle);
            victim = self.nodes[me as usize].wbuf.push(page);
            if bytes.is_some() {
                t.compute(PAGE_COPY_CYCLES); // the paper's eager re-twin
                CoherenceStats::bump(&self.stats.shard(me).write_retained);
            }
        } else {
            cp.mark_clean();
            if fence && bytes.is_none() {
                cp.write_faults = 0;
            }
            t.compute(PROTECT_CYCLES);
        }
        if bytes.is_some() {
            self.retire_prefetched(me, page);
            self.coherence.note_downgrade(me, page);
            if began_writable {
                // No write fault opened this epoch: its drain raises the
                // clean→dirty event instead.
                self.coherence.note_written_epoch(me, page);
            }
            let home = self.global.home_of(page);
            debug_assert_ne!(home, me, "a page is never cached on its home (see `rehome_page`)");
            self.detail(t, me, obs::RecordKind::Downgrade, page.0, home as u32);
        }
        (bytes, victim)
    }

    /// Downgrade the overflow `victim`, if any, of a write-buffer push (no
    /// slot lock held): the buffer keeps its bound.
    pub(super) fn downgrade_victim(
        &self,
        t: &mut T::Endpoint,
        victim: Option<PageNum>,
        me: u16,
    ) -> Result<(), DsmError> {
        let Some(page) = victim else { return Ok(()) };
        let mut st = self.nodes[me as usize].cache.lock_slot(page);
        self.downgrade_locked(t, &mut st, page, me)
    }

    /// Post `page`'s write-back of `bytes` from `t`'s node to the page's home.
    pub(super) fn post_write_back(
        &self,
        t: &mut T::Endpoint,
        page: PageNum,
        bytes: u64,
    ) -> Result<Completion, DsmError> {
        let (home, verb) = (self.global.home_of(page), Verb::Write { bytes });
        self.net_verb(t, home, VerbClass::Downgrade, page.0, t.now(), &verb)
    }

    /// Downgrade with the slot lock already held — protected, never kept
    /// (every path but the fence's): resolve the data locally, then post
    /// the write-back home and wait out its posting.
    pub(super) fn downgrade_locked(
        &self,
        t: &mut T::Endpoint,
        st: &mut SlotGuard<'_>,
        page: PageNum,
        me: u16,
    ) -> Result<(), DsmError> {
        if let (Some(bytes), _) = self.downgrade_local(t, st, page, me, false) {
            let timing = self.post_write_back(t, page, bytes)?;
            self.settle_posted(t, me, &timing);
        }
        Ok(())
    }

    /// The SD fence's drain, posted as it scans: each page, in FIFO order,
    /// runs [`Self::downgrade_local`] and has its write-back issued at the
    /// thread's clock right away, its completion unmerged — a put returns
    /// once posted (MPI-3 RMA), so the next page's scan overlaps this one's
    /// wire time. An overflow victim a kept page pushes out is downgraded
    /// (never kept) and posted the same way. Only after the last page is
    /// every posting polled, each retried from its own issue time; the
    /// thread then waits once, for the latest initiator window, and the
    /// fence for the latest settle. A failed posting does not stop the
    /// other polls — no completion stays parked in the endpoint — and since
    /// every local half already ran, no page is left dirty outside the
    /// write buffer; the first error is returned.
    pub(super) fn drain_posted(
        &self,
        t: &mut T::Endpoint,
        pages: &[PageNum],
        me: u16,
    ) -> Result<(), DsmError> {
        let ns = &self.nodes[me as usize];
        let (span, obs_issue) = (t.current_span(), t.obs_now());
        let mut inflight = Vec::with_capacity(pages.len());
        let mut failed = None;
        for &page in pages {
            let mut next = Some((page, true));
            while let Some((page, fence)) = next.take() {
                let mut st = ns.cache.lock_slot(page);
                let (bytes, victim) = self.downgrade_local(t, &mut st, page, me, fence);
                drop(st);
                next = victim.map(|victim| (victim, false));
                let Some(bytes) = bytes else { continue };
                let home = self.global.home_of(page);
                if let Err(e) = self.check_alive(me, home, VerbClass::Downgrade, span) {
                    failed.get_or_insert(e);
                    continue;
                }
                let at = t.now();
                let token = t.issue(NodeId(home), &Verb::Write { bytes }, at);
                inflight.push(Posted { token, page, bytes, at, home });
            }
        }
        let mut done = Completion::default();
        for p in &inflight {
            let verb = Verb::Write { bytes: p.bytes };
            let polled = self.poll_retried(
                t,
                p.home,
                p.token,
                (VerbClass::Downgrade, p.page.0),
                span,
                obs_issue,
                p.bytes,
                |t, delay| t.issue(NodeId(p.home), &verb, p.at + delay),
            );
            match polled {
                Ok(c) => {
                    done.initiator_done = done.initiator_done.max(c.initiator_done);
                    done.settled = done.settled.max(c.settled);
                }
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        self.settle_posted(t, me, &done);
        if inflight.len() > 1 {
            let waited = t.obs_now().saturating_sub(obs_issue);
            self.profile.record(me as usize, obs::Site::IssueToPoll, waited);
        }
        failed.map_or(Ok(()), Err)
    }
}

/// One write-back of an SD-fence drain in flight: all its poll needs to
/// retry it (the schedule is rebuilt from the page, and only on failure).
struct Posted {
    token: VerbToken,
    page: PageNum,
    bytes: u64,
    at: u64,
    home: u16,
}
