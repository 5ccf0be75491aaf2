//! Self-downgrade (paper §3.2 diffs, §3.6.1 write buffer): the one way a
//! dirty page reaches home memory (`write_home`), the write-back step every
//! downgrade runs, the keep-or-protect decision that follows it
//! (`downgrade_local`), and its per-page and home-batched postings.

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
    /// advance. A `fence` drain keeps a write-hot page writable where the
    /// policy allows, re-arming its mask for the price of the paper's
    /// eager re-twin; anything else — another path, a cold page,
    /// one idle for [`Self::idle_scan_bound`] fences (demoted: history
    /// cleared) — is re-protected and faults on its next write. A kept
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
            && self.coherence.keeps_write_hot(me, page);
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

    /// Downgrade `page`, locking its slot (`fence`: the per-page drain).
    pub(super) fn downgrade(
        &self,
        t: &mut T::Endpoint,
        page: PageNum,
        me: u16,
        fence: bool,
    ) -> Result<(), DsmError> {
        let mut st = self.nodes[me as usize].cache.lock_slot(page);
        let victim = self.downgrade_locked(t, &mut st, page, me, fence)?;
        drop(st);
        self.downgrade_victim(t, victim, me)
    }

    /// Downgrade the overflow `victim`, if any, of a write-buffer push (no
    /// slot lock held) — protected, never kept: the buffer keeps its bound.
    pub(super) fn downgrade_victim(
        &self,
        t: &mut T::Endpoint,
        victim: Option<PageNum>,
        me: u16,
    ) -> Result<(), DsmError> {
        victim.map_or(Ok(()), |page| self.downgrade(t, page, me, false))
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

    /// Downgrade with the slot lock already held: resolve the data locally,
    /// then post the write-back home immediately (the per-page path).
    /// `Ok(Some(victim))`: see [`Self::downgrade_local`].
    pub(super) fn downgrade_locked(
        &self,
        t: &mut T::Endpoint,
        st: &mut SlotGuard<'_>,
        page: PageNum,
        me: u16,
        fence: bool,
    ) -> Result<Option<PageNum>, DsmError> {
        let (bytes, victim) = self.downgrade_local(t, st, page, me, fence);
        if let Some(bytes) = bytes {
            let timing = self.post_write_back(t, page, bytes)?;
            self.settle_posted(t, me, &timing);
        }
        Ok(victim)
    }

    /// SD-fence drain that coalesces write-backs by home node: every dirty
    /// page is still diffed into home memory individually and in global
    /// FIFO order, but instead of one verb per page each home receives one
    /// [`Verb::WriteBatch`] (one doorbell, one posting) carrying all of its
    /// pages' diffs. Homes appear in first-victim order.
    pub(super) fn drain_batched(
        &self,
        t: &mut T::Endpoint,
        pages: &[PageNum],
        me: u16,
    ) -> Result<(), DsmError> {
        let ns = &self.nodes[me as usize];
        let mut batches: Vec<(u16, Vec<u64>)> = Vec::new();
        let mut victims = Vec::new();
        for &page in pages {
            let mut st = ns.cache.lock_slot(page);
            let (bytes, victim) = self.downgrade_local(t, &mut st, page, me, true);
            drop(st);
            if let Some(bytes) = bytes {
                push_grouped(&mut batches, self.global.home_of(page), bytes);
            }
            victims.extend(victim);
        }
        for victim in victims {
            self.downgrade(t, victim, me, false)?;
        }
        if batches.is_empty() {
            return Ok(());
        }
        // (home, pages, bytes, the batch verb)
        let batches: Vec<(u16, u64, u64, Verb)> = batches
            .into_iter()
            .map(|(home, sizes)| {
                let (pages, bytes) = (sizes.len() as u64, sizes.iter().sum());
                (home, pages, bytes, Verb::WriteBatch { sizes })
            })
            .collect();
        // Issue every home's batch before polling any: drains to distinct
        // homes overlap on the fabric, so the fence pays the slowest home's
        // posting once instead of summing every home's. Homes still hit the
        // wire in first-victim order.
        let obs_issue = t.obs_now();
        let span = t.current_span();
        let base = t.now();
        let mut inflight = Vec::with_capacity(batches.len());
        for (home, _, _, verb) in &batches {
            self.check_alive(me, *home, VerbClass::DrainBatch, span)?;
            let mut seq = self
                .config
                .retry
                .attempt_seq(VerbClass::DrainBatch, *home as u64)
                .with_span(span);
            let a0 = seq.next().expect("retry budget is at least one attempt");
            let token = t.issue(NodeId(*home), verb, base + a0.delay);
            inflight.push((token, seq, a0));
        }
        let mut done = base;
        for ((home, pages, bytes, verb), issued) in batches.iter().zip(inflight) {
            let timing = self.poll_retried(
                t,
                me,
                *home,
                issued,
                obs_issue,
                VerbClass::DrainBatch,
                *bytes,
                |t, delay| t.issue(NodeId(*home), verb, base + delay),
            )?;
            done = done.max(timing.initiator_done);
            self.await_at_fence(me, &timing);
            CoherenceStats::bump(&self.stats.shard(me).downgrade_batches);
            CoherenceStats::add(&self.stats.shard(me).downgrade_batch_pages, *pages);
            self.detail(t, me, obs::RecordKind::DowngradeBatch, *pages, *home as u32);
        }
        t.merge(done);
        self.profile.record(
            me as usize,
            obs::Site::IssueToPoll,
            t.obs_now().saturating_sub(obs_issue),
        );
        Ok(())
    }
}
