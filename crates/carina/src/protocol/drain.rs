//! Self-downgrade (paper §3.2 diffs, §3.6.1 write buffer): the one way a
//! dirty page reaches home memory (`write_home`), the write-back step every
//! downgrade runs, the keep-or-protect decision that follows it
//! (`downgrade_local`), and its postings: one at a time, or for a fence
//! one per round trip of wire, pipelined behind the scan.

use super::*;
use crate::config::{PAGE_COPY_CYCLES, PROTECT_CYCLES, STREAM_WORD_CYCLES};

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
    fn dirty_index(&self, st: &SlotGuard, page: PageNum, node: u16) -> Option<usize> {
        let cache = &self.nodes[node as usize].cache;
        let idx = cache.index_in_line(page);
        (st.tag() == Some(cache.line_of(page)) && st.pages[idx].dirty()).then_some(idx)
    }

    /// Idle fences in a row before a kept page is protected (hot): until its
    /// scans cost what the protect + trap they put off would (0: never keep).
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
            if matches!(st.pages[idx].standing, Standing::Kept { .. }) {
                CoherenceStats::bump(&shard.retained_idle_scans);
            }
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
    /// page's [`Event::Drain`] step, and, if there were stores, the
    /// policy's clock advance. The step keeps a write-hot page writable on
    /// a `fence` drain the policy buffers in classification mode (a leased
    /// copy dies at the writer's next acquire anyway) and re-protects
    /// anything else, heat kept. A kept page's re-twin rides its diff scan:
    /// the scan stores each word it emits into the twin as well, so the
    /// re-arm costs one streamed store per posted word, not a second page
    /// copy. A kept page re-enters the write buffer before the slot lock is
    /// released (a sibling's store must find it buffered). Returns the wire
    /// bytes owed to the home, if any, and the overflow victim that re-entry
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
        let gate = fence
            && self.coherence.page_mode(page) == PageMode::Classify
            && self.coherence.write_buffered(me, page);
        let words = st.pages[idx].mask.count() as u64;
        let was = st.pages[idx].step(Event::Drain { fence, gate, bound: self.idle_scan_bound() });
        let kept = st.pages[idx].dirty();
        let victim = kept.then(|| self.nodes[me as usize].wbuf.push(page)).flatten();
        if !kept {
            t.compute(PROTECT_CYCLES);
        } else if bytes.is_some() {
            t.compute(words * STREAM_WORD_CYCLES); // the re-twin, fused into the scan
            CoherenceStats::bump(&self.stats.shard(me).write_retained);
        }
        if bytes.is_some() {
            self.coherence.note_downgrade(me, page);
            if matches!(was, Standing::Kept { .. }) {
                // No write fault opened this epoch: its drain raises the
                // clean→dirty event instead.
                self.coherence.note_written_epoch(me, page);
            }
            let home = self.global.home_of(page);
            debug_assert_ne!(home, me, "a page is never cached on its home");
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
        let done = self.downgrade_locked(t, &mut st, page, me);
        drop(st);
        self.nodes[me as usize].wbuf.victims_done(1);
        done
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

    /// The SD fence's drain, posted as it scans: each home-window group of
    /// `drain.pages` (`window_runs`, uncapped) is [`Self::downgrade_local`]ed
    /// in order into one pending write, issued unmerged (a put returns once
    /// posted, MPI-3 RMA) at the clock its last page's scan ended, so later
    /// scans overlap its wire. The write is cut before a page that would
    /// push its wire past one round trip (`2 × network_latency`); early, once
    /// its wire, still below its pages' diff scans, is no longer below those
    /// of all pages left but the next, so the tail steps down to the last
    /// page; and at the group's end. Kept pages' overflow victims are a
    /// second round. Then every posting is polled, each retried whole from
    /// its issue time, and the thread waits once, for the latest initiator
    /// window (the fence, for the latest settle). A failed posting does not
    /// stop the other polls, and every local half already ran, so no page
    /// is left dirty outside the write buffer; the first error is returned.
    pub(super) fn drain_posted(
        &self,
        t: &mut T::Endpoint,
        drain: &mut Drain,
        me: u16,
    ) -> Result<(), DsmError> {
        let (ns, cost) = (&self.nodes[me as usize], self.net.cost());
        let trip = 2 * cost.network_latency;
        let obs_issue = t.obs_now();
        let Drain { pages, victims, runs, inflight } = drain;
        inflight.clear();
        let (mut fence, mut claimed) = (true, 0);
        while !pages.is_empty() {
            window_runs(&self.global, u64::MAX, pages, runs);
            victims.clear();
            let mut left = pages.len() as u64;
            for group in runs.iter() {
                let home = self.global.home_of(pages[group.start]);
                let mut post = |t: &mut T::Endpoint, first: usize, bytes: u64, at: u64| {
                    if bytes > 0 {
                        let token = t.issue(NodeId(home), &Verb::Write { bytes }, at);
                        inflight.push(Posted { token, page: pages[first], bytes, at, home });
                    }
                };
                let (mut first, mut bytes, mut at) = (group.start, 0, t.now());
                for i in group.clone() {
                    let (page, st) = (pages[i], &mut ns.cache.lock_slot(pages[i]));
                    let (owed, victim) = self.downgrade_local(t, st, page, me, fence);
                    victims.extend(victim);
                    let owed = owed.unwrap_or(0);
                    if cost.transfer_cycles(bytes + owed) > trip {
                        post(t, first, bytes, at);
                        (first, bytes) = (i, 0);
                    }
                    (bytes, at, left) = (bytes + owed, t.now(), left - 1);
                    // The diff scans its wire spans: fewer than its own pages'
                    // (they hide it), and no fewer than all left but the next.
                    let spans = cost.transfer_cycles(bytes) / PAGE_COPY_CYCLES;
                    if spans < (i + 1 - first) as u64 && spans + 1 >= left {
                        post(t, first, bytes, at);
                        (first, bytes) = (i + 1, 0);
                    }
                }
                post(t, first, bytes, at);
            }
            claimed += victims.len();
            std::mem::swap(pages, victims);
            fence = false;
        }
        ns.wbuf.victims_done(claimed);
        let (mut done, mut failed) = (Completion::default(), None);
        for p in inflight.iter() {
            let verb = Verb::Write { bytes: p.bytes };
            let polled = self.poll_retried(
                t,
                p.home,
                p.token,
                (VerbClass::Downgrade, p.page.0),
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
        failed.map_or(Ok(()), Err)
    }
}

/// An SD fence's drain buffers, kept across fences under `draining`.
#[derive(Debug, Default)]
pub(super) struct Drain {
    pub(super) pages: Vec<PageNum>,
    victims: Vec<PageNum>,
    runs: Vec<Range<usize>>,
    inflight: Vec<Posted>,
}

/// One write of an SD-fence drain in flight: all its poll needs to retry
/// it (the schedule is rebuilt from its first page, on failure).
#[derive(Debug)]
struct Posted {
    token: VerbToken,
    page: PageNum,
    bytes: u64,
    at: u64,
    home: u16,
}
