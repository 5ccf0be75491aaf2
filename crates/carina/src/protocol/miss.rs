//! Read-miss handling (paper §3.3, line fills §3.6.2): evict the
//! conflicting line, then fetch the whole line from its pages' homes —
//! registrations and data read pipelined so the miss costs one round trip.
//! A miss that continues its home's window stream reads ahead: the read of
//! its home's pages carries their window successors past the line, up to
//! one round trip's worth, into slots a fill may take. On a recorded
//! consumer page it refills the rest of the recorded set instead
//! (`refill.rs`).

use super::*;

/// Append `item` to `home`'s group, opening the group at the end on first
/// sight: homes stay in first-seen order, which is the wire order of a
/// line fill's postings.
fn push_grouped<X>(groups: &mut Vec<(u16, Vec<X>)>, home: u16, item: X) {
    match groups.iter_mut().find(|(h, _)| *h == home) {
        Some((_, items)) => items.push(item),
        None => groups.push((home, vec![item])),
    }
}

/// The page after `page` in `home`'s window: the next page of `home`
/// within `span` pages and below `end` (with N nodes, window neighbours lie
/// N pages apart interleaved, 1 blocked).
fn window_next(g: &GlobalMemory, page: u64, home: u16, span: u64, end: u64) -> Option<u64> {
    (page + 1..end.min(page + 1 + span)).find(|&q| g.home_of(PageNum(q)) == home)
}

/// Whether a fill of `page` may take `st`, its slot, and lose nothing: the
/// page has neither a copy nor an SI drop (the refill's), and a slot
/// holding another line has neither in any page.
fn open_for(cache: &PageCache, st: &SlotGuard<'_>, page: PageNum) -> bool {
    let bare = |idx: usize| !st.pages[idx].valid && st.pages[idx].standing != Standing::Dropped;
    match st.tag() == Some(cache.line_of(page)) {
        true => bare(cache.index_in_line(page)),
        false => (0..st.pages.len()).all(bare),
    }
}

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Handle a read miss on `page`: evict/flush the conflicting line if
    /// needed, then fetch the whole line from the pages' homes, registering
    /// as a reader of each fetched page. With `overwrite` — a write-allocate
    /// whose store covers all of `page` — `page` is marked valid but
    /// neither read nor registered: its contents are the caller's to store,
    /// and its write fault's writer registration is its one atomic (Table 1
    /// reads `readers | writers`, and no lease covers a written copy).
    pub(super) fn read_miss(
        &self,
        t: &mut T::Endpoint,
        st: &mut SlotGuard<'_>,
        page: PageNum,
        me: u16,
        overwrite: bool,
    ) -> Result<(), DsmError> {
        debug_assert_ne!(self.global.home_of(page), me, "a page is never cached on its home");
        self.site(t, obs::Site::ReadMiss, page.0, |t, _| {
            self.fill_line(t, st, page, overwrite)
        })
    }

    /// The body of a read miss, under its site scope: `t`'s node misses.
    fn fill_line(
        &self,
        t: &mut T::Endpoint,
        st: &mut SlotGuard<'_>,
        page: PageNum,
        overwrite: bool,
    ) -> Result<(), DsmError> {
        let me = t.node().0;
        CoherenceStats::bump(&self.stats.shard(me).read_misses);
        t.fault_trap();
        st.begin_fill();
        let ns = &self.nodes[me as usize];
        let line = ns.cache.line_of(page);
        if st.tag() != Some(line) {
            // Conflict eviction: flush dirty pages of the old line.
            if let Some(old) = st.tag() {
                let old_base = ns.cache.line_base(old);
                let mut evicted_live = false;
                for idx in 0..st.pages.len() {
                    if st.pages[idx].valid {
                        evicted_live = true;
                        if st.pages[idx].dirty() {
                            let old_page = PageNum(old_base.0 + idx as u64);
                            // Unbuffer before posting (see `si_sweep`).
                            ns.wbuf.remove(old_page);
                            self.downgrade_locked(t, st, old_page, me)?;
                        }
                    }
                }
                if evicted_live {
                    CoherenceStats::bump(&self.stats.shard(me).evictions);
                }
            }
            st.retag(line);
        }
        let demanded = ns.cache.index_in_line(page);
        let refill_due = st.pages[demanded].standing == Standing::Dropped;
        ns.missed.store(true, Ordering::Relaxed);
        // Fetch every not-yet-valid remote page of the line, grouped by
        // home so transfers to distinct homes overlap (pipelined one-sided
        // reads issued back to back) — all but a page to be overwritten.
        let base = ns.cache.line_base(line);
        let total_pages = self.global.total_pages();
        let start = t.now();
        let mut done = start;
        let mut group: Vec<(u16, Vec<usize>)> = Vec::new();
        for idx in 0..st.pages.len() {
            let p = PageNum(base.0 + idx as u64);
            if p.0 >= total_pages || st.pages[idx].valid || (overwrite && idx == demanded) {
                continue;
            }
            let home = self.global.home_of(p);
            if home != me {
                // (local pages are never cached)
                push_grouped(&mut group, home, idx);
            }
        }
        // A miss that continues its home's window stream reads ahead: the
        // demand home's group carries `ahead` window successors of its last
        // page (none on a refill's turn, or for a page to be overwritten).
        let home = self.global.home_of(page);
        let stream = group.iter().position(|(h, _)| *h == home);
        let stream = stream.filter(|_| !overwrite && !refill_due);
        let ahead = stream.map_or(0, |g| self.reads_ahead(st, base, &group[g].1, me));
        let count = |g| if stream == Some(g) { ahead } else { 0 };
        let last = |idxs: &[usize]| base.0 + idxs[idxs.len() - 1] as u64;
        // Issue phase: every group's registrations are posted back-to-back
        // (pipelined one-sided atomics: latencies overlap, only wire
        // occupancy serializes) and its data read is posted right behind
        // them on the same ordered channel — for all homes — before any
        // completion is polled. The atomics reach the home ahead of the
        // read (same queue pair), so the miss costs one round trip, and
        // in-flight transfers to distinct homes overlap on the fabric
        // instead of queuing behind one another on this thread.
        let obs_issue = t.obs_now();
        let mut inflight: Vec<(u64, VerbToken)> = Vec::with_capacity(group.len());
        for (g, (home, idxs)) in group.iter().enumerate() {
            let count = count(g);
            let line_pages = idxs.iter().map(|&idx| PageNum(base.0 + idx as u64));
            let mut reg_done = start;
            for p in line_pages.chain(self.ahead_pages(last(idxs), *home, count)) {
                if let Some(completed) = self.register_reader_remote(t, p, me, *home, start)? {
                    reg_done = reg_done.max(completed);
                }
            }
            let bytes = (idxs.len() as u64 + count) * PAGE_BYTES;
            // Registration outcomes (notifies, a checkpoint fetch) may have
            // advanced the clock past `start`: never post behind it.
            let token = t.issue(NodeId(*home), &Verb::Read { bytes }, start.max(t.now()));
            inflight.push((reg_done, token));
        }
        // Poll phase: completions fold in as a single max, so the line fill
        // costs one slowest-home round trip rather than the sum.
        for (g, ((home, idxs), (reg_done, token))) in group.into_iter().zip(inflight).enumerate() {
            // The fill is ready once both the data and the registrations are.
            done = done.max(reg_done);
            let (count, last) = (count(g), last(&idxs));
            let bytes = (idxs.len() as u64 + count) * PAGE_BYTES;
            let salt = base.0.wrapping_add((home as u64) << 48);
            let timing = self.poll_retried(
                t,
                home,
                token,
                (VerbClass::PageFetch, salt),
                obs_issue,
                bytes,
                |t, delay| {
                    let at = (start + delay).max(t.now());
                    t.issue(NodeId(home), &Verb::Read { bytes }, at)
                },
            )?;
            done = done.max(timing.initiator_done);
            for idx in idxs {
                let p = PageNum(base.0 + idx as u64);
                st.data(idx).copy_from(self.global.home_page(p));
                st.pages[idx].step(Event::Fill);
            }
            // Ahead pages go in clean, ready when the read is, into slots
            // still free: a sibling's fill may have taken one meanwhile.
            let ready = timing.initiator_done.max(reg_done);
            for p in self.ahead_pages(last, home, count) {
                self.install(me, p, ready, Event::Fill, open_for);
            }
        }
        if overwrite {
            // Valid only once every fetch landed: a failed miss leaves no
            // page holding what no verb brought.
            st.pages[demanded].step(Event::Fill);
        }
        t.merge(done);
        st.set_ready(t.now());
        if refill_due {
            let mut set = ns.refill.lock().expect("a sweep panicked");
            // A page recorded by an earlier, stale set triggers nothing.
            let recorded = if set.contains(&page) { std::mem::take(&mut *set) } else { Vec::new() };
            drop(set);
            self.refill(t, me, recorded)?;
        }
        Ok(())
    }

    /// How many pages a miss reads ahead of `idxs`, its line's pages at
    /// `base` from the demand's home. None unless the first continues a
    /// stream (its window predecessor is valid here) and no page of that
    /// home past the last is left in the line; then the last's window
    /// successors, while each is below the allocator's high-water mark, in
    /// the run's allocation, and in a slot a fill may take — never held,
    /// never evicted, not one the run took — up to a round trip's pages.
    fn reads_ahead(&self, st: &SlotGuard<'_>, base: PageNum, idxs: &[usize], me: u16) -> u64 {
        let (g, span) = (&self.global, self.nodes.len() as u64);
        let (first, mut p) = (base.0 + idxs[0] as u64, base.0 + idxs[idxs.len() - 1] as u64);
        let home = g.home_of(PageNum(first));
        let mut back = (first.saturating_sub(span)..first).rev();
        let streaming = back.find(|&q| g.home_of(PageNum(q)) == home).is_some_and(|q| {
            match q.checked_sub(base.0) {
                Some(idx) => st.pages[idx as usize].valid,
                None => self.fits_now(me, PageNum(q), |c, st, q| {
                    st.tag() == Some(c.line_of(q)) && st.pages[c.index_in_line(q)].valid
                }),
            }
        });
        let line_end = base.0 + st.pages.len() as u64;
        // Past `base` + the cache's pages, a slot comes round again.
        let wrap = base.0 + self.config.cache.capacity_pages() as u64;
        let end = self.allocator.high_water().div_ceil(PAGE_BYTES).min(wrap);
        let most = self.net.cost().transfers_per_round_trip(PAGE_BYTES);
        let mut count = 0;
        while streaming && idxs.len() as u64 + count < most {
            match window_next(g, p, home, span, end) {
                Some(next)
                    if next >= line_end
                        && !self.allocator.starts_in(p + 1..next + 1)
                        && self.fits_now(me, PageNum(next), open_for) =>
                {
                    (count, p) = (count + 1, next);
                }
                _ => break,
            }
        }
        count
    }

    /// The `count` pages after `last` in `home`'s window, as
    /// [`Self::reads_ahead`] found them.
    fn ahead_pages(&self, last: u64, home: u16, count: u64) -> impl Iterator<Item = PageNum> + '_ {
        let (g, span) = (&self.global, self.nodes.len() as u64);
        let next = move |&p: &u64| window_next(g, p, home, span, g.total_pages());
        std::iter::successors(Some(last), next).skip(1).take(count as usize).map(PageNum)
    }
}
