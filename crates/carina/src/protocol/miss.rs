//! Read-miss handling (paper §3.3, line fills §3.6.2): evict the
//! conflicting line, then fetch the whole line from its pages' homes —
//! registrations and data read pipelined so the miss costs one round trip —
//! and, on a recorded consumer page, refill the rest of the recorded set
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
        for (home, idxs) in &group {
            let mut reg_done = start;
            for &idx in idxs.iter() {
                let p = PageNum(base.0 + idx as u64);
                if let Some(completed) = self.register_reader_remote(t, p, me, *home, start)? {
                    reg_done = reg_done.max(completed);
                }
            }
            let bytes = idxs.len() as u64 * PAGE_BYTES;
            // Registration outcomes (notifies, a checkpoint fetch) may have
            // advanced the clock past `start`: never post behind it.
            let token = t.issue(NodeId(*home), &Verb::Read { bytes }, start.max(t.now()));
            inflight.push((reg_done, token));
        }
        // Poll phase: completions fold in as a single max, so the line fill
        // costs one slowest-home round trip rather than the sum.
        for ((home, idxs), (reg_done, token)) in group.into_iter().zip(inflight) {
            // The fill is ready once both the data and the registrations are.
            done = done.max(reg_done);
            let bytes = idxs.len() as u64 * PAGE_BYTES;
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
}
