//! The refill, beyond the paper (its prefetch is spatial only; DESIGN §11
//! "Refill"): fetch the consumer pages an SI fence dropped before the
//! consumer asks for each again, one page read per window run. Two
//! triggers call it: the first demand miss on a recorded page
//! (`miss.rs`), and the SI sweep that ends an idle epoch (`fence.rs`).

use super::*;
use crate::config::PROTECT_CYCLES;

/// Whether `st` still holds `page`'s line with `page` dropped by an SI
/// fence: the only copy a refill may install.
fn still_dropped(cache: &PageCache, st: &SlotGuard<'_>, page: PageNum) -> bool {
    st.tag() == Some(cache.line_of(page))
        && st.pages[cache.index_in_line(page)].standing == Standing::Dropped
}

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Fetch every page of `pages` whose slot still holds its dropped line,
    /// one read per window run, all posted at once. Each page gets the
    /// registration its demand fill would issue, posted ahead of its run's
    /// read. The thread pays the re-map of each installed page, never a
    /// completion: every page of a run is ready at the run's. A failed verb
    /// drops its run — no retry, no error; each page's next access misses
    /// on demand. Never waits for a slot and never evicts: a held slot, or
    /// one a different line has taken, keeps what it holds.
    pub(super) fn refill(
        &self,
        t: &mut T::Endpoint,
        me: u16,
        mut pages: Vec<PageNum>,
    ) -> Result<(), DsmError> {
        let ns = &self.nodes[me as usize];
        pages.retain(|&page| {
            ns.cache.try_lock_slot(page).is_some_and(|st| still_dropped(&ns.cache, &st, page))
        });
        let most = self.net.cost().transfers_per_round_trip(PAGE_BYTES);
        let (mut runs, mut posted, mut replies) = (Vec::new(), Vec::new(), Vec::new());
        window_runs(&self.global, most, &mut pages, &mut runs);
        let (at, mut installed) = (t.now(), 0);
        for run in runs {
            let run = &pages[run];
            let home = self.global.home_of(run[0]);
            debug_assert_ne!(home, me, "a page is never cached on its home");
            let target = NodeId(home);
            posted.clear();
            let owed = run.iter().filter(|&&p| !self.coherence.read_registered(me, home, p));
            posted.extend(owed.map(|&p| (p, t.issue(target, &Verb::FetchOr, at))));
            let read = t.issue(target, &Verb::Read { bytes: run.len() as u64 * PAGE_BYTES }, at);
            replies.clear();
            replies.extend(posted.iter().map(|&(p, r)| t.wait(r).map(|c| (p, c.initiator_done))));
            let (Ok(data), true) = (t.wait(read), replies.iter().all(Result::is_ok)) else {
                continue;
            };
            let mut ready = data.initiator_done;
            for &(page, done) in replies.iter().flatten() {
                let outcome = self.coherence.register_reader(me, home, page, self.stats.shard(me));
                self.apply_outcome(t, page, me, home, outcome, done)?;
                ready = ready.max(done + self.handler_cycles());
            }
            for &page in run {
                // Re-checked under the lock: a sibling thread's demand fill
                // or eviction may have come first.
                let Some(mut st) = ns.cache.try_lock_slot(page) else { continue };
                if !still_dropped(&ns.cache, &st, page) {
                    continue;
                }
                let idx = ns.cache.index_in_line(page);
                st.data(idx).copy_from(self.global.home_page(page));
                let live = st.pages.iter().any(|p| p.valid);
                st.set_ready(if live { st.ready_at().max(ready) } else { ready });
                st.pages[idx].step(Event::Refill);
                t.compute(PROTECT_CYCLES);
                installed += 1;
            }
        }
        if installed > 0 {
            let shard = self.stats.shard(me);
            CoherenceStats::bump(&shard.refills);
            CoherenceStats::add(&shard.refill_pages, installed);
        }
        Ok(())
    }
}
