//! The refill and the installs it shares with the read-ahead (`miss.rs`).
//! The paper's prefetch is line-spatial only (§3.6.2); the refill is
//! beyond it (DESIGN §11 "Refill"): fetch the consumer pages an SI fence
//! dropped before the consumer asks for each again, one page read per
//! window run. Two triggers call it: the first demand miss on a recorded
//! page (`miss.rs`), and the SI sweep that ends an idle epoch (`fence.rs`).

use super::*;
use crate::config::PROTECT_CYCLES;

/// Which copy an install may put in a page's locked slot.
pub(super) type Fits = fn(&PageCache, &SlotGuard<'_>, PageNum) -> bool;

/// Whether `st` still holds `page`'s line with `page` dropped by an SI
/// fence: the only copy a refill may install.
fn still_dropped(cache: &PageCache, st: &SlotGuard<'_>, page: PageNum) -> bool {
    st.tag() == Some(cache.line_of(page))
        && st.pages[cache.index_in_line(page)].standing == Standing::Dropped
}

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Whether `me`'s slot for `page` is free now and `fits` it: never
    /// waits for a held slot.
    pub(super) fn fits_now(&self, me: u16, page: PageNum, fits: Fits) -> bool {
        let cache = &self.nodes[me as usize].cache;
        cache.try_lock_slot(page).is_some_and(|st| fits(cache, &st, page))
    }

    /// Install `page`'s home copy in `me`'s cache as `event`, ready at
    /// `ready`, if its slot is free and still `fits` it — re-checked under
    /// the lock, since a sibling thread's demand fill or eviction may have
    /// come first. A slot holding another line (which `fits` found holds no
    /// copy) is retagged; a line with other live pages keeps the later
    /// ready. Returns whether the page went in.
    pub(super) fn install(
        &self,
        me: u16,
        page: PageNum,
        ready: u64,
        event: Event,
        fits: Fits,
    ) -> bool {
        let cache = &self.nodes[me as usize].cache;
        let Some(mut st) = cache.try_lock_slot(page) else { return false };
        if !fits(cache, &st, page) {
            return false;
        }
        let (line, idx) = (cache.line_of(page), cache.index_in_line(page));
        st.begin_fill();
        if st.tag() != Some(line) {
            st.retag(line);
        }
        st.data(idx).copy_from(self.global.home_page(page));
        let live = st.pages.iter().any(|p| p.valid);
        st.set_ready(if live { st.ready_at().max(ready) } else { ready });
        st.pages[idx].step(event);
        true
    }

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
        pages.retain(|&page| self.fits_now(me, page, still_dropped));
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
                if self.install(me, page, ready, Event::Refill, still_dropped) {
                    t.compute(PROTECT_CYCLES);
                    installed += 1;
                }
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
