//! The per-node FIFO write buffer (paper §3.6.1).
//!
//! Downgrading only at synchronization points would make SD fences flush an
//! unbounded pile of dirty pages at once. Instead, dirty pages enter a FIFO
//! of configurable capacity that "drains slowly": each push beyond capacity
//! downgrades the *oldest* dirty page, bounding both steady-state write
//! traffic and the worst-case fence latency (the knob of Figures 9 and 10).
//!
//! **One ring, a ticket per page.** A push stamps the page's cell with the
//! node's next ticket (from 1; 0 means "not buffered") and appends `(page,
//! ticket)` to one ring. The cell is the truth: `remove` (evictions, SI
//! fences) is one swap to 0, and a ring entry whose ticket its cell no
//! longer holds is stale. Overflow pops the ring's front and claims it with
//! a compare-and-swap from its ticket to 0, skipping stale entries; a drain
//! takes the whole ring and keeps what it claims. Stale entries are
//! compacted once they outnumber live ones, so the ring stays O(live).
//!
//! **Why a cell, not a `CachedPage` field.** `downgrade_local` pushes a kept
//! page under its slot lock, and the overflow pop must check its victim's
//! liveness. Under slot locks that check takes a second one, and with
//! `pages_per_line > 1` the victim can sit in the pusher's own slot: a
//! self-deadlock. An atomic cell keeps the buffer free of slot locks.

use mem::PageNum;
use parking_lot::{Mutex, MutexGuard};
use simnet::{Abort, Waits};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// `(page, ticket)` entries, oldest first, and the last ticket handed out.
type Ring = (VecDeque<(PageNum, u64)>, u64);

/// FIFO of dirty pages awaiting downgrade.
#[derive(Debug)]
pub(crate) struct WriteBuffer {
    ring: Mutex<Ring>,
    /// Each page's live ticket; 0 = not buffered.
    tickets: mem::Arena<AtomicU64>,
    /// Buffered pages (the overflow trigger). Raised before a cell is
    /// stamped and lowered after one is cleared — the cells' `AcqRel`
    /// orders the two across threads — so it never undercounts.
    live: AtomicUsize,
    capacity: usize,
    /// Overflow victims claimed by a push and not yet gone home: a drain
    /// cannot see them, so a release waits them out.
    victims: Waits<usize>,
}

impl WriteBuffer {
    /// A buffer of `capacity` pages over a memory of `pages` pages.
    pub(crate) fn new(capacity: usize, pages: u64) -> Self {
        assert!(capacity > 0, "write buffer needs capacity >= 1");
        WriteBuffer {
            ring: Mutex::new((VecDeque::new(), 0)),
            tickets: mem::zeroed_slice(pages.try_into().expect("pages overflow usize")),
            live: AtomicUsize::new(0),
            capacity,
            victims: Waits::new(0),
        }
    }

    fn cell(&self, page: PageNum) -> &AtomicU64 {
        &self.tickets[page.0 as usize]
    }

    /// Is `page` buffered?
    pub(crate) fn holds(&self, page: PageNum) -> bool {
        self.cell(page).load(Ordering::Relaxed) != 0
    }

    /// Unbuffer `page` if `ticket` (`None`: any) is its live one.
    fn claim(&self, page: PageNum, ticket: Option<u64>) -> bool {
        let cell = self.cell(page);
        let claimed = match ticket {
            Some(t) => cell.compare_exchange(t, 0, Ordering::AcqRel, Ordering::Relaxed).is_ok(),
            None => cell.swap(0, Ordering::AcqRel) != 0,
        };
        if claimed {
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
        claimed
    }

    /// Buffer `page` under a fresh ticket; returns the ring, still locked.
    fn stamp(&self, page: PageNum) -> MutexGuard<'_, Ring> {
        let mut ring = self.ring.lock();
        let (entries, last) = &mut *ring;
        *last += 1;
        self.live.fetch_add(1, Ordering::Relaxed);
        if self.cell(page).swap(*last, Ordering::AcqRel) != 0 {
            self.live.fetch_sub(1, Ordering::Relaxed); // re-pushed: its old entry went stale
        }
        entries.push_back((page, *last));
        // Amortized O(1): compact once stale entries outnumber live ones.
        if entries.len() > 2 * self.len() + 16 {
            entries.retain(|&(page, ticket)| self.cell(page).load(Ordering::Relaxed) == ticket);
        }
        ring
    }

    /// Record that `page` became dirty. Returns the overflow victim (the
    /// oldest buffered page) if the buffer exceeded capacity — the caller
    /// must downgrade it.
    #[must_use]
    pub(crate) fn push(&self, page: PageNum) -> Option<PageNum> {
        let mut ring = self.stamp(page);
        if self.len() <= self.capacity {
            return None;
        }
        let oldest_first = std::iter::from_fn(|| ring.0.pop_front());
        let victim = oldest_first.filter(|&(p, t)| self.claim(p, Some(t))).map(|(p, _)| p).next();
        *self.victims.lock() += usize::from(victim.is_some());
        victim
    }

    /// `n` claimed victims went home (or their postings failed).
    pub(crate) fn victims_done(&self, n: usize) {
        *self.victims.lock() -= n;
        self.victims.notify_all();
    }

    /// Wait until every claimed victim has gone home.
    pub(crate) fn await_victims(&self, abort: &Abort) {
        drop(self.victims.wait_until(abort, |&n| n == 0));
    }

    /// Unbuffer `page` (downgraded out of band, e.g. evicted); true if it was buffered.
    pub(crate) fn remove(&self, page: PageNum) -> bool {
        self.claim(page, None)
    }

    /// Take everything, oldest first, into `into` (SD-fence drain).
    pub(crate) fn drain(&self, into: &mut Vec<PageNum>) {
        // Fences on clean nodes are the common case: no lock for an empty
        // buffer. A push racing this check waits for its own fence.
        if self.len() == 0 {
            return;
        }
        let entries = std::mem::take(&mut self.ring.lock().0);
        into.extend(entries.into_iter().filter(|&(p, t)| self.claim(p, Some(t))).map(|(p, _)| p));
    }

    pub(crate) fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
impl WriteBuffer {
    /// Buffer `page` without the overflow check (planted invariant breaks).
    pub(crate) fn push_past_capacity(&self, page: PageNum) {
        drop(self.stamp(page));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const PAGES: u64 = 1 << 14;

    fn buffer(capacity: usize) -> WriteBuffer {
        WriteBuffer::new(capacity, PAGES)
    }

    fn drained(wb: &WriteBuffer) -> Vec<PageNum> {
        let mut pages = Vec::new();
        wb.drain(&mut pages);
        pages
    }

    #[test]
    fn fifo_overflow_returns_oldest() {
        let wb = buffer(2);
        assert_eq!(wb.push(PageNum(1)), None);
        assert_eq!(wb.push(PageNum(2)), None);
        assert_eq!(wb.push(PageNum(3)), Some(PageNum(1)));
        assert_eq!(wb.len(), 2);
    }

    #[test]
    fn drain_is_oldest_first_and_empties() {
        let wb = buffer(8);
        for p in [5, 6, 7] {
            let _ = wb.push(PageNum(p));
        }
        assert_eq!(drained(&wb), vec![PageNum(5), PageNum(6), PageNum(7)]);
        assert_eq!(wb.len(), 0);
    }

    #[test]
    fn remove_deletes_mid_queue() {
        let wb = buffer(8);
        for p in [1, 2, 3] {
            let _ = wb.push(PageNum(p));
        }
        assert!(wb.remove(PageNum(2)));
        assert!(!wb.remove(PageNum(2)));
        assert_eq!(drained(&wb), vec![PageNum(1), PageNum(3)]);
    }

    #[test]
    fn removed_pages_do_not_count_toward_overflow() {
        let wb = buffer(2);
        let _ = wb.push(PageNum(1));
        let _ = wb.push(PageNum(2));
        assert!(wb.remove(PageNum(1)));
        // Only page 2 is live: pushing two more overflows once, victim 2.
        assert_eq!(wb.push(PageNum(3)), None);
        assert_eq!(wb.push(PageNum(4)), Some(PageNum(2)));
        assert_eq!(drained(&wb), vec![PageNum(3), PageNum(4)]);
    }

    #[test]
    fn repushed_page_takes_queue_position_of_newest_ticket() {
        // Remove then re-push: the page's FIFO position is its newest push,
        // exactly as a deque with mid-queue deletion would behave.
        let wb = buffer(8);
        for p in [1, 2, 3] {
            let _ = wb.push(PageNum(p));
        }
        assert!(wb.remove(PageNum(1)));
        let _ = wb.push(PageNum(1));
        assert_eq!(drained(&wb), vec![PageNum(2), PageNum(3), PageNum(1)]);
    }

    #[test]
    fn holds_follows_push_remove_overflow_and_drain() {
        let wb = buffer(2);
        let _ = wb.push(PageNum(9));
        let _ = wb.push(PageNum(4));
        assert!(wb.holds(PageNum(9)) && wb.holds(PageNum(4)) && !wb.holds(PageNum(5)));
        assert_eq!(wb.push(PageNum(5)), Some(PageNum(9)));
        assert!(!wb.holds(PageNum(9)) && wb.holds(PageNum(5)));
        assert!(wb.remove(PageNum(4)));
        assert!(!wb.holds(PageNum(4)));
        assert_eq!(drained(&wb), vec![PageNum(5)]);
        assert!(!wb.holds(PageNum(5)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        buffer(0);
    }

    #[test]
    fn order_is_push_order_under_churn() {
        // Enough removals to compact the ring several times; the survivors
        // still drain in push order.
        let wb = buffer(1 << 12);
        let pages: Vec<u64> = (0..600).map(|i| (i * 7) % 1024).collect();
        for &p in &pages {
            let _ = wb.push(PageNum(p));
            if p % 3 == 0 {
                assert!(wb.remove(PageNum(p)));
            }
        }
        let want: Vec<_> = pages.iter().filter(|&p| p % 3 != 0).map(|&p| PageNum(p)).collect();
        assert!(wb.ring.lock().0.len() <= 2 * want.len() + 16, "the ring stays O(live)");
        assert_eq!(drained(&wb), want);
    }

    #[test]
    fn overflow_victims_follow_push_order() {
        let wb = buffer(3);
        for p in [10, 11, 12] {
            assert_eq!(wb.push(PageNum(p)), None);
        }
        assert_eq!(wb.push(PageNum(13)), Some(PageNum(10)));
        assert_eq!(wb.push(PageNum(14)), Some(PageNum(11)));
        assert_eq!(drained(&wb), vec![PageNum(12), PageNum(13), PageNum(14)]);
    }

    /// Pusher threads feed disjoint page ranges (with interleaved removals)
    /// while a fencer thread drains concurrently. Accounting must be
    /// airtight — every push is resolved exactly once, as an overflow
    /// victim, a successful removal, or a drained entry — and the buffer
    /// must end empty, with no cell still holding a page. A lost downgrade
    /// here would be silent data loss at the next SD fence.
    #[test]
    fn write_buffer_loses_nothing_under_contention() {
        const PUSHERS: u64 = 4;
        const PAGES_EACH: u64 = 3_000;
        let wb = Arc::new(buffer(64));
        let stop = Arc::new(AtomicBool::new(false));

        // Fencer: drains everything, repeatedly, while pushes are in flight.
        let drained = {
            let (wb, stop) = (wb.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    wb.drain(&mut got);
                }
                wb.drain(&mut got); // sweep what raced the stop flag
                got
            })
        };

        // Pushers own disjoint ranges, so no page is ever live twice; each
        // removes every third page right after pushing it (the eviction path).
        let pushers: Vec<_> = (0..PUSHERS)
            .map(|id| {
                let wb = wb.clone();
                std::thread::spawn(move || {
                    let (mut victims, mut removed) = (Vec::new(), Vec::new());
                    for i in 0..PAGES_EACH {
                        let page = PageNum(id * PAGES_EACH + i);
                        victims.extend(wb.push(page));
                        if i % 3 == 0 && wb.remove(page) {
                            removed.push(page);
                        }
                    }
                    (victims, removed)
                })
            })
            .collect();

        let mut counts: HashMap<u64, u64> = HashMap::new();
        for h in pushers {
            let (victims, removed) = h.join().unwrap();
            for p in victims.into_iter().chain(removed) {
                *counts.entry(p.0).or_default() += 1;
            }
        }
        stop.store(true, Ordering::Release);
        for p in drained.join().unwrap() {
            *counts.entry(p.0).or_default() += 1;
        }

        assert_eq!(wb.len(), 0, "buffer must end empty");
        let all = 0..PUSHERS * PAGES_EACH;
        let held: Vec<_> = all.clone().filter(|&p| wb.holds(PageNum(p))).collect();
        assert!(held.is_empty(), "cells still hold pages: {held:?}");
        assert_eq!(counts.len() as u64, all.end, "some pushed pages were never resolved");
        let dupes: Vec<_> = counts.iter().filter(|&(_, &c)| c != 1).collect();
        assert!(dupes.is_empty(), "pages resolved more than once (duplicate downgrade): {dupes:?}");
    }
}
