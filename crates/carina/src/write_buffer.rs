//! The per-node FIFO write buffer (paper §3.6.1).
//!
//! Downgrading only at synchronization points would make SD fences flush an
//! unbounded pile of dirty pages at once. Instead, dirty pages enter a FIFO
//! of configurable capacity that "drains slowly": each push beyond capacity
//! downgrades the *oldest* dirty page, bounding both steady-state write
//! traffic and the worst-case fence latency. This is the knob swept by
//! Figures 9 and 10.
//!
//! Removal must be O(1): evictions and SI fences pull pages out of the
//! middle of the queue on the access fast path. Each shard therefore pairs
//! an append-only deque of `(page, ticket)` entries with a page→ticket
//! membership map; `remove` just deletes the map entry, and stale tickets
//! (whose ticket no longer matches the map) are lazily discarded when a
//! deque head is consumed.
//!
//! **Sharding.** Every clean→dirty store on a node funnels through this
//! structure, so one global mutex is the protocol's worst host-side
//! serialization point. The buffer is striped by page number across
//! independently locked shards; a process-wide atomic ticket counter stamps
//! each push. Tickets make global FIFO order recoverable at any merge
//! point: overflow pops the minimum live head ticket across shards, and
//! drains merge shard queues by ticket. On a single thread, tickets are
//! handed out in push order, so victim order is bit-for-bit what the old
//! single-queue buffer produced; concurrent pushers get some valid
//! interleaving of their stores, exactly as they would racing one mutex.

use mem::PageNum;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Lock stripes of a node's write buffer (clean→dirty pushes from the
/// node's threads serialize per stripe, not globally): enough to spread a
/// node's worker threads with negligible memory cost. Purely host-side:
/// global FIFO victim order is preserved by push tickets.
pub(crate) const DEFAULT_SHARDS: usize = 8;

#[derive(Debug, Default)]
struct Fifo {
    /// Insertion tickets, oldest first. May contain stale entries for
    /// removed pages; `live` is authoritative.
    queue: VecDeque<(PageNum, u64)>,
    /// Buffered pages → the ticket that represents them.
    live: HashMap<u64, u64>,
}

impl Fifo {
    /// Drop stale entries from the head so `queue.front()` is live (or the
    /// queue is empty).
    fn prune_head(&mut self) {
        while let Some(&(page, ticket)) = self.queue.front() {
            if self.live.get(&page.0) == Some(&ticket) {
                return;
            }
            self.queue.pop_front();
        }
    }
}

/// FIFO of dirty pages awaiting downgrade, striped over independently
/// locked shards.
#[derive(Debug)]
pub struct WriteBuffer {
    shards: Box<[Mutex<Fifo>]>,
    /// Process-wide push stamp; defines the global FIFO order that shard
    /// merges reconstruct.
    next_ticket: AtomicU64,
    /// Live pages across all shards (the overflow trigger).
    live_count: AtomicUsize,
    capacity: usize,
}

impl WriteBuffer {
    pub(crate) fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "write buffer needs capacity >= 1");
        assert!(shards > 0, "write buffer needs shards >= 1");
        WriteBuffer {
            shards: (0..shards).map(|_| Mutex::new(Fifo::default())).collect(),
            next_ticket: AtomicU64::new(0),
            live_count: AtomicUsize::new(0),
            capacity,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn shard_of(&self, page: PageNum) -> &Mutex<Fifo> {
        &self.shards[(page.0 % self.shards.len() as u64) as usize]
    }

    /// Record that `page` became dirty. Returns the overflow victim (the
    /// globally oldest entry) if the buffer exceeded capacity — the caller
    /// must downgrade it. Pages are only pushed on a clean→dirty
    /// transition, so entries are unique.
    #[must_use]
    pub fn push(&self, page: PageNum) -> Option<PageNum> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        {
            let mut q = self.shard_of(page).lock();
            q.queue.push_back((page, ticket));
            if q.live.insert(page.0, ticket).is_none() {
                self.live_count.fetch_add(1, Ordering::Relaxed);
            }
            // Keep stale tickets from accumulating across push/remove churn:
            // compact when they outnumber live entries (amortized O(1)).
            if q.queue.len() > 2 * q.live.len() + 16 {
                let Fifo { queue, live } = &mut *q;
                queue.retain(|(page, ticket)| live.get(&page.0) == Some(ticket));
            }
        }
        if self.live_count.load(Ordering::Relaxed) > self.capacity {
            self.pop_oldest()
        } else {
            None
        }
    }

    /// Pop the live entry with the globally smallest ticket. Locks every
    /// shard (in index order — the only multi-shard lock pattern, so there
    /// is no deadlock) — overflow is the rare path by construction.
    fn pop_oldest(&self) -> Option<PageNum> {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut best: Option<(usize, u64)> = None;
        for (i, g) in guards.iter_mut().enumerate() {
            g.prune_head();
            if let Some(&(_, ticket)) = g.queue.front() {
                if best.is_none_or(|(_, t)| ticket < t) {
                    best = Some((i, ticket));
                }
            }
        }
        let (i, _) = best?;
        let g = &mut guards[i];
        let (page, _) = g.queue.pop_front().expect("pruned head is live");
        g.live.remove(&page.0);
        self.live_count.fetch_sub(1, Ordering::Relaxed);
        Some(page)
    }

    /// Remove a specific page (it was downgraded or invalidated out of
    /// band, e.g. by an eviction). O(1), touches one shard. Returns true if
    /// it was present.
    pub fn remove(&self, page: PageNum) -> bool {
        let removed = self.shard_of(page).lock().live.remove(&page.0).is_some();
        if removed {
            self.live_count.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Take everything, globally oldest first (SD-fence drain): shard
    /// queues are emptied under all shard locks and merged by ticket.
    pub fn drain(&self) -> Vec<PageNum> {
        // Fences on clean nodes are the common case: don't touch any shard
        // lock for an empty buffer. A racing push that misses this check
        // merely waits for its own fence, same as racing the old mutex.
        if self.live_count.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut entries = Vec::new();
        for g in guards.iter_mut() {
            let Fifo { queue, live } = &mut **g;
            entries.extend(
                queue
                    .drain(..)
                    .filter(|(page, ticket)| live.get(&page.0) == Some(ticket)),
            );
            live.clear();
        }
        self.live_count.fetch_sub(entries.len(), Ordering::Relaxed);
        entries.sort_unstable_by_key(|&(_, ticket)| ticket);
        entries.into_iter().map(|(page, _)| page).collect()
    }

    /// The buffered pages, globally oldest first, without consuming them
    /// (invariant checking).
    pub(crate) fn snapshot(&self) -> Vec<PageNum> {
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut entries = Vec::new();
        for g in guards.iter() {
            entries.extend(
                g.queue
                    .iter()
                    .filter(|(page, ticket)| g.live.get(&page.0) == Some(ticket))
                    .copied(),
            );
        }
        entries.sort_unstable_by_key(|&(_, ticket)| ticket);
        entries.into_iter().map(|(page, _)| page).collect()
    }

    pub fn len(&self) -> usize {
        self.live_count.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_overflow_returns_oldest() {
        let wb = WriteBuffer::new(2);
        assert_eq!(wb.push(PageNum(1)), None);
        assert_eq!(wb.push(PageNum(2)), None);
        assert_eq!(wb.push(PageNum(3)), Some(PageNum(1)));
        assert_eq!(wb.len(), 2);
    }

    #[test]
    fn drain_is_oldest_first_and_empties() {
        let wb = WriteBuffer::new(8);
        for p in [5, 6, 7] {
            let _ = wb.push(PageNum(p));
        }
        assert_eq!(wb.drain(), vec![PageNum(5), PageNum(6), PageNum(7)]);
        assert!(wb.is_empty());
    }

    #[test]
    fn remove_deletes_mid_queue() {
        let wb = WriteBuffer::new(8);
        for p in [1, 2, 3] {
            let _ = wb.push(PageNum(p));
        }
        assert!(wb.remove(PageNum(2)));
        assert!(!wb.remove(PageNum(2)));
        assert_eq!(wb.drain(), vec![PageNum(1), PageNum(3)]);
    }

    #[test]
    fn removed_pages_do_not_count_toward_overflow() {
        let wb = WriteBuffer::new(2);
        let _ = wb.push(PageNum(1));
        let _ = wb.push(PageNum(2));
        assert!(wb.remove(PageNum(1)));
        // Only page 2 is live: pushing two more overflows once, victim 2.
        assert_eq!(wb.push(PageNum(3)), None);
        assert_eq!(wb.push(PageNum(4)), Some(PageNum(2)));
        assert_eq!(wb.snapshot(), vec![PageNum(3), PageNum(4)]);
    }

    #[test]
    fn repushed_page_takes_queue_position_of_newest_ticket() {
        // Remove then re-push: the page's FIFO position is its newest push,
        // exactly as a deque with mid-queue deletion would behave.
        let wb = WriteBuffer::new(8);
        for p in [1, 2, 3] {
            let _ = wb.push(PageNum(p));
        }
        assert!(wb.remove(PageNum(1)));
        let _ = wb.push(PageNum(1));
        assert_eq!(wb.drain(), vec![PageNum(2), PageNum(3), PageNum(1)]);
    }

    #[test]
    fn snapshot_is_nondestructive() {
        let wb = WriteBuffer::new(4);
        for p in [9, 4] {
            let _ = wb.push(PageNum(p));
        }
        assert_eq!(wb.snapshot(), vec![PageNum(9), PageNum(4)]);
        assert_eq!(wb.len(), 2);
        assert_eq!(wb.drain(), vec![PageNum(9), PageNum(4)]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        WriteBuffer::new(0);
    }

    #[test]
    #[should_panic(expected = "shards")]
    fn zero_shards_rejected() {
        WriteBuffer::with_shards(4, 0);
    }

    #[test]
    fn order_is_global_fifo_across_shards() {
        // Consecutive page numbers land in different shards; tickets must
        // still reconstruct exact push order at every observation point.
        for shards in [1, 2, 3, 8] {
            let wb = WriteBuffer::with_shards(64, shards);
            let pages: Vec<u64> = (0..32).map(|i| (i * 7) % 64).collect();
            for &p in &pages {
                let _ = wb.push(PageNum(p));
            }
            let want: Vec<PageNum> = pages.iter().map(|&p| PageNum(p)).collect();
            assert_eq!(wb.snapshot(), want, "shards={shards}");
            assert_eq!(wb.drain(), want, "shards={shards}");
        }
    }

    #[test]
    fn overflow_victims_follow_global_order_across_shards() {
        let wb = WriteBuffer::with_shards(3, 2);
        for p in [10, 11, 12] {
            assert_eq!(wb.push(PageNum(p)), None);
        }
        assert_eq!(wb.push(PageNum(13)), Some(PageNum(10)));
        assert_eq!(wb.push(PageNum(14)), Some(PageNum(11)));
        assert_eq!(wb.snapshot(), vec![PageNum(12), PageNum(13), PageNum(14)]);
    }
}
