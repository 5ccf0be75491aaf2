//! Concurrency tests for the page-cache structure: slot locking must keep
//! line state consistent under contention, and the lock-free read path must
//! agree with what the lock holder stored.

use mem::{CacheConfig, Event, PageCache, PageNum};
use std::sync::Arc;

#[test]
fn concurrent_retag_and_fill_is_consistent() {
    let cache = Arc::new(PageCache::new(CacheConfig::new(4, 2)));
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let cache = cache.clone();
            std::thread::spawn(move || {
                for round in 0..500u64 {
                    let page = PageNum((t * 500 + round) * 2);
                    let mut st = cache.lock_slot(page);
                    let line = cache.line_of(page);
                    if st.tag() != Some(line) {
                        st.retag(line);
                    }
                    let idx = cache.index_in_line(page);
                    st.data(idx).store(0, t * 1000 + round);
                    st.pages[idx].step(Event::Fill);
                    // Invariant under the lock: tag matches what we set.
                    assert_eq!(st.tag(), Some(line));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn occupancy_covers_every_filled_slot_exactly_once() {
    let cache = PageCache::new(CacheConfig::new(16, 4));
    assert_eq!(cache.occupied_indices().count(), 0);
    for line in 0..16u64 {
        let p = cache.line_base(line);
        let mut g = cache.lock_slot(p);
        g.retag(line);
        g.data(0).store(0, line + 1);
        g.pages[0].step(Event::Fill);
    }
    // Distinct lines within capacity hit distinct slots: every fill is
    // still there to be read.
    for line in 0..16u64 {
        let hit = cache.slot_for(cache.line_base(line)).try_read(line, 0, 0);
        assert_eq!(hit, Some((line + 1, 0)));
    }
    assert_eq!(cache.occupied_indices().count(), 16);
}

#[test]
fn lock_free_reads_race_with_locked_writers() {
    // Readers spin on try_read while writers churn fills and invalidations;
    // every successful optimistic read must return a value actually
    // published for that tag.
    let cache = Arc::new(PageCache::new(CacheConfig::new(8, 1)));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let cache = cache.clone();
            std::thread::spawn(move || {
                for round in 0..20_000u64 {
                    let line = (w * 4) + (round % 4);
                    let page = PageNum(line);
                    let mut g = cache.lock_slot(page);
                    if round % 7 == 3 {
                        if g.tag() == Some(line) {
                            g.pages[0].step(Event::Invalidate);
                        }
                    } else {
                        g.retag(line);
                        g.data(0).store(3, line * 100 + 9);
                        g.pages[0].step(Event::Fill);
                        g.set_ready(line);
                    }
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let mut hits = 0u64;
                for round in 0..40_000u64 {
                    let line = round % 8;
                    if let Some((v, ready)) = cache.slot_for(PageNum(line)).try_read(line, 0, 3)
                    {
                        assert_eq!(v, line * 100 + 9);
                        assert_eq!(ready, line);
                        hits += 1;
                    }
                }
                hits
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    for h in readers {
        h.join().unwrap();
    }
}

#[test]
fn capacity_math() {
    let cfg = CacheConfig::new(8, 4);
    assert_eq!(cfg.capacity_pages(), 32);
}
