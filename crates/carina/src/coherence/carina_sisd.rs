//! The paper's protocol as a [`Coherence`] policy: Pyxis reader/writer
//! full maps, P/S × NW/SW/MW classification, Table 1 fence predicates, and
//! deferred invalidation through per-node directory caches.
//!
//! This file is the *decision* half of what used to be hard-wired into the
//! engine: registration transitions (§3.3, §3.5), the SI predicate
//! (Table 1) and the naïve P/S checkpoint obligation (§3.4.2). The engine
//! still owns every verb.

use super::{page_table, Coherence, NodePageTable, PageBitSet, RegisterOutcome};
use crate::classification::{node_bit, ClassificationMode, DirView};
use crate::config::CarinaConfig;
use crate::directory::{DirEntry, DirWords};
use crate::stats::{CoherenceStats, StatShard};
use mem::PageNum;
use obs::RecordKind;

/// The shipped Argo protocol (self-invalidation / self-downgrade with
/// passive Pyxis classification).
#[derive(Debug)]
pub struct CarinaSiSd {
    mode: ClassificationMode,
    /// The Pyxis home directory: one entry per page, living in the page's
    /// home node's memory (like the data pages, the placement is timing
    /// metadata in the simulator; the entries themselves are stored flat).
    home: Box<[DirWords]>,
    /// Per node, per page: that node's directory cache. Other nodes OR
    /// into it remotely on classification transitions; the owner reads it
    /// locally at fences. That asymmetry is the whole point: the *causing*
    /// node pays, the affected node stays passive.
    dir_caches: NodePageTable<DirWords>,
    /// Fast-path mirrors of "this node's bit is already in the home maps".
    reg_read: Vec<PageBitSet>,
    reg_write: Vec<PageBitSet>,
}

impl CarinaSiSd {
    /// The home directory entry of `page`.
    #[inline]
    fn home_entry(&self, page: PageNum) -> DirEntry<'_> {
        DirEntry(&self.home[page.0 as usize])
    }

    /// `node`'s directory-cache entry for `page`.
    #[inline]
    fn cached_entry(&self, node: u16, page: PageNum) -> DirEntry<'_> {
        DirEntry(self.dir_caches.at(node, page))
    }

    /// The directory view `node` currently holds for `page`.
    #[inline]
    pub(crate) fn node_view(&self, node: u16, page: PageNum) -> DirView {
        self.cached_entry(node, page).view()
    }

    /// The authoritative home directory view for `page`.
    #[inline]
    pub(crate) fn home_view(&self, page: PageNum) -> DirView {
        self.home_entry(page).view()
    }

    /// Detect a P→S transition caused by `me` joining `prior`'s accessors:
    /// the single prior owner must be notified (and under naïve P/S, a
    /// read newcomer must fetch the owner's checkpoint).
    fn private_owner(prior: u128, me: u16) -> Option<u16> {
        if prior != 0 && prior & node_bit(me) == 0 && prior.count_ones() == 1 {
            Some(prior.trailing_zeros() as u16)
        } else {
            None
        }
    }

    /// A registration is two one-sided steps, and other nodes' steps run
    /// between them. Step one, the fetch-or at the home: deposit `me`'s
    /// reader (`write`: writer) bit, get the maps from before.
    fn deposit(&self, me: u16, page: PageNum, write: bool) -> DirView {
        let (entry, bit) = (self.home_entry(page), node_bit(me));
        if write { entry.or_writers(bit) } else { entry.or_readers(bit) }
    }

    /// Step two of a read registration whose deposit returned `before`:
    /// fold the reply into our own directory cache and decide the fallout.
    /// An OR, never a store — views only grow between resets — so a
    /// notification that landed since the deposit (a newcomer saw our bit
    /// and told us about itself) survives.
    fn merge_reader(
        &self,
        me: u16,
        page: PageNum,
        before: DirView,
        shard: &StatShard,
    ) -> RegisterOutcome {
        let after = DirView { readers: before.readers | node_bit(me), ..before };
        self.cached_entry(me, page).or_view(after);
        self.reg_read[me as usize].set(page);
        // P→S caused by our read (§3.3): we notify the private owner.
        let Some(owner) = Self::private_owner(before.accessors(), me) else {
            return RegisterOutcome::quiet();
        };
        CoherenceStats::bump(&shard.p_to_s);
        self.cached_entry(owner, page).or_view(after);
        RegisterOutcome {
            notify: vec![owner],
            fetch_from: (self.mode == ClassificationMode::PsNaive).then_some(owner),
            transitions: [Some((RecordKind::PToS, owner as u32)), None],
        }
    }

    /// Step two of a write registration (see [`Self::merge_reader`]).
    fn merge_writer(
        &self,
        me: u16,
        page: PageNum,
        before: DirView,
        shard: &StatShard,
    ) -> RegisterOutcome {
        let after = DirView { writers: before.writers | node_bit(me), ..before };
        self.cached_entry(me, page).or_view(after);
        self.reg_write[me as usize].set(page);
        let mut out = RegisterOutcome::quiet();
        let prior = before.accessors();
        // P→S caused by a write from a new node (§3.5 "Private, but
        // written by a new node").
        if let Some(owner) = Self::private_owner(prior, me) {
            CoherenceStats::bump(&shard.p_to_s);
            self.cached_entry(owner, page).or_view(after);
            out.notify.push(owner);
            out.transitions[0] = Some((RecordKind::PToS, owner as u32));
        }
        // Writer-class transitions.
        match before.writers.count_ones() {
            0
                // NW→SW. If the page is shared, every node caching it must
                // learn there is now a writer (§3.5 "Shared, NW").
                if (prior.count_ones() > 1 || (prior != 0 && prior & node_bit(me) == 0)) => {
                    CoherenceStats::bump(&shard.nw_to_sw);
                    out.transitions[1] = Some((RecordKind::NwToSw, obs::NO_TARGET));
                    let mut others = prior & !node_bit(me);
                    while others != 0 {
                        let n = others.trailing_zeros() as u16;
                        others &= others - 1;
                        if n != me {
                            self.cached_entry(n, page).or_view(after);
                            out.notify.push(n);
                        }
                    }
                }
            1 if before.writers & node_bit(me) == 0 => {
                // SW→MW: only the previous single writer needs to know
                // (§3.5 "Shared, SW"); for everyone else SW and MW are
                // equivalent.
                CoherenceStats::bump(&shard.sw_to_mw);
                let w = before.writers.trailing_zeros() as u16;
                out.transitions[1] = Some((RecordKind::SwToMw, w as u32));
                if w != me {
                    self.cached_entry(w, page).or_view(after);
                    out.notify.push(w);
                }
            }
            _ => {}
        }
        out
    }
}

impl Coherence for CarinaSiSd {
    const NAME: &'static str = "sisd";

    fn new(nodes: usize, total_pages: u64, config: &CarinaConfig) -> Self {
        CarinaSiSd {
            mode: config.mode,
            home: page_table(total_pages),
            dir_caches: NodePageTable::new(nodes, total_pages),
            reg_read: (0..nodes).map(|_| PageBitSet::new(total_pages)).collect(),
            reg_write: (0..nodes).map(|_| PageBitSet::new(total_pages)).collect(),
        }
    }

    #[inline]
    fn read_registered(&self, me: u16, _home: u16, page: PageNum) -> bool {
        self.reg_read[me as usize].get(page)
    }

    #[inline]
    fn write_registered(&self, me: u16, _home: u16, page: PageNum) -> bool {
        self.reg_write[me as usize].get(page)
    }

    fn register_reader(
        &self,
        me: u16,
        _home: u16,
        page: PageNum,
        shard: &StatShard,
    ) -> RegisterOutcome {
        self.merge_reader(me, page, self.deposit(me, page, false), shard)
    }

    fn register_writer(
        &self,
        me: u16,
        _home: u16,
        page: PageNum,
        shard: &StatShard,
    ) -> RegisterOutcome {
        self.merge_writer(me, page, self.deposit(me, page, true), shard)
    }

    fn write_buffered(&self, me: u16, page: PageNum) -> bool {
        self.node_view(me, page).must_self_downgrade(self.mode)
    }

    fn begin_si_fence(&self, _me: u16, _shard: &StatShard) {}

    fn must_self_invalidate(&self, me: u16, page: PageNum, _shard: &StatShard) -> bool {
        self.node_view(me, page).must_self_invalidate(self.mode, me)
    }

    fn end_sd_fence(&self, _me: u16, _shard: &StatShard) {}

    fn buffers_every_dirty_page(&self) -> bool {
        self.mode != ClassificationMode::PsNaive
    }

    fn census_view(&self, page: PageNum) -> DirView {
        self.home_view(page)
    }

    fn invariant_problems(&self, node: u16, dirty: &[PageNum]) -> Vec<String> {
        let mut problems = Vec::new();
        let me = node;
        let n = node as usize;
        for &page in dirty {
            let home = self.home_view(page);
            if home.writers & node_bit(me) == 0 {
                problems.push(format!(
                    "n{n}: dirty page {} without writer registration",
                    page.0
                ));
            }
        }
        // Fast-path bitsets must be a subset of the home maps.
        for q in 0..self.home.len() as u64 {
            let page = PageNum(q);
            let home = self.home_view(page);
            if self.reg_read[n].get(page) && home.readers & node_bit(me) == 0 {
                problems.push(format!("n{n}: reg_read bit for {q} not in home map"));
            }
            if self.reg_write[n].get(page) && home.writers & node_bit(me) == 0 {
                problems.push(format!("n{n}: reg_write bit for {q} not in home map"));
            }
        }
        problems
    }

    fn on_membership_change(&self, rehomed: &[PageNum]) {
        // A re-homed page's directory entry lived on the departed node and
        // is gone with it: null the home maps, every node's cached copy,
        // and the fast-path registration mirrors, so the first access under
        // the new epoch re-registers at the rendezvous home from scratch.
        for &page in rehomed {
            self.home_entry(page).reset();
            for n in 0..self.reg_read.len() {
                self.cached_entry(n as u16, page).reset();
                self.reg_read[n].clear(page);
                self.reg_write[n].clear(page);
            }
        }
    }

    fn reset_all(&self) {
        mem::clear_nonzero(&self.home);
        self.dir_caches.clear_all();
        for b in &self.reg_read {
            b.clear_all();
        }
        for b in &self.reg_write {
            b.clear_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CoherenceStats;
    use std::sync::atomic::Ordering::Relaxed;

    fn policy(nodes: usize) -> CarinaSiSd {
        CarinaSiSd::new(nodes, 16, &CarinaConfig::default())
    }

    #[test]
    fn read_then_write_transitions() {
        let c = policy(3);
        let stats = CoherenceStats::new(3);
        let p = PageNum(3);
        // n0 reads: private, quiet.
        assert!(c.register_reader(0, 1, p, stats.shard(0)).is_quiet());
        assert!(c.read_registered(0, 1, p));
        // n1 reads: P→S, owner n0 notified.
        let oc = c.register_reader(1, 1, p, stats.shard(1));
        assert_eq!(oc.notify, vec![0]);
        assert!(oc.fetch_from.is_none()); // Ps3: no checkpoint service
        // n2 writes: NW→SW, both sharers notified.
        let oc = c.register_writer(2, 1, p, stats.shard(2));
        assert!(oc.notify.contains(&0) && oc.notify.contains(&1));
        // n0 writes: SW→MW, only prior writer n2 notified.
        let oc = c.register_writer(0, 1, p, stats.shard(0));
        assert_eq!(oc.notify, vec![2]);
        let s = stats.snapshot();
        assert_eq!((s.p_to_s, s.nw_to_sw, s.sw_to_mw), (1, 1, 1));
    }

    #[test]
    fn ps_naive_read_newcomer_fetches_checkpoint() {
        let cfg = CarinaConfig::with_mode(ClassificationMode::PsNaive);
        let c = CarinaSiSd::new(2, 16, &cfg);
        let stats = CoherenceStats::new(2);
        let p = PageNum(1);
        c.register_writer(0, 1, p, stats.shard(0));
        let oc = c.register_reader(1, 1, p, stats.shard(1));
        assert_eq!(oc.fetch_from, Some(0));
    }

    #[test]
    fn disposition_tracks_table1() {
        let c = policy(2);
        let stats = CoherenceStats::new(2);
        let p = PageNum(2);
        c.register_writer(0, 1, p, stats.shard(0));
        assert!(c.write_buffered(0, p)); // Ps3 buffers everything
        assert!(!c.must_self_invalidate(0, p, stats.shard(0))); // private
        c.register_reader(1, 1, p, stats.shard(1));
        // n1 shares a single-writer page: n1 invalidates, writer n0 keeps.
        assert!(c.must_self_invalidate(1, p, stats.shard(1)));
        assert!(!c.must_self_invalidate(0, p, stats.shard(0)));
    }

    /// The directory-cache lost update, in its racing order: node 2's
    /// fetch-or lands at the home, node 5's whole write registration runs
    /// (it sees node 2 as the private owner and ORs itself into node 2's
    /// cache), and only then does node 2 fold its — by now stale — reply
    /// into that same cache. A plain store there erases writer 5 for good:
    /// node 2 believes the page private and keeps it across every SI fence.
    #[test]
    fn a_notification_between_deposit_and_merge_survives_the_merge() {
        let c = policy(8);
        let stats = CoherenceStats::new(8);
        let p = PageNum(1);
        let stale = c.deposit(2, p, false);
        assert!(c.register_writer(5, 1, p, stats.shard(5)).notify.contains(&2));
        assert!(c.merge_reader(2, p, stale, stats.shard(2)).is_quiet());
        assert_eq!(c.node_view(2, p).writers, node_bit(5), "node 2 lost the notification");
        assert!(c.must_self_invalidate(2, p, stats.shard(2)));
    }

    /// Each node's directory cache is its own row: a notification into
    /// node 0's copy of a page leaves node 1's untouched.
    #[test]
    fn dir_caches_are_per_node() {
        let c = policy(2);
        c.cached_entry(0, PageNum(3)).or_view(DirView { readers: node_bit(1), writers: 0 });
        assert_eq!(c.node_view(0, PageNum(3)).readers, node_bit(1));
        assert_eq!(c.node_view(1, PageNum(3)).readers, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let c = policy(2);
        let stats = CoherenceStats::new(2);
        c.register_reader(0, 1, PageNum(1), stats.shard(0));
        c.register_writer(1, 1, PageNum(1), stats.shard(1));
        // A registration touches its own page's entry only.
        assert_eq!(c.home_view(PageNum(5)), DirView::default());
        c.reset_all();
        assert!(!c.read_registered(0, 1, PageNum(1)));
        assert_eq!(c.census_view(PageNum(1)), DirView::default());
        let zero = |words: &[DirWords]| words.iter().flatten().all(|w| w.load(Relaxed) == 0);
        assert!(zero(&c.home));
        assert!(c.dir_caches.touched().flatten().all(|w| w.load(Relaxed) == 0));
    }
}
