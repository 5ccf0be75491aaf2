//! The paper's protocol as a [`Coherence`] policy: Pyxis reader/writer
//! full maps, P/S × NW/SW/MW classification, Table 1 fence predicates, and
//! deferred invalidation through per-node directory caches.
//!
//! This file is the *decision* half of what used to be hard-wired into the
//! engine: registration transitions (§3.3, §3.5), the SI predicate
//! (Table 1) and the naïve P/S checkpoint obligation (§3.4.2). The engine
//! still owns every verb.

use super::{Coherence, PageBitSet, PageTable, RegisterOutcome};
use crate::classification::{node_bit, ClassificationMode, DirView};
use crate::config::CarinaConfig;
use crate::directory::{DirEntry, DirWords};
use crate::stats::{CoherenceStats, StatShard};
use mem::PageNum;
use obs::RecordKind;

/// What a deposit saw. `before` is the fetch-or's reply plus the other map
/// read after it (of two racing first touches, at least one sees the
/// other); transitions are detected from it. `floor` is both maps loaded
/// just before the fetch-or: no later registration is in it.
#[derive(Debug, Clone, Copy)]
struct Reply {
    floor: DirView,
    before: DirView,
}

/// The shipped Argo protocol (self-invalidation / self-downgrade with
/// passive Pyxis classification).
#[derive(Debug)]
pub struct CarinaSiSd {
    mode: ClassificationMode,
    /// The Pyxis home directory: one entry per page, living in the page's
    /// home node's memory (like the data pages, the placement is timing
    /// metadata in the simulator; the entries themselves are one column).
    home: PageTable<DirWords>,
    /// Per node, per page: that node's directory cache. Other nodes OR
    /// into it remotely on classification transitions; the owner reads it
    /// locally at fences. That asymmetry is the whole point: the *causing*
    /// node pays, the affected node stays passive.
    dir_caches: PageTable<DirWords>,
    /// Fast-path mirrors of "this node's bit is already in the home maps".
    reg_read: PageBitSet,
    reg_write: PageBitSet,
}

impl CarinaSiSd {
    /// The home directory entry of `page`, to update.
    #[inline]
    fn home_entry(&self, page: PageNum) -> DirEntry<'_> {
        DirEntry(self.home.at(0, page))
    }

    /// `node`'s directory-cache entry for `page`, to update.
    #[inline]
    pub(crate) fn cached_entry(&self, node: u16, page: PageNum) -> DirEntry<'_> {
        DirEntry(self.dir_caches.at(node, page))
    }

    /// The directory view `node` currently holds for `page`.
    #[inline]
    pub(crate) fn node_view(&self, node: u16, page: PageNum) -> DirView {
        DirEntry(self.dir_caches.get(node, page)).view()
    }

    /// The authoritative home directory view for `page`.
    #[inline]
    pub(crate) fn home_view(&self, page: PageNum) -> DirView {
        DirEntry(self.home.get(0, page)).view()
    }

    /// Detect a P→S transition caused by `me` joining `prior`'s accessors:
    /// the single prior owner (under naïve P/S, a read newcomer fetches its
    /// checkpoint).
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
    fn deposit(&self, me: u16, page: PageNum, write: bool) -> Reply {
        let (entry, bit) = (self.home_entry(page), node_bit(me));
        let floor = entry.view();
        let before = if write { entry.or_writers(bit) } else { entry.or_readers(bit) };
        Reply { floor, before }
    }

    /// Step two of a read registration whose deposit returned `reply`:
    /// detect the transition, then [`Self::deliver`] the new view.
    fn merge_reader(
        &self,
        me: u16,
        home: u16,
        page: PageNum,
        Reply { floor, before }: Reply,
        shard: &StatShard,
    ) -> RegisterOutcome {
        let after = DirView { readers: before.readers | node_bit(me), ..before };
        self.reg_read.set(me, page);
        let mut out = RegisterOutcome::quiet();
        // P→S caused by our read (§3.3). Under naïve P/S we fetch the
        // private owner's checkpoint — unless it is the home, whose stores
        // are already in the home memory our fill reads.
        if let Some(owner) = Self::private_owner(before.accessors(), me) {
            CoherenceStats::bump(&shard.p_to_s);
            let naive = self.mode == ClassificationMode::PsNaive;
            out.fetch_from = (naive && owner != home).then_some(owner);
            out.transitions[0] = Some((RecordKind::PToS, owner as u32));
        }
        out.notify = self.deliver(me, home, page, floor, after);
        out
    }

    /// Step two of a write registration (see [`Self::merge_reader`]).
    fn merge_writer(
        &self,
        me: u16,
        home: u16,
        page: PageNum,
        Reply { floor, before }: Reply,
        shard: &StatShard,
    ) -> RegisterOutcome {
        let after = DirView { writers: before.writers | node_bit(me), ..before };
        self.reg_write.set(me, page);
        let mut out = RegisterOutcome::quiet();
        let prior = before.accessors();
        // P→S caused by a write from a new node (§3.5 "Private, but
        // written by a new node").
        if let Some(owner) = Self::private_owner(prior, me) {
            CoherenceStats::bump(&shard.p_to_s);
            out.transitions[0] = Some((RecordKind::PToS, owner as u32));
        }
        // Writer-class transitions (§3.5 "Shared, NW" and "Shared, SW").
        match before.writers.count_ones() {
            0 if (prior.count_ones() > 1 || (prior != 0 && prior & node_bit(me) == 0)) => {
                CoherenceStats::bump(&shard.nw_to_sw);
                out.transitions[1] = Some((RecordKind::NwToSw, obs::NO_TARGET));
            }
            1 if before.writers & node_bit(me) == 0 => {
                CoherenceStats::bump(&shard.sw_to_mw);
                let w = before.writers.trailing_zeros() as u16;
                out.transitions[1] = Some((RecordKind::SwToMw, w as u32));
            }
            _ => {}
        }
        out.notify = self.deliver(me, home, page, floor, after);
        out
    }

    /// Table 1's two answers for `node` under `view`: must it
    /// self-invalidate the page, must it self-downgrade it.
    #[inline]
    fn answers(&self, view: DirView, node: u16) -> (bool, bool) {
        (view.must_self_invalidate(self.mode, node), view.must_self_downgrade(self.mode))
    }

    /// The delivery rule. Table 1 is the only reader of a directory-cache
    /// row, so a prior accessor is notified — `after` ORed into its row —
    /// exactly when its answers under `floor` and `after` differ; `me`'s
    /// own row gets `after` too. Never notifies `me` or the `home`, which
    /// keeps no row for the pages it homes. A skipped row stays right: as
    /// the maps grow, an answer only flips from "keep" to "invalidate" and
    /// from "no SD" to "SD" (`invariant_problems` checks it). Not `before`:
    /// racers that each see the other there would both miss a flip. An OR,
    /// never a store, so a notification that beat our merge survives it.
    fn deliver(&self, me: u16, home: u16, page: PageNum, floor: DirView, after: DirView) -> u128 {
        let mut notify = 0;
        let mut left = after.accessors() & !node_bit(me) & !node_bit(home);
        while left != 0 {
            let n = left.trailing_zeros() as u16;
            left &= left - 1;
            if self.answers(floor, n) != self.answers(after, n) {
                self.cached_entry(n, page).or_view(after);
                notify |= node_bit(n);
            }
        }
        if me != home {
            self.cached_entry(me, page).or_view(after);
        }
        notify
    }
}

impl Coherence for CarinaSiSd {
    const NAME: &'static str = "sisd";

    fn new(nodes: usize, total_pages: u64, config: &CarinaConfig) -> Self {
        CarinaSiSd {
            mode: config.mode,
            home: PageTable::new(1, total_pages),
            dir_caches: PageTable::new(nodes, total_pages),
            reg_read: PageBitSet::new(nodes, total_pages),
            reg_write: PageBitSet::new(nodes, total_pages),
        }
    }

    #[inline]
    fn read_registered(&self, me: u16, _home: u16, page: PageNum) -> bool {
        self.reg_read.get(me, page)
    }

    #[inline]
    fn write_registered(&self, me: u16, _home: u16, page: PageNum) -> bool {
        self.reg_write.get(me, page)
    }

    fn register_reader(
        &self,
        me: u16,
        home: u16,
        page: PageNum,
        shard: &StatShard,
    ) -> RegisterOutcome {
        self.merge_reader(me, home, page, self.deposit(me, page, false), shard)
    }

    fn register_writer(
        &self,
        me: u16,
        home: u16,
        page: PageNum,
        shard: &StatShard,
    ) -> RegisterOutcome {
        self.merge_writer(me, home, page, self.deposit(me, page, true), shard)
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

    fn invariant_problems(
        &self,
        dirty: &[Vec<PageNum>],
        home_of: impl Fn(PageNum) -> u16,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        for (n, pages) in (0u16..).zip(dirty) {
            for page in pages.iter().filter(|&&p| self.home_view(p).writers & node_bit(n) == 0) {
                problems.push(format!("n{n}: dirty page {} without writer registration", page.0));
            }
        }
        // Every accessor's row for a page it does not home gives the home
        // view's Table 1 answers. A page no node registered for has no
        // accessor to check.
        for (page, entry) in self.home.touched(0) {
            let home = DirEntry(entry).view();
            let mut left = home.accessors() & !node_bit(home_of(page));
            while left != 0 {
                let n = left.trailing_zeros() as u16;
                left &= left - 1;
                let row = self.node_view(n, page);
                if self.answers(row, n) != self.answers(home, n) {
                    let what = format!("answers unlike {home:?}");
                    problems.push(format!("n{n}: row {row:?} for page {} {what}", page.0));
                }
            }
        }
        // A node keeps no row for the pages it homes (it never caches
        // them, and nobody notifies it), and its fast-path bits are a
        // subset of the home maps.
        for n in 0..self.dir_caches.rows() {
            for (page, entry) in self.dir_caches.touched(n) {
                let row = DirEntry(entry).view();
                if home_of(page) == n && row != DirView::default() {
                    let what = format!("row for its home page {}: {row:?}", page.0);
                    problems.push(format!("n{n}: directory-cache {what}"));
                }
            }
            let home = |p| self.home_view(p);
            for page in self.reg_read.ones(n).filter(|&p| home(p).readers & node_bit(n) == 0) {
                problems.push(format!("n{n}: reg_read bit for {} not in home map", page.0));
            }
            for page in self.reg_write.ones(n).filter(|&p| home(p).writers & node_bit(n) == 0) {
                problems.push(format!("n{n}: reg_write bit for {} not in home map", page.0));
            }
        }
        problems
    }

    fn reset_all(&self) {
        self.home.clear_all();
        self.dir_caches.clear_all();
        self.reg_read.clear_all();
        self.reg_write.clear_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CoherenceStats;
    use proptest::prelude::*;

    fn policy(nodes: usize) -> CarinaSiSd {
        CarinaSiSd::new(nodes, 16, &CarinaConfig::default())
    }

    #[test]
    fn read_then_write_transitions() {
        let c = policy(3);
        let stats = CoherenceStats::new(3);
        let p = PageNum(3);
        // Home n1 registers like any node; it is never told anything.
        let home = 1;
        // n0 reads: private, quiet.
        assert!(c.register_reader(0, home, p, stats.shard(0)).is_quiet());
        assert!(c.read_registered(0, home, p));
        // n1 reads at home: P→S, detected and recorded. Owner n0 keeps and
        // self-downgrades the page as P and as S,NW alike, so no answer of
        // its changes and nobody is notified.
        let oc = c.register_reader(1, home, p, stats.shard(1));
        assert_eq!(oc.transitions[0], Some((RecordKind::PToS, 0)));
        assert_eq!((oc.notify, oc.fetch_from), (0, None)); // Ps3: no checkpoint service
        assert_eq!(stats.snapshot().p_to_s, 1);
        assert!(!c.must_self_invalidate(0, p, stats.shard(0)));
        // Newcomer n2 writes: NW→SW. n0's SI answer flips, so of the
        // sharers {n0, n1} n0 is notified, once — n1 is the home — and its
        // next SI fence drops the page.
        let oc = c.register_writer(2, home, p, stats.shard(2));
        assert_eq!(oc.notify, node_bit(0));
        assert!(c.must_self_invalidate(0, p, stats.shard(0)));
        // n0 writes: SW→MW, only prior writer n2 notified.
        let oc = c.register_writer(0, home, p, stats.shard(0));
        assert_eq!(oc.notify, node_bit(2));
        let s = stats.snapshot();
        assert_eq!((s.p_to_s, s.nw_to_sw, s.sw_to_mw), (1, 1, 1));
        // The home's own row stayed empty throughout; n0's holds it all.
        assert_eq!(c.node_view(home, p), DirView::default());
        assert_eq!(c.node_view(0, p), c.home_view(p));
    }

    proptest! {
        /// The delivery rule over random registration sequences: after
        /// every step each accessor's row answers like the home view (a),
        /// every notified node's answers changed (b), and neither the
        /// registrant nor the home was notified (c).
        #[test]
        fn deliveries_are_exactly_the_answer_changes(
            (nodes, mode) in (1usize..9, 0usize..3),
            homes in collection::vec(0u16..8, 4..5),
            steps in collection::vec((0u16..8, 0u64..4, any::<bool>()), 0..40),
        ) {
            use ClassificationMode::*;
            let mode = [AllShared, PsNaive, Ps3][mode];
            let c = CarinaSiSd::new(nodes, 4, &CarinaConfig::with_mode(mode));
            let stats = CoherenceStats::new(nodes);
            let home_of = |page: PageNum| homes[page.0 as usize] % nodes as u16;
            let each = |map: u128| (0..nodes as u16).filter(move |&n| map & node_bit(n) != 0);
            for (me, q, write) in steps {
                let (me, page) = (me % nodes as u16, PageNum(q));
                let (home, before) = (home_of(page), c.home_view(page));
                let oc = if write {
                    c.register_writer(me, home, page, stats.shard(me))
                } else {
                    c.register_reader(me, home, page, stats.shard(me))
                };
                let after = c.home_view(page);
                prop_assert_eq!(oc.notify & (node_bit(me) | node_bit(home)), 0);
                for n in each(oc.notify) {
                    prop_assert!(c.answers(before, n) != c.answers(after, n), "{mode:?} n{n}");
                }
                for n in each(after.accessors() & !node_bit(home)) {
                    let row = c.node_view(n, page);
                    prop_assert_eq!(c.answers(row, n), c.answers(after, n));
                }
            }
            let problems = c.invariant_problems(&vec![Vec::new(); nodes], home_of);
            prop_assert!(problems.is_empty(), "{mode:?}: {problems:?}");
        }
    }

    /// A newcomer's write to a no-writer page private to n0 is a P→S and an
    /// NW→SW at once, and both name n0: one bit, so one notification.
    #[test]
    fn a_node_two_transitions_name_is_notified_once() {
        let c = policy(3);
        let stats = CoherenceStats::new(3);
        let p = PageNum(5);
        c.register_reader(0, 2, p, stats.shard(0));
        let oc = c.register_writer(1, 2, p, stats.shard(1));
        assert_eq!(oc.notify, node_bit(0));
        let s = stats.snapshot();
        assert_eq!((s.p_to_s, s.nw_to_sw), (1, 1));
    }

    /// A page private to its home: the newcomer's P→S records the
    /// transition but tells the home nothing, and under naïve P/S fetches
    /// no checkpoint — the home's stores are in the memory the fill reads.
    #[test]
    fn a_home_owner_is_neither_notified_nor_fetched_from() {
        for mode in [ClassificationMode::Ps3, ClassificationMode::PsNaive] {
            let c = CarinaSiSd::new(2, 16, &CarinaConfig::with_mode(mode));
            let stats = CoherenceStats::new(2);
            let p = PageNum(1);
            assert!(c.register_writer(1, 1, p, stats.shard(1)).is_quiet());
            let oc = c.register_reader(0, 1, p, stats.shard(0));
            assert_eq!((oc.notify, oc.fetch_from), (0, None), "{mode:?}");
            assert_eq!(oc.transitions[0], Some((RecordKind::PToS, 1)), "{mode:?}");
            assert_eq!(stats.snapshot().p_to_s, 1, "{mode:?}");
            assert_eq!(c.node_view(1, p), DirView::default(), "{mode:?}");
        }
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
        // Homed on n2, which caches nothing of it.
        let c = policy(3);
        let stats = CoherenceStats::new(3);
        let p = PageNum(2);
        c.register_writer(0, 2, p, stats.shard(0));
        assert!(c.write_buffered(0, p)); // Ps3 buffers everything
        assert!(!c.must_self_invalidate(0, p, stats.shard(0))); // private
        c.register_reader(1, 2, p, stats.shard(1));
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
        assert_eq!(c.register_writer(5, 1, p, stats.shard(5)).notify, node_bit(2));
        assert!(c.merge_reader(2, 1, p, stale, stats.shard(2)).is_quiet());
        assert_eq!(c.node_view(2, p).writers, node_bit(5), "node 2 lost the notification");
        assert!(c.must_self_invalidate(2, p, stats.shard(2)));
    }

    /// Under P/S a read and a write race onto n0's private page. Each
    /// fetch-or lands before the other's read of the map it did not
    /// deposit into, so both `before`s read shared: neither sees the P→S
    /// that flips n0's answers. Compared from the floors, both deliver it.
    #[test]
    fn a_flip_both_racers_saw_done_still_reaches_the_owner() {
        let c = CarinaSiSd::new(4, 16, &CarinaConfig::with_mode(ClassificationMode::PsNaive));
        let stats = CoherenceStats::new(4);
        let (p, home) = (PageNum(3), 3);
        c.register_reader(0, home, p, stats.shard(0));
        let (floor, entry) = (c.home_view(p), c.home_entry(p));
        let readers = entry.or_readers(node_bit(1)).readers; // n1's deposit
        let writers = entry.or_writers(node_bit(2)).writers; // n2's deposit
        let now = c.home_view(p);
        let read = Reply { floor, before: DirView { readers, writers: now.writers } };
        let write = Reply { floor, before: DirView { readers: now.readers, writers } };
        let shared = |r: Reply| r.before.accessors().count_ones() > 1;
        assert!(shared(read) && shared(write), "each saw the other");
        let by_writer = c.merge_writer(2, home, p, write, stats.shard(2)).notify;
        let by_reader = c.merge_reader(1, home, p, read, stats.shard(1)).notify;
        assert_eq!(stats.snapshot().p_to_s, 0, "neither saw the P→S");
        assert_eq!((by_writer & node_bit(0), by_reader & node_bit(0)), (node_bit(0), node_bit(0)));
        assert!(c.must_self_invalidate(0, p, stats.shard(0)));
        assert_eq!(c.invariant_problems(&vec![Vec::new(); 4], |_| home), Vec::<String>::new());
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
        assert_eq!(c.home_view(PageNum(1)), DirView::default());
        assert!(mem::all_zero(&c.home.cells) && mem::all_zero(&c.dir_caches.cells));
    }
}
