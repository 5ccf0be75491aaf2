//! Pyxis: census-driven hybrid coherence — leases on read-mostly pages,
//! SI/SD classification on write-shared ones.
//!
//! The head-to-head in EXPERIMENTS.md shows the two pure policies are
//! complementary: [`Tardis`] leases cut SI-fence invalidations ~28x on
//! read-mostly sharing but lose >2x on the write-heavy SOR stencil, while
//! [`CarinaSiSd`] does the reverse. Pyxis runs *both* protocols' metadata
//! and picks the governing one per page:
//!
//! - **Classification metadata is maintained for every page, always**
//!   (reader/writer full maps, directory-cache notifications). The
//!   maps are monotone and the notifications are the same bounded,
//!   once-per-transition verbs SI/SD posts, so the Table 1 predicate stays
//!   sound no matter how long a page spent in lease mode — and the census
//!   stays authoritative under the hybrid.
//! - **Timestamps are maintained only while a page is in lease mode.**
//!   Soundness across switches comes from the reconcile rule below, not
//!   from cross-mode clock upkeep, so classification-mode writes pay no
//!   per-epoch `wts` bumps.
//!
//! **Signals.** Tracking is O(1) per access on paths the engine already
//! exercises — never a page-table scan:
//! - `note_written_epoch` (once per written epoch of a page: a copy's
//!   clean→dirty fault, the fence drain that found stores in a copy kept
//!   writable, or a home node's write registration) bumps a per-page
//!   monotone *write version*. Home stores have no fault and no drain, so
//!   a classify-mode home page another node has on record stays
//!   write-registered only within the release epoch it registered in; a
//!   page nobody else has on record stays registered;
//! - each node remembers, per page, the write version it observed at its
//!   previous fence check. "Did anything change since I last looked?" is
//!   one compare — and it is independent of fence cadence and thread
//!   count, where a wall-clock or fence-tick decay window would not be;
//! - fence checks compare the governing predicate against the
//!   counterfactual: in lease mode the side-effect-free Table 1 predicate
//!   (writer-set cardinality straight from the census maps) prices each
//!   keep/expiry against what SI/SD would have done; in classification
//!   mode an invalidation of a page whose write version has *not* moved
//!   since this node's last check is the read-mostly waste leases exist to
//!   avoid. The sweep checks only present copies, and a copy present at an
//!   invalidating check was fetched after this node's previous check, so
//!   "unchanged" already means "read since its last write".
//!
//! **Hysteresis.** Evidence accumulates in a saturating per-page score
//! (positive = leases are winning, negative = SI/SD is): +1 per avoided
//! invalidation / useless invalidation, -1 per regret event. A page
//! switches only when the score crosses [`Pyxis::SWITCH_THRESHOLD`], and the
//! score resets to zero on every switch, so flapping needs a full
//! threshold's worth of contrary evidence each way.
//!
//! **Fence-boundary switches.** A crossing only *enqueues* the page; the
//! pending queue is applied in `begin_si_fence`/`end_sd_fence` — the
//! epoch-safe points — so modes never change under a fence sweep issued by
//! the same node, and the engine's issue/poll overlap, write buffer, and
//! retry machinery compose unchanged. A switch bumps the page's mode
//! epoch (parity = mode), and the first acquire on which a node observes a
//! new epoch unconditionally invalidates its copy and re-registers. That
//! reconcile rule is what makes transitions safe in both directions: no
//! lease grant from a previous lease stint and no stale directory-cache
//! view can keep stale data alive across a switch.

use super::{CarinaSiSd, Coherence, PageMode, PageTable, RegisterOutcome, Tardis};
use crate::classification::node_bit;
use crate::config::CarinaConfig;
use crate::stats::{CoherenceStats, StatShard};
use mem::PageNum;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

/// Census-driven per-page hybrid of [`CarinaSiSd`] and [`Tardis`].
#[derive(Debug)]
pub struct Pyxis {
    sisd: CarinaSiSd,
    tardis: Tardis,
    /// Per page: switch count. Parity is the mode (even = classify,
    /// odd = lease); every page starts in classification mode.
    mode_epoch: PageTable,
    /// Per node, per page: the mode epoch this node last reconciled at an
    /// acquire (mismatch ⇒ force-invalidate once).
    seen_epoch: PageTable,
    /// Per page saturating evidence score (see module docs).
    score: PageTable<AtomicI64>,
    /// Per page: monotone write version, bumped once per written epoch.
    /// Comparing against a node's remembered version answers "was
    /// this page written since I last checked it?" exactly, with no decay
    /// window to tune.
    write_version: PageTable,
    /// Per page: the home node's release epoch (`Tardis::epoch`) at its
    /// last write registration of the page.
    home_written: PageTable,
    /// Per node, per page: the write version this node observed at its
    /// previous fence check of the page.
    seen_version: PageTable,
    /// Pages whose score crossed the threshold since the last fence hook;
    /// drained (and the switches applied) only at fence boundaries.
    pending: Mutex<Vec<PageNum>>,
    pending_len: AtomicUsize,
}

impl Pyxis {
    /// Evidence score a page must accumulate before it switches mode at
    /// the next fence boundary (higher = more hysteresis, slower
    /// adaptation).
    pub const SWITCH_THRESHOLD: i64 = 3;
    /// Saturation bound of the per-page evidence score: how much history a
    /// page can hold against a phase change.
    pub const SCORE_CAP: i64 = 8;

    /// Is `page` currently governed by timestamp leases?
    #[inline]
    pub(crate) fn in_lease_mode(&self, page: PageNum) -> bool {
        self.mode_epoch.get(0, page).load(Ordering::Relaxed) & 1 == 1
    }

    /// How many times `page` has switched modes (tests and proptests).
    pub fn switch_count(&self, page: PageNum) -> u64 {
        self.mode_epoch.get(0, page).load(Ordering::Relaxed)
    }

    /// The page's current evidence score (tests).
    pub fn score_of(&self, page: PageNum) -> i64 {
        self.score.get(0, page).load(Ordering::Relaxed)
    }

    /// Add clamped evidence to the page's score; when the total crosses
    /// the switch threshold in the direction opposing the current mode,
    /// enqueue the page for a fence-boundary switch.
    fn add_score(&self, page: PageNum, delta: i64) {
        // Saturated already: nothing to learn, skip the RMW.
        let cur = self.score_of(page);
        if (delta > 0 && cur >= Self::SCORE_CAP) || (delta < 0 && cur <= -Self::SCORE_CAP) {
            return;
        }
        let prev = self
            .score
            .at(0, page)
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some((s + delta).clamp(-Self::SCORE_CAP, Self::SCORE_CAP))
            })
            .unwrap_or(cur);
        let new = (prev + delta).clamp(-Self::SCORE_CAP, Self::SCORE_CAP);
        let lease = self.in_lease_mode(page);
        let crossed = if lease {
            prev > -Self::SWITCH_THRESHOLD && new <= -Self::SWITCH_THRESHOLD
        } else {
            prev < Self::SWITCH_THRESHOLD && new >= Self::SWITCH_THRESHOLD
        };
        if crossed {
            let mut pend = self.pending.lock();
            pend.push(page);
            self.pending_len.store(pend.len(), Ordering::Relaxed);
        }
    }

    /// Drain the pending queue and flip every page whose score still backs
    /// the switch. Called only from the fence hooks — the epoch-safe
    /// points — never from an access path.
    fn apply_pending(&self, shard: &StatShard) {
        if self.pending_len.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut pend = self.pending.lock();
        for page in pend.drain(..) {
            let (e, s) = (self.switch_count(page), self.score_of(page));
            let flip = if e & 1 == 0 {
                s >= Self::SWITCH_THRESHOLD
            } else {
                s <= -Self::SWITCH_THRESHOLD
            };
            if !flip {
                continue;
            }
            self.mode_epoch.at(0, page).store(e + 1, Ordering::Relaxed);
            self.score.at(0, page).store(0, Ordering::Relaxed);
            if e & 1 == 0 {
                CoherenceStats::bump(&shard.mode_to_lease);
            } else {
                CoherenceStats::bump(&shard.mode_to_sisd);
            }
        }
        self.pending_len.store(0, Ordering::Relaxed);
    }
}

impl Coherence for Pyxis {
    const NAME: &'static str = "pyxis";

    fn new(nodes: usize, total_pages: u64, config: &CarinaConfig) -> Self {
        Pyxis {
            sisd: CarinaSiSd::new(nodes, total_pages, config),
            tardis: Tardis::new(nodes, total_pages, config),
            mode_epoch: PageTable::new(1, total_pages),
            seen_epoch: PageTable::new(nodes, total_pages),
            score: PageTable::new(1, total_pages),
            write_version: PageTable::new(1, total_pages),
            home_written: PageTable::new(1, total_pages),
            seen_version: PageTable::new(nodes, total_pages),
            pending: Mutex::new(Vec::new()),
            pending_len: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn read_registered(&self, me: u16, home: u16, page: PageNum) -> bool {
        let reg = self.sisd.read_registered(me, home, page);
        if !self.in_lease_mode(page) {
            return reg;
        }
        // Lease mode: a valid unexpired lease is required on top of the
        // map registration (renewals re-run the directory atomic, exactly
        // like pure Tardis).
        reg && self.tardis.read_registered(me, home, page)
    }

    #[inline]
    fn write_registered(&self, me: u16, home: u16, page: PageNum) -> bool {
        if self.in_lease_mode(page) {
            // Per-epoch wts bumps; the map bit is set by the same
            // register_writer call that bumps, so no separate check.
            return self.tardis.write_registered(me, home, page);
        }
        // A home store's registration is the census's only sight of its
        // written epoch (module docs): one per epoch, if others read it.
        self.sisd.write_registered(me, home, page)
            && (home != me
                || self.home_written.get(0, page).load(Ordering::Relaxed) == self.tardis.epoch(me)
                || self.sisd.home_view(page).accessors() & !node_bit(me) == 0)
    }

    fn register_reader(
        &self,
        me: u16,
        home: u16,
        page: PageNum,
        shard: &StatShard,
    ) -> RegisterOutcome {
        // The classification maps and directory caches are maintained in
        // both modes (idempotent after the first registration), so Table 1
        // stays sound across lease stints; its notifications are the
        // outcome the engine prices.
        let out = self.sisd.register_reader(me, home, page, shard);
        if self.in_lease_mode(page) && home != me {
            // Quiet by construction: leases ride the same directory atomic.
            let _ = self.tardis.register_reader(me, home, page, shard);
        }
        out
    }

    fn register_writer(
        &self,
        me: u16,
        home: u16,
        page: PageNum,
        shard: &StatShard,
    ) -> RegisterOutcome {
        let out = self.sisd.register_writer(me, home, page, shard);
        if home == me {
            self.home_written.at(0, page).store(self.tardis.epoch(me), Ordering::Relaxed);
        }
        if self.in_lease_mode(page) {
            let _ = self.tardis.register_writer(me, home, page, shard);
        }
        out
    }

    fn write_buffered(&self, me: u16, page: PageNum) -> bool {
        if self.in_lease_mode(page) {
            self.tardis.write_buffered(me, page)
        } else {
            self.sisd.write_buffered(me, page)
        }
    }

    fn note_written_epoch(&self, _me: u16, page: PageNum) {
        self.write_version.at(0, page).fetch_add(1, Ordering::Relaxed);
    }

    fn begin_si_fence(&self, me: u16, shard: &StatShard) {
        self.tardis.begin_si_fence(me, shard);
        self.sisd.begin_si_fence(me, shard);
        self.apply_pending(shard);
    }

    fn must_self_invalidate(&self, me: u16, page: PageNum, shard: &StatShard) -> bool {
        let epoch = self.switch_count(page);
        let version = self.write_version.get(0, page).load(Ordering::Relaxed);
        if self.seen_epoch.get(me, page).load(Ordering::Relaxed) != epoch {
            // Reconcile: the first acquire that observes a page's new mode
            // drops the copy unconditionally, so no lease grant or stale
            // view from the old mode can keep stale data alive. Record the
            // write version too, so the next check scores the new mode on
            // post-switch evidence only. Plain stores on per-node cells
            // sibling threads share: safe because this runs only inside
            // `si_sweep`, under the page's slot lock.
            self.seen_epoch.at(me, page).store(epoch, Ordering::Relaxed);
            self.seen_version.at(me, page).store(version, Ordering::Relaxed);
            CoherenceStats::bump(&shard.mode_reconciles);
            return true;
        }
        // One swap answers "was the page written since this node's last
        // check?" — exact, and independent of fence cadence or how many
        // threads share a node.
        let unchanged = self.seen_version.at(me, page).swap(version, Ordering::Relaxed) == version;
        if epoch & 1 == 1 {
            CoherenceStats::bump(&shard.mode_lease_checks);
            let inval = self.tardis.must_self_invalidate(me, page, shard);
            // Counterfactual regret vs Table 1 (side-effect-free under
            // CarinaSiSd): every keep SI/SD would have invalidated is
            // evidence for leases; every expiry SI/SD would have kept is
            // evidence against.
            let sisd_would = self.sisd.must_self_invalidate(me, page, shard);
            if inval && !sisd_would {
                self.add_score(page, -1);
            } else if !inval && sisd_would {
                self.add_score(page, 1);
            }
            inval
        } else {
            CoherenceStats::bump(&shard.mode_classify_checks);
            let inval = self.sisd.must_self_invalidate(me, page, shard);
            if inval {
                // Invalidating a page nobody wrote since this node's last
                // look is the read-mostly waste leases avoid; invalidating
                // a freshly written page is classification doing its job.
                self.add_score(page, if unchanged { 1 } else { -1 });
            }
            inval
        }
    }

    fn end_sd_fence(&self, me: u16, shard: &StatShard) {
        self.tardis.end_sd_fence(me, shard);
        self.sisd.end_sd_fence(me, shard);
        self.apply_pending(shard);
    }

    fn note_downgrade(&self, me: u16, page: PageNum) {
        // Version bumps are lease-mode bookkeeping. A classify-mode drain
        // leaves the Tardis clocks stale, which is sound: a later switch
        // to lease mode starts with a reconcile-invalidate at every node,
        // so no lease can be granted against the missed versions' bytes.
        if self.in_lease_mode(page) {
            self.tardis.note_downgrade(me, page);
        }
    }

    fn buffers_every_dirty_page(&self) -> bool {
        // Lease-mode pages always buffer (as under Tardis); classify-mode
        // ones follow SI/SD, whose naïve P/S mode exempts privates.
        self.sisd.buffers_every_dirty_page()
    }

    fn page_mode(&self, page: PageNum) -> PageMode {
        if self.in_lease_mode(page) {
            PageMode::Lease
        } else {
            PageMode::Classify
        }
    }

    fn invariant_problems(
        &self,
        dirty: &[Vec<PageNum>],
        home_of: impl Fn(PageNum) -> u16,
    ) -> Vec<String> {
        // The classification invariants hold unconditionally (maps are
        // maintained in both modes). Of the Tardis per-dirty-page checks
        // only the global timestamp ordering applies: a page can go dirty
        // in classification mode and switch before draining, so "dirty ⇒
        // holds a lease" is not a hybrid invariant.
        let mut problems = self.sisd.invariant_problems(dirty, home_of);
        problems.extend(self.tardis.timestamp_problems());
        problems
    }

    fn reset_all(&self) {
        self.sisd.reset_all();
        self.tardis.reset_all();
        for column in [&self.mode_epoch, &self.write_version, &self.home_written] {
            column.clear_all();
        }
        self.score.clear_all();
        self.seen_epoch.clear_all();
        self.seen_version.clear_all();
        let mut pend = self.pending.lock();
        pend.clear();
        self.pending_len.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CoherenceStats;

    fn policy(nodes: usize) -> Pyxis {
        Pyxis::new(nodes, 16, &CarinaConfig::default())
    }

    /// Drive the read-mostly pattern: node 1 wrote once, node 0 re-reads
    /// across acquire fences while nothing changes.
    #[test]
    fn read_mostly_page_earns_lease_mode() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let p = PageNum(3);
        c.register_writer(1, 1, p, s.shard(1));
        c.note_written_epoch(1, p);
        c.end_sd_fence(1, s.shard(1));
        c.register_reader(0, 1, p, s.shard(0));
        let mut switched_at = None;
        for round in 0..12 {
            // One barrier round per node: acquire, sweep, release.
            c.begin_si_fence(0, s.shard(0));
            let inval = c.must_self_invalidate(0, p, s.shard(0));
            if inval && !c.read_registered(0, 1, p) {
                c.register_reader(0, 1, p, s.shard(0));
            }
            c.end_sd_fence(0, s.shard(0));
            c.end_sd_fence(1, s.shard(1));
            if c.in_lease_mode(p) && switched_at.is_none() {
                switched_at = Some(round);
            }
        }
        assert!(
            switched_at.is_some(),
            "repeated useless invalidations must switch the page to leases"
        );
        // Steady state: the loop's post-switch rounds already reconciled
        // (forced one invalidation) and re-leased; now the lease holds.
        c.begin_si_fence(0, s.shard(0));
        assert!(!c.must_self_invalidate(0, p, s.shard(0)));
        let snap = s.snapshot();
        assert_eq!(snap.mode_to_lease, 1);
        assert_eq!(snap.mode_to_sisd, 0);
        assert!(snap.mode_reconciles >= 1);
        assert!(snap.mode_lease_checks > 0 && snap.mode_classify_checks > 0);
    }

    /// Write-hot pages stay in classification mode: every invalidation
    /// coincides with recent writes, so no lease evidence accumulates.
    #[test]
    fn write_hot_page_stays_in_classify_mode() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let p = PageNum(5);
        c.register_writer(1, 1, p, s.shard(1));
        c.register_reader(0, 1, p, s.shard(0));
        for _ in 0..20 {
            // Writer dirties the page every round and releases.
            c.note_written_epoch(1, p);
            c.end_sd_fence(1, s.shard(1));
            c.begin_si_fence(0, s.shard(0));
            let _ = c.must_self_invalidate(0, p, s.shard(0));
        }
        assert!(!c.in_lease_mode(p), "write-hot page must not switch to leases");
        assert_eq!(s.snapshot().mode_to_lease, 0);
    }

    /// One home store of `page` on node `home`, as the engine's
    /// `register_home` drives it: a lapsed registration re-registers and
    /// raises the written epoch. Returns whether it registered.
    fn home_store(c: &Pyxis, s: &CoherenceStats, home: u16, p: PageNum) -> bool {
        if c.write_registered(home, home, p) {
            return false;
        }
        c.register_writer(home, home, p, s.shard(home));
        c.note_written_epoch(home, p);
        true
    }

    /// A page its home rewrites every epoch looks read-mostly only to a
    /// census that cannot see home stores. Each epoch's first store
    /// re-registers, so every invalidation node 1's check makes follows a
    /// write, and the page never earns a lease.
    #[test]
    fn a_page_its_home_rewrites_every_epoch_stays_in_classify_mode() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let p = PageNum(4);
        c.register_reader(1, 0, p, s.shard(1));
        for epoch in 0..20 {
            assert!(home_store(&c, &s, 0, p), "epoch {epoch}: the shared page re-registers");
            assert!(!home_store(&c, &s, 0, p), "once per epoch");
            c.end_sd_fence(0, s.shard(0));
            c.begin_si_fence(1, s.shard(1));
            assert!(c.must_self_invalidate(1, p, s.shard(1)), "epoch {epoch}");
            c.end_sd_fence(1, s.shard(1));
        }
        assert!(!c.in_lease_mode(p));
        assert!(c.score_of(p) < 0, "every check saw a fresh write");
        assert_eq!(s.snapshot().mode_to_lease, 0);
    }

    /// A home page no other node has on record keeps its write
    /// registration across epochs, so a private page pays nothing new.
    /// Once a reader appears, it holds only for the epoch it was taken in.
    #[test]
    fn a_private_home_page_stays_write_registered() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let p = PageNum(6);
        assert!(home_store(&c, &s, 0, p));
        for _ in 0..5 {
            c.end_sd_fence(0, s.shard(0));
            assert!(c.write_registered(0, 0, p));
        }
        c.register_reader(1, 0, p, s.shard(1));
        assert!(!c.write_registered(0, 0, p), "registered five epochs ago");
        assert!(home_store(&c, &s, 0, p));
        assert!(c.write_registered(0, 0, p));
        c.end_sd_fence(0, s.shard(0));
        assert!(!c.write_registered(0, 0, p), "the next epoch re-registers");
    }

    /// Mode switches are applied only by the fence hooks, never by the
    /// access paths that merely accumulate evidence.
    #[test]
    fn switches_happen_only_at_fence_boundaries() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let p = PageNum(7);
        c.register_writer(1, 1, p, s.shard(1));
        c.end_sd_fence(1, s.shard(1));
        c.register_reader(0, 1, p, s.shard(0));
        // Accumulate far past the threshold without touching a fence hook:
        // must_self_invalidate runs inside a sweep, between hooks.
        for _ in 0..10 {
            let _ = c.must_self_invalidate(0, p, s.shard(0));
            c.register_reader(0, 1, p, s.shard(0));
            assert_eq!(c.switch_count(p), 0, "switch applied outside a fence hook");
        }
        assert!(c.score_of(p) >= 1);
        c.begin_si_fence(0, s.shard(0));
        assert_eq!(c.switch_count(p), 1, "pending switch must apply at the hook");
    }

    /// Hysteresis: after a switch the score resets, so one contrary event
    /// cannot flap the page back.
    #[test]
    fn score_resets_on_switch() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let p = PageNum(2);
        c.register_writer(1, 1, p, s.shard(1));
        c.end_sd_fence(1, s.shard(1));
        c.register_reader(0, 1, p, s.shard(0));
        while !c.in_lease_mode(p) {
            c.begin_si_fence(0, s.shard(0));
            if c.must_self_invalidate(0, p, s.shard(0)) {
                c.register_reader(0, 1, p, s.shard(0));
            }
        }
        assert_eq!(c.score_of(p), 0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let p = PageNum(0);
        c.register_reader(0, 1, p, s.shard(0));
        c.register_writer(1, 1, p, s.shard(1));
        c.note_written_epoch(1, p);
        c.end_sd_fence(1, s.shard(1));
        c.begin_si_fence(0, s.shard(0));
        c.must_self_invalidate(0, p, s.shard(0));
        c.reset_all();
        assert!(!c.in_lease_mode(p));
        assert_eq!(c.switch_count(p), 0);
        assert_eq!(c.score_of(p), 0);
        assert!(!c.read_registered(0, 1, p));
        assert!(c.invariant_problems(&[vec![], vec![]], |_| 1).is_empty());
        for table in [&c.mode_epoch, &c.write_version, &c.home_written, &c.seen_epoch] {
            assert!(mem::all_zero(&table.cells));
        }
        assert!(mem::all_zero(&c.seen_version.cells) && mem::all_zero(&c.score.cells));
    }
}
