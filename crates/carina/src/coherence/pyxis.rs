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
//! - `note_written_epoch` (once per written epoch of a page: its
//!   clean→dirty fault, or the fence drain that found stores in a page
//!   kept writable) bumps a per-page monotone *write version* and zeroes
//!   the page's reads-between-writes counter;
//! - `register_reader` (misses and lease renewals) bumps the
//!   reads-between-writes counter;
//! - each node remembers, per page, the write version it observed at its
//!   previous fence check. "Did anything change since I last looked?" is
//!   one compare — and it is independent of fence cadence and thread
//!   count, where a wall-clock or fence-tick decay window would not be;
//! - fence checks compare the governing predicate against the
//!   counterfactual: in lease mode the side-effect-free Table 1 predicate
//!   (writer-set cardinality straight from the census maps) prices each
//!   keep/expiry against what SI/SD would have done; in classification
//!   mode an invalidation of a page whose write version has *not* moved
//!   since this node's last check — yet which has been read since its
//!   last write — is the read-mostly waste leases exist to avoid.
//!
//! **Hysteresis.** Evidence accumulates in a saturating per-page score
//! (positive = leases are winning, negative = SI/SD is): +1 per avoided
//! invalidation / useless invalidation, -1 per regret event. A page
//! switches only when the score crosses `pyxis_switch_threshold`, and the
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

use super::{page_table, CarinaSiSd, Coherence, NodePageTable, PageMode, RegisterOutcome, Tardis};
use crate::classification::DirView;
use crate::config::CarinaConfig;
use crate::stats::{CoherenceStats, StatShard};
use mem::PageNum;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Census-driven per-page hybrid of [`CarinaSiSd`] and [`Tardis`].
#[derive(Debug)]
pub struct Pyxis {
    sisd: CarinaSiSd,
    tardis: Tardis,
    /// Per page: switch count. Parity is the mode (even = classify,
    /// odd = lease); every page starts in classification mode.
    mode_epoch: Box<[AtomicU64]>,
    /// Per node, per page: the mode epoch this node last reconciled at an
    /// acquire (mismatch ⇒ force-invalidate once).
    seen_epoch: NodePageTable,
    /// Per page saturating evidence score (see module docs).
    score: Box<[AtomicI64]>,
    /// Per page: monotone write version, bumped once per written epoch.
    /// Comparing against a node's remembered version answers "was
    /// this page written since I last checked it?" exactly, with no decay
    /// window to tune.
    write_version: Box<[AtomicU64]>,
    /// Per page: reads since the page's last write (zeroed on every
    /// written epoch) — the reads-between-writes census signal.
    reads_since_write: Box<[AtomicU64]>,
    /// Per node, per page: the write version this node observed at its
    /// previous fence check of the page.
    seen_version: NodePageTable,
    /// Pages whose score crossed the threshold since the last fence hook;
    /// drained (and the switches applied) only at fence boundaries.
    pending: Mutex<Vec<PageNum>>,
    pending_len: AtomicUsize,
    threshold: i64,
    cap: i64,
}

impl Pyxis {
    /// Is `page` currently governed by timestamp leases?
    #[inline]
    pub(crate) fn in_lease_mode(&self, page: PageNum) -> bool {
        self.mode_epoch[page.0 as usize].load(Ordering::Relaxed) & 1 == 1
    }

    /// How many times `page` has switched modes (tests and proptests).
    pub fn switch_count(&self, page: PageNum) -> u64 {
        self.mode_epoch[page.0 as usize].load(Ordering::Relaxed)
    }

    /// The page's current evidence score (tests).
    pub fn score_of(&self, page: PageNum) -> i64 {
        self.score[page.0 as usize].load(Ordering::Relaxed)
    }

    /// Add clamped evidence to the page's score; when the total crosses
    /// the switch threshold in the direction opposing the current mode,
    /// enqueue the page for a fence-boundary switch.
    fn add_score(&self, q: usize, delta: i64) {
        let cell = &self.score[q];
        // Saturated already: nothing to learn, skip the RMW.
        let cur = cell.load(Ordering::Relaxed);
        if (delta > 0 && cur >= self.cap) || (delta < 0 && cur <= -self.cap) {
            return;
        }
        let prev = cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some((s + delta).clamp(-self.cap, self.cap))
            })
            .unwrap_or(cur);
        let new = (prev + delta).clamp(-self.cap, self.cap);
        let lease = self.mode_epoch[q].load(Ordering::Relaxed) & 1 == 1;
        let crossed = if lease {
            prev > -self.threshold && new <= -self.threshold
        } else {
            prev < self.threshold && new >= self.threshold
        };
        if crossed {
            let mut pend = self.pending.lock();
            pend.push(PageNum(q as u64));
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
            let q = page.0 as usize;
            let e = self.mode_epoch[q].load(Ordering::Relaxed);
            let s = self.score[q].load(Ordering::Relaxed);
            let flip = if e & 1 == 0 {
                s >= self.threshold
            } else {
                s <= -self.threshold
            };
            if !flip {
                continue;
            }
            self.mode_epoch[q].store(e + 1, Ordering::Relaxed);
            self.score[q].store(0, Ordering::Relaxed);
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
        let threshold = config.pyxis_switch_threshold.max(1);
        Pyxis {
            sisd: CarinaSiSd::new(nodes, total_pages, config),
            tardis: Tardis::new(nodes, total_pages, config),
            mode_epoch: page_table(total_pages),
            seen_epoch: NodePageTable::new(nodes, total_pages),
            score: page_table(total_pages),
            write_version: page_table(total_pages),
            reads_since_write: page_table(total_pages),
            seen_version: NodePageTable::new(nodes, total_pages),
            pending: Mutex::new(Vec::new()),
            pending_len: AtomicUsize::new(0),
            threshold,
            cap: config.pyxis_score_cap.max(threshold),
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
            self.tardis.write_registered(me, home, page)
        } else {
            self.sisd.write_registered(me, home, page)
        }
    }

    fn register_reader(
        &self,
        me: u16,
        home: u16,
        page: PageNum,
        shard: &StatShard,
    ) -> RegisterOutcome {
        let q = page.0 as usize;
        self.reads_since_write[q].fetch_add(1, Ordering::Relaxed);
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
        // Advance the write version, restart the reads-between-writes count.
        let q = page.0 as usize;
        self.write_version[q].fetch_add(1, Ordering::Relaxed);
        self.reads_since_write[q].store(0, Ordering::Relaxed);
    }

    fn begin_si_fence(&self, me: u16, shard: &StatShard) {
        self.tardis.begin_si_fence(me, shard);
        self.sisd.begin_si_fence(me, shard);
        self.apply_pending(shard);
    }

    fn must_self_invalidate(&self, me: u16, page: PageNum, shard: &StatShard) -> bool {
        let q = page.0 as usize;
        let epoch = self.mode_epoch[q].load(Ordering::Relaxed);
        let seen = self.seen_epoch.at(me, page);
        let version = self.write_version[q].load(Ordering::Relaxed);
        if seen.load(Ordering::Relaxed) != epoch {
            // Reconcile: the first acquire that observes a page's new mode
            // drops the copy unconditionally, so no lease grant or stale
            // view from the old mode can keep stale data alive. Record the
            // write version too, so the next check scores the new mode on
            // post-switch evidence only.
            seen.store(epoch, Ordering::Relaxed);
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
                self.add_score(q, -1);
            } else if !inval && sisd_would {
                self.add_score(q, 1);
            }
            inval
        } else {
            CoherenceStats::bump(&shard.mode_classify_checks);
            let inval = self.sisd.must_self_invalidate(me, page, shard);
            if inval {
                // Invalidating a page nobody wrote since this node's last
                // look — but which *is* being read — is the read-mostly
                // waste leases avoid; invalidating a freshly written page
                // is classification doing its job.
                if unchanged && self.reads_since_write[q].load(Ordering::Relaxed) > 0 {
                    self.add_score(q, 1);
                } else {
                    self.add_score(q, -1);
                }
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

    fn census_view(&self, page: PageNum) -> DirView {
        // Authoritative: the full maps are maintained in both modes.
        self.sisd.census_view(page)
    }

    fn page_mode(&self, page: PageNum) -> PageMode {
        if self.in_lease_mode(page) {
            PageMode::Lease
        } else {
            PageMode::Classify
        }
    }

    fn invariant_problems(&self, node: u16, dirty: &[PageNum]) -> Vec<String> {
        // The classification invariants hold unconditionally (maps are
        // maintained in both modes). Of the Tardis per-dirty-page checks
        // only the global timestamp ordering applies: a page can go dirty
        // in classification mode and switch before draining, so "dirty ⇒
        // holds a lease" is not a hybrid invariant.
        let mut problems = self.sisd.invariant_problems(node, dirty);
        for q in 0..self.mode_epoch.len() {
            let (wts, rts) = self.tardis.timestamps(PageNum(q as u64));
            if rts < wts {
                problems.push(format!("page {q}: rts {rts} < wts {wts}"));
            }
        }
        problems
    }

    fn on_membership_change(&self, rehomed: &[PageNum]) {
        // Both sub-protocols null their per-page metadata; the hybrid's own
        // census signals restart too, so post-failover mode decisions rest
        // on post-failover evidence only. The mode epoch itself is *not*
        // reset — bumping nothing keeps `seen_epoch` consistent, and the
        // membership-epoch invalidation in the engine already forces the
        // reconcile-style refetch.
        self.sisd.on_membership_change(rehomed);
        self.tardis.on_membership_change(rehomed);
        for &page in rehomed {
            let q = page.0 as usize;
            self.score[q].store(0, Ordering::Relaxed);
            self.reads_since_write[q].store(0, Ordering::Relaxed);
        }
    }

    fn reset_all(&self) {
        self.sisd.reset_all();
        self.tardis.reset_all();
        mem::clear_nonzero(&self.mode_epoch);
        mem::clear_nonzero(&self.score);
        mem::clear_nonzero(&self.write_version);
        mem::clear_nonzero(&self.reads_since_write);
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
        assert!(c.invariant_problems(0, &[]).is_empty());
        let zero = |cells: &[AtomicU64]| cells.iter().all(|a| a.load(Ordering::Relaxed) == 0);
        assert!(zero(&c.mode_epoch) && zero(&c.write_version) && zero(&c.reads_since_write));
        for table in [&c.seen_epoch, &c.seen_version] {
            assert!(table.touched().all(|a| a.load(Ordering::Relaxed) == 0));
        }
    }
}
