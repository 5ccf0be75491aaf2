//! Tardis: timestamp-lease coherence on the Carina engine.
//!
//! An adaptation of TARDIS (Yu & Devadas, PACT'15) to the DSM's
//! acquire/release fence model. Instead of Pyxis reader/writer full maps,
//! every page's home entry carries two logical timestamps:
//!
//! - `wts` — the write timestamp of the home copy's current version;
//! - `rts` — the time through which that version is *promised* valid (the
//!   max of every granted read lease).
//!
//! Each node keeps a logical clock `pts`. The protocol is four rules:
//!
//! 1. **Read fill**: `pts = max(pts, wts)`, then take a lease
//!    `rts = max(rts, pts + lease)` with the same one-sided directory
//!    atomic Carina uses for registration (timestamps ride in the entry,
//!    no extra verbs). The copy is valid through the granted `rts`.
//! 2. **Write fault**: `pts = max(pts, wts)` and halve the page's lease.
//!    The version does not move yet — the new bytes exist only in the
//!    writer's cache — and the writer takes *no* lease: a lease asserts
//!    the whole copy is current, which a multi-writer diff protocol
//!    cannot prove for a written page (words another node wrote are as
//!    old as the last fill; hardware TARDIS writes under exclusive
//!    ownership, which is what makes its write-side leases sound).
//!    Written pages follow SI/SD discipline instead: drained at the
//!    release, self-invalidated at the writer's next acquire.
//! 3. **Downgrade** (the dirty copy lands in home memory — fence drain,
//!    buffer overflow, or eviction): bump `wts = max(wts, rts) + 1` — past
//!    every granted lease — keep `rts >= wts`, and
//!    `pts = max(pts, wts)`. Bumping here rather than at the fault is
//!    what makes rule 4's release argument sound: a version number never
//!    exists before its bytes are fetchable. (Bumping at fault time lets a
//!    concurrent read fill lease the *old* home bytes at a clock past the
//!    new version, and that stale copy would survive the writer's
//!    release.) The release (`end_sd_fence`, once every write-back is
//!    posted) then publishes `gts = max(gts, pts)`. Writes to pages homed at the
//!    writer never downgrade — the stores land in home memory directly —
//!    so their bump is deferred to the release itself, after every store
//!    of the epoch, via a per-epoch queue of home-written pages. Because
//!    threads of one node share the epoch, the release opens the next
//!    epoch *before* draining that queue and the engine re-checks
//!    registration after every home store: a store either precedes the
//!    bump (old epoch still visible) or re-queues its page for the
//!    storing thread's own release.
//! 4. **Acquire** (`si_fence`, before the sweep): `pts = max(pts, gts)`,
//!    then invalidate exactly the cached pages whose granted lease has
//!    `rts < pts` — *expired* leases. Unexpired leases are kept: that is
//!    the entire win on read-mostly pages, where SI/SD's MW class would
//!    have invalidated everything.
//!
//! The argument is in logical time and host order only, never in virtual
//! time: a write-back's bytes are in home memory when its drain posts it,
//! before `note_downgrade` bumps `wts` and before `end_sd_fence`
//! publishes. The write-backs' virtual settle is the release stamp the
//! acquirer merges (`carina::Published`); the release hook does not wait
//! for it.
//!
//! Soundness (DRF programs): if node W writes page p and releases, and
//! node A subsequently acquires, then `wts_p > rts` held at W's drain-time
//! bump for every lease granted before it (grants and bumps serialize on
//! the entry lock below), W's release published `gts >= pts_W >= wts_p`,
//! and A's acquire merges `pts_A >= gts > rts(lease)` — so A's stale lease
//! on p is expired and A refetches. A lease granted *after* the bump is on
//! the new version, whose bytes are already home. Conversely a page nobody
//! wrote keeps `rts >= pts` and survives.
//!
//! The entry lock stands in for the directory's serialization point:
//! a reader's grant (`read wts → extend rts`) and a drain's bump
//! (`read rts → advance wts`) are each two steps over two cells, and
//! interleaving them can grant a lease the bump never saw. Hardware TARDIS
//! gets this atomicity for free at the LLC; the lock is host-side only and
//! costs no modeled cycles. It is one of a fixed set of stripes indexed by
//! page, and no code path holds two entries' stripes at once.
//!
//! The home entries are columns (`wts`, `rts`, `lease`, `diag`), each a
//! zero-mapped page table like every other per-page policy table: a run
//! makes resident only the entries it touched, and a reset stores only to
//! the cells it wrote.
//!
//! **Adaptive leases.** A fixed lease suffers amplification: every write
//! bumps `wts` past the max granted `rts`, so after one global clock jump
//! all same-round leases expire together and read-only pages thrash like
//! AllShared. Each page's home entry therefore carries its own lease
//! length: renewing a lease on an *unchanged* page (it expired only
//! because the clock moved past it) doubles the page's lease up to
//! `LEASE_MAX`; writing the page halves it down to `LEASE_MIN` (the
//! constants of `lease_clock`). Read-mostly pages quickly earn leases long enough
//! to ride out unrelated writers; write-hot pages keep short leases and
//! cheap bumps.
//!
//! Deviations from the paper's TARDIS, called out in DESIGN.md §12: a
//! single shared `gts` cell stands in for timestamp piggybacking on every
//! message (the DSM has no per-message metadata channel); leases are per
//! page rather than per cache line; and there is no speculative `pts`
//! advance on misses. Home-node reads take no lease at all — the home
//! copy is authoritative, which is the DSM analogue of TARDIS's owner
//! state.

use super::{lease_clock, Coherence, PageBitSet, PageMode, PageTable, RegisterOutcome};
use crate::classification::node_bit;
use crate::config::CarinaConfig;
use crate::directory::{DirEntry, DirWords};
use crate::stats::{CoherenceStats, StatShard};
use mem::PageNum;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};

/// Entry lock stripes (see module docs); page `q` takes stripe
/// `q % LOCK_STRIPES`.
const LOCK_STRIPES: usize = 64;

/// One node's clock.
#[derive(Debug)]
struct NodeClock {
    /// The node's logical clock.
    pts: AtomicU64,
    /// Release epoch: bumped at every `end_sd_fence`, so a write fault
    /// re-bumps `wts` at most once per epoch (the version the next release
    /// publishes) instead of on every home-page store.
    epoch: AtomicU64,
    /// Pages homed *here* and written this epoch. Home stores land in home
    /// memory directly — no cached copy, no drain — so their version bump
    /// is deferred to `end_sd_fence` (after every store of the epoch) and
    /// this queue remembers which pages owe one.
    home_writes: Mutex<Vec<PageNum>>,
}

/// Timestamp-lease coherence (TARDIS-style).
#[derive(Debug)]
pub struct Tardis {
    /// Serialize lease grants against version bumps (see module docs);
    /// the columns stay atomics so fence predicates read them lock-free.
    locks: [Mutex<()>; LOCK_STRIPES],
    /// Per page: write timestamp of the home copy's version.
    wts: PageTable,
    /// Per page: promise horizon, the max granted read lease. Invariant:
    /// `wts <= rts` whenever `rts > 0`.
    rts: PageTable,
    /// Per page: current lease length (adaptive, see module docs; 0 reads
    /// as the initial lease, `lease_clock::length`).
    lease: PageTable,
    /// Per page: the writers on record, for the invariant checks. Never
    /// consulted by a protocol decision — Tardis's whole point is that it
    /// needs no sharer bitmap.
    diag: PageTable<DirWords>,
    nodes: Vec<NodeClock>,
    /// Per node, per page: holds a (possibly expired) lease.
    granted: PageBitSet,
    /// Per node, per page: the granted `rts` (valid where `granted` is set).
    lease_rts: PageTable,
    /// Per node, per page: the `wts` the lease was granted against
    /// (renewal-of-unchanged-page detection).
    lease_wts: PageTable,
    /// Per node, per page: epoch of the node's last `wts` bump.
    wrote_epoch: PageTable,
    /// The global clock releases publish into and acquires merge from.
    gts: AtomicU64,
}

impl Tardis {
    /// Take `page`'s entry lock.
    #[inline]
    fn lock(&self, page: PageNum) -> MutexGuard<'_, ()> {
        self.locks[page.0 as usize % LOCK_STRIPES].lock()
    }

    /// `page`'s diagnostic accessor maps, to record a writer in.
    #[inline]
    fn diag(&self, page: PageNum) -> DirEntry<'_> {
        DirEntry(self.diag.at(0, page))
    }

    /// Home `wts`/`rts` of `page` (tests and proptests).
    pub fn timestamps(&self, page: PageNum) -> (u64, u64) {
        let (wts, rts) = (self.wts.get(0, page), self.rts.get(0, page));
        (wts.load(Ordering::Acquire), rts.load(Ordering::Acquire))
    }

    /// Pages whose home `rts` lags their `wts`. Only a written version's
    /// `wts` is nonzero, so only stored-to chunks can hold one.
    pub(crate) fn timestamp_problems(&self) -> impl Iterator<Item = String> + '_ {
        self.wts.touched(0).filter_map(|(page, wts)| {
            let (wts, rts) = (wts.load(Ordering::Acquire), self.timestamps(page).1);
            (rts < wts).then(|| format!("page {}: rts {rts} < wts {wts}", page.0))
        })
    }

    /// `node`'s logical clock (tests and proptests).
    pub fn clock(&self, node: u16) -> u64 {
        self.nodes[node as usize].pts.load(Ordering::Acquire)
    }

    /// `node`'s release epoch (SeqCst: see `write_registered`).
    #[inline]
    pub(crate) fn epoch(&self, node: u16) -> u64 {
        self.nodes[node as usize].epoch.load(Ordering::SeqCst)
    }

    /// The lease `node` currently holds on `page`, if any (tests).
    pub fn granted_lease(&self, node: u16, page: PageNum) -> Option<u64> {
        self.granted.get(node, page).then(|| self.lease_rts.get(node, page).load(Ordering::Relaxed))
    }
}

impl Coherence for Tardis {
    const NAME: &'static str = "tardis";

    fn new(nodes: usize, total_pages: u64, _config: &CarinaConfig) -> Self {
        Tardis {
            locks: [const { Mutex::new(()) }; LOCK_STRIPES],
            wts: PageTable::new(1, total_pages),
            rts: PageTable::new(1, total_pages),
            lease: PageTable::new(1, total_pages),
            diag: PageTable::new(1, total_pages),
            nodes: (0..nodes)
                .map(|_| NodeClock {
                    pts: AtomicU64::new(0),
                    epoch: AtomicU64::new(1),
                    home_writes: Mutex::new(Vec::new()),
                })
                .collect(),
            granted: PageBitSet::new(nodes, total_pages),
            lease_rts: PageTable::new(nodes, total_pages),
            lease_wts: PageTable::new(nodes, total_pages),
            wrote_epoch: PageTable::new(nodes, total_pages),
            gts: AtomicU64::new(0),
        }
    }

    #[inline]
    fn read_registered(&self, me: u16, home: u16, page: PageNum) -> bool {
        if home == me {
            // The home copy is authoritative; home reads need no lease.
            return true;
        }
        let pts = self.nodes[me as usize].pts.load(Ordering::Relaxed);
        self.granted_lease(me, page).is_some_and(|rts| rts >= pts)
    }

    #[inline]
    fn write_registered(&self, me: u16, _home: u16, page: PageNum) -> bool {
        // One `wts` bump per page per release epoch covers every store of
        // the epoch: leases granted before the bump are already past; a
        // lease granted *during* our epoch on the page we are writing
        // would be a data race, which DRF excludes. SeqCst pairs with the
        // epoch increment in `end_sd_fence`: a gate check that reads the
        // old epoch is totally ordered before the increment, hence before
        // the queue drain that bumps the page.
        self.wrote_epoch.get(me, page).load(Ordering::Relaxed) == self.epoch(me)
    }

    fn register_reader(
        &self,
        me: u16,
        _home: u16,
        page: PageNum,
        shard: &StatShard,
    ) -> RegisterOutcome {
        let nc = &self.nodes[me as usize];
        let _serial = self.lock(page);
        let renewal = self.granted.get(me, page);
        let wts = self.wts.get(0, page).load(Ordering::Acquire);
        nc.pts.fetch_max(wts, Ordering::AcqRel);
        let pts = nc.pts.load(Ordering::Acquire);
        // Adaptive growth: renewing a lease on an unchanged version means
        // the lease expired only because unrelated writers moved the
        // clock — double it so the page rides out more of them.
        let lease = if renewal && self.lease_wts.get(me, page).load(Ordering::Relaxed) == wts {
            lease_clock::grow(self.lease.at(0, page))
        } else {
            lease_clock::length(self.lease.get(0, page))
        };
        let grant = pts.saturating_add(lease);
        let prev = self.rts.at(0, page).fetch_max(grant, Ordering::AcqRel);
        // A store derived from a load, on a cell sibling threads of `me`
        // share: safe because `_serial` (the page's stripe) orders every
        // renewal of the page, so none lowers the lease another granted.
        self.lease_rts.at(me, page).store(prev.max(grant), Ordering::Relaxed);
        self.lease_wts.at(me, page).store(wts, Ordering::Relaxed);
        if renewal {
            CoherenceStats::bump(&shard.lease_renewals);
        } else {
            self.granted.set(me, page);
        }
        RegisterOutcome::quiet()
    }

    fn register_writer(
        &self,
        me: u16,
        home: u16,
        page: PageNum,
        _shard: &StatShard,
    ) -> RegisterOutcome {
        let nc = &self.nodes[me as usize];
        let _serial = self.lock(page);
        // Shrink the page's lease: it is write-active, and long promises
        // on it only inflate future bumps.
        lease_clock::shrink(self.lease.at(0, page));
        // No self-lease, in either branch. A lease asserts the *whole*
        // copy is current, and a multi-writer diff protocol cannot prove
        // that for a written page: words another node wrote are exactly as
        // old as the last fill. (Hardware TARDIS writes under exclusive
        // ownership, which is what makes its write-side leases sound.)
        // Written pages follow SI/SD discipline instead — drain at the
        // release, self-invalidate at the writer's next acquire — and
        // leases protect only read-filled copies.
        if home == me {
            // Home stores land in home memory directly — there is no
            // cached copy and no drain, so no `note_downgrade` will ever
            // fire for this page. The epoch's bytes become the published
            // version at the *release*, after every store of the epoch;
            // queue the bump for `end_sd_fence`. (Bumping now would mint a
            // version whose later same-epoch stores are still in flight —
            // the exact stale-lease window rule 3 closes for remote
            // writes.)
            nc.home_writes.lock().push(page);
        } else {
            // The version does not move here — the new bytes exist only in
            // this writer's cache until the downgrade (rule 3). Write at
            // the current clock: `pts = max(pts, wts)`.
            let wts = self.wts.get(0, page).load(Ordering::Acquire);
            nc.pts.fetch_max(wts, Ordering::AcqRel);
        }
        self.wrote_epoch.at(me, page).store(nc.epoch.load(Ordering::Relaxed), Ordering::Relaxed);
        self.diag(page).or_writers(node_bit(me));
        RegisterOutcome::quiet()
    }

    fn write_buffered(&self, _me: u16, _page: PageNum) -> bool {
        // Every dirty page is drained at the release that publishes its
        // timestamp.
        true
    }

    fn begin_si_fence(&self, me: u16, _shard: &StatShard) {
        // Acquire: observe every published release.
        self.nodes[me as usize]
            .pts
            .fetch_max(self.gts.load(Ordering::Acquire), Ordering::AcqRel);
    }

    fn must_self_invalidate(&self, me: u16, page: PageNum, shard: &StatShard) -> bool {
        let nc = &self.nodes[me as usize];
        let pts = nc.pts.load(Ordering::Acquire);
        let held = self.granted_lease(me, page).is_some_and(|rts| rts >= pts);
        if held {
            CoherenceStats::bump(&shard.lease_kept);
        } else {
            CoherenceStats::bump(&shard.lease_expiries);
        }
        !held
    }

    fn end_sd_fence(&self, me: u16, _shard: &StatShard) {
        let nc = &self.nodes[me as usize];
        // Open the next epoch *before* draining the home-write queue. A
        // sibling thread's store is covered by the bumps below only if it
        // landed first — and the store path re-checks registration after
        // every home store, so a storer either still reads the old epoch
        // here (its store preceded this increment, hence the bumps) or
        // reads the new one and re-queues the page for its own release.
        nc.epoch.fetch_add(1, Ordering::SeqCst);
        // Home-written pages had no drain: their stores hit home memory
        // directly, and this release is the moment the epoch's bytes
        // become the published version.
        let pending = std::mem::take(&mut *nc.home_writes.lock());
        for page in pending {
            self.note_downgrade(me, page);
        }
        // Publish after the drain posted: the clock moves only once the
        // epoch's bytes are home.
        self.gts
            .fetch_max(nc.pts.load(Ordering::Acquire), Ordering::AcqRel);
    }

    fn note_downgrade(&self, me: u16, page: PageNum) {
        let nc = &self.nodes[me as usize];
        let _serial = self.lock(page);
        // The drained bytes are home: this is the moment the new version
        // exists. Bump past every granted lease — anyone still holding one
        // leased the old bytes, and the release about to publish our clock
        // will expire them at their next acquire.
        let (wts, rts) = self.timestamps(page);
        let v = wts.max(rts) + 1;
        self.wts.at(0, page).store(v, Ordering::Release);
        // Keep `wts <= rts` (an rts below the version would promise the
        // previous version past its life). No self-lease: see
        // `register_writer` — written copies cannot be proven whole.
        self.rts.at(0, page).fetch_max(v, Ordering::AcqRel);
        nc.pts.fetch_max(v, Ordering::AcqRel);
        self.diag(page).or_writers(node_bit(me));
    }

    fn page_mode(&self, _page: PageNum) -> PageMode {
        PageMode::Lease
    }

    fn invariant_problems(
        &self,
        dirty: &[Vec<PageNum>],
        _home_of: impl Fn(PageNum) -> u16,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        for (n, pages) in (0u16..).zip(dirty) {
            for &page in pages {
                if DirEntry(self.diag.get(0, page)).view().writers & node_bit(n) == 0 {
                    let q = page.0;
                    problems.push(format!("n{n}: dirty page {q} without a writer on record"));
                }
            }
        }
        problems.extend(self.timestamp_problems());
        for n in 0..self.lease_rts.rows() {
            for page in self.granted.ones(n) {
                let lease = self.lease_rts.get(n, page).load(Ordering::Relaxed);
                let (q, rts) = (page.0, self.timestamps(page).1);
                if lease > rts {
                    let what = format!("beyond home rts ({lease} > {rts})");
                    problems.push(format!("n{n}: lease on page {q} {what}"));
                }
            }
        }
        problems
    }

    fn reset_all(&self) {
        for column in [&self.wts, &self.rts, &self.lease] {
            column.clear_all();
        }
        self.diag.clear_all();
        for nc in &self.nodes {
            nc.pts.store(0, Ordering::Relaxed);
            nc.epoch.store(1, Ordering::Relaxed);
            nc.home_writes.lock().clear();
        }
        self.granted.clear_all();
        for table in [&self.lease_rts, &self.lease_wts, &self.wrote_epoch] {
            table.clear_all();
        }
        self.gts.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CoherenceStats;

    fn policy(nodes: usize) -> Tardis {
        Tardis::new(nodes, 8, &CarinaConfig::default())
    }

    #[test]
    fn lease_grant_and_expiry_cycle() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let p = PageNum(3);
        // n0 reads p (homed on n1): lease granted, fence keeps it.
        assert!(!c.read_registered(0, 1, p));
        c.register_reader(0, 1, p, s.shard(0));
        assert!(c.read_registered(0, 1, p));
        c.begin_si_fence(0, s.shard(0));
        assert!(!c.must_self_invalidate(0, p, s.shard(0)));
        // n1 writes p (homed at n1: the release itself bumps) and
        // releases: n0's next acquire expires the lease.
        c.register_writer(1, 1, p, s.shard(1));
        c.end_sd_fence(1, s.shard(1));
        c.begin_si_fence(0, s.shard(0));
        assert!(c.must_self_invalidate(0, p, s.shard(0)));
        assert!(!c.read_registered(0, 1, p));
        // Refetch = renewal.
        c.register_reader(0, 1, p, s.shard(0));
        assert!(c.read_registered(0, 1, p));
        let snap = s.snapshot();
        assert_eq!(snap.lease_renewals, 1);
        assert_eq!(snap.lease_expiries, 1);
        assert_eq!(snap.lease_kept, 1);
    }

    #[test]
    fn wts_never_exceeds_rts() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let p = PageNum(0);
        for _ in 0..5 {
            c.register_reader(0, 1, p, s.shard(0));
            c.register_writer(1, 1, p, s.shard(1));
            c.end_sd_fence(1, s.shard(1));
            c.begin_si_fence(0, s.shard(0));
            let (wts, rts) = c.timestamps(p);
            assert!(wts <= rts, "wts {wts} > rts {rts}");
        }
    }

    #[test]
    fn unwritten_pages_survive_unrelated_writes_after_adaptation() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let cold = PageNum(1); // read-only page
        let hot = PageNum(2); // write-hot page
        c.register_reader(0, 1, cold, s.shard(0));
        let mut kept_after_growth = false;
        for _ in 0..12 {
            if !c.write_registered(1, 1, hot) {
                c.register_writer(1, 1, hot, s.shard(1));
            }
            c.end_sd_fence(1, s.shard(1));
            c.begin_si_fence(0, s.shard(0));
            if !c.must_self_invalidate(0, cold, s.shard(0)) {
                kept_after_growth = true;
            } else {
                c.register_reader(0, 1, cold, s.shard(0)); // renew, lease doubles
            }
        }
        assert!(
            kept_after_growth,
            "adaptive lease never outlived the hot page's writes"
        );
        let lease = |page: PageNum| lease_clock::length(c.lease.get(0, page));
        assert!(lease(cold) > lease(hot));
    }

    #[test]
    fn version_moves_at_drain_not_at_fault() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let p = PageNum(4); // homed at n1, written by n0: the drained path
        assert!(!c.write_registered(0, 1, p));
        c.register_writer(0, 1, p, s.shard(0));
        assert!(c.write_registered(0, 1, p));
        let (w_fault, _) = c.timestamps(p);
        assert_eq!(w_fault, 0, "the write fault must not publish a version");
        // The drain creates the version, past every granted lease.
        let (_, rts_before) = c.timestamps(p);
        c.note_downgrade(0, p);
        let (w_drain, _) = c.timestamps(p);
        assert!(w_drain > rts_before);
        // Epoch gating: one self-lease registration per release epoch.
        c.end_sd_fence(0, s.shard(0));
        assert!(!c.write_registered(0, 1, p));
        c.register_writer(0, 1, p, s.shard(0));
        assert!(c.write_registered(0, 1, p));
    }

    #[test]
    fn home_writes_bump_at_release_not_before() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        let p = PageNum(2); // homed at n0, written by n0: no drain exists
        // n1 leases the page first.
        c.register_reader(1, 0, p, s.shard(1));
        c.begin_si_fence(1, s.shard(1));
        assert!(!c.must_self_invalidate(1, p, s.shard(1)));
        // The home write registers but must not mint a version: the
        // epoch's stores are still landing.
        c.register_writer(0, 0, p, s.shard(0));
        let (w_fault, _) = c.timestamps(p);
        assert_eq!(w_fault, 0, "home write published a version before release");
        // The release bumps past n1's lease and publishes the clock.
        c.end_sd_fence(0, s.shard(0));
        let (w_rel, rts) = c.timestamps(p);
        assert!(w_rel > 0 && w_rel <= rts);
        c.begin_si_fence(1, s.shard(1));
        assert!(c.must_self_invalidate(1, p, s.shard(1)));
        // One bump per epoch: the queue drained.
        let again = c.timestamps(p).0;
        c.end_sd_fence(0, s.shard(0));
        assert_eq!(c.timestamps(p).0, again, "release re-bumped a drained queue");
    }

    #[test]
    fn home_reads_take_no_lease() {
        let c = policy(2);
        assert!(c.read_registered(0, 0, PageNum(5)));
        assert_eq!(c.granted_lease(0, PageNum(5)), None);
    }

    #[test]
    fn reset_restores_initial_state() {
        let c = policy(2);
        let s = CoherenceStats::new(2);
        c.register_reader(0, 1, PageNum(0), s.shard(0));
        c.register_writer(1, 1, PageNum(0), s.shard(1));
        c.end_sd_fence(1, s.shard(1));
        c.reset_all();
        assert_eq!(c.timestamps(PageNum(0)), (0, 0));
        assert_eq!(c.clock(0), 0);
        assert_eq!(c.clock(1), 0);
        assert!(!c.read_registered(0, 1, PageNum(0)));
        assert!(c.invariant_problems(&[vec![], vec![]], |_| 1).is_empty());
        for table in [&c.wts, &c.rts, &c.lease, &c.lease_rts, &c.lease_wts, &c.wrote_epoch] {
            assert!(mem::all_zero(&table.cells));
        }
        assert!(mem::all_zero(&c.diag.cells) && mem::all_zero(&c.granted.0.cells));
    }
}
