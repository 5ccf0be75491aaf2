//! Property tests for the Tardis timestamp-lease coherence policy.
//!
//! The policy's safety rests on three timestamp invariants that must hold
//! under *every* interleaving of reads, writes, and fences — exactly the
//! kind of claim worth property-testing rather than example-testing:
//!
//! 1. `wts <= rts` for every page, always: a write is ordered at `wts`
//!    past every granted lease, and a read lease never moves `rts` below
//!    the version it was granted against.
//! 2. Lease renewal is monotone: `rts` never decreases, and a node's
//!    logical clock (`pts`) never runs backwards.
//! 3. Write-after-lease ordering: the downgrade that lands a write's
//!    bytes in home memory is timestamped strictly after every lease
//!    granted on the page before it, so no expired reader can observe the
//!    new version in its old lease window. (The write *fault* publishes
//!    no version at all — the bytes are not home yet.)
//!
//! The harness drives the policy exactly as the engine does: registration
//! is attempted only when the matching `*_registered` check fails, fences
//! call `begin_si_fence`/`end_sd_fence` around the invalidation predicate,
//! and — like the engine's drain paths — every page dirtied since the last
//! fence is `note_downgrade`d before the release hook (or before its
//! invalidation at an acquire).

use carina::{CarinaConfig, Coherence, StatShard, Tardis};
use mem::PageNum;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

const NODES: usize = 4;
const PAGES: u64 = 8;

/// One step of a simulated DRF-ish schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read { node: u16, page: u64 },
    Write { node: u16, page: u64 },
    SiFence { node: u16 },
    SdFence { node: u16 },
}

/// The vendored proptest samples tuples, not enums: decode
/// `(node, page, kind)` into an [`Op`].
fn decode(raw: (u16, u64, u8)) -> Op {
    let (node, page, kind) = raw;
    match kind {
        0 => Op::Read { node, page },
        1 => Op::Write { node, page },
        2 => Op::SiFence { node },
        _ => Op::SdFence { node },
    }
}

fn op_strategy() -> (std::ops::Range<u16>, std::ops::Range<u64>, std::ops::Range<u8>) {
    (0u16..NODES as u16, 0u64..PAGES, 0u8..4)
}

/// Per-node dirty sets: the engine drains (and `note_downgrade`s) these
/// at fences; the harness mirrors that.
type Dirty = Vec<[bool; PAGES as usize]>;

fn new_dirty() -> Dirty {
    vec![[false; PAGES as usize]; NODES]
}

/// Drive one op through the policy the way `Dsm` would.
fn apply(t: &Tardis, shard: &StatShard, dirty: &mut Dirty, op: Op) {
    match op {
        Op::Read { node, page } => {
            let home = (page % NODES as u64) as u16;
            if !t.read_registered(node, home, PageNum(page)) {
                t.register_reader(node, home, PageNum(page), shard);
            }
        }
        Op::Write { node, page } => {
            let home = (page % NODES as u64) as u16;
            if !t.write_registered(node, home, PageNum(page)) {
                t.register_writer(node, home, PageNum(page), shard);
            }
            // Home pages are never cached at home: their stores hit home
            // memory directly and the policy bumps them at the release,
            // so only remote writes enter the drained dirty set.
            if home != node {
                dirty[node as usize][page as usize] = true;
            }
        }
        Op::SiFence { node } => {
            t.begin_si_fence(node, shard);
            for q in 0..PAGES {
                let inval = t.must_self_invalidate(node, PageNum(q), shard);
                // The engine downgrades a dirty page before invalidating.
                if inval && std::mem::take(&mut dirty[node as usize][q as usize]) {
                    t.note_downgrade(node, PageNum(q));
                }
            }
        }
        Op::SdFence { node } => {
            for q in 0..PAGES {
                if std::mem::take(&mut dirty[node as usize][q as usize]) {
                    t.note_downgrade(node, PageNum(q));
                }
            }
            t.end_sd_fence(node, shard);
        }
    }
}

proptest! {
    /// Invariant 1: `wts <= rts` on every page after every step of any
    /// schedule (a page's write version is always inside its read-valid
    /// window).
    #[test]
    fn prop_wts_never_exceeds_rts(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let t = Tardis::new(NODES, PAGES, &CarinaConfig::default());
        let shard = StatShard::default();
        let mut dirty = new_dirty();
        for op in ops.into_iter().map(decode) {
            apply(&t, &shard, &mut dirty, op);
            for q in 0..PAGES {
                let (wts, rts) = t.timestamps(PageNum(q));
                prop_assert!(wts <= rts, "page {q}: wts {wts} > rts {rts} after {op:?}");
            }
        }
    }

    /// Invariant 2: renewal monotonicity — `rts` per page and `pts` per
    /// node never decrease, no matter how ops interleave.
    #[test]
    fn prop_lease_renewal_is_monotone(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let t = Tardis::new(NODES, PAGES, &CarinaConfig::default());
        let shard = StatShard::default();
        let mut last_rts = vec![0u64; PAGES as usize];
        let mut last_pts = [0u64; NODES];
        let mut dirty = new_dirty();
        for op in ops.into_iter().map(decode) {
            apply(&t, &shard, &mut dirty, op);
            for q in 0..PAGES {
                let (_, rts) = t.timestamps(PageNum(q));
                prop_assert!(
                    rts >= last_rts[q as usize],
                    "page {q}: rts regressed {} -> {rts} after {op:?}",
                    last_rts[q as usize]
                );
                last_rts[q as usize] = rts;
            }
            for (n, last) in last_pts.iter_mut().enumerate() {
                let pts = t.clock(n as u16);
                prop_assert!(
                    pts >= *last,
                    "node {n}: pts regressed {} -> {pts} after {op:?}",
                    *last
                );
                *last = pts;
            }
        }
    }

    /// Invariant 3: write-after-lease ordering — every drain that lands a
    /// new version in home memory is timestamped strictly after the
    /// largest lease granted on the page before it, while the write fault
    /// itself publishes no version at all.
    #[test]
    fn prop_drains_order_after_granted_leases(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        let t = Tardis::new(NODES, PAGES, &CarinaConfig::default());
        let shard = StatShard::default();
        let mut dirty = new_dirty();
        for op in ops.into_iter().map(decode) {
            match op {
                Op::Write { node, page } => {
                    let home = (page % NODES as u64) as u16;
                    if !t.write_registered(node, home, PageNum(page)) {
                        let (wts_before, _) = t.timestamps(PageNum(page));
                        t.register_writer(node, home, PageNum(page), &shard);
                        let (wts_after, _) = t.timestamps(PageNum(page));
                        prop_assert!(
                            wts_after == wts_before,
                            "page {page}: fault moved the version {wts_before} -> {wts_after}"
                        );
                    }
                    if home != node {
                        dirty[node as usize][page as usize] = true;
                    }
                }
                Op::SdFence { node } => {
                    for q in 0..PAGES {
                        if std::mem::take(&mut dirty[node as usize][q as usize]) {
                            let (_, rts_before) = t.timestamps(PageNum(q));
                            t.note_downgrade(node, PageNum(q));
                            let (wts_after, _) = t.timestamps(PageNum(q));
                            prop_assert!(
                                wts_after > rts_before,
                                "page {q}: drain at {wts_after} not past granted rts {rts_before}"
                            );
                        }
                    }
                    t.end_sd_fence(node, &shard);
                }
                _ => apply(&t, &shard, &mut dirty, op),
            }
        }
    }

    /// `reset_all` after any schedule returns every page entry and every
    /// node's table to zero: the reset stores only to nonzero cells, and
    /// must still find each one the schedule stored to.
    #[test]
    fn prop_reset_zeroes_every_entry(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let t = Tardis::new(NODES, PAGES, &CarinaConfig::default());
        let shard = StatShard::default();
        let mut dirty = new_dirty();
        for op in ops.into_iter().map(decode) {
            apply(&t, &shard, &mut dirty, op);
        }
        t.reset_all();
        for q in 0..PAGES {
            prop_assert_eq!(t.timestamps(PageNum(q)), (0, 0));
            let home = (q % NODES as u64) as u16;
            for n in 0..NODES as u16 {
                prop_assert_eq!(t.granted_lease(n, PageNum(q)), None);
                prop_assert!(n == home || !t.read_registered(n, home, PageNum(q)));
                prop_assert!(!t.write_registered(n, home, PageNum(q)));
            }
        }
        for n in 0..NODES as u16 {
            prop_assert_eq!(t.clock(n), 0);
        }
    }

    /// A reader that still holds a valid (unexpired) lease is never told
    /// to self-invalidate; one whose lease expired always is — the
    /// predicate is exactly `granted rts < pts`.
    #[test]
    fn prop_invalidation_predicate_matches_lease_window(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        let t = Tardis::new(NODES, PAGES, &CarinaConfig::default());
        let shard = StatShard::default();
        let mut dirty = new_dirty();
        for op in ops.into_iter().map(decode) {
            if let Op::SiFence { node } = op {
                t.begin_si_fence(node, &shard);
                for q in 0..PAGES {
                    let granted = t.granted_lease(node, PageNum(q));
                    // Sampled per page: a drain earlier in this sweep
                    // advances the node's own clock.
                    let pts = t.clock(node);
                    let must = t.must_self_invalidate(node, PageNum(q), &shard);
                    // With no lease held there is nothing cached to keep,
                    // so only granted leases constrain the predicate.
                    if let Some(rts) = granted {
                        prop_assert!(
                            must == (rts < pts),
                            "node {} page {}: granted rts {} vs pts {}",
                            node, q, rts, pts
                        );
                    }
                    if must && std::mem::take(&mut dirty[node as usize][q as usize]) {
                        t.note_downgrade(node, PageNum(q));
                    }
                }
            } else {
                apply(&t, &shard, &mut dirty, op);
            }
        }
    }
}

/// `register_reader` stores a node's lease as `max(prev rts, grant)`: a
/// load-then-store on a cell the node's sibling threads share, ordered by
/// the page's stripe lock. Two threads of node 0 renew one page while node
/// 1's releases of another page keep moving the clock, so later renewals
/// grant more. Only grants raise a page nobody writes, so its `rts` is the
/// largest grant, and node 0's lease must end there. The readers renew for
/// as long as the writer runs, and once more after its last release, so the
/// final clock is always renewed against — however the host schedules the
/// three threads.
#[test]
fn sibling_renewals_never_lower_the_lease() {
    let t = Tardis::new(2, PAGES, &CarinaConfig::default());
    let (read, written) = (PageNum(1), PageNum(2));
    let writer_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let shard = StatShard::default();
                let renew = || {
                    t.begin_si_fence(0, &shard);
                    t.register_reader(0, 1, read, &shard);
                };
                while !writer_done.load(Ordering::Acquire) {
                    renew();
                }
                renew();
            });
        }
        s.spawn(|| {
            let shard = StatShard::default();
            for _ in 0..20_000 {
                t.register_writer(1, 0, written, &shard);
                t.note_downgrade(1, written);
                t.end_sd_fence(1, &shard);
            }
            writer_done.store(true, Ordering::Release);
        });
    });
    let (_, rts) = t.timestamps(read);
    assert!(rts > 4096, "the grants moved past the longest lease: {rts}");
    assert_eq!(t.granted_lease(0, read), Some(rts));
}
