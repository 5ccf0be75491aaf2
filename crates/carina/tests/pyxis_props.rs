//! Property tests for the Pyxis hybrid coherence policy.
//!
//! Two claims carry the hybrid's correctness and must hold under *every*
//! schedule, not just the ones the examples happen to drive:
//!
//! 1. **Switches happen only at fence boundaries.** The access paths
//!    (reads, writes, registration, even the invalidation sweep itself)
//!    may only *accumulate* evidence; a page's mode epoch moves exclusively
//!    inside `begin_si_fence`/`end_sd_fence`. This is what lets mode
//!    transitions compose with the engine's issue/poll overlap, write
//!    buffer, and retry machinery without any engine changes.
//! 2. **No stale read survives a switch.** Whole-machine runs under
//!    randomized round schedules must produce bit-identical memory and
//!    read-back values to the same schedule replayed under pure SI/SD and
//!    pure Tardis. A page crossing lease→SI/SD (or back) with a stale copy
//!    alive anywhere would break the identity.
//!
//! Every property runs at the shipped hysteresis ([`Pyxis::SWITCH_THRESHOLD`],
//! [`Pyxis::SCORE_CAP`]) and asserts that its cases, taken together,
//! switched pages both ways — a property whose schedules never reach a
//! switch would hold vacuously.
//!
//! The policy-level harness drives Pyxis exactly as the engine does:
//! registration only when the matching `*_registered` check fails, a
//! written epoch at every remote write but at a home write only when it
//! registered (the census rule), and the invalidation
//! predicate only between `begin_si_fence` and the end of the sweep.

use carina::{CarinaConfig, Coherence, CoherenceSnapshot, CoherenceStats, Dsm, Pyxis, Tardis};
use mem::{GlobalAddr, PageNum, PAGE_BYTES};
use proptest::prelude::*;
use proptest::run_cases;
use simnet::{ClusterTopology, CostModel, Interconnect, NodeId, SimThread};
use std::sync::Arc;

const NODES: usize = 3;
const PAGES: u64 = 8;
/// Longest policy-level schedule, in operations.
const OPS: usize = 250;
/// Longest whole-machine schedule, in rounds: long enough that a page
/// switched to leases gathers the regret to switch back.
const ROUNDS: usize = 60;

#[derive(Debug, Clone, Copy)]
enum Op {
    Read { node: u16, page: u64 },
    Write { node: u16, page: u64 },
    SiFence { node: u16 },
    SdFence { node: u16 },
}

fn decode(raw: (u16, u64, u8)) -> Op {
    let (node, page, kind) = raw;
    match kind {
        0 | 1 => Op::Read { node, page },
        2 => Op::Write { node, page },
        3 => Op::SiFence { node },
        _ => Op::SdFence { node },
    }
}

/// A random schedule of fewer than [`OPS`] operations.
fn schedule(rng: &mut TestRng) -> Vec<Op> {
    let op = (0u16..NODES as u16, 0u64..PAGES, 0u8..5);
    collection::vec(op, 1..OPS).sample(rng).into_iter().map(decode).collect()
}

/// Run the property `name` over its cases, each returning the switch
/// counters it ended with, and assert that the cases together switched
/// pages classification → lease and lease → classification.
fn switching_both_ways(
    name: &str,
    mut case: impl FnMut(&mut TestRng) -> Result<CoherenceSnapshot, String>,
) {
    let (mut to_lease, mut to_sisd) = (0, 0);
    run_cases(name, |rng| {
        let s = case(rng)?;
        to_lease += s.mode_to_lease;
        to_sisd += s.mode_to_sisd;
        Ok(())
    });
    assert!(to_lease > 0, "{name}: no case switched a page to leases");
    assert!(to_sisd > 0, "{name}: no case switched a page back to SI/SD");
}

/// Drive one op through the policy the way `Dsm` would, recording the
/// mode-epoch table before and after to detect out-of-bound switches.
fn apply(t: &Pyxis, stats: &CoherenceStats, op: Op) {
    let shard = stats.shard(match op {
        Op::Read { node, .. } | Op::Write { node, .. } => node,
        Op::SiFence { node } | Op::SdFence { node } => node,
    });
    match op {
        Op::Read { node, page } => {
            let home = (page % NODES as u64) as u16;
            if !t.read_registered(node, home, PageNum(page)) {
                t.register_reader(node, home, PageNum(page), shard);
            }
        }
        Op::Write { node, page } => {
            let home = (page % NODES as u64) as u16;
            let registers = !t.write_registered(node, home, PageNum(page));
            if registers {
                t.register_writer(node, home, PageNum(page), shard);
            }
            // A home store has no fault: its registration is the census's
            // written epoch.
            if registers || home != node {
                t.note_written_epoch(node, PageNum(page));
            }
        }
        Op::SiFence { node } => {
            t.begin_si_fence(node, shard);
            for q in 0..PAGES {
                let _ = t.must_self_invalidate(node, PageNum(q), shard);
            }
        }
        Op::SdFence { node } => t.end_sd_fence(node, shard),
    }
}

fn switch_table(t: &Pyxis) -> Vec<u64> {
    (0..PAGES).map(|q| t.switch_count(PageNum(q))).collect()
}

/// Invariant 1: the mode-epoch table is frozen everywhere except inside
/// the two fence hooks — and the moment a hook runs, the stats ledger
/// accounts for every flip it applied.
#[test]
fn prop_switches_only_at_fence_boundaries() {
    switching_both_ways("prop_switches_only_at_fence_boundaries", |rng| {
        let t = Pyxis::new(NODES, PAGES, &CarinaConfig::default());
        let stats = CoherenceStats::new(NODES);
        for op in schedule(rng) {
            let before = switch_table(&t);
            let switches_before = {
                let s = stats.snapshot();
                s.mode_to_lease + s.mode_to_sisd
            };
            apply(&t, &stats, op);
            let after = switch_table(&t);
            let switches_after = {
                let s = stats.snapshot();
                s.mode_to_lease + s.mode_to_sisd
            };
            let flips: u64 = before
                .iter()
                .zip(&after)
                .map(|(b, a)| a - b)
                .sum();
            match op {
                Op::SiFence { .. } | Op::SdFence { .. } => {
                    prop_assert!(
                        switches_after - switches_before == flips,
                        "fence hook applied {} flips but accounted {}",
                        flips, switches_after - switches_before
                    );
                }
                _ => {
                    prop_assert!(
                        flips == 0,
                        "mode switched outside a fence boundary after {:?}", op
                    );
                    prop_assert_eq!(switches_after, switches_before);
                }
            }
        }
        Ok(stats.snapshot())
    });
}

/// Invariant 1b: evidence saturates at the cap and a switch resets the
/// page's score, so the hysteresis bound is honored under every schedule.
#[test]
fn prop_score_stays_within_cap() {
    switching_both_ways("prop_score_stays_within_cap", |rng| {
        let t = Pyxis::new(NODES, PAGES, &CarinaConfig::default());
        let stats = CoherenceStats::new(NODES);
        for op in schedule(rng) {
            apply(&t, &stats, op);
            for q in 0..PAGES {
                let s = t.score_of(PageNum(q));
                prop_assert!(
                    s.abs() <= Pyxis::SCORE_CAP,
                    "page {q}: score {s} escaped the ±{} cap",
                    Pyxis::SCORE_CAP
                );
            }
        }
        Ok(stats.snapshot())
    });
}

/// `reset_all` after any schedule leaves every page in classification mode
/// with a zero score and no node registered: the reset stores only to
/// nonzero cells, and must still find each one the schedule stored to.
#[test]
fn prop_reset_zeroes_every_entry() {
    switching_both_ways("prop_reset_zeroes_every_entry", |rng| {
        let t = Pyxis::new(NODES, PAGES, &CarinaConfig::default());
        let stats = CoherenceStats::new(NODES);
        for op in schedule(rng) {
            apply(&t, &stats, op);
        }
        t.reset_all();
        for q in 0..PAGES {
            prop_assert_eq!(t.switch_count(PageNum(q)), 0);
            prop_assert_eq!(t.score_of(PageNum(q)), 0);
            let home = (q % NODES as u64) as u16;
            for n in 0..NODES as u16 {
                prop_assert!(!t.read_registered(n, home, PageNum(q)));
                prop_assert!(!t.write_registered(n, home, PageNum(q)));
            }
        }
        Ok(stats.snapshot())
    });
}

// ---------------------------------------------------------------------------
// Whole-machine bit-identity under randomized switch schedules.
// ---------------------------------------------------------------------------

fn cluster<C: Coherence>(
    config: CarinaConfig,
) -> (Arc<Dsm<Interconnect, C>>, Vec<SimThread>) {
    let topo = ClusterTopology::tiny(NODES);
    let net = Interconnect::new(topo, CostModel::paper_2011());
    let dsm = Dsm::with_policy(net.clone(), 2 << 20, config);
    let threads = (0..NODES)
        .map(|n| SimThread::new(topo.loc(NodeId(n as u16), 0), net.clone()))
        .collect();
    (dsm, threads)
}

/// One randomized round: `writer` rewrites its pages and releases, then
/// every node acquires and reads the full region. Sequential driving makes
/// the schedule trivially DRF while still crossing real fences, so every
/// read must observe the latest release — under any policy and any mode
/// schedule.
fn run_rounds<C: Coherence>(rounds: &[(u16, u8)]) -> (Vec<u64>, Vec<u64>, CoherenceSnapshot) {
    let (dsm, mut ts) = cluster::<C>(CarinaConfig::default());
    let mut observed = Vec::new();
    for (r, &(writer, touch_mask)) in rounds.iter().enumerate() {
        let w = writer as usize % NODES;
        for p in 0..PAGES {
            if touch_mask & (1 << p) != 0 {
                let a = GlobalAddr((p + 1) * PAGE_BYTES + (p % 4) * 8);
                dsm.write_u64(&mut ts[w], a, (r as u64) << 16 | p << 4 | w as u64);
            }
        }
        dsm.sd_fence(&mut ts[w]);
        for t in ts.iter_mut() {
            dsm.si_fence(t);
            for p in 0..PAGES {
                let a = GlobalAddr((p + 1) * PAGE_BYTES + (p % 4) * 8);
                observed.push(dsm.read_u64(t, a));
            }
            dsm.sd_fence(t);
        }
    }
    let mem = (0..(PAGES + 1) * mem::WORDS_PER_PAGE as u64)
        .map(|w| dsm.peek_u64(GlobalAddr(w * 8)))
        .collect();
    (mem, observed, dsm.stats().snapshot())
}

/// Invariant 2: with the hybrid switching pages both ways, every value
/// read and every final memory word matches the pure policies bit for bit
/// — a stale read surviving any lease↔SI/SD transition would break the
/// identity.
#[test]
fn prop_randomized_switch_schedules_preserve_bit_identity() {
    switching_both_ways("prop_randomized_switch_schedules_preserve_bit_identity", |rng| {
        let rounds = collection::vec((0u16..NODES as u16, 1u8..255u8), 2..ROUNDS).sample(rng);
        let (mem_pyxis, seen_pyxis, switches) = run_rounds::<Pyxis>(&rounds);
        let (mem_sisd, seen_sisd, _) = run_rounds::<carina::CarinaSiSd>(&rounds);
        let (mem_tardis, seen_tardis, _) = run_rounds::<Tardis>(&rounds);
        prop_assert!(seen_pyxis == seen_sisd, "pyxis read-back diverged from si/sd");
        prop_assert!(seen_pyxis == seen_tardis, "pyxis read-back diverged from tardis");
        prop_assert!(mem_pyxis == mem_sisd, "pyxis final memory diverged from si/sd");
        prop_assert!(mem_pyxis == mem_tardis, "pyxis final memory diverged from tardis");
        Ok(switches)
    });
}
