//! Integration tests of the Carina protocol state machine: classification
//! transitions, deferred invalidation, diffs under false sharing, write
//! buffering, and the fence semantics that make DRF programs SC.

use carina::config::{HIT_CYCLES, PAGE_COPY_CYCLES};
use carina::{
    CarinaConfig, CarinaSiSd, ClassificationMode, Coherence, Dsm, PageClass, Tardis, VerbClass,
    WriterClass,
};
use mem::{CacheConfig, GlobalAddr, PAGE_BYTES, WORDS_PER_PAGE};
use rma::{Endpoint, FaultPlan, FaultyEndpoint, FaultyTransport, SimTransport, Transport};
use simnet::testkit::{thread, tiny_net};
use simnet::{CostModel, NodeId, SimThread};
use std::ops::Range;
use std::sync::Arc;

fn cluster(nodes: usize, config: CarinaConfig) -> (Arc<Dsm>, Vec<SimThread>) {
    policy_cluster(nodes, config)
}

/// An address on a page homed at `home` (page number ≡ home mod nodes),
/// skipping page 0 to avoid accidental offsets.
fn addr_homed_at(nodes: usize, home: u16, salt: u64) -> GlobalAddr {
    let page = home as u64 + nodes as u64 * (salt + 1);
    GlobalAddr(page * PAGE_BYTES)
}

#[test]
fn local_home_access_round_trips() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let a = addr_homed_at(2, 0, 0);
    let t0 = &mut ts[0];
    dsm.write_u64(t0, a, 42);
    assert_eq!(dsm.read_u64(t0, a), 42);
    // No network traffic for home accesses.
    assert_eq!(dsm.net().stats().snapshot().rdma_reads, 0);
}

#[test]
fn remote_read_fetches_home_data() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let a = addr_homed_at(2, 0, 0);
    dsm.write_u64(&mut ts[0], a, 7);
    // Node 1 reads: page cache miss, fetch from home.
    assert_eq!(dsm.read_u64(&mut ts[1], a, ), 7);
    let s = dsm.stats().snapshot();
    assert_eq!(s.read_misses, 1);
    assert!(dsm.net().stats().snapshot().rdma_reads >= 1);
    // Second read is a hit: no further misses.
    assert_eq!(dsm.read_u64(&mut ts[1], a), 7);
    assert_eq!(dsm.stats().snapshot().read_misses, 1);
    assert_eq!(dsm.stats().snapshot().read_hits, 1);
}

#[test]
fn producer_consumer_through_fences() {
    // The canonical DRF pattern: producer writes, releases (SD); consumer
    // acquires (SI), reads fresh data.
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let a = addr_homed_at(2, 0, 0);
    let (t0, rest) = ts.split_at_mut(1);
    let t0 = &mut t0[0];
    let t1 = &mut rest[0];

    // Consumer caches the old value first.
    assert_eq!(dsm.read_u64(t1, a), 0);
    // Producer (remote to the page's home) writes and releases.
    dsm.write_u64(t0, a, 99);
    dsm.sd_fence(t0);
    // Without an acquire, the consumer may still see its cached 0.
    assert_eq!(dsm.read_u64(t1, a), 0);
    // After SI, the consumer must see 99.
    dsm.si_fence(t1);
    assert_eq!(dsm.read_u64(t1, a), 99);
}

#[test]
fn p_to_s_transition_detected_and_deferred() {
    let (dsm, mut ts) = cluster(3, CarinaConfig::default());
    // Page homed at node 2; node 0 reads it first (private to node 0).
    let a = addr_homed_at(3, 2, 0);
    dsm.read_u64(&mut ts[0], a);
    assert_eq!(dsm.home_dir_view(a).page_class(), PageClass::Private);
    assert!(dsm.home_dir_view(a).is_private_to(0));

    // Node 1 joins: causes P→S and must notify node 0's directory cache.
    dsm.read_u64(&mut ts[1], a);
    assert_eq!(dsm.stats().snapshot().p_to_s, 1);
    assert_eq!(dsm.home_dir_view(a).page_class(), PageClass::Shared);
    // Deferred invalidation: node 0's *cached* view now shows both readers
    // even though node 0 took no action.
    assert_eq!(dsm.dir_view(0, a).page_class(), PageClass::Shared);
}

#[test]
fn private_pages_survive_si_fence_in_ps3() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let a = addr_homed_at(2, 1, 0); // homed remotely from node 0
    dsm.read_u64(&mut ts[0], a);
    dsm.si_fence(&mut ts[0]);
    let s = dsm.stats().snapshot();
    assert_eq!(s.si_invalidated, 0);
    assert_eq!(s.si_kept, 1);
    // Still a hit afterwards.
    dsm.read_u64(&mut ts[0], a);
    assert_eq!(dsm.stats().snapshot().read_misses, 1);
}

#[test]
fn all_shared_mode_invalidates_everything() {
    let (dsm, mut ts) = cluster(
        2,
        CarinaConfig::with_mode(ClassificationMode::AllShared),
    );
    let a = addr_homed_at(2, 1, 0);
    dsm.read_u64(&mut ts[0], a);
    dsm.si_fence(&mut ts[0]);
    let s = dsm.stats().snapshot();
    assert_eq!(s.si_invalidated, 1);
    assert_eq!(s.si_kept, 0);
    dsm.read_u64(&mut ts[0], a);
    assert_eq!(dsm.stats().snapshot().read_misses, 2);
}

#[test]
fn single_writer_keeps_page_others_invalidate() {
    // Producer/consumer classification: the single writer of a shared page
    // does not self-invalidate; consumers do (Figure 5, sync 2 vs sync 4).
    let (dsm, mut ts) = cluster(3, CarinaConfig::default());
    let a = addr_homed_at(3, 2, 0);
    let (a01, rest) = ts.split_at_mut(2);
    let (t0, t1) = a01.split_at_mut(1);
    let t0 = &mut t0[0];
    let t1 = &mut t1[0];
    let _ = rest;

    dsm.read_u64(t0, a); // node 0 reads
    dsm.read_u64(t1, a); // node 1 reads (S,NW)
    dsm.write_u64(t0, a, 5); // node 0 writes: NW→SW
    assert_eq!(dsm.home_dir_view(a).writer_class(), WriterClass::Single(0));
    assert_eq!(dsm.stats().snapshot().nw_to_sw, 1);
    // Node 1 was notified (passively).
    assert_eq!(dsm.dir_view(1, a).writer_class(), WriterClass::Single(0));

    dsm.sd_fence(t0);
    dsm.si_fence(t0); // writer keeps its copy
    dsm.si_fence(t1); // consumer invalidates
    let s = dsm.stats().snapshot();
    assert_eq!(s.si_kept, 1);
    assert_eq!(s.si_invalidated, 1);
    assert_eq!(dsm.read_u64(t1, a), 5);
}

#[test]
fn sw_to_mw_notifies_previous_writer() {
    let (dsm, mut ts) = cluster(3, CarinaConfig::default());
    let a = addr_homed_at(3, 2, 0);
    let (t01, _) = ts.split_at_mut(2);
    let (t0, t1) = t01.split_at_mut(1);
    let t0 = &mut t0[0];
    let t1 = &mut t1[0];

    dsm.write_u64(t0, a, 1);
    dsm.sd_fence(t0);
    dsm.write_u64(t1, a, 2);
    assert_eq!(dsm.home_dir_view(a).writer_class(), WriterClass::Multiple);
    // Node 0 (the previous single writer) learns of MW via its dir cache.
    assert_eq!(dsm.dir_view(0, a).writer_class(), WriterClass::Multiple);
    // p_to_s fires too (node 0 was the only accessor before node 1 wrote):
    let s = dsm.stats().snapshot();
    assert_eq!(s.p_to_s, 1);
    assert_eq!(s.sw_to_mw, 1);
}

#[test]
fn false_sharing_merges_through_diffs() {
    // Two nodes write disjoint words of the same page; diffs at downgrade
    // must preserve both updates at home.
    let (dsm, mut ts) = cluster(3, CarinaConfig::default());
    let page_base = addr_homed_at(3, 2, 0);
    let a0 = page_base; // word 0
    let a1 = page_base.offset(8); // word 1
    let (t01, rest) = ts.split_at_mut(2);
    let (t0, t1) = t01.split_at_mut(1);
    let t0 = &mut t0[0];
    let t1 = &mut t1[0];
    let t2 = &mut rest[0];

    dsm.write_u64(t0, a0, 10);
    dsm.write_u64(t1, a1, 20);
    dsm.sd_fence(t0);
    dsm.sd_fence(t1);
    dsm.si_fence(t2);
    assert_eq!(dsm.read_u64(t2, a0), 10);
    assert_eq!(dsm.read_u64(t2, a1), 20);
    assert!(dsm.stats().snapshot().write_faults >= 2);
    assert!(dsm.stats().snapshot().diff_words >= 2);
}

/// The multiple-writer rule (§3.2): node 0 write-faults first — alone in
/// the page's writer map — on the words `ours` of a page homed on node 2,
/// and stores the value already there (0) to the words `silent`, the last
/// of them by way of another value (A→B→A); node 1 then writes `theirs` and
/// releases first; node 0 goes home last, through its own SD fence
/// (`decay: false`) or on its behalf through the collective decay. Node 0's
/// copy of `theirs` is stale, and only its write mask keeps that off home
/// memory: home must hold both nodes' words. The mask is the diff, so node
/// 0's silent stores travel too: 10 bytes and one diffed word each.
fn false_sharers_both_reach_home<C: Coherence>(
    ours: Range<u64>,
    silent: Range<u64>,
    theirs: Range<u64>,
    decay: bool,
) {
    let net = tiny_net(3);
    let dsm: Arc<Dsm<SimTransport, C>> =
        Dsm::with_policy(net.clone(), 4 << 20, CarinaConfig::default());
    let (mut first, mut second) = (thread(&net, 0, 0), thread(&net, 1, 0));
    let mut home = thread(&net, 2, 0);
    let base = addr_homed_at(3, 2, 0);
    for w in ours.clone() {
        dsm.write_u64(&mut first, base.offset(8 * w), 1000 + w);
    }
    for w in silent.clone() {
        if w + 1 == silent.end {
            dsm.write_u64(&mut first, base.offset(8 * w), 3000 + w);
        }
        dsm.write_u64(&mut first, base.offset(8 * w), 0);
    }
    for w in theirs.clone() {
        dsm.write_u64(&mut second, base.offset(8 * w), 2000 + w);
    }
    dsm.sd_fence(&mut second);
    if decay {
        dsm.decay_classification(&mut home);
    } else {
        dsm.sd_fence(&mut first);
    }
    for w in 0..WORDS_PER_PAGE as u64 {
        let expect = match w {
            _ if ours.contains(&w) => 1000 + w,
            _ if theirs.contains(&w) => 2000 + w,
            _ => 0,
        };
        assert_eq!(dsm.peek_u64(base.offset(8 * w)), expect, "{} home word {w}", C::NAME);
    }
    // The cap is a cost rule, not a data rule: a diff past the size where a
    // sender ships the whole page is charged one page on the wire (and its
    // words are not counted as diffed), any other header + 10 bytes per
    // word — but home memory receives the masked words either way.
    let diff_bytes = |words: u64| 32 + 10 * words;
    let wire = |words: u64| diff_bytes(words).min(PAGE_BYTES);
    let diffed = |words: u64| if diff_bytes(words) < PAGE_BYTES { words } else { 0 };
    let ours = ours.end - ours.start + silent.end - silent.start;
    let theirs = theirs.end - theirs.start;
    let s = dsm.stats().snapshot();
    assert_eq!(s.writebacks, 2);
    assert_eq!(s.writeback_bytes, wire(ours) + wire(theirs));
    assert_eq!(s.diff_words, diffed(ours) + diffed(theirs));
    assert!(dsm.check_invariants().is_empty());
}

/// Three inputs: one word each — the interleaving a single-writer
/// downgrade that posted the whole page lost, node 0's stale page over
/// node 1's word 100 — the same with node 0's silent stores to words
/// 200..204, and a diff so *big* (450 words) that its wire message is a
/// page.
#[test]
fn multiple_writer_diffs_preserve_false_sharing() {
    let words = WORDS_PER_PAGE as u64;
    for (ours, silent, theirs) in
        [(0..1, 1..1, 100..101), (0..1, 200..204, 100..101), (0..450, 450..450, 450..words)]
    {
        for decay in [false, true] {
            let (o, q, h) = (ours.clone(), silent.clone(), theirs.clone());
            false_sharers_both_reach_home::<CarinaSiSd>(o.clone(), q.clone(), h.clone(), decay);
            false_sharers_both_reach_home::<Pyxis>(o.clone(), q.clone(), h.clone(), decay);
            false_sharers_both_reach_home::<Tardis>(o, q, h, decay);
        }
    }
}

#[test]
fn write_buffer_overflow_downgrades_oldest() {
    let cfg = CarinaConfig::with_write_buffer(2);
    let (dsm, mut ts) = cluster(2, cfg);
    // Dirty three distinct pages homed at node 1 from node 0.
    for salt in 0..3 {
        let a = addr_homed_at(2, 1, salt);
        dsm.write_u64(&mut ts[0], a, salt);
    }
    // Third write overflowed the 2-entry buffer → oldest written back.
    let s = dsm.stats().snapshot();
    assert_eq!(s.writebacks, 1);
    // Home already has the first page's data without any fence.
    // (Read it from node 1's perspective — it is local there.)
    let first = addr_homed_at(2, 1, 0);
    assert_eq!(dsm.read_u64(&mut ts[1], first), 0); // page homed at 1, value 0
}

#[test]
fn sd_fence_drains_all_dirty_pages() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    for salt in 0..5 {
        let a = addr_homed_at(2, 1, salt);
        dsm.write_u64(&mut ts[0], a, 100 + salt);
    }
    dsm.sd_fence(&mut ts[0]);
    assert_eq!(dsm.stats().snapshot().writebacks, 5);
    // All values visible at home.
    for salt in 0..5 {
        let a = addr_homed_at(2, 1, salt);
        assert_eq!(dsm.read_u64(&mut ts[1], a), 100 + salt);
    }
}

#[test]
fn eviction_flushes_dirty_conflicting_line() {
    // A 1-line cache forces every new page to evict the previous one.
    let cfg = CarinaConfig {
        cache: CacheConfig::new(1, 1),
        ..Default::default()
    };
    let (dsm, mut ts) = cluster(2, cfg);
    let a = addr_homed_at(2, 1, 0);
    let b = addr_homed_at(2, 1, 1);
    dsm.write_u64(&mut ts[0], a, 11);
    dsm.read_u64(&mut ts[0], b); // conflicts → evicts dirty page a
    let s = dsm.stats().snapshot();
    assert!(s.evictions >= 1);
    assert_eq!(s.writebacks, 1);
    assert_eq!(dsm.read_u64(&mut ts[1], a), 11);
}

/// The naïve P/S sweep (§3.4.2) checkpoints exactly the dirty pages the
/// policy does not buffer. Node 0 writes a page homed on node 1 and fences
/// twice. Left private, the page is checkpointed at *each* fence and never
/// written back; if node 1 reads it between node 0's write fault and its
/// first fence (`turned_shared`), the policy would now buffer it, and the
/// sweep downgrades it instead, once.
fn naive_ps_checkpoints_private_pages<C: Coherence>(turned_shared: bool) {
    let (dsm, mut ts) =
        policy_cluster::<C>(2, CarinaConfig::with_mode(ClassificationMode::PsNaive));
    let a = addr_homed_at(2, 1, 0);
    dsm.write_u64(&mut ts[0], a, 3);
    if turned_shared {
        dsm.read_u64(&mut ts[1], a);
    }
    dsm.sd_fence(&mut ts[0]);
    dsm.sd_fence(&mut ts[0]);
    let s = dsm.stats().snapshot();
    let expect = if turned_shared { (1, 0) } else { (0, 2) };
    assert_eq!((s.writebacks, s.checkpoints), expect, "{} (writebacks, checkpoints)", C::NAME);
    // Data still reaches a late reader correctly.
    assert_eq!(dsm.read_u64(&mut ts[1], a), 3);
    assert!(dsm.check_invariants().is_empty());
}

#[test]
fn naive_ps_checkpoints_private_pages_every_sync() {
    for turned_shared in [false, true] {
        naive_ps_checkpoints_private_pages::<CarinaSiSd>(turned_shared);
        naive_ps_checkpoints_private_pages::<Pyxis>(turned_shared);
    }
}

#[test]
fn ps3_self_downgrades_private_pages_without_checkpoints() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let a = addr_homed_at(2, 1, 0);
    dsm.write_u64(&mut ts[0], a, 3);
    dsm.sd_fence(&mut ts[0]);
    let s = dsm.stats().snapshot();
    assert_eq!(s.writebacks, 1);
    assert_eq!(s.checkpoints, 0);
}

#[test]
fn active_directory_ablation_invokes_handlers() {
    let cfg = CarinaConfig {
        active_directory: true,
        ..Default::default()
    };
    let (dsm, mut ts) = cluster(2, cfg);
    let a = addr_homed_at(2, 1, 0);
    dsm.read_u64(&mut ts[0], a);
    assert!(dsm.net().stats().snapshot().handler_invocations >= 1);

    // Passive default: zero handler invocations ever.
    let (dsm2, mut ts2) = cluster(2, CarinaConfig::default());
    dsm2.read_u64(&mut ts2[0], a);
    dsm2.write_u64(&mut ts2[1], a, 1);
    dsm2.sd_fence(&mut ts2[1]);
    assert_eq!(dsm2.net().stats().snapshot().handler_invocations, 0);
}

#[test]
fn prefetch_line_fills_neighbor_pages() {
    let cfg = CarinaConfig {
        cache: CacheConfig::new(1024, 4),
        ..Default::default()
    };
    let (dsm, mut ts) = cluster(2, cfg);
    // Pages 4..8 form one line; pages 5 and 7 are homed at node 1 (odd).
    // Node 0 reads page 5 → page 7 is prefetched.
    dsm.read_u64(&mut ts[0], GlobalAddr(5 * PAGE_BYTES));
    assert_eq!(dsm.stats().snapshot().read_misses, 1);
    dsm.read_u64(&mut ts[0], GlobalAddr(7 * PAGE_BYTES));
    assert_eq!(dsm.stats().snapshot().read_misses, 1); // hit via prefetch
}

#[test]
fn reset_for_parallel_section_clears_classification() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let a = addr_homed_at(2, 1, 0);
    dsm.write_u64(&mut ts[0], a, 77);
    dsm.reset_for_parallel_section();
    // Directory wiped, stats wiped, but data preserved at home.
    assert_eq!(dsm.home_dir_view(a).accessors(), 0);
    assert_eq!(dsm.stats().snapshot().read_misses, 0);
    assert_eq!(dsm.read_u64(&mut ts[1], a), 77);
}

/// Round trips of the paper's fabric: a directory atomic and a 4 KiB page
/// read, each request + response propagation plus wire time.
fn round_trips(cost: &CostModel) -> (u64, u64) {
    let atomic = 2 * cost.network_latency + cost.transfer_cycles(cost.atomic_op_bytes);
    let read = 2 * cost.network_latency + cost.transfer_cycles(PAGE_BYTES);
    (atomic, read)
}

#[test]
fn cold_miss_costs_the_trap_plus_one_round_trip() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let a = addr_homed_at(2, 1, 0);
    let cost = CostModel::paper_2011();
    let (atomic_rtt, read_rtt) = round_trips(&cost);
    let before = ts[0].now();
    dsm.read_u64(&mut ts[0], a);
    let miss = ts[0].now() - before;
    // The registration atomic and the page read share one ordered channel:
    // the read is posted right behind the atomic, not after its reply.
    assert!(miss >= cost.fault_trap_cycles + read_rtt, "{miss}");
    assert!(miss < cost.fault_trap_cycles + atomic_rtt + read_rtt, "{miss}");
    assert_eq!(dsm.net().stats().snapshot().rdma_atomics, 1, "the miss did register");
    // A subsequent hit is nearly free.
    let before = ts[0].now();
    dsm.read_u64(&mut ts[0], a);
    assert!(ts[0].now() - before < 100);
}

#[test]
fn tardis_lease_renewal_costs_the_trap_plus_one_round_trip() {
    let net = tiny_net(2);
    let dsm: Arc<Dsm<_, Tardis>> = Dsm::with_policy(net.clone(), 4 << 20, CarinaConfig::default());
    let (mut home, mut reader) = (thread(&net, 0, 0), thread(&net, 1, 0));
    let a = addr_homed_at(2, 0, 0);
    dsm.read_u64(&mut reader, a);
    // The home node writes and releases; the reader's next acquire finds
    // its lease expired and drops the page.
    dsm.write_u64(&mut home, a, 5);
    dsm.sd_fence(&mut home);
    dsm.si_fence(&mut reader);
    let cost = CostModel::paper_2011();
    let (atomic_rtt, read_rtt) = round_trips(&cost);
    let before = reader.now();
    assert_eq!(dsm.read_u64(&mut reader, a), 5);
    let renewal = reader.now() - before;
    assert_eq!(dsm.stats().snapshot().lease_renewals, 1);
    assert!(renewal >= cost.fault_trap_cycles + read_rtt, "{renewal}");
    assert!(renewal < cost.fault_trap_cycles + atomic_rtt + read_rtt, "{renewal}");
    assert!(dsm.check_invariants().is_empty());
}

#[test]
fn write_registration_is_posted_and_settles_at_the_sd_fence() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let a = addr_homed_at(2, 1, 0);
    let t = &mut ts[0];
    dsm.read_u64(t, a);
    let cost = CostModel::paper_2011();
    let (atomic_rtt, _) = round_trips(&cost);
    let before = t.now();
    dsm.write_u64(t, a, 9);
    // The fault pays the trap and the paper's twin copy; the directory atomic is
    // posted at the trap and nobody waits for its reply here.
    assert_eq!(
        t.now() - before,
        HIT_CYCLES + cost.fault_trap_cycles + PAGE_COPY_CYCLES
    );
    assert_eq!(dsm.net().stats().snapshot().rdma_atomics, 2, "reader + writer registration");
    // The release does: nothing is published before the registration is.
    dsm.sd_fence(t);
    assert!(t.now() >= before + HIT_CYCLES + cost.fault_trap_cycles + atomic_rtt);
    assert!(dsm.check_invariants().is_empty());
}

#[test]
fn posted_registration_chains_its_notify_behind_the_reply() {
    // Node 0's write turns a page node 1 also reads from NW into SW: the
    // registration's reply names node 1, so the notify leaves no earlier
    // than the reply arrives — on the network timeline, not the thread's.
    let (dsm, mut ts) = cluster(3, CarinaConfig::default());
    let a = addr_homed_at(3, 2, 0);
    dsm.read_u64(&mut ts[0], a);
    dsm.read_u64(&mut ts[1], a);
    let t = &mut ts[0];
    let cost = CostModel::paper_2011();
    let (atomic_rtt, _) = round_trips(&cost);
    let before = t.now();
    dsm.write_u64(t, a, 5);
    assert_eq!(dsm.stats().snapshot().nw_to_sw, 1);
    assert_eq!(dsm.dir_view(1, a).writer_class(), WriterClass::Single(0));
    // The thread waits for neither the atomic nor the notify …
    let posted = before + HIT_CYCLES + cost.fault_trap_cycles;
    assert_eq!(t.now(), posted + PAGE_COPY_CYCLES);
    // … the release waits for both, in series.
    dsm.sd_fence(t);
    assert!(
        t.now() >= posted + atomic_rtt + cost.network_latency,
        "{} < {posted} + {atomic_rtt} + {}",
        t.now(),
        cost.network_latency
    );
    assert!(dsm.check_invariants().is_empty());
}

#[test]
fn dropped_page_read_reissues_on_the_unchanged_schedule() {
    // Find a fault schedule that drops the miss's first page read and
    // nothing else. The reissue must go out at the miss's start plus the
    // page-fetch schedule's first backoff — the base the serial path's
    // schedule was anchored to did not move with the registration.
    let config = CarinaConfig {
        cache: CacheConfig::new(1024, 1),
        ..CarinaConfig::default()
    };
    let cost = CostModel::paper_2011();
    let (_, read_rtt) = round_trips(&cost);
    let a = addr_homed_at(2, 1, 0);
    let mut pinned = false;
    for seed in 0..64 {
        let plan = FaultPlan::disabled().with_seed(seed).with_drops(300_000);
        let net = FaultyTransport::wrap(tiny_net(2), plan);
        let dsm: Arc<Dsm<FaultyTransport<SimTransport>>> = Dsm::new(net.clone(), 4 << 20, config);
        let mut t = FaultyTransport::endpoint(&net, net.topology().loc(NodeId(0), 0));
        let before = t.now();
        dsm.read_u64(&mut t, a);
        let fetch_retries = dsm
            .lyra()
            .snapshot(0)
            .iter()
            .filter(|r| {
                r.kind == obs::RecordKind::VerbRetry && r.class == VerbClass::PageFetch as u8
            })
            .count();
        if net.injected().total() != 1 || fetch_retries != 1 {
            continue;
        }
        let mut seq = config
            .retry
            .attempt_seq(VerbClass::PageFetch, a.page().0.wrapping_add(1 << 48));
        seq.next();
        let backoff = seq.next().expect("budget allows a retry").delay;
        assert_eq!(
            t.now() - before,
            HIT_CYCLES + cost.fault_trap_cycles + backoff + read_rtt,
            "seed {seed}"
        );
        assert_eq!(dsm.stats().snapshot().verb_retries, 1);
        assert!(dsm.check_invariants().is_empty());
        pinned = true;
        break;
    }
    assert!(pinned, "no seed dropped exactly the page read");
}

#[test]
fn concurrent_threads_same_node_share_cache() {
    // Two OS threads on the same simulated node: one fills, the other hits.
    let net = tiny_net(2);
    let dsm = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
    let a = addr_homed_at(2, 1, 0);
    let d1 = dsm.clone();
    let n1 = net.clone();
    let h = std::thread::spawn(move || {
        let mut t = thread(&n1, 0, 0);
        d1.read_u64(&mut t, a)
    });
    h.join().unwrap();
    let mut t2 = thread(&net, 0, 1);
    dsm.read_u64(&mut t2, a);
    assert_eq!(dsm.stats().snapshot().read_misses, 1);
    assert_eq!(dsm.stats().snapshot().read_hits, 1);
}

#[test]
fn decay_allows_reclassification_to_new_owner() {
    // Phase 1: node 0 owns a page (writes it). Phase 2: node 1 takes over.
    // Without decay the page is stuck at S,MW and node 1 self-invalidates
    // it at every fence; after a decay it re-classifies as private to
    // node 1 and survives fences.
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let a = addr_homed_at(2, 0, 0); // homed at node 0, cached by node 1
    let (t0s, t1s) = ts.split_at_mut(1);
    let t0 = &mut t0s[0];
    let t1 = &mut t1s[0];

    // Phase 1: both nodes touch it; node 0 and node 1 both write → S,MW.
    dsm.write_u64(t0, a, 1);
    dsm.sd_fence(t0);
    dsm.si_fence(t1);
    dsm.write_u64(t1, a, 2);
    dsm.sd_fence(t1);
    assert_eq!(dsm.home_dir_view(a).writer_class(), carina::WriterClass::Multiple);

    // Without decay: node 1's fence invalidates its copy every time.
    dsm.si_fence(t1);
    let before = dsm.stats().snapshot().si_invalidated;
    assert!(before > 0);

    // Decay epoch (collective; t0 acts as the coordinator).
    dsm.decay_classification(t0);
    assert_eq!(dsm.stats().snapshot().decays, 1);
    assert_eq!(dsm.home_dir_view(a).accessors(), 0);

    // Phase 2: only node 1 uses the page — it re-classifies private (to
    // node 1) and now survives node 1's fences.
    assert_eq!(dsm.read_u64(t1, a), 2); // data survived the decay
    dsm.write_u64(t1, a, 3);
    let kept_before = dsm.stats().snapshot().si_kept;
    dsm.si_fence(t1);
    assert!(dsm.stats().snapshot().si_kept > kept_before, "page not kept after decay");
}

#[test]
fn decay_preserves_dirty_data() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let a = addr_homed_at(2, 1, 0);
    dsm.write_u64(&mut ts[0], a, 555); // dirty in node 0's cache
    let (t0s, _) = ts.split_at_mut(1);
    dsm.decay_classification(&mut t0s[0]);
    assert_eq!(dsm.peek_u64(a), 555, "decay lost a dirty page");
}

#[test]
fn flight_recorder_captures_the_protocol_story() {
    use obs::{RecordKind, Site, VerbRecord};
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    dsm.lyra().set_detail(true);
    let a = addr_homed_at(2, 1, 0);
    let page = a.page().0;
    let (t0s, t1s) = ts.split_at_mut(1);
    let t0 = &mut t0s[0];
    let t1 = &mut t1s[0];

    dsm.read_u64(t0, a); // miss
    dsm.write_u64(t0, a, 1); // write fault
    dsm.sd_fence(t0); // downgrade
    dsm.read_u64(t1, a); // P->S + notify

    let n0 = dsm.lyra().snapshot(0);
    let n1 = dsm.lyra().snapshot(1);
    let site = |recs: &[VerbRecord], s: Site, arg: u64| {
        recs.iter()
            .any(|r| r.kind == RecordKind::Site && r.site_enum() == Some(s) && r.arg == arg)
    };
    let detail = |recs: &[VerbRecord], kind: RecordKind, target: u32| {
        recs.iter().any(|r| r.kind == kind && r.arg == page && r.target == target)
    };
    assert!(site(&n0, Site::ReadMiss, page));
    assert!(site(&n0, Site::WriteFault, page));
    assert!(site(&n0, Site::SdFence, 0));
    assert!(detail(&n0, RecordKind::Downgrade, 1), "written back to its home");
    assert!(detail(&n1, RecordKind::PToS, 0), "node 1 joined node 0's private page");
    assert!(detail(&n1, RecordKind::Notify, 0));
    // Each node's timeline is ordered by start time.
    for recs in [&n0, &n1] {
        assert!(recs.windows(2).all(|w| w[0].start <= w[1].start));
    }

    // Detail off: the fence still records its site, but no per-page kinds.
    dsm.lyra().set_detail(false);
    let details = |recs: &[VerbRecord]| {
        recs.iter().filter(|r| r.kind as u8 >= RecordKind::Downgrade as u8).count()
    };
    let (before, submitted) = (details(&n1), dsm.lyra().stats().submitted);
    dsm.si_fence(t1);
    assert_eq!(details(&dsm.lyra().snapshot(1)), before);
    assert_eq!(dsm.lyra().stats().submitted, submitted + 1);
}

#[test]
fn invariants_hold_through_a_protocol_workout() {
    let (dsm, mut ts) = cluster(3, CarinaConfig::default());
    assert!(dsm.check_invariants().is_empty());
    let (t01, rest) = ts.split_at_mut(2);
    let (t0s, t1s) = t01.split_at_mut(1);
    let t0 = &mut t0s[0];
    let t1 = &mut t1s[0];
    let t2 = &mut rest[0];

    for salt in 0..6 {
        let a = addr_homed_at(3, 2, salt);
        dsm.write_u64(t0, a, salt);
        dsm.read_u64(t1, a);
    }
    let v = dsm.check_invariants();
    assert!(v.is_empty(), "after writes: {v:?}");
    dsm.sd_fence(t0);
    dsm.si_fence(t1);
    dsm.write_u64(t1, addr_homed_at(3, 2, 0), 99);
    dsm.si_fence(t2);
    let v = dsm.check_invariants();
    assert!(v.is_empty(), "after fences: {v:?}");
    dsm.decay_classification(t0);
    let v = dsm.check_invariants();
    assert!(v.is_empty(), "after decay: {v:?}");
}

#[test]
fn stride_prefetcher_hides_miss_latency() {
    // Node 0 streams all pages; interleaved homing makes every odd page a
    // remote miss with a constant line stride of 2, which the predictor
    // locks onto after `PREFETCH_STREAK` repeats. The prefetched copies
    // must be consumed (hits), produce identical values, and make the run
    // cheaper in virtual time than the same stream without speculation.
    let run = |prefetch_lines: usize| {
        let (dsm, mut ts) = cluster(
            2,
            CarinaConfig {
                cache: CacheConfig::new(1024, 1),
                prefetch_lines,
                ..CarinaConfig::default()
            },
        );
        for p in 0..200u64 {
            dsm.poke_u64(GlobalAddr(p * PAGE_BYTES), p + 1);
        }
        let t = &mut ts[0];
        let mut sum = 0u64;
        for p in 1..200u64 {
            sum += dsm.read_u64(t, GlobalAddr(p * PAGE_BYTES));
        }
        let v = dsm.check_invariants();
        assert!(v.is_empty(), "prefetch broke invariants: {v:?}");
        (sum, t.now(), dsm.stats().snapshot())
    };
    let (sum_off, clock_off, s_off) = run(0);
    let (sum_on, clock_on, s_on) = run(8);
    assert_eq!(sum_off, sum_on, "speculation must not change values");
    assert_eq!(s_off.prefetch_issued, 0);
    assert!(s_on.prefetch_issued > 0);
    assert!(s_on.prefetch_hits > 50, "stride stream must hit the ring: {s_on:?}");
    assert!(
        clock_on < clock_off,
        "prefetch hits must hide fetch latency: {clock_on} !< {clock_off}"
    );
}

#[test]
fn si_fence_flushes_speculation_and_counts_waste() {
    let (dsm, mut ts) = cluster(
        2,
        CarinaConfig {
            cache: CacheConfig::new(1024, 1),
            prefetch_lines: 8,
            ..CarinaConfig::default()
        },
    );
    let t = &mut ts[0];
    // Misses on lines 1, 3, 5, 7: the third confirms stride 2 twice
    // (prefetching line 7, which the fourth miss consumes), the fourth
    // posts line 9 into the ring where it sits unclaimed.
    for p in [1u64, 3, 5, 7] {
        dsm.read_u64(t, GlobalAddr(p * PAGE_BYTES));
    }
    let before = dsm.stats().snapshot();
    assert!(
        before.prefetch_issued > before.prefetch_hits + before.prefetch_wasted,
        "a line should still be parked in the ring: {before:?}"
    );
    dsm.si_fence(t);
    let after = dsm.stats().snapshot();
    assert_eq!(
        after.prefetch_hits + after.prefetch_wasted,
        after.prefetch_issued,
        "the acquire must flush (and account) all parked speculation"
    );
    // The flush is what makes speculation sound across synchronization:
    // a value written before this node's acquire must be observed, not
    // shadowed by a pre-acquire snapshot.
    dsm.poke_u64(GlobalAddr(9 * PAGE_BYTES), 77);
    assert_eq!(dsm.read_u64(t, GlobalAddr(9 * PAGE_BYTES)), 77);
}

#[test]
fn same_node_acquire_drops_speculation_without_sweeping() {
    let (dsm, mut ts) = cluster(
        2,
        CarinaConfig {
            cache: CacheConfig::new(1024, 1),
            prefetch_lines: 8,
            ..CarinaConfig::default()
        },
    );
    let t = &mut ts[0];
    for p in [1u64, 3, 5, 7] {
        dsm.read_u64(t, GlobalAddr(p * PAGE_BYTES));
    }
    let before = dsm.stats().snapshot();
    assert!(before.prefetch_issued > before.prefetch_hits + before.prefetch_wasted);
    // A lock that never left the node: no SI sweep, nothing invalidated,
    // but the parked line goes — it predates the acquire.
    dsm.acquire_fence(t, false);
    let after = dsm.stats().snapshot();
    assert_eq!((after.si_fences, after.si_invalidated), (0, 0));
    assert_eq!(after.prefetch_hits + after.prefetch_wasted, after.prefetch_issued);
    assert_eq!(dsm.stats().snapshot().read_misses, 4);
    dsm.read_u64(t, GlobalAddr(7 * PAGE_BYTES));
    assert_eq!(dsm.stats().snapshot().read_misses, 4, "the cache itself was kept");
    // A handover is the full SI fence.
    dsm.acquire_fence(t, true);
    assert_eq!(dsm.stats().snapshot().si_fences, 1);
}

#[test]
fn own_write_back_outdates_a_parked_ring_snapshot() {
    // Program order on one thread, no fence anywhere: the ring may hold a
    // snapshot of a page this node later writes and evicts. The write-back
    // must retire the snapshot, or the re-read would be served the value
    // from before the node's own write.
    let (dsm, mut ts) = cluster(
        2,
        CarinaConfig {
            cache: CacheConfig::new(8, 1),
            prefetch_lines: 4,
            ..CarinaConfig::default()
        },
    );
    let t = &mut ts[0];
    let at = |p: u64| GlobalAddr(p * PAGE_BYTES);
    dsm.read_u64(t, at(41));
    // Misses on 35, 37, 39 confirm stride 2 and park line 41 in the ring
    // although the cache still holds it.
    for p in [35, 37, 39] {
        dsm.read_u64(t, at(p));
    }
    assert!(dsm.stats().snapshot().prefetch_issued > 0);
    dsm.write_u64(t, at(41), 42);
    // Page 57 conflicts with 41 in the 8-slot cache: the eviction writes
    // 41 back, and the re-read of 41 is a miss again.
    dsm.read_u64(t, at(57));
    assert_eq!(dsm.peek_u64(at(41)), 42, "the eviction wrote the page home");
    assert_eq!(dsm.read_u64(t, at(41)), 42);
    assert_eq!(dsm.stats().snapshot().prefetch_hits, 0, "the stale line was dropped");
    assert!(dsm.check_invariants().is_empty());
}

// ---- the SD fence's drain: posted as it scans ----

/// An SD fence posts each page's write-back as its scan finishes and
/// waits once: for `N` pages to one home it costs the `N` scans (a diff
/// scan and a re-protect each), then the last posting's serialization and
/// flight — never the sum of the serializations, which the scans hide.
/// Exact, from the cost model: a diff of `W` words is a 32-byte header and
/// 10 bytes per word, and the NIC never queues (a scan outlasts any page's
/// wire time).
#[test]
fn a_fence_pays_its_scans_and_the_last_settle() {
    const N: u64 = 8;
    const W: u64 = 300;
    let cost = CostModel::paper_2011();
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let t = &mut ts[0];
    for salt in 0..N {
        let page = addr_homed_at(2, 1, salt);
        for w in 0..W {
            dsm.write_u64(t, page.offset(8 * w), salt * 1000 + w);
        }
    }
    // Put the stores' own traffic (fills, registrations) in the past.
    t.compute(1_000_000);
    let before = t.now();
    dsm.sd_fence(t);
    let scan = PAGE_COPY_CYCLES + PROTECT_CYCLES;
    let wire = cost.transfer_cycles(32 + 10 * W);
    assert!(wire < scan, "the scan hides the wire: {wire} vs {scan}");
    assert_eq!(t.now() - before, N * scan + wire + cost.network_latency);
    assert!(t.now() - before < N * scan + N * wire + cost.network_latency);
    let s = dsm.stats().snapshot();
    assert_eq!((s.writebacks, s.writeback_bytes), (N, N * (32 + 10 * W)));
    for salt in 0..N {
        let page = addr_homed_at(2, 1, salt);
        assert_eq!(dsm.peek_u64(page.offset(8 * (W - 1))), salt * 1000 + W - 1);
    }
    assert!(dsm.check_invariants().is_empty());
}

/// Node 0 of three dirties eight pages homed alternately on nodes 1 and 2;
/// from `blackout` on, node 1's NIC stalls every verb. Returns the DSM, the
/// writer's endpoint (past `blackout`), and the pages in FIFO order.
fn dirty_across_a_blackout(
    failover: bool,
) -> (Arc<Dsm<FaultyTransport<SimTransport>>>, FaultyEndpoint<SimTransport>, Vec<GlobalAddr>) {
    let blackout = 10_000_000;
    let plan = FaultPlan::disabled().with_seed(29).with_brownout(NodeId(1), blackout, u64::MAX);
    let net = FaultyTransport::wrap(tiny_net(3), plan);
    let config = CarinaConfig {
        retry: CarinaConfig::default().retry.with_budget(VerbClass::Downgrade, 3),
        volans_failover: failover,
        ..CarinaConfig::default()
    };
    let dsm: Arc<Dsm<FaultyTransport<SimTransport>>> = Dsm::new(net.clone(), 4 << 20, config);
    let mut t = FaultyTransport::endpoint(&net, net.topology().loc(NodeId(0), 0));
    let pages: Vec<GlobalAddr> =
        (0..4).flat_map(|salt| [addr_homed_at(3, 1, salt), addr_homed_at(3, 2, salt)]).collect();
    for (i, &a) in pages.iter().enumerate() {
        dsm.write_u64(&mut t, a, 100 + i as u64);
    }
    assert!(t.now() < blackout, "the stores ran before the blackout");
    t.compute(blackout);
    (dsm, t, pages)
}

/// A posting that exhausts its budget mid-drain does not strand the rest:
/// the drain polls every other posting — the ones to the healthy home
/// complete, each one to the stalled home exhausts on its own — before it
/// returns the first error. Every page's local half already ran, so the
/// data is home, no page is dirty outside the write buffer, and the next
/// fence has nothing left to drain.
#[test]
fn a_failed_posting_does_not_strand_the_rest_of_the_drain() {
    let (dsm, mut t, pages) = dirty_across_a_blackout(false);
    let err = dsm.try_sd_fence(&mut t).unwrap_err();
    assert_eq!((err.target, err.class), (1, VerbClass::Downgrade));
    let s = dsm.stats().snapshot();
    assert_eq!((s.writebacks, s.verb_exhaustions, s.verb_retries), (8, 4, 8));
    let polled_home = |home: u32| {
        dsm.lyra()
            .snapshot(0)
            .iter()
            .filter(|r| {
                r.kind == obs::RecordKind::VerbPoll
                    && r.class == VerbClass::Downgrade as u8
                    && r.target == home
            })
            .count()
    };
    assert_eq!((polled_home(1), polled_home(2)), (0, 4), "every healthy posting was polled");
    for (i, &a) in pages.iter().enumerate() {
        assert_eq!(dsm.peek_u64(a), 100 + i as u64);
    }
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
    assert_eq!(dsm.try_sd_fence(&mut t), Ok(()), "nothing left to drain");
}

/// Under Volans failover the same exhaustion declares node 1 dead, re-homes
/// its pages, and the fence's re-run completes.
#[test]
fn a_failed_drain_fails_over_and_completes() {
    let (dsm, mut t, pages) = dirty_across_a_blackout(true);
    assert_eq!(dsm.try_sd_fence(&mut t), Ok(()));
    assert!(!dsm.membership().is_alive(1));
    let s = dsm.stats().snapshot();
    assert_eq!((s.failovers, s.verb_exhaustions, s.sd_fences), (1, 4, 2));
    for (i, &a) in pages.iter().enumerate() {
        assert_ne!(dsm.home_of(a), 1);
        assert_eq!(dsm.peek_u64(a), 100 + i as u64);
    }
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}

// ---- write-hot retention (DESIGN §3, "Writable across the release") ----

use carina::config::PROTECT_CYCLES;
use carina::{CoherenceSnapshot, Pyxis};
use simnet::stats::NetStatsSnapshot;

/// How many idle fences in a row a kept page survives — derived exactly as
/// the engine derives it, from the three constants.
fn idle_bound(cost: &CostModel) -> u64 {
    (cost.fault_trap_cycles + PROTECT_CYCLES) / PAGE_COPY_CYCLES
}

fn policy_cluster<C: Coherence>(
    nodes: usize,
    config: CarinaConfig,
) -> (Arc<Dsm<SimTransport, C>>, Vec<SimThread>) {
    let net = tiny_net(nodes);
    let dsm = Dsm::with_policy(net.clone(), 4 << 20, config);
    let threads = (0..nodes).map(|n| thread(&net, n as u16, 0)).collect();
    (dsm, threads)
}

fn wire<C: Coherence>(dsm: &Dsm<SimTransport, C>) -> NetStatsSnapshot {
    dsm.net().stats().snapshot()
}

/// One written epoch of `a` on `t`: a store, then the release. Returns what
/// it cost the thread.
fn written_epoch<C: Coherence>(
    dsm: &Dsm<SimTransport, C>,
    t: &mut SimThread,
    a: GlobalAddr,
    value: u64,
) -> u64 {
    let before = t.now();
    dsm.write_u64(t, a, value);
    dsm.sd_fence(t);
    assert_eq!(dsm.peek_u64(a), value, "{}: the release published the store", C::NAME);
    t.now() - before
}

/// One node rewrites one remote (already filled) page over six epochs:
/// what each epoch cost, and the counters at the end.
fn six_rewrites<C: Coherence>() -> (Vec<u64>, CoherenceSnapshot, NetStatsSnapshot) {
    let (dsm, mut ts) = policy_cluster::<C>(2, CarinaConfig::default());
    let t = &mut ts[0];
    let a = addr_homed_at(2, 1, 0);
    dsm.read_u64(t, a);
    let epochs = (1..=6).map(|e| written_epoch(&dsm, t, a, e)).collect();
    assert!(dsm.check_invariants().is_empty(), "{}: {:?}", C::NAME, dsm.check_invariants());
    (epochs, dsm.stats().snapshot(), wire(&dsm))
}

/// (a) The cost rule, and (e) its control. Tardis never keeps a page (it
/// self-invalidates written pages at the writer's next acquire) and
/// re-registers every epoch, so each of its epochs is a cold fault with a
/// registration and a cold drain — what epoch 1 costs everywhere, today
/// and before. Under SI/SD and Pyxis, epoch 2 takes the second — learning
/// — fault and its drain re-arms instead of protecting: `PAGE_COPY −
/// PROTECT` more than a cold epoch. From epoch 3 on there is no trap and no
/// `mprotect`: `fault_trap + PROTECT` less, each. The wire sees the same
/// six diffs either way.
#[test]
fn a_page_rewritten_every_epoch_pays_one_learning_trap() {
    let cost = CostModel::paper_2011();
    let (control, s, n) = six_rewrites::<Tardis>();
    assert!(control.iter().all(|&e| e == control[0]), "tardis: every epoch is cold: {control:?}");
    assert_eq!((s.write_faults, s.write_retained, s.retained_idle_scans), (6, 0, 0));
    assert_eq!((s.writebacks, s.writeback_bytes, n.rdma_writes), (6, 6 * 42, 6));

    for (name, (epochs, s, n)) in
        [("sisd", six_rewrites::<CarinaSiSd>()), ("pyxis", six_rewrites::<Pyxis>())]
    {
        // What posting one 1-word diff and waiting it out costs the fence:
        // the steady-state epoch is a hit, the scan, the paper's re-twin,
        // and that.
        let post = epochs[2] - HIT_CYCLES - 2 * PAGE_COPY_CYCLES;
        // A cold epoch of a page the node is already registered to write —
        // hit, trap, twin copy, scan, protect, post: every epoch before
        // retention.
        let cold =
            HIT_CYCLES + cost.fault_trap_cycles + 2 * PAGE_COPY_CYCLES + PROTECT_CYCLES + post;
        assert_eq!(epochs[0], control[0], "{name}: epoch 1 costs what it always did");
        assert_eq!(epochs[1], cold + PAGE_COPY_CYCLES - PROTECT_CYCLES, "{name}: first re-arm");
        for (e, &cycles) in epochs.iter().enumerate().skip(2) {
            let saved = cost.fault_trap_cycles + PROTECT_CYCLES;
            assert_eq!(cycles, cold - saved, "{name}: epoch {} is a plain write hit", e + 1);
        }
        assert_eq!(s.write_faults, 2, "{name}");
        assert_eq!((s.write_retained, s.retained_idle_scans), (5, 0), "{name}: epochs 2-6");
        // Identical to the parent's: six 1-word diffs, two registrations
        // (the fill's and the writer's), one page fill.
        assert_eq!((s.writebacks, s.writeback_bytes, s.diff_words), (6, 6 * 42, 6), "{name}");
        assert_eq!((n.rdma_reads, n.rdma_writes, n.rdma_atomics), (1, 6, 2), "{name}");
        assert_eq!((n.bytes_read, n.bytes_written), (PAGE_BYTES, 6 * 42), "{name}");
    }
}

/// (b) False sharing under retention: nodes 0 and 1 write disjoint halves
/// of one page homed on node 2 and release in alternating order. Once both
/// copies are hot neither is ever refetched, so each holds stale words in
/// the other's half — and the re-armed mask still keeps them off the wire.
fn kept_pages_still_tolerate_false_sharing<C: Coherence>() {
    let (dsm, mut ts) = policy_cluster::<C>(3, CarinaConfig::default());
    let base = addr_homed_at(3, 2, 0);
    let half = WORDS_PER_PAGE as u64 / 2;
    let value = |epoch: u64, w: u64| epoch * 10_000 + w;
    for epoch in 1..=5u64 {
        for w in 0..WORDS_PER_PAGE as u64 {
            let writer = (w / half) as usize;
            dsm.write_u64(&mut ts[writer], base.offset(8 * w), value(epoch, w));
        }
        let first = (epoch % 2) as usize;
        dsm.sd_fence(&mut ts[first]);
        dsm.sd_fence(&mut ts[1 - first]);
        for w in 0..WORDS_PER_PAGE as u64 {
            assert_eq!(
                dsm.peek_u64(base.offset(8 * w)),
                value(epoch, w),
                "{}: home word {w} after epoch {epoch}",
                C::NAME
            );
        }
    }
    let s = dsm.stats().snapshot();
    assert_eq!((s.write_faults, s.write_retained), (4, 8), "{}: both copies turned hot", C::NAME);
    assert_eq!((s.writebacks, s.diff_words), (10, 10 * half));
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}

#[test]
fn false_sharing_survives_retention() {
    kept_pages_still_tolerate_false_sharing::<CarinaSiSd>();
    kept_pages_still_tolerate_false_sharing::<Pyxis>();
}

/// A cluster of two with node 0's copy of a page homed on node 1 already
/// write-hot and kept: written and released twice.
fn with_a_kept_page<C: Coherence>(
    config: CarinaConfig,
) -> (Arc<Dsm<SimTransport, C>>, SimThread, GlobalAddr) {
    let (dsm, mut ts) = policy_cluster::<C>(2, config);
    let (mut t, a) = (ts.remove(0), addr_homed_at(2, 1, 0));
    written_epoch(&dsm, &mut t, a, 1);
    written_epoch(&dsm, &mut t, a, 2);
    let s = dsm.stats().snapshot();
    assert_eq!((s.write_faults, s.write_retained), (2, 1), "{}", C::NAME);
    (dsm, t, a)
}

/// (c) Idle epochs. A kept page nobody stores to is still charged its diff
/// scan at every fence — the empty mask is a host shortcut, not a cost one
/// — but posts nothing and stays buffered; after the ski-rental count of
/// idle fences in a row it is protected again, for good: out of the
/// buffer, history cleared, its next two epochs cold. A store any earlier
/// resets the count.
fn idle_kept_pages_pay_the_scan_and_are_demoted<C: Coherence>() {
    let cost = CostModel::paper_2011();
    let bound = idle_bound(&cost);
    assert_eq!(bound, 7, "(3000 + 150) / 430 with the paper's cost model");
    let (dsm, mut t, a) = with_a_kept_page::<C>(CarinaConfig::default());
    let idle_fence = |t: &mut SimThread, protects: bool| {
        let (s, n, before) = (dsm.stats().snapshot(), wire(&dsm), t.now());
        dsm.sd_fence(t);
        let charged = PAGE_COPY_CYCLES + if protects { PROTECT_CYCLES } else { 0 };
        assert_eq!(t.now() - before, charged, "{}: an idle fence is never free", C::NAME);
        assert_eq!(wire(&dsm), n, "{}: an idle page posts nothing", C::NAME);
        let after = dsm.stats().snapshot();
        assert_eq!(after.retained_idle_scans, s.retained_idle_scans + 1);
        assert_eq!((after.writebacks, after.write_retained), (s.writebacks, s.write_retained));
        assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
    };
    // One short of the bound, then a store: still a hit, and the count
    // starts over.
    for _ in 1..bound {
        idle_fence(&mut t, false);
    }
    written_epoch(&dsm, &mut t, a, 3);
    let s = dsm.stats().snapshot();
    assert_eq!((s.write_faults, s.write_retained), (2, 2), "{}: kept through {bound}-1", C::NAME);
    for _ in 1..bound {
        idle_fence(&mut t, false);
    }
    // The bound-th idle fence in a row demotes.
    idle_fence(&mut t, true);
    let (n, before) = (wire(&dsm), t.now());
    dsm.sd_fence(&mut t);
    assert_eq!((t.now(), wire(&dsm)), (before, n), "{}: the page left the buffer", C::NAME);
    // Cold again: a fault, a protecting drain, a second fault.
    written_epoch(&dsm, &mut t, a, 4);
    let s = dsm.stats().snapshot();
    assert_eq!((s.write_faults, s.write_retained), (3, 2), "{}: demotion cleared history", C::NAME);
    written_epoch(&dsm, &mut t, a, 5);
    let s = dsm.stats().snapshot();
    assert_eq!((s.write_faults, s.write_retained), (4, 3), "{}", C::NAME);
    assert_eq!(s.retained_idle_scans, 2 * bound - 1);
    assert_eq!(s.writebacks, 5, "{}: one write-back per written epoch, none per idle", C::NAME);
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}

#[test]
fn idle_kept_pages_are_scanned_post_nothing_and_are_demoted() {
    idle_kept_pages_pay_the_scan_and_are_demoted::<CarinaSiSd>();
    idle_kept_pages_pay_the_scan_and_are_demoted::<Pyxis>();
}

/// With a free trap there is nothing to save: the bound is 0 and no page
/// is ever kept.
#[test]
fn a_free_trap_never_keeps() {
    let net = simnet::Interconnect::new(simnet::ClusterTopology::tiny(2), CostModel::free());
    let dsm = Dsm::new(net.clone(), 4 << 20, CarinaConfig::default());
    let mut t = thread(&net, 0, 0);
    for e in 1..=4 {
        written_epoch(&dsm, &mut t, addr_homed_at(2, 1, 0), e);
    }
    let s = dsm.stats().snapshot();
    assert_eq!((s.write_faults, s.write_retained), (4, 0));
}

/// (d) Only fence drains keep. A kept page that is self-invalidated or
/// evicted posts nothing if idle, and comes back cold; a write-buffer
/// overflow victim is protected, so the buffer never exceeds its capacity.
fn only_fence_drains_keep<C: Coherence>() {
    // Self-invalidation (every page is shared under AllShared).
    let (dsm, mut t, a) =
        with_a_kept_page::<C>(CarinaConfig::with_mode(ClassificationMode::AllShared));
    let (n, before) = (wire(&dsm), t.now());
    dsm.si_fence(&mut t);
    assert_eq!(wire(&dsm), n, "{}: the idle page's invalidation posts nothing", C::NAME);
    assert!(t.now() - before >= PAGE_COPY_CYCLES + PROTECT_CYCLES, "{}: but is not free", C::NAME);
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
    written_epoch(&dsm, &mut t, a, 3);
    let s = dsm.stats().snapshot();
    assert_eq!((s.write_faults, s.write_retained), (3, 1), "{}: back cold after SI", C::NAME);

    // Conflict eviction, with stores in the page: written home, then cold.
    let one_line = CarinaConfig { cache: CacheConfig::new(1, 1), ..CarinaConfig::default() };
    let (dsm, mut t, a) = with_a_kept_page::<C>(one_line);
    dsm.write_u64(&mut t, a, 3);
    assert_eq!(dsm.stats().snapshot().write_faults, 2, "{}: a hit on the kept page", C::NAME);
    dsm.read_u64(&mut t, addr_homed_at(2, 1, 1));
    assert_eq!(dsm.peek_u64(a), 3, "{}: the eviction wrote the page home", C::NAME);
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
    written_epoch(&dsm, &mut t, a, 4);
    let s = dsm.stats().snapshot();
    assert_eq!((s.write_faults, s.write_retained), (3, 1), "{}: back cold after eviction", C::NAME);

    // Overflow: two kept pages fill a two-page buffer; dirtying a third
    // pushes the oldest out — protected, posting nothing (it is idle).
    let (dsm, mut t, a) = with_a_kept_page::<C>(CarinaConfig::with_write_buffer(2));
    let (b, c) = (addr_homed_at(2, 1, 1), addr_homed_at(2, 1, 2));
    written_epoch(&dsm, &mut t, b, 1);
    written_epoch(&dsm, &mut t, b, 2);
    let s = dsm.stats().snapshot();
    assert_eq!((s.write_retained, s.retained_idle_scans), (2, 2), "{}: a idle, b kept", C::NAME);
    dsm.write_u64(&mut t, c, 1);
    let after = dsm.stats().snapshot();
    assert_eq!(after.retained_idle_scans, s.retained_idle_scans + 1, "{}: the victim", C::NAME);
    assert_eq!(after.writebacks, s.writebacks, "{}: an idle victim posts nothing", C::NAME);
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
    dsm.write_u64(&mut t, a, 3);
    assert_eq!(dsm.stats().snapshot().write_faults, after.write_faults + 1, "{}", C::NAME);
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
    dsm.sd_fence(&mut t);
    assert_eq!((dsm.peek_u64(a), dsm.peek_u64(c)), (3, 1));
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}

#[test]
fn invalidation_eviction_and_overflow_never_keep() {
    only_fence_drains_keep::<CarinaSiSd>();
    only_fence_drains_keep::<Pyxis>();
}

// ---- the refill (DESIGN §11, "Refill") ----

/// Consumer pages per script: node 0 rewrites them, node 1 re-reads them.
const K: u64 = 8;

/// `K` pages homed on node 0 of a two-node cluster.
fn produced() -> Vec<GlobalAddr> {
    (0..K).map(|i| addr_homed_at(2, 0, i)).collect()
}

/// One producer/consumer round: node 0 rewrites every page and releases;
/// node 1 acquires, stores one word of each page first if `stores`, and
/// reads the pages `read` names. Returns node 1's clock advance.
fn consumer_round<C: Coherence>(
    dsm: &Dsm<SimTransport, C>,
    ts: &mut [SimThread],
    round: u64,
    read: impl Fn(usize) -> bool,
    stores: bool,
) -> u64 {
    let pages = produced();
    for &a in &pages {
        dsm.write_u64(&mut ts[0], a, round);
    }
    dsm.sd_fence(&mut ts[0]);
    let t = &mut ts[1];
    let before = t.now();
    dsm.si_fence(t);
    for (i, &a) in pages.iter().enumerate() {
        if stores {
            dsm.write_u64(t, a.offset(8), round);
        }
        if read(i) {
            assert_eq!(dsm.read_u64(t, a), round, "{}: page {i}, round {round}", C::NAME);
        }
    }
    if stores {
        dsm.sd_fence(t);
    }
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
    t.now() - before
}

/// `[read_misses, refills, refill_pages, refill_unused]` so far.
fn refill_counts<C: Coherence>(dsm: &Dsm<SimTransport, C>) -> [u64; 4] {
    let s = dsm.stats().snapshot();
    [s.read_misses, s.refills, s.refill_pages, s.refill_unused]
}

/// Run `rounds` consumer rounds; returns each round's clock advance and
/// its `refill_counts` delta.
fn consumer_script<C: Coherence>(
    dsm: &Dsm<SimTransport, C>,
    ts: &mut [SimThread],
    rounds: u64,
    read: impl Fn(u64, usize) -> bool,
    stores: bool,
) -> Vec<(u64, [u64; 4])> {
    (1..=rounds)
        .map(|round| {
            let before = refill_counts(dsm);
            let advance = consumer_round(dsm, ts, round, |i| read(round, i), stores);
            let after = refill_counts(dsm);
            (advance, std::array::from_fn(|i| after[i] - before[i]))
        })
        .collect()
}

/// (a) From round 3 on — once the pages were re-fetched after an SI drop —
/// the first miss refills the other `K − 1`: one trap, and a round costs
/// less than two misses plus the `K` transfers. The wire is what the
/// demand misses alone would carry: the same reads, registrations, bytes.
#[test]
fn the_first_miss_refills_the_consumer_pages() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let cost = CostModel::paper_2011();
    let (atomic_rtt, read_rtt) = round_trips(&cost);
    let miss = cost.fault_trap_cycles + atomic_rtt + read_rtt;
    let bound = 2 * miss + K * cost.transfer_cycles(PAGE_BYTES);
    for (round, (advance, d)) in (1..).zip(consumer_script(&dsm, &mut ts, 6, |_, _| true, false)) {
        if round <= 2 {
            assert_eq!(d, [K, 0, 0, 0], "round {round}");
        } else {
            assert_eq!(d, [1, 1, K - 1, 0], "round {round}");
            assert!(advance < bound, "round {round}: {advance} cycles, bound {bound}");
        }
    }
    let n = wire(&dsm);
    assert_eq!((n.rdma_reads, n.rdma_atomics, n.bytes_read), (6 * K, K, 6 * K * PAGE_BYTES));
}

/// (b) Pages node 1 writes are migratory: never recorded, never
/// refilled, every counter and the wire exactly what the protocol without
/// a refill produces.
#[test]
fn written_pages_are_never_refilled() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    consumer_script(&dsm, &mut ts, 6, |_, _| true, true);
    let s = dsm.stats().snapshot();
    let counted: Vec<_> = s.fields().filter(|&(_, v)| v > 0).collect();
    assert_eq!(
        counted,
        [
            ("read_hits", 48),
            ("read_misses", 48),
            ("write_faults", 48),
            ("si_invalidated", 40),
            ("writebacks", 48),
            ("writeback_bytes", 2016),
            ("diff_words", 48),
            ("p_to_s", 8),
            ("sw_to_mw", 8),
            ("si_fences", 6),
            ("sd_fences", 12),
        ]
    );
    let n = wire(&dsm);
    assert_eq!((n.rdma_reads, n.rdma_writes, n.rdma_atomics), (48, 64, 16));
    assert_eq!((n.bytes_read, n.bytes_written), (48 * PAGE_BYTES, 2528));
}

/// (c) Pages a refill brought in and nobody touched count as unused at the
/// next drop and are not refilled again; read once more, they re-qualify.
#[test]
fn untouched_refills_are_counted_and_not_repeated() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let half = K / 2;
    // Round 4 reads the even pages only.
    let rounds = consumer_script(&dsm, &mut ts, 6, |r, i| r != 4 || i % 2 == 0, false);
    let deltas: Vec<[u64; 4]> = rounds.iter().map(|&(_, d)| d).collect();
    assert_eq!(deltas[3], [1, 1, K - 1, 0], "round 4 refills all, reads half");
    // Round 5 refills the touched half; the skipped half is demand-missed.
    assert_eq!(deltas[4], [1 + half, 1, half - 1, half], "round 5");
    assert_eq!(deltas[5], [1, 1, K - 1, 0], "round 6: all consumers again");
}

/// (d) A refill never evicts: node 1 drops `p` and `q`, then a page it
/// keeps private takes `q`'s slot of a four-slot cache. The miss on `p`
/// refills nothing — `q`'s slot holds a live line, and `q`'s standing
/// went with its line — and the private page is still a hit.
#[test]
fn a_refill_skips_a_slot_another_line_took() {
    let four = CarinaConfig { cache: CacheConfig::new(4, 1), ..CarinaConfig::default() };
    let (dsm, mut ts) = cluster(2, four);
    // Pages 2 and 4 are homed on node 0; page 8 shares page 4's slot.
    let (p, q, private) = (addr_homed_at(2, 0, 0), addr_homed_at(2, 0, 1), addr_homed_at(2, 0, 3));
    let (t0, t1) = ts.split_at_mut(1);
    let (t0, t1) = (&mut t0[0], &mut t1[0]);
    for round in 1..=3 {
        dsm.write_u64(t0, p, round);
        dsm.write_u64(t0, q, round);
        dsm.sd_fence(t0);
        dsm.si_fence(t1);
        if round == 3 {
            assert_eq!(dsm.read_u64(t1, private), 0);
        }
        assert_eq!(dsm.read_u64(t1, p), round);
        if round == 3 {
            assert_eq!(refill_counts(&dsm)[2], 0, "q's slot was taken: nothing refilled");
            let misses = refill_counts(&dsm)[0];
            assert_eq!(dsm.read_u64(t1, private), 0);
            assert_eq!(refill_counts(&dsm)[0], misses, "the live line stayed valid");
        }
        assert_eq!(dsm.read_u64(t1, q), round);
    }
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}

/// (e) Lease pages renew inside the refill, on the registration a demand
/// fill would issue: the renewals and atomics of the misses it replaces,
/// under Tardis, and under Pyxis once its pages switched to lease mode.
#[test]
fn lease_pages_renew_inside_the_refill() {
    fn leases<C: Coherence>(rounds: u64) -> (CoherenceSnapshot, NetStatsSnapshot) {
        let (dsm, mut ts) = policy_cluster::<C>(2, CarinaConfig::default());
        consumer_script(&dsm, &mut ts, rounds, |_, _| true, false);
        (dsm.stats().snapshot(), wire(&dsm))
    }
    let (s, n) = leases::<Tardis>(6);
    assert_eq!((s.lease_renewals, n.rdma_atomics, n.rdma_reads), (40, 48, 48));
    assert_eq!((s.read_misses, s.refill_pages), (2 * K + 4, 4 * (K - 1)));
    let (s, n) = leases::<Pyxis>(12);
    assert_eq!(s.mode_to_lease, K, "every page switched to lease mode");
    assert_eq!((s.lease_renewals, n.rdma_atomics, n.rdma_reads), (56, 72, 96));
    assert_eq!((s.read_misses, s.refill_pages), (2 * K + 10, 10 * (K - 1)));
}
