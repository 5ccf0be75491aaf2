//! Integration tests of the Carina protocol state machine: classification
//! transitions, deferred invalidation, diffs under false sharing, write
//! buffering, and the fence semantics that make DRF programs SC. The rules
//! they pin, costs derived from the cost model:
//!
//! - one round trip per miss: a registering miss or a lease renewal costs
//!   the trap plus one read round trip; a write fault posts its
//!   registration, settled at the SD fence; a same-node acquire is free and
//!   a handover costs one SI fence;
//! - the multiple-writer rule: every write fault marks and every downgrade
//!   posts the masked words, so a writer that faulted first, alone in the
//!   writer map, and releases after its false sharer never buries the
//!   sharer's words — one word each, silent stores (10 B and one diffed
//!   word each), a 450-word post whose charged wire is capped at one page —
//!   through the fence or the decay path, under every policy;
//!   `check_invariants` flags a clean page carrying mask bits;
//! - write-hot retention: a page rewritten every epoch pays one learning
//!   trap, then a steady epoch of hit + diff scan + one streamed re-twin
//!   store per posted word + the posting, with the same diffs on the wire
//!   (Tardis, which never keeps, is the control); a store of a whole
//!   uncached page registers it once, as a writer, and reads none of it,
//!   while its line's other pages are still fetched; an idle kept page pays
//!   its scan at every fence, posts nothing, and is demoted protected-hot
//!   at the ski-rental bound, so one trap re-keeps it;
//! - the delivery rule: a registration notifies exactly the prior accessors
//!   whose Table 1 answers it changes — never the registrant or the page's
//!   home, nobody on a read's P→S under P/S3, a node two transitions name
//!   once — and no naive-P/S checkpoint fetch names a page's home;
//!   `check_invariants` reports a directory-cache row a node keeps for a
//!   page it homes, or whose answers differ from the home view's;
//! - the census rule (Pyxis): a home node's write registration is a written
//!   epoch, so pages their home rewrites every round stay off leases, pages
//!   it rewrites every fourth round still earn leases and renew inside the
//!   refill, and a private home page's stores stay plain hits.

use carina::config::{HIT_CYCLES, PAGE_COPY_CYCLES, STREAM_WORD_CYCLES};
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
    let writes = |dsm: &Dsm| dsm.net().stats().snapshot().rdma_writes;
    // Pages homed at node 2; node 0 reads both first (private to node 0).
    let (a, b) = (addr_homed_at(3, 2, 0), addr_homed_at(3, 2, 1));
    dsm.read_u64(&mut ts[0], a);
    dsm.read_u64(&mut ts[0], b);
    assert_eq!(dsm.home_dir_view(a).page_class(), PageClass::Private);
    assert!(dsm.home_dir_view(a).is_private_to(0));

    // Node 1 joins `a` by reading: a P→S, detected and counted. Node 0
    // keeps and self-downgrades the page as P and as S,NW alike, so no
    // answer of its changes: nothing is posted, and its directory cache
    // still reads private.
    let posted = writes(&dsm);
    dsm.read_u64(&mut ts[1], a);
    assert_eq!(dsm.stats().snapshot().p_to_s, 1);
    assert_eq!(dsm.home_dir_view(a).page_class(), PageClass::Shared);
    assert_eq!(writes(&dsm), posted, "no notification");
    assert_eq!(dsm.dir_view(0, a).page_class(), PageClass::Private);

    // Newcomer node 1 writes `b`: a P→S that flips node 0's SI answer, so
    // node 1 posts one notification. Deferred invalidation: node 0's
    // *cached* view now shows the writer even though node 0 took no
    // action, and its next SI fence drops `b` and keeps `a`.
    dsm.write_u64(&mut ts[1], b, 5);
    assert_eq!(dsm.stats().snapshot().p_to_s, 2);
    assert_eq!(writes(&dsm), posted + 1, "one notification");
    assert_eq!(dsm.dir_view(0, b).page_class(), PageClass::Shared);
    assert_eq!(dsm.dir_view(0, b).writer_class(), WriterClass::Single(1));
    dsm.si_fence(&mut ts[0]);
    let s = dsm.stats().snapshot();
    assert_eq!((s.si_invalidated, s.si_kept), (1, 1));
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

    let b = addr_homed_at(2, 1, 1);
    dsm.read_u64(t0, a); // miss
    dsm.write_u64(t0, a, 1); // write fault
    dsm.sd_fence(t0); // downgrade
    dsm.read_u64(t1, a); // P->S, no answer of node 0's changes: no notify
    dsm.read_u64(t0, b);
    dsm.write_u64(t1, b, 2); // P->S + NW->SW: node 0 must now SI `b`, notify
    dsm.si_fence(t0); // drops `b`, keeps `a`

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
    let notifies = |recs: &[VerbRecord]| -> Vec<(u64, u32)> {
        recs.iter().filter(|r| r.kind == RecordKind::Notify).map(|r| (r.arg, r.target)).collect()
    };
    assert_eq!(notifies(&n1), vec![(b.page().0, 0)], "only the write to `b` notifies");
    assert!(notifies(&n0).is_empty());
    let fenced = |kind: RecordKind, page: u64| n0.iter().any(|r| r.kind == kind && r.arg == page);
    assert!(fenced(RecordKind::SiInvalidate, b.page().0) && fenced(RecordKind::SiKeep, page));
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

/// The engine half of the handover rule: a same-node acquire moves no
/// clock, counter or verb and keeps the cache; a handover acquire is
/// exactly one SI fence.
#[test]
fn same_node_acquire_is_free_and_a_handover_is_one_si_fence() {
    let warm = || {
        let cfg = CarinaConfig { cache: CacheConfig::new(1024, 1), ..CarinaConfig::default() };
        let (dsm, mut ts) = cluster(2, cfg);
        for p in [1u64, 3, 5, 7] {
            dsm.read_u64(&mut ts[0], GlobalAddr(p * PAGE_BYTES));
        }
        (dsm, ts)
    };
    let observe = |dsm: &Dsm, t: &SimThread| {
        (t.now(), dsm.stats().snapshot(), dsm.net().stats().snapshot())
    };
    let (dsm, mut ts) = warm();
    let before = observe(&dsm, &ts[0]);
    dsm.acquire_fence(&mut ts[0], false);
    assert_eq!(observe(&dsm, &ts[0]), before, "a same-node acquire moved something");
    dsm.read_u64(&mut ts[0], GlobalAddr(7 * PAGE_BYTES));
    assert_eq!(dsm.stats().snapshot().read_misses, 4, "the cache was kept");

    let (handover, mut th) = warm();
    let (fenced, mut tf) = warm();
    handover.acquire_fence(&mut th[0], true);
    fenced.si_fence(&mut tf[0]);
    assert_eq!(handover.stats().snapshot().si_fences, 1);
    assert_eq!(observe(&handover, &th[0]), observe(&fenced, &tf[0]));
}

// ---- the SD fence's drain: posted as it scans ----

/// The SD drain's cut rule over one round of `n` scanned pages whose wire
/// each hides behind its diff scan: after `k` pending pages of wire `w`
/// with `left` pages still to scan, the write goes out once `w` is no
/// longer below the diff scans of all of them but the next.
fn cut_now(w: u64, left: u64) -> bool {
    w >= left.saturating_sub(1) * PAGE_COPY_CYCLES
}

/// An SD fence posts each write as its last page's scan finishes and waits
/// once. `N` adjacent pages to one home whose wire hides behind their diff
/// scans are cut so the tail steps down — 4, 2, 1, 1 pages, each write
/// posted once its wire covers the scans left but the next — and the fence
/// costs the `N` scans (a diff scan and a re-protect each), then the last
/// page's serialization and flight alone: the earlier writes are off the
/// NIC by then. Exact, from the cost model: a diff of `W` words is a
/// 32-byte header and 10 bytes per word, and a write carries the sum.
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
    let (before, writes) = (t.now(), wire(&dsm).rdma_writes);
    dsm.sd_fence(t);
    let scan = PAGE_COPY_CYCLES + PROTECT_CYCLES;
    let wire_of = |pages: u64| cost.transfer_cycles(pages * (32 + 10 * W));
    assert!(wire_of(1) < PAGE_COPY_CYCLES, "a page's diff scan hides its own wire");
    // The cuts, page by page: (pending pages, pages left) → posted?
    let cuts = [4, 2, 1, 1];
    let (mut scanned, mut nic_free) = (0, 0);
    for run in cuts {
        for k in 1..=run {
            let last = k == run;
            let left = N - scanned - k;
            assert_eq!(cut_now(wire_of(k), left), last, "{k} of {run} pages, {left} left");
        }
        scanned += run;
        nic_free = (scanned * scan).max(nic_free) + wire_of(run);
    }
    assert_eq!(nic_free, N * scan + wire_of(1), "only the last page's wire is exposed");
    assert_eq!(t.now() - before, nic_free + cost.network_latency);
    assert!(t.now() - before <= 6_669);
    assert_eq!(wire(&dsm).rdma_writes - writes, cuts.len() as u64, "one write per cut");
    let s = dsm.stats().snapshot();
    assert_eq!((s.writebacks, s.writeback_bytes), (N, N * (32 + 10 * W)));
    for salt in 0..N {
        let page = addr_homed_at(2, 1, salt);
        assert_eq!(dsm.peek_u64(page.offset(8 * (W - 1))), salt * 1000 + W - 1);
    }
    assert!(dsm.check_invariants().is_empty());
}

/// Full pages keep the 7-page runs: a write-back over 406 words is priced
/// as the page, whose wire (444 cycles) outlasts its diff scan, so nothing
/// cuts a run early, and a run ends only at one round trip of wire — the
/// refill's rule for full-page reads. Node 0 dirties fifteen adjacent
/// pages of one home whole: writes of 7, 7 and 1 pages.
#[test]
fn a_full_page_drain_keeps_its_seven_page_runs() {
    const N: u64 = 15;
    let cost = CostModel::paper_2011();
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let t = &mut ts[0];
    for salt in 0..N {
        let page = addr_homed_at(2, 1, salt);
        for w in 0..WORDS_PER_PAGE as u64 {
            dsm.write_u64(t, page.offset(8 * w), salt + w + 1);
        }
    }
    dsm.sd_fence(t);
    assert!(cost.transfer_cycles(PAGE_BYTES) >= PAGE_COPY_CYCLES, "its wire outlasts its scan");
    let most = cost.transfers_per_round_trip(PAGE_BYTES);
    assert_eq!(most, 7);
    let writes: Vec<u64> = dsm
        .lyra()
        .snapshot(0)
        .into_iter()
        .filter(|r| r.kind == obs::RecordKind::VerbIssue && r.class == VerbClass::Downgrade as u8)
        .map(|r| r.arg / PAGE_BYTES)
        .collect();
    assert_eq!(writes, [most, most, N - 2 * most]);
    let s = dsm.stats().snapshot();
    assert_eq!((s.writebacks, s.writeback_bytes), (N, N * PAGE_BYTES));
}

/// The same drain released through `publish` instead of a bare fence. The
/// releasing thread waits for its postings' own serializations — the last
/// page's ends last, as its scan does — and returns before its flight. The
/// stamp is the node's settle, and exactly where the bare fence above ends
/// — a bare fence still waits for it (twin clusters, same stores, one
/// thread each: deterministic).
#[test]
fn publish_stamps_the_settle_a_bare_fence_waits_for() {
    const N: u64 = 8;
    const W: u64 = 300;
    let cost = CostModel::paper_2011();
    let drained = || {
        let (dsm, mut ts) = cluster(2, CarinaConfig::default());
        let mut t = ts.swap_remove(0);
        for salt in 0..N {
            let page = addr_homed_at(2, 1, salt);
            for w in 0..W {
                dsm.write_u64(&mut t, page.offset(8 * w), salt * 1000 + w);
            }
        }
        t.compute(1_000_000);
        (dsm, t)
    };
    let (released, mut r) = drained();
    let (fenced, mut f) = drained();
    let before = r.now();
    assert_eq!(f.now(), before);
    let stamp = released.publish(&mut r);
    fenced.sd_fence(&mut f);
    let scan = PAGE_COPY_CYCLES + PROTECT_CYCLES;
    let wire_of = |pages: u64| cost.transfer_cycles(pages * (32 + 10 * W));
    // The cuts of the test above: each write's own serialization ends
    // before the last page's, which starts as the last scan ends.
    let ends = [(4, 4), (6, 2), (7, 1)].map(|(scanned, run)| scanned * scan + wire_of(run));
    assert!(ends.iter().all(|&e| e < N * scan + wire_of(1)), "{ends:?}");
    assert_eq!(r.now() - before, N * scan + wire_of(1), "the releaser skips the flight");
    assert_eq!(stamp.0, r.now() + cost.network_latency);
    assert_eq!(stamp, released.settle_stamp(0));
    assert_eq!(f.now(), stamp.0, "a bare fence ends at the settle");
    assert_eq!(released.stats().snapshot(), fenced.stats().snapshot());
}

/// Node 0 of three dirties eight pages homed alternately on nodes 1 and 2;
/// from `blackout` on, node 1's NIC stalls every verb. Returns the DSM, the
/// writer's endpoint (past `blackout`), and the pages in FIFO order.
fn dirty_across_a_blackout(
) -> (Arc<Dsm<FaultyTransport<SimTransport>>>, FaultyEndpoint<SimTransport>, Vec<GlobalAddr>) {
    let blackout = 10_000_000;
    let plan = FaultPlan::disabled().with_seed(29).with_brownout(NodeId(1), blackout, u64::MAX);
    let net = FaultyTransport::wrap(tiny_net(3), plan);
    let config = CarinaConfig {
        retry: CarinaConfig::default().retry.with_budget(VerbClass::Downgrade, 3),
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
/// each home's four one-word pages are adjacent in its window, so home 1's
/// are one write — the four pages scanned after it hide its wire — and
/// home 2's, scanned last, are cut before their last page. The drain polls
/// both writes to the healthy home — they complete — after the write to
/// the stalled home exhausts, before it returns the error. Every page's
/// local half already ran, so the data is home, no page is dirty outside
/// the write buffer, and the next fence has nothing left to drain.
#[test]
fn a_failed_posting_does_not_strand_the_rest_of_the_drain() {
    let cost = CostModel::paper_2011();
    let (dsm, mut t, pages) = dirty_across_a_blackout();
    let err = dsm.try_sd_fence(&mut t).unwrap_err();
    assert_eq!((err.target, err.class), (1, VerbClass::Downgrade));
    let s = dsm.stats().snapshot();
    assert_eq!((s.writebacks, s.verb_exhaustions, s.verb_retries), (8, 1, 2));
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
    assert!(cut_now(cost.transfer_cycles(3 * 42), 1) && !cut_now(cost.transfer_cycles(4 * 42), 4));
    assert_eq!((polled_home(1), polled_home(2)), (0, 2), "the healthy postings were polled");
    for (i, &a) in pages.iter().enumerate() {
        assert_eq!(dsm.peek_u64(a), 100 + i as u64);
    }
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
    assert_eq!(dsm.try_sd_fence(&mut t), Ok(()), "nothing left to drain");
}

/// One write per window run: node 0 of three dirties nine adjacent pages
/// on each other home, a different number of words on each. The whole
/// drain's wire is below one diff scan, so nothing cuts a home's run but
/// the rule that the page scanned last goes alone: home 1's nine pages are
/// one write, home 2's two. The writes carry exactly the pages' per-page
/// wire sizes, and every word of every page reaches home.
#[test]
fn a_drain_posts_one_write_per_window_run() {
    const PER_HOME: u64 = 9;
    let (dsm, mut ts) = cluster(3, CarinaConfig::default());
    let t = &mut ts[0];
    let pages: Vec<GlobalAddr> =
        (1..3).flat_map(|home| (0..PER_HOME).map(move |s| addr_homed_at(3, home, s))).collect();
    let value = |i: usize, w: u64| 1000 * i as u64 + w + 1;
    for (i, &a) in pages.iter().enumerate() {
        for w in 0..=i as u64 {
            dsm.write_u64(t, a.offset(8 * w), value(i, w));
        }
    }
    let before = wire(&dsm);
    dsm.sd_fence(t);
    let n = wire(&dsm);
    let per_page: u64 = (1..=pages.len() as u64).map(|words| 32 + 10 * words).sum();
    let cost = CostModel::paper_2011();
    assert!(cost.transfer_cycles(per_page) < PAGE_COPY_CYCLES, "every scan hides the wire");
    assert_eq!(n.rdma_writes - before.rdma_writes, 1 + 2, "a run per home, the last page alone");
    assert_eq!(n.bytes_written - before.bytes_written, per_page);
    let s = dsm.stats().snapshot();
    assert_eq!((s.writebacks, s.writeback_bytes), (18, per_page));
    for (i, &a) in pages.iter().enumerate() {
        for w in 0..WORDS_PER_PAGE as u64 {
            let want = if w <= i as u64 { value(i, w) } else { 0 };
            assert_eq!(dsm.peek_u64(a.offset(8 * w)), want, "page {i} word {w}");
        }
    }
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}

/// A failed run is retried whole: node 1's NIC is out exactly while the
/// fence issues its first write, three of four one-word pages (the fourth,
/// scanned last, goes alone), so that write fails and its retry — from the
/// write's issue time, after the backoff salted by its first page —
/// carries all three. One retry, every page home, and the release stamp is
/// the later of the retry's settle and the last page's.
#[test]
fn a_failed_run_is_retried_whole() {
    const PAGES: u64 = 4;
    const RUN: u64 = 3;
    let cost = CostModel::paper_2011();
    let scan = PAGE_COPY_CYCLES + PROTECT_CYCLES;
    let from = 10_000_000;
    let issue = from + RUN * scan;
    let plan = FaultPlan::disabled().with_brownout(NodeId(1), from, issue + 1);
    let net = FaultyTransport::wrap(tiny_net(2), plan);
    let dsm: Arc<Dsm<FaultyTransport<SimTransport>>> =
        Dsm::new(net.clone(), 4 << 20, CarinaConfig::default());
    let mut t = FaultyTransport::endpoint(&net, net.topology().loc(NodeId(0), 0));
    let pages: Vec<GlobalAddr> = (0..PAGES).map(|s| addr_homed_at(2, 1, s)).collect();
    for (i, &a) in pages.iter().enumerate() {
        dsm.write_u64(&mut t, a, 100 + i as u64);
    }
    assert!(t.now() < from, "the stores ran before the outage");
    t.compute(from - t.now());
    let stamp = dsm.publish(&mut t);
    let s = dsm.stats().snapshot();
    assert_eq!((s.writebacks, s.verb_retries, s.verb_exhaustions), (PAGES, 1, 0));
    assert_eq!(net.injected().stalled, 1, "the first write, and only it, failed");
    for (i, &a) in pages.iter().enumerate() {
        assert_eq!(dsm.peek_u64(a), 100 + i as u64);
    }
    let first = pages[0].page().0;
    let delay = dsm.config().retry.backoff_step(VerbClass::Downgrade, 1, first);
    let retried: Vec<_> = dsm
        .lyra()
        .snapshot(0)
        .into_iter()
        .filter(|r| r.kind == obs::RecordKind::VerbRetry)
        .map(|r| (r.class, r.arg))
        .collect();
    assert_eq!(retried, [(VerbClass::Downgrade as u8, delay)], "salted by the run's first page");
    let wire_of = |pages: u64| cost.transfer_cycles(pages * (32 + 10));
    assert!(cut_now(wire_of(RUN), PAGES - RUN) && !cut_now(wire_of(RUN - 1), PAGES - RUN + 1));
    let (retry, last) = (issue + delay, from + PAGES * scan);
    assert!(retry >= last + wire_of(1), "the retry finds the NIC free");
    let settle = (retry + wire_of(RUN)).max(last + wire_of(1)) + cost.network_latency;
    assert_eq!(stamp.0, settle);
    assert_eq!(stamp, dsm.settle_stamp(0));
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
/// registration and a cold drain — what epoch 1 costs everywhere. Under
/// SI/SD and Pyxis, epoch 2 takes the second — learning — fault and its
/// drain re-arms instead of protecting: the re-twin rides the diff scan, one
/// streamed store per posted word, in place of the `PROTECT`. From epoch 3
/// on there is no trap, no twin copy and no `mprotect`: a steady epoch is a
/// hit, the scan, the one-word re-twin and the posting. The wire sees the
/// same six diffs either way. Every charge is derived from the cost model.
#[test]
fn a_page_rewritten_every_epoch_pays_one_learning_trap() {
    let cost = CostModel::paper_2011();
    let (control, s, n) = six_rewrites::<Tardis>();
    assert!(control.iter().all(|&e| e == control[0]), "tardis: every epoch is cold: {control:?}");
    assert_eq!((s.write_faults, s.write_retained, s.retained_idle_scans), (6, 0, 0));
    assert_eq!((s.writebacks, s.writeback_bytes, n.rdma_writes), (6, 6 * 42, 6));
    // What posting one 1-word diff (42 bytes) and waiting it out costs the
    // fence: its serialization and its flight.
    let post = cost.transfer_cycles(42) + cost.network_latency;
    // A cold epoch of a page the node is already registered to write —
    // hit, trap, twin copy, scan, protect, post.
    let cold = HIT_CYCLES + cost.fault_trap_cycles + 2 * PAGE_COPY_CYCLES + PROTECT_CYCLES + post;
    let steady = HIT_CYCLES + PAGE_COPY_CYCLES + STREAM_WORD_CYCLES + post;

    for (name, (epochs, s, n)) in
        [("sisd", six_rewrites::<CarinaSiSd>()), ("pyxis", six_rewrites::<Pyxis>())]
    {
        assert_eq!(epochs[0], control[0], "{name}: epoch 1 costs what it always did");
        assert_eq!(epochs[1], cold - PROTECT_CYCLES + STREAM_WORD_CYCLES, "{name}: first re-arm");
        for (e, &cycles) in epochs.iter().enumerate().skip(2) {
            assert_eq!(cycles, steady, "{name}: epoch {} is a plain write hit", e + 1);
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
/// idle fences in a row it is protected again: out of the buffer, but
/// still hot, so its next written epoch pays one fault and is kept again.
/// A store any earlier resets the count.
fn idle_kept_pages_pay_the_scan_and_are_demoted_hot<C: Coherence>() {
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
    // Protected, but hot: one fault, and the drain keeps it again.
    written_epoch(&dsm, &mut t, a, 4);
    let s = dsm.stats().snapshot();
    assert_eq!((s.write_faults, s.write_retained), (3, 3), "{}: one trap re-keeps", C::NAME);
    written_epoch(&dsm, &mut t, a, 5);
    let s = dsm.stats().snapshot();
    assert_eq!((s.write_faults, s.write_retained), (3, 4), "{}: then a hit", C::NAME);
    assert_eq!(s.retained_idle_scans, 2 * bound - 1);
    assert_eq!(s.writebacks, 5, "{}: one write-back per written epoch, none per idle", C::NAME);
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}

#[test]
fn idle_kept_pages_are_scanned_post_nothing_and_are_demoted_hot() {
    idle_kept_pages_pay_the_scan_and_are_demoted_hot::<CarinaSiSd>();
    idle_kept_pages_pay_the_scan_and_are_demoted_hot::<Pyxis>();
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

/// One producer/consumer round: node 0 rewrites every page if round
/// `round` is one of every `every`th (rounds 1, 1 + `every`, …) and
/// releases; node 1 acquires, stores one word of each page first if
/// `stores`, and reads the pages `read` names. Returns node 1's clock
/// advance.
fn consumer_round<C: Coherence>(
    dsm: &Dsm<SimTransport, C>,
    ts: &mut [SimThread],
    (round, every): (u64, u64),
    read: impl Fn(usize) -> bool,
    stores: bool,
) -> u64 {
    let pages = produced();
    let written = round - (round - 1) % every;
    if written == round {
        for &a in &pages {
            dsm.write_u64(&mut ts[0], a, round);
        }
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
            assert_eq!(dsm.read_u64(t, a), written, "{}: page {i}, round {round}", C::NAME);
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

/// Run `rounds` consumer rounds, node 0 rewriting the pages every
/// `every`th; returns each round's clock advance and its `refill_counts`
/// delta.
fn consumer_script<C: Coherence>(
    dsm: &Dsm<SimTransport, C>,
    ts: &mut [SimThread],
    (rounds, every): (u64, u64),
    read: impl Fn(u64, usize) -> bool,
    stores: bool,
) -> Vec<(u64, [u64; 4])> {
    (1..=rounds)
        .map(|round| {
            let before = refill_counts(dsm);
            let advance = consumer_round(dsm, ts, (round, every), |i| read(round, i), stores);
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
    let rounds = consumer_script(&dsm, &mut ts, (6, 1), |_, _| true, false);
    for (round, (advance, d)) in (1..).zip(rounds) {
        if round <= 2 {
            assert_eq!(d, [K, 0, 0, 0], "round {round}");
        } else {
            assert_eq!(d, [1, 1, K - 1, 0], "round {round}");
            assert!(advance < bound, "round {round}: {advance} cycles, bound {bound}");
        }
    }
    // Rounds 3-6 read the demanded page, then the other `K − 1` in window
    // runs: the same bytes in fewer reads.
    let n = wire(&dsm);
    let reads = 2 * K + 4 * (1 + (K - 1).div_ceil(RUN));
    assert_eq!((n.rdma_reads, n.rdma_atomics, n.bytes_read), (reads, K, 6 * K * PAGE_BYTES));
    assert_eq!(reads, 24);
}

/// (b) Pages node 1 writes are migratory: never recorded, never
/// refilled, every counter and the wire exactly what the protocol without
/// a refill produces.
#[test]
fn written_pages_are_never_refilled() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    consumer_script(&dsm, &mut ts, (6, 1), |_, _| true, true);
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
    // Round 1 registers node 1 once per page as a reader (P→S) and once
    // as a writer (SW→MW): 16 atomics. Both transitions name node 0, the
    // pages' home, which is never notified, so the writes are the 48
    // write-backs alone — two window runs (7 + 1 pages) per fence, 12
    // writes — and carry exactly their `writeback_bytes` (it was 64 writes
    // and 2 528 B: 16 notifications of 32 B to the home).
    let n = wire(&dsm);
    assert_eq!((n.rdma_reads, n.rdma_writes, n.rdma_atomics), (48, 12, 16));
    assert_eq!((n.bytes_read, n.bytes_written), (48 * PAGE_BYTES, 2016));
}

/// (c) Pages a refill brought in and nobody touched count as unused at the
/// next drop and are not refilled again; read once more, they re-qualify.
#[test]
fn untouched_refills_are_counted_and_not_repeated() {
    let (dsm, mut ts) = cluster(2, CarinaConfig::default());
    let half = K / 2;
    // Round 4 reads the even pages only.
    let rounds = consumer_script(&dsm, &mut ts, (6, 1), |r, i| r != 4 || i % 2 == 0, false);
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

/// Run `schedule` (rounds, rewrite period) of the consumer script under
/// policy `C`; the counters and the wire at the end.
fn consumer_ledger<C: Coherence>(schedule: (u64, u64)) -> (CoherenceSnapshot, NetStatsSnapshot) {
    let (dsm, mut ts) = policy_cluster::<C>(2, CarinaConfig::default());
    consumer_script(&dsm, &mut ts, schedule, |_, _| true, false);
    (dsm.stats().snapshot(), wire(&dsm))
}

/// (e) Lease pages renew inside the refill, on the registration a demand
/// fill would issue: the renewals and atomics of the misses it replaces,
/// under Tardis, and under Pyxis once its pages switched to lease mode.
/// Pyxis leases only pages a census that sees the home's writes calls
/// read-mostly, so its producer rewrites them every fourth round.
#[test]
fn lease_pages_renew_inside_the_refill() {
    let (s, n) = consumer_ledger::<Tardis>((6, 1));
    // Rounds 3-6 read a demanded page and one run of `K − 1`.
    let reads = 2 * K + 4 * (1 + (K - 1).div_ceil(RUN));
    assert_eq!((s.lease_renewals, n.rdma_atomics, n.rdma_reads), (40, 48, reads));
    assert_eq!((s.read_misses, s.refill_pages), (2 * K + 4, 4 * (K - 1)));
    // Rewrites at rounds 1, 5, 9, 13 and 17. Node 1's checks score -1 at
    // rounds 2 and 5 and +1 at 3, 4, 6, 7 and 8, so the score reaches the
    // threshold (3) at round 8 and round 9's acquire reconciles. Rounds 1-9
    // fetch every page; the leases then expire only at the rewrites of
    // rounds 13 and 17, which renew inside their refills. Atomics: the
    // first registration, the reconcile's grant and the two renewals.
    // Reads: rounds 1 and 2 miss every page, the nine refilling rounds
    // read a demanded page and one run of `K − 1`.
    let (s, n) = consumer_ledger::<Pyxis>((20, 4));
    assert_eq!(s.mode_to_lease, K, "every page switched to lease mode");
    let reads = 2 * K + 9 * (1 + (K - 1).div_ceil(RUN));
    assert_eq!((s.lease_renewals, n.rdma_atomics, n.rdma_reads), (2 * K, 4 * K, reads));
    assert_eq!((s.read_misses, s.refill_pages), (2 * K + 9, 9 * (K - 1)));
}

/// (f) Pages their home rewrites every round are write-shared, not
/// read-mostly. The home's write registrations show the census each
/// written epoch, so no page switches to lease mode, and the refills
/// renew nothing: node 1's only atomics are its first `K` registrations.
/// The wire is SI/SD's.
#[test]
fn pages_their_home_rewrites_stay_off_leases() {
    let (s, n) = consumer_ledger::<Pyxis>((12, 1));
    assert_eq!((s.mode_to_lease, s.lease_renewals, s.mode_lease_checks), (0, 0, 0));
    // Rounds 3-12 read a demanded page and one run of `K − 1`.
    let reads = 2 * K + 10 * (1 + (K - 1).div_ceil(RUN));
    assert_eq!((n.rdma_atomics, n.rdma_reads), (K, reads));
    assert_eq!(n, consumer_ledger::<CarinaSiSd>((12, 1)).1);
}

/// The producer's turn: rewrite every page of `pages` with `round`, then
/// release.
fn produce<T: Transport, C: Coherence>(
    dsm: &Dsm<T, C>,
    t: &mut T::Endpoint,
    pages: &[GlobalAddr],
    round: u64,
) {
    for &a in pages {
        dsm.write_u64(t, a, round);
    }
    dsm.sd_fence(t);
}

/// The consumer's turn, between its two acquires: the first ends the
/// producer's turn, the second its own. It reads every page of `pages`.
fn consume<T: Transport, C: Coherence>(
    dsm: &Dsm<T, C>,
    t: &mut T::Endpoint,
    pages: &[GlobalAddr],
    round: u64,
) {
    dsm.si_fence(t);
    for (i, &a) in pages.iter().enumerate() {
        assert_eq!(dsm.read_u64(t, a), round, "{}: page {i}, round {round}", C::NAME);
    }
    dsm.si_fence(t);
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}

/// Alternating turns of producer node 0 and consumer node `nodes − 1`
/// over `pages`, for `rounds` rounds under policy `C`: each round's page
/// reads on the wire and its `refill_counts` delta.
fn alternating<C: Coherence>(
    nodes: usize,
    pages: &[GlobalAddr],
    rounds: u64,
) -> Vec<(u64, [u64; 4])> {
    let (dsm, mut ts) = policy_cluster::<C>(nodes, CarinaConfig::default());
    (1..=rounds)
        .map(|round| {
            let (reads, counts) = (wire(&dsm).rdma_reads, refill_counts(&dsm));
            produce(&dsm, &mut ts[0], pages, round);
            consume(&dsm, &mut ts[nodes - 1], pages, round);
            let after = refill_counts(&dsm);
            (wire(&dsm).rdma_reads - reads, std::array::from_fn(|i| after[i] - counts[i]))
        })
        .collect()
}

/// The longest window run one page read carries on the paper's fabric:
/// the pages one round trip's wire time covers.
const RUN: u64 = 7;

/// (g) The acquire trigger: the consumer's idle turn hands its recorded
/// set on, and the acquire that ends the producer's turn refills it. From
/// round 3 on the consumer takes no demand miss, and the `K` pages come in
/// ⌈K / 7⌉ reads — one per window run.
#[test]
fn the_acquire_after_an_idle_turn_refills_the_set() {
    assert_eq!(CostModel::paper_2011().transfers_per_round_trip(PAGE_BYTES), RUN);
    let pages = produced();
    for (round, (reads, d)) in (1..).zip(alternating::<CarinaSiSd>(2, &pages, 6)) {
        if round <= 2 {
            assert_eq!((reads, d), (K, [K, 0, 0, 0]), "round {round}");
        } else {
            assert_eq!((reads, d), (K.div_ceil(RUN), [0, 1, K, 0]), "round {round}");
        }
    }
    let steady = |rounds: Vec<(u64, [u64; 4])>| rounds[2..].to_vec();
    let sisd = steady(alternating::<CarinaSiSd>(2, &pages, 6));
    assert_eq!(steady(alternating::<Pyxis>(2, &pages, 6)), sisd, "Pyxis");
}

/// (g') A one-page set is not refilled at the acquire: its read would
/// save nothing over the demand miss it pre-empts, and a lock-bound node
/// would often drop it untouched. From round 3 on the consumer misses the
/// page on demand — the same one read — and nothing is refilled.
#[test]
fn the_acquire_skips_a_one_page_set() {
    let page = &produced()[..1];
    for (round, (reads, d)) in (1..).zip(alternating::<CarinaSiSd>(2, page, 6)) {
        assert_eq!((reads, d), (1, [1, 0, 0, 0]), "round {round}");
    }
}

/// Reads of the third round of [`alternating`] turns over `pages` — the
/// first acquire-triggered refill — on `nodes` nodes, which takes no
/// demand miss.
fn refill_reads(nodes: usize, pages: &[GlobalAddr]) -> u64 {
    let (reads, d) = alternating::<CarinaSiSd>(nodes, pages, 3)[2];
    assert_eq!(d, [0, 1, pages.len() as u64, 0], "{pages:?}");
    reads
}

/// (h) A window run ends at a page of its home the set does not hold, at a
/// change of home, and at the run length: one read per run.
#[test]
fn window_runs_split_at_gaps_homes_and_the_run_length() {
    let homed = |nodes, home, slots: &[u64]| -> Vec<GlobalAddr> {
        slots.iter().map(|&s| addr_homed_at(nodes, home, s)).collect()
    };
    assert_eq!(refill_reads(2, &homed(2, 0, &[0, 1, 2, 3, 4, 5, 6])), 1, "one full run");
    assert_eq!(refill_reads(2, &homed(2, 0, &[0, 1, 2, 3, 4, 5, 6, 7])), 2, "the run length");
    assert_eq!(refill_reads(2, &homed(2, 0, &[0, 1, 2, 4, 5])), 2, "a gap at slot 3");
    let two_homes = [homed(3, 0, &[0, 1]), homed(3, 1, &[0, 1])].concat();
    assert_eq!(refill_reads(3, &two_homes), 2, "a run per home");
}

/// (i) A failed run drops its pages, and only its: node 0's NIC is out
/// while the consumer's acquire posts round 3's refill, so the run homed
/// there fails and the one homed on node 1 lands. No retry, no error, no
/// exhausted budget: each dropped page is demand-filled, with the round's
/// value, when it is read.
#[test]
fn a_failed_run_leaves_its_pages_to_demand_fills() {
    let (from, until) = (50_000_000, 60_000_000);
    let plan = FaultPlan::disabled().with_brownout(NodeId(0), from, until);
    let net = FaultyTransport::wrap(tiny_net(3), plan);
    let dsm: Arc<Dsm<FaultyTransport<SimTransport>>> =
        Dsm::new(net.clone(), 4 << 20, CarinaConfig::default());
    let endpoint = |n| FaultyTransport::endpoint(&net, net.topology().loc(NodeId(n), 0));
    let (mut producer, mut consumer) = (endpoint(0), endpoint(2));
    let pages: Vec<GlobalAddr> =
        (0..3).flat_map(|s| [addr_homed_at(3, 0, s), addr_homed_at(3, 1, s)]).collect();
    let snapshot = || dsm.stats().snapshot();
    for round in 1..=2 {
        produce(&dsm, &mut producer, &pages, round);
        consume(&dsm, &mut consumer, &pages, round);
    }
    produce(&dsm, &mut producer, &pages, 3);
    assert!(consumer.now() < from, "the warm-up outlasted the healthy window");
    consumer.compute(from - consumer.now());
    dsm.si_fence(&mut consumer);
    let s = snapshot();
    assert_eq!((s.refills, s.refill_pages), (1, 3), "the run homed on node 1 landed");
    consumer.compute(until - consumer.now());
    let misses = s.read_misses;
    for (i, &a) in pages.iter().enumerate() {
        assert_eq!(dsm.read_u64(&mut consumer, a), 3, "page {i}");
    }
    let s = snapshot();
    assert_eq!(s.read_misses - misses, 3, "the failed run's pages miss on demand");
    assert_eq!((s.refill_pages, s.verb_exhaustions, s.verb_retries), (3, 0, 0));
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}

/// The control for (f), on 1 × 1: a home page with no other node on
/// record keeps its write registration, so after its first epoch every
/// store is a plain hit — the census charges only shared home pages.
#[test]
fn a_private_home_page_stores_at_hit_cost() {
    let (dsm, mut ts) = policy_cluster::<Pyxis>(1, CarinaConfig::default());
    let (t, a) = (&mut ts[0], addr_homed_at(1, 0, 0));
    let dram = CostModel::paper_2011().dram_latency;
    for epoch in 1..=6 {
        let before = t.now();
        dsm.write_u64(t, a, epoch);
        let first = if epoch == 1 { dram } else { 0 };
        assert_eq!(t.now() - before, HIT_CYCLES + first, "epoch {epoch}");
        dsm.sd_fence(t);
    }
    assert_eq!(dsm.peek_u64(a), 6);
}

// ---- write-allocate of a whole page (DESIGN §8, "The mask is the diff") ----

/// One `len`-word slice store from word `first` of a page homed at node 1,
/// uncached on node 0 of two, under policy `C`: what the store cost the
/// thread and the wire it used. The SD fence then publishes every stored
/// word.
fn allocating_store<C: Coherence>(first: u64, len: u64) -> (u64, NetStatsSnapshot) {
    let (dsm, mut ts) = policy_cluster::<C>(2, CarinaConfig::default());
    let (t, a) = (&mut ts[0], addr_homed_at(2, 1, 0).offset(8 * first));
    let before = t.now();
    dsm.write_u64_slice(t, a, &(0..len).map(|w| 1000 + w).collect::<Vec<_>>());
    let (cycles, n) = (t.now() - before, wire(&dsm));
    let s = dsm.stats().snapshot();
    assert_eq!((s.read_misses, s.write_faults), (1, 1), "{}: one miss, one fault", C::NAME);
    dsm.sd_fence(t);
    for w in 0..len {
        assert_eq!(dsm.peek_u64(a.offset(8 * w)), 1000 + w, "{}: home word {w}", C::NAME);
    }
    assert!(dsm.check_invariants().is_empty(), "{}: {:?}", C::NAME, dsm.check_invariants());
    (cycles, n)
}

/// A store that covers a whole page (word 0, `WORDS_PER_PAGE` words)
/// neither reads nor reader-registers it: its write fault's posted writer
/// registration is its one atomic. One word short, or one word in, the
/// miss registers the page as a reader and fetches it, then the fault
/// registers it as a writer: one atomic more (it used to be the same two
/// for both). So the two misses differ by the partial one's whole round
/// trip — the atomic's, with the page serialized behind it on the same
/// channel — and the two stores' streaming by one word.
fn whole_page_stores_fetch_nothing<C: Coherence>() {
    let cost = CostModel::paper_2011();
    let (atomic_rtt, _) = round_trips(&cost);
    let (whole, n) = allocating_store::<C>(0, WORDS_PER_PAGE as u64);
    assert_eq!((n.rdma_reads, n.bytes_read), (0, 0), "{}: nothing fetched", C::NAME);
    assert_eq!(n.rdma_atomics, 1, "{}: the writer registration alone", C::NAME);
    for first in [0, 1] {
        let (partial, p) = allocating_store::<C>(first, WORDS_PER_PAGE as u64 - 1);
        let run = format!("{}: 511 words from word {first}", C::NAME);
        assert_eq!((p.rdma_reads, p.bytes_read), (1, PAGE_BYTES), "{run} fetch the page");
        assert_eq!(p.rdma_atomics, n.rdma_atomics + 1, "{run}: a reader registration more");
        let fill = atomic_rtt + cost.transfer_cycles(PAGE_BYTES);
        assert_eq!(whole + fill, partial + STREAM_WORD_CYCLES, "{run}");
    }
}

#[test]
fn a_whole_page_store_allocates_without_a_fetch() {
    whole_page_stores_fetch_nothing::<CarinaSiSd>();
    whole_page_stores_fetch_nothing::<Tardis>();
    whole_page_stores_fetch_nothing::<Pyxis>();
}

/// A whole-page store by a newcomer to a page private to node 0 and never
/// written is a P→S and an NW→SW in its one writer registration. Both name
/// node 0, which hears of it once: one atomic, no read, and one 32 B
/// notification (it used to be two, carrying the same view).
#[test]
fn a_node_two_transitions_name_gets_one_notification() {
    let (dsm, mut ts) = cluster(3, CarinaConfig::default());
    let a = addr_homed_at(3, 2, 0);
    dsm.read_u64(&mut ts[0], a);
    let before = wire(&dsm);
    dsm.write_u64_slice(&mut ts[1], a, &[7; WORDS_PER_PAGE]);
    let n = wire(&dsm);
    let atomics_reads = (n.rdma_atomics - before.rdma_atomics, n.rdma_reads - before.rdma_reads);
    assert_eq!(atomics_reads, (1, 0));
    let writes = (n.rdma_writes - before.rdma_writes, n.bytes_written - before.bytes_written);
    assert_eq!(writes, (1, 32), "one notification");
    let s = dsm.stats().snapshot();
    assert_eq!((s.p_to_s, s.nw_to_sw), (1, 1));
}

/// Five nodes, four-page lines: pages 16–19 are homed at nodes 1–4, so a
/// whole-page store to page 16 leaves node 1's group with nothing to read
/// and still fetches the other three pages of its line.
fn a_whole_page_store_fills_the_rest_of_its_line<C: Coherence>() {
    let config = CarinaConfig { cache: CacheConfig::new(1024, 4), ..CarinaConfig::default() };
    let (dsm, mut ts) = policy_cluster::<C>(5, config);
    let (t, page) = (&mut ts[0], |p: u64| GlobalAddr(p * PAGE_BYTES));
    assert_eq!((16..20).map(|p| dsm.home_of(page(p))).collect::<Vec<_>>(), [1, 2, 3, 4]);
    dsm.write_u64_slice(t, page(16), &[5; WORDS_PER_PAGE]);
    let n = wire(&dsm);
    assert_eq!((n.rdma_reads, n.bytes_read), (3, 3 * PAGE_BYTES), "{}", C::NAME);
    for p in 17..20 {
        assert_eq!(dsm.read_u64(t, page(p)), 0, "{}: page {p} came with the line", C::NAME);
    }
    assert_eq!(dsm.stats().snapshot().read_misses, 1, "{}", C::NAME);
    dsm.sd_fence(t);
    assert_eq!(dsm.peek_u64(page(16).offset(8 * 511)), 5, "{}", C::NAME);
}

#[test]
fn a_whole_page_store_still_fetches_its_line() {
    a_whole_page_store_fills_the_rest_of_its_line::<CarinaSiSd>();
    a_whole_page_store_fills_the_rest_of_its_line::<Tardis>();
    a_whole_page_store_fills_the_rest_of_its_line::<Pyxis>();
}

/// A whole-page store whose write fault fails leaves no copy behind: the
/// slot held another page's words (a four-line cache maps pages 5 and 9 to
/// one slot), and the unfetched page must not serve them once the fabric
/// heals — the next read misses and fetches the home's zeros.
#[test]
fn a_failed_whole_page_store_leaves_no_copy() {
    let (from, until) = (1_000_000, 2_000_000);
    let plan = FaultPlan::disabled().with_brownout(NodeId(1), from, until);
    let net = FaultyTransport::wrap(tiny_net(2), plan);
    let config = CarinaConfig { cache: CacheConfig::new(4, 1), ..CarinaConfig::default() };
    let dsm: Arc<Dsm<FaultyTransport<SimTransport>>> = Dsm::new(net.clone(), 4 << 20, config);
    let mut home = FaultyTransport::endpoint(&net, net.topology().loc(NodeId(1), 0));
    let mut t = FaultyTransport::endpoint(&net, net.topology().loc(NodeId(0), 0));
    let (stale, target) = (GlobalAddr(5 * PAGE_BYTES), GlobalAddr(9 * PAGE_BYTES));
    dsm.write_u64(&mut home, stale, 77);
    assert_eq!(dsm.read_u64(&mut t, stale), 77);
    // The whole-page miss posts nothing; its write fault's registration,
    // a trap later, goes out inside the brownout.
    t.compute(from - t.now() - 5_000);
    let err = dsm.try_write_slice(&mut t, target, &[1u64; WORDS_PER_PAGE]).unwrap_err();
    assert_eq!((err.target, err.class), (1, VerbClass::DirectoryAtomic));
    assert_eq!(dsm.net().stats().snapshot().rdma_reads, 1, "the failed store fetched nothing");
    t.compute(until);
    assert_eq!(dsm.read_u64(&mut t, target), 0, "the unfetched copy was dropped");
    assert_eq!(dsm.stats().snapshot().read_misses, 3);
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}

// ---- read-ahead along a home's window (DESIGN §11) ----

/// A two-node cluster whose allocator has handed out `pages` pages from
/// page 0 in one allocation: node 0's window there is the even pages.
fn allocated(pages: u64, config: CarinaConfig) -> (Arc<Dsm>, Vec<SimThread>) {
    let (dsm, ts) = cluster(2, config);
    assert_eq!(dsm.allocator().alloc_pages(pages).unwrap(), GlobalAddr(0));
    (dsm, ts)
}

/// Window slot `i` of node 0 on two nodes: page `2i`.
fn slot0(i: u64) -> GlobalAddr {
    GlobalAddr(2 * i * PAGE_BYTES)
}

/// Node 1 reads word 0 of each page of `slots` of node 0's window, in
/// order, and finds what node 0 stored there; returns the wire so far.
fn scan(
    dsm: &Dsm,
    ts: &mut [SimThread],
    slots: impl Iterator<Item = u64> + Clone,
) -> NetStatsSnapshot {
    let before = wire(dsm);
    for i in slots.clone() {
        dsm.write_u64(&mut ts[0], slot0(i), 1000 + i);
    }
    assert_eq!(wire(dsm), before, "home stores are local");
    for i in slots {
        assert_eq!(dsm.read_u64(&mut ts[1], slot0(i)), 1000 + i, "slot {i}");
    }
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
    wire(dsm)
}

/// A cold sequential scan of `k` pages of one home: the first miss has no
/// valid predecessor and reads its page alone; every later miss continues
/// the stream and reads a window run of up to 7. So `1 + ⌈(k − 1) / 7⌉`
/// reads and misses, each page registered once and carried once, and the
/// last run ends at the allocator's high-water mark.
#[test]
fn a_cold_scan_reads_one_window_run_per_round_trip() {
    assert_eq!(CostModel::paper_2011().transfers_per_round_trip(PAGE_BYTES), RUN);
    for k in [1, 2, 8, 9, 16, 50] {
        let (dsm, mut ts) = allocated(2 * k, CarinaConfig::default());
        let n = scan(&dsm, &mut ts, 0..k);
        let reads = 1 + (k - 1).div_ceil(RUN);
        assert_eq!((n.rdma_reads, n.rdma_atomics, n.rdma_writes), (reads, k, 0), "k = {k}");
        assert_eq!(dsm.stats().snapshot().read_misses, reads, "k = {k}");
        assert_eq!(n.bytes_read, k * PAGE_BYTES, "k = {k}: no page twice, none extra");
    }
}

/// Multi-page lines stream the same way: a line fill's group for the
/// demand's home carries that home's window successors past the line. On
/// 4-page lines node 0's window holds two pages of each line: the first
/// miss fills line 0 alone; the next, on line 1, continues the stream
/// and reads its two pages and five more; the third, on page 18 of the
/// half-valid line 4, reads seven from there.
#[test]
fn a_line_fill_reads_ahead_past_its_line() {
    let lines = CarinaConfig { cache: CacheConfig::new(1024, 4), ..CarinaConfig::default() };
    let (dsm, mut ts) = allocated(32, lines);
    let n = scan(&dsm, &mut ts, 0..16);
    assert_eq!((n.rdma_reads, n.rdma_atomics, n.bytes_read), (3, 16, 16 * PAGE_BYTES));
    assert_eq!(dsm.stats().snapshot().read_misses, 3);
}

/// A scan with gaps in the window never continues a stream: each miss's
/// predecessor is the skipped page, so every miss reads its page alone.
#[test]
fn a_scan_with_gaps_reads_one_page_per_miss() {
    let k = 12;
    let (dsm, mut ts) = allocated(4 * k, CarinaConfig::default());
    let n = scan(&dsm, &mut ts, (0..k).map(|i| 2 * i));
    assert_eq!((n.rdma_reads, n.rdma_atomics), (k, k));
    assert_eq!(dsm.stats().snapshot().read_misses, k);
}

/// A run never evicts: in a 16-slot cache, slot 3 of the window (page 6)
/// shares its slot with page 22, which node 1 holds. The stream's second
/// miss reads slots 1 and 2 and stops there; page 22 stays a hit, and so
/// do the two pages the run brought.
#[test]
fn a_valid_line_in_a_successors_slot_ends_the_run() {
    let sixteen = CarinaConfig { cache: CacheConfig::new(16, 1), ..CarinaConfig::default() };
    let (dsm, mut ts) = allocated(64, sixteen);
    let held = scan(&dsm, &mut ts, 11..12);
    assert_eq!(held.rdma_reads, 1);
    let n = scan(&dsm, &mut ts, 0..3);
    assert_eq!((n.rdma_reads, n.rdma_atomics), (3, 4), "[0], [1, 2]: slot 3 is taken");
    let misses = dsm.stats().snapshot().read_misses;
    for i in [11, 2, 1] {
        assert_eq!(dsm.read_u64(&mut ts[1], slot0(i)), 1000 + i);
    }
    assert_eq!(dsm.stats().snapshot().read_misses, misses, "page 22 was not evicted");
    assert_eq!(dsm.stats().snapshot().evictions, 0);
}

/// A run stays inside what the program allocated: it stops at the
/// allocator's high-water mark, and at the start of the next allocation.
#[test]
fn a_run_never_crosses_the_high_water_mark_or_an_allocation() {
    let (dsm, mut ts) = allocated(8, CarinaConfig::default());
    let n = scan(&dsm, &mut ts, 0..4);
    assert_eq!((n.rdma_reads, n.rdma_atomics), (2, 4), "[0], [1, 2, 3] and no page past 8");
    // Past the mark nothing was read ahead: the next page misses.
    let misses = dsm.stats().snapshot().read_misses;
    assert_eq!(dsm.read_u64(&mut ts[1], slot0(4)), 0);
    assert_eq!(dsm.stats().snapshot().read_misses, misses + 1);

    let (dsm, mut ts) = allocated(8, CarinaConfig::default());
    assert_eq!(dsm.allocator().alloc_pages(8).unwrap(), slot0(4));
    let n = scan(&dsm, &mut ts, 0..8);
    assert_eq!((n.rdma_reads, n.rdma_atomics), (3, 8), "[0], [1, 2, 3], then [4, 5, 6, 7]");
}

/// A re-miss of an SI-dropped page reads nothing ahead: the dropped pages
/// belong to the refill. With the consumer's pages allocated, round 1 is
/// a stream — two misses where a scan of unallocated pages takes `K` —
/// and every later round, each of whose misses follows a drop, counts
/// exactly what the unallocated run counts: round 2 misses page by page,
/// later ones refill.
#[test]
fn a_dropped_page_reads_nothing_ahead() {
    let rounds = |allocate: bool| {
        let (dsm, mut ts) = cluster(2, CarinaConfig::default());
        if allocate {
            dsm.allocator().alloc_pages(2 * K + 2).unwrap();
        }
        consumer_script(&dsm, &mut ts, (6, 1), |_, _| true, false)
            .into_iter()
            .map(|(_, counts)| counts)
            .collect::<Vec<_>>()
    };
    let (streamed, paged) = (rounds(true), rounds(false));
    assert_eq!(streamed[0], [2, 0, 0, 0], "round 1: [page 2], then a run of 7");
    assert_eq!(paged[0], [K, 0, 0, 0]);
    assert_eq!(streamed[1], [K, 0, 0, 0], "round 2: every dropped page alone");
    assert_eq!(streamed[1..], paged[1..], "the refill's counters");
}

/// Under a seeded fault plan that gives each page read one attempt (the
/// registrations keep their budget), a miss whose run fails installs
/// nothing: its registrations went out, but the access errs, and the
/// failed run's next page — read ahead had the run landed — misses on
/// demand. Retried, every access finds its home's value.
#[test]
fn a_failed_run_leaves_no_page_valid() {
    let plan = FaultPlan::disabled().with_seed(48).with_drops(100_000);
    let net = FaultyTransport::wrap(tiny_net(2), plan);
    let retry = rma::RetryPolicy::default().with_budget(VerbClass::PageFetch, 1);
    let dsm: Arc<Dsm<FaultyTransport<SimTransport>>> =
        Dsm::new(net.clone(), 4 << 20, CarinaConfig { retry, ..CarinaConfig::default() });
    let endpoint = |n| FaultyTransport::endpoint(&net, net.topology().loc(NodeId(n), 0));
    let (mut home, mut t) = (endpoint(0), endpoint(1));
    let k = 200;
    dsm.allocator().alloc_pages(2 * k).unwrap();
    for i in 0..k {
        dsm.write_u64(&mut home, slot0(i), 1000 + i);
    }
    let (misses, atomics) = (
        || dsm.stats().snapshot().read_misses,
        || dsm.net().stats().snapshot().rdma_atomics,
    );
    let mut failed_runs = 0;
    for i in 0..k {
        loop {
            let before = atomics();
            match dsm.try_read::<u64>(&mut t, slot0(i)) {
                Ok(v) => break assert_eq!(v, 1000 + i, "slot {i}"),
                Err(e) => assert_eq!((e.class, e.target), (VerbClass::PageFetch, 0)),
            }
            if atomics() - before > 1 && i + 1 < k {
                failed_runs += 1;
                let m = misses();
                let _ = dsm.try_read::<u64>(&mut t, slot0(i + 1));
                assert_eq!(misses(), m + 1, "slot {}: a failed run's page went in", i + 1);
            }
        }
    }
    assert!(failed_runs > 0, "no run failed");
    assert!(dsm.check_invariants().is_empty(), "{:?}", dsm.check_invariants());
}
