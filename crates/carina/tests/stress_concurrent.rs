//! Multi-threaded stress over the lock-free structures added for host
//! performance: the seqlock read fast path, occupancy-driven fence sweeps
//! and sharded statistics (the write buffer's own torture test is a unit
//! test in `write_buffer.rs`). Real OS threads race real fences and
//! evictions; afterwards home memory, the statistics
//! totals, and the protocol invariants must all line up exactly.

use carina::{CarinaConfig, Dsm};
use mem::{CacheConfig, GlobalAddr, PAGE_BYTES};
use simnet::testkit::tiny_net;
use simnet::{ClusterTopology, CostModel, Interconnect, NodeId, SimThread};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Threads on several nodes hammer private stripes through write/fence/read
/// cycles. Every remote word write lands in exactly one of
/// `write_hits`/`write_faults`, every fence is counted by its issuer's
/// shard, and the final home contents are the DRF-deterministic last
/// values — none of which may be disturbed by racing sweeps.
#[test]
fn concurrent_stripes_account_every_access() {
    const NODES: u64 = 3;
    const THREADS: u64 = 6;
    const ROUNDS: u64 = 12;
    const SLOTS: u64 = 40;
    let net = tiny_net(NODES as usize);
    let cfg = CarinaConfig {
        write_buffer_pages: 4, // force overflow downgrades mid-round
        ..Default::default()
    };
    let dsm = Dsm::new(net.clone(), 8 << 20, cfg);

    // Thread `id`'s slot `s` lives at word (s*THREADS + id) of a page block
    // starting at page 64: stripes interleave within pages, so threads
    // genuinely share cache lines and directory entries without racing on
    // any single word (DRF).
    let addr_of = |id: u64, s: u64| GlobalAddr(64 * PAGE_BYTES + (s * THREADS + id) * 8);

    let handles: Vec<_> = (0..THREADS)
        .map(|id| {
            let dsm = dsm.clone();
            let net = net.clone();
            std::thread::spawn(move || {
                let node = (id % NODES) as u16;
                let mut t = simnet::testkit::thread(&net, node, (id / NODES) as usize);
                let mut remote_writes = 0u64;
                for round in 0..ROUNDS {
                    for s in 0..SLOTS {
                        let addr = addr_of(id, s);
                        if dsm.home_of(addr) != node {
                            remote_writes += 1;
                        }
                        dsm.write_u64(&mut t, addr, id << 32 | round << 8 | s);
                    }
                    dsm.sd_fence(&mut t);
                    dsm.si_fence(&mut t);
                    for s in 0..SLOTS {
                        // Our stripe is ours alone: reads must return our
                        // latest value no matter what other threads' fences
                        // and evictions are doing to shared slots.
                        assert_eq!(
                            dsm.read_u64(&mut t, addr_of(id, s)),
                            id << 32 | round << 8 | s,
                            "thread {id} round {round} slot {s}"
                        );
                    }
                }
                dsm.sd_fence(&mut t);
                remote_writes
            })
        })
        .collect();
    let total_remote_writes: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    // Home memory: the deterministic last round survived.
    for id in 0..THREADS {
        for s in 0..SLOTS {
            assert_eq!(
                dsm.peek_u64(addr_of(id, s)),
                id << 32 | (ROUNDS - 1) << 8 | s,
                "thread {id} slot {s} final value"
            );
        }
    }

    // Stats totals (merged across shards) match the access counts exactly.
    let s = dsm.stats().snapshot();
    assert_eq!(
        s.write_hits + s.write_faults,
        total_remote_writes,
        "every remote word write is a hit or a fault: {s:?}"
    );
    assert_eq!(s.sd_fences, THREADS * (ROUNDS + 1));
    assert_eq!(s.si_fences, THREADS * ROUNDS);
    assert!(s.writebacks > 0, "tiny write buffer must have overflowed");
    assert!(
        s.read_hits + s.read_misses >= THREADS * ROUNDS * SLOTS * 2 / NODES,
        "remote reads unaccounted: {s:?}"
    );

    // Quiescent: all internal invariants hold (write buffers match dirty
    // sets, registrations are subsets of home maps, ...).
    let problems = dsm.check_invariants();
    assert!(problems.is_empty(), "invariants violated: {problems:?}");
}

/// Seqlock torture: two read-only pages fight over a single cache slot
/// while reader threads race the evict/refill churn on the lock-free fast
/// path. A reader must never observe page A's identity with page B's data,
/// no matter how the optimistic read interleaves with retags.
#[test]
fn seqlock_readers_never_mix_pages_under_eviction_churn() {
    let topo = ClusterTopology {
        nodes: 2,
        sockets_per_node: 2,
        cores_per_socket: 2,
    };
    let net = Interconnect::new(topo, CostModel::paper_2011());
    let cfg = CarinaConfig {
        cache: CacheConfig::new(1, 1), // every remote page shares the slot
        ..Default::default()
    };
    let dsm = Dsm::new(net.clone(), 1 << 20, cfg);

    // Two remote (odd ⇒ homed node 1) pages with distinct value patterns.
    let a = GlobalAddr(PAGE_BYTES);
    let b = GlobalAddr(3 * PAGE_BYTES);
    const VA: u64 = 0xA5A5_A5A5_A5A5_A5A5;
    const VB: u64 = 0x5B5B_5B5B_5B5B_5B5B;
    dsm.poke_u64(a, VA);
    dsm.poke_u64(b, VB);

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|core| {
            let dsm = dsm.clone();
            let net = net.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut t = SimThread::new(topo.loc(NodeId(0), core), net);
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(dsm.read_u64(&mut t, a), VA, "page A returned foreign data");
                    assert_eq!(dsm.read_u64(&mut t, b), VB, "page B returned foreign data");
                    reads += 2;
                }
                reads
            })
        })
        .collect();

    // Churner: force A/B to alternate in the slot (retag + refill storms)
    // and sprinkle SI fences so occupancy flips too.
    let mut t = SimThread::new(topo.loc(NodeId(0), 3), net);
    for round in 0..20_000u64 {
        let _ = dsm.read_u64(&mut t, if round % 2 == 0 { a } else { b });
        if round % 64 == 0 {
            dsm.si_fence(&mut t);
        }
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);

    let s = dsm.stats().snapshot();
    // The slot is shared by all of node 0's threads: the churn must have
    // produced both fast-path hits and refill misses.
    assert!(s.read_hits > 0 && s.read_misses > 0, "churn degenerate: {s:?}");
    let problems = dsm.check_invariants();
    assert!(problems.is_empty(), "invariants violated: {problems:?}");
}
