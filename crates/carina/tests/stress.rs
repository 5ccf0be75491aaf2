//! Stress tests: pathological cache geometries, conflict storms, slice
//! boundary cases, and concurrent mixed workloads — the protocol must
//! stay correct (home memory converges to the DRF-expected values) no
//! matter how hostile the configuration. Also the accessor cost rule
//! (`access_forms_agree`): scalars, one-element slices and one multi-page
//! slice leave identical memory and counters for `u64` and `f64` under all
//! three policies, and a scalar differs from a one-word slice by exactly
//! the streaming charge.

use carina::config::STREAM_WORD_CYCLES;
use carina::{CarinaConfig, CarinaSiSd, Coherence, CoherenceSnapshot, Dsm, Pyxis, Tardis};
use mem::{CacheConfig, GlobalAddr, Word, PAGE_BYTES};
use simnet::testkit::{thread, tiny_net};
use simnet::{ClusterTopology, CostModel, Interconnect, NodeId, SimThread};
use std::sync::Arc;

fn cluster_with(
    nodes: usize,
    cfg: CarinaConfig,
) -> (Arc<Dsm>, Arc<Interconnect>, ClusterTopology) {
    let net = tiny_net(nodes);
    let topo = *net.topology();
    let dsm = Dsm::new(net.clone(), 8 << 20, cfg);
    (dsm, net, topo)
}

#[test]
fn conflict_storm_tiny_cache_preserves_all_writes() {
    // A 2-slot cache with every page fighting for the same slots: constant
    // evictions with dirty flushes. Every written value must survive.
    let cfg = CarinaConfig {
        cache: CacheConfig::new(2, 1),
        write_buffer_pages: 1,
        ..Default::default()
    };
    let (dsm, net, topo) = cluster_with(2, cfg);
    let mut t = SimThread::new(topo.loc(NodeId(0), 0), net);
    // Write one word on each of 64 distinct pages (odd pages are remote).
    for p in 0..64u64 {
        let addr = GlobalAddr((2 * p + 1) * PAGE_BYTES); // all homed node 1
        dsm.write_u64(&mut t, addr, 7000 + p);
    }
    dsm.sd_fence(&mut t);
    for p in 0..64u64 {
        let addr = GlobalAddr((2 * p + 1) * PAGE_BYTES);
        assert_eq!(dsm.peek_u64(addr), 7000 + p, "lost write on page {p}");
    }
    let s = dsm.stats().snapshot();
    assert!(s.evictions > 0, "storm did not evict");
}

#[test]
fn four_page_lines_with_evictions_stay_coherent() {
    // 2 slots × 4-page lines: any two distinct lines conflict. Interleave
    // reads and writes across lines so fills/evictions/flushes churn.
    let cfg = CarinaConfig {
        cache: CacheConfig::new(2, 4),
        ..Default::default()
    };
    let (dsm, net, topo) = cluster_with(2, cfg);
    let mut t = SimThread::new(topo.loc(NodeId(0), 0), net);
    for round in 0..4u64 {
        for line in 0..6u64 {
            // One odd (remote) page per line.
            let page = line * 4 + 1;
            let addr = GlobalAddr(page * PAGE_BYTES).offset(8 * round);
            dsm.write_u64(&mut t, addr, round * 100 + line);
        }
    }
    dsm.sd_fence(&mut t);
    for round in 0..4u64 {
        for line in 0..6u64 {
            let page = line * 4 + 1;
            let addr = GlobalAddr(page * PAGE_BYTES).offset(8 * round);
            assert_eq!(dsm.peek_u64(addr), round * 100 + line);
        }
    }
}

#[test]
fn slices_spanning_many_pages_round_trip() {
    let (dsm, net, topo) = cluster_with(3, CarinaConfig::default());
    let mut t = SimThread::new(topo.loc(NodeId(0), 0), net);
    // Start mid-page, span 5 pages, cross home boundaries (interleaved).
    let start = GlobalAddr(7 * PAGE_BYTES + 1000 * 8 % PAGE_BYTES);
    let n = (5 * 512) + 123;
    let data: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 7.0).collect();
    dsm.write_f64_slice(&mut t, start, &data);
    let mut back = vec![0.0f64; n];
    dsm.read_f64_slice(&mut t, start, &mut back);
    assert_eq!(data, back);
    // And via single-element reads (different code path).
    for (i, &expect) in data.iter().enumerate().step_by(97) {
        assert_eq!(dsm.read_f64(&mut t, start.offset(i as u64 * 8)), expect);
    }
}

/// How [`access_forms_agree`] issues its program.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Form {
    Scalars,
    UnitSlices,
    OneSlice,
}

/// One program — write `LEN` words starting mid-page (two remote pages,
/// two home pages, ragged at both ends), release, acquire, read them back
/// — issued in the given form on a fresh two-node cluster. Returns final
/// home memory, the coherence counters and the thread's clock.
fn run_form<W: Word + PartialEq + std::fmt::Debug, C: Coherence>(
    form: Form,
    val: fn(u64) -> W,
) -> (Vec<u64>, CoherenceSnapshot, u64) {
    const LEN: usize = 12 + 2 * 512 + 7;
    let net = tiny_net(2);
    let dsm = Dsm::<_, C>::with_policy(net.clone(), 8 << 20, CarinaConfig::default());
    let mut t = thread(&net, 0, 0);
    let base = GlobalAddr(3 * PAGE_BYTES + 500 * 8);
    let at = |i: usize| base.offset(8 * i as u64);
    let data: Vec<W> = (0..LEN as u64).map(val).collect();
    let mut back = data.clone();
    match form {
        Form::Scalars => {
            for (i, &v) in data.iter().enumerate() {
                dsm.try_write(&mut t, at(i), v).unwrap();
            }
        }
        Form::UnitSlices => {
            for (i, v) in data.iter().enumerate() {
                dsm.try_write_slice(&mut t, at(i), std::slice::from_ref(v)).unwrap();
            }
        }
        Form::OneSlice => dsm.try_write_slice(&mut t, base, &data).unwrap(),
    }
    dsm.sd_fence(&mut t);
    dsm.si_fence(&mut t);
    match form {
        Form::Scalars => {
            for (i, v) in back.iter_mut().enumerate() {
                *v = dsm.try_read(&mut t, at(i)).unwrap();
            }
        }
        Form::UnitSlices => {
            for (i, v) in back.iter_mut().enumerate() {
                dsm.try_read_slice(&mut t, at(i), std::slice::from_mut(v)).unwrap();
            }
        }
        Form::OneSlice => dsm.try_read_slice(&mut t, base, &mut back).unwrap(),
    }
    assert_eq!(back, data, "{form:?} read back something it did not write");
    // An empty slice touches nothing: no cycle, no counter.
    let (clock, before) = (t.now(), dsm.stats().snapshot());
    dsm.try_read_slice::<W>(&mut t, base, &mut []).unwrap();
    dsm.try_write_slice::<W>(&mut t, base, &[]).unwrap();
    assert_eq!((t.now(), dsm.stats().snapshot()), (clock, before));
    assert!(dsm.check_invariants().is_empty());
    let memory = (0..LEN).map(|i| dsm.peek_u64(at(i))).collect();
    (memory, before, clock)
}

/// The cost rule the one accessor core rests on: a scalar access *is* a
/// one-word run. Scalars and one-element slices therefore leave identical
/// memory and identical counters, and their clocks differ by exactly the
/// streaming charge — one `STREAM_WORD_CYCLES` per word, which scalars do
/// not pay. A single multi-page slice moves the same data through the same
/// misses, faults and write-backs; it only checks the cache once per page
/// run instead of once per word, so it is compared modulo the hit counters
/// — and modulo `lease_renewals`, pinned to `renewals` (scalar form, single
/// slice): its store of the whole remote page 5 registers only as a writer
/// and takes no lease, so the read-back's registration of page 5 is a
/// grant where the word-0 store's lease made it a renewal.
fn access_forms_agree<W: Word + PartialEq + std::fmt::Debug, C: Coherence>(
    val: fn(u64) -> W,
    renewals: [u64; 2],
) {
    let (mem_s, snap_s, clock_s) = run_form::<W, C>(Form::Scalars, val);
    let (mem_u, snap_u, clock_u) = run_form::<W, C>(Form::UnitSlices, val);
    let (mem_o, snap_o, _) = run_form::<W, C>(Form::OneSlice, val);
    assert_eq!(mem_s, mem_u);
    assert_eq!(mem_s, mem_o);
    assert_eq!(snap_s, snap_u, "{}", C::NAME);
    let words = 2 * mem_s.len() as u64; // each word written once, read once
    assert_eq!(clock_u - clock_s, words * STREAM_WORD_CYCLES, "{}", C::NAME);
    assert_eq!([snap_s.lease_renewals, snap_o.lease_renewals], renewals, "{}", C::NAME);
    let others = |s: &CoherenceSnapshot| -> Vec<(&str, u64)> {
        let skip = |name: &str| name.ends_with("_hits") || name == "lease_renewals";
        s.fields().filter(|&(name, _)| !skip(name)).collect()
    };
    assert_eq!(others(&snap_s), others(&snap_o), "{}", C::NAME);
}

#[test]
fn slice_of_one_element_and_empty_slice() {
    // Tardis renews the leases of remote pages 3 and 5 at the read-back;
    // the single slice's whole-page store of 5 took none (2 → 1).
    access_forms_agree::<u64, CarinaSiSd>(|i| i * 3 + 1, [0, 0]);
    access_forms_agree::<u64, Tardis>(|i| i * 3 + 1, [2, 1]);
    access_forms_agree::<u64, Pyxis>(|i| i * 3 + 1, [0, 0]);
    access_forms_agree::<f64, CarinaSiSd>(|i| i as f64 * 1.5 - 7.0, [0, 0]);
    access_forms_agree::<f64, Tardis>(|i| i as f64 * 1.5 - 7.0, [2, 1]);
    access_forms_agree::<f64, Pyxis>(|i| i as f64 * 1.5 - 7.0, [0, 0]);
}

#[test]
fn concurrent_mixed_access_converges() {
    // 6 real threads across 3 nodes hammer disjoint striped slots with
    // barrier-free writes, then fence; home must hold exactly the last
    // value each thread wrote to each of its slots.
    let (dsm, net, topo) = cluster_with(3, CarinaConfig::default());
    let handles: Vec<_> = (0..6u64)
        .map(|id| {
            let dsm = dsm.clone();
            let net = net.clone();
            std::thread::spawn(move || {
                let node = (id % 3) as u16;
                let mut t = SimThread::new(topo.loc(NodeId(node), (id / 3) as usize), net);
                // 50 slots, strided so threads never share a word.
                for round in 0..20u64 {
                    for s in 0..50u64 {
                        let addr = GlobalAddr(((s * 6 + id) * 8) + 64 * PAGE_BYTES);
                        dsm.write_u64(&mut t, addr, id * 1_000_000 + round * 1000 + s);
                    }
                }
                dsm.sd_fence(&mut t);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for id in 0..6u64 {
        for s in 0..50u64 {
            let addr = GlobalAddr(((s * 6 + id) * 8) + 64 * PAGE_BYTES);
            assert_eq!(
                dsm.peek_u64(addr),
                id * 1_000_000 + 19 * 1000 + s,
                "thread {id} slot {s}"
            );
        }
    }
}

#[test]
fn single_page_cache_still_correct_under_producer_consumer() {
    let cfg = CarinaConfig {
        cache: CacheConfig::new(1, 1),
        ..Default::default()
    };
    let (dsm, net, topo) = cluster_with(2, cfg);
    let mut t0 = SimThread::new(topo.loc(NodeId(0), 0), net.clone());
    let mut t1 = SimThread::new(topo.loc(NodeId(1), 0), net);
    for round in 0..10u64 {
        // Producer writes two pages (they conflict in its 1-slot cache).
        let a = GlobalAddr(3 * PAGE_BYTES);
        let b = GlobalAddr(5 * PAGE_BYTES);
        dsm.write_u64(&mut t0, a, round);
        dsm.write_u64(&mut t0, b, round * 2);
        dsm.sd_fence(&mut t0);
        dsm.si_fence(&mut t1);
        assert_eq!(dsm.read_u64(&mut t1, a), round);
        assert_eq!(dsm.read_u64(&mut t1, b), round * 2);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "96-node cluster; run with --release")]
fn many_nodes_full_map_boundaries() {
    // 96 nodes exercises the second full-map word (nodes >= 64).
    let topo = ClusterTopology {
        nodes: 96,
        sockets_per_node: 1,
        cores_per_socket: 1,
    };
    let net = Interconnect::new(topo, CostModel::paper_2011());
    let dsm = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
    let page = GlobalAddr(95 * PAGE_BYTES); // homed on node 95
    // Nodes 60..70 all read, then node 70 writes.
    let mut threads: Vec<SimThread> = (60..71)
        .map(|n| SimThread::new(topo.loc(NodeId(n), 0), net.clone()))
        .collect();
    for t in threads.iter_mut().take(10) {
        dsm.read_u64(t, page);
    }
    let v = dsm.home_dir_view(page);
    assert_eq!(v.readers.count_ones(), 10);
    dsm.write_u64(&mut threads[10], page, 9);
    assert_eq!(
        dsm.home_dir_view(page).writer_class(),
        carina::WriterClass::Single(70)
    );
    dsm.sd_fence(&mut threads[10]);
    // A reader from the low word re-reads after a fence.
    dsm.si_fence(&mut threads[0]);
    assert_eq!(dsm.read_u64(&mut threads[0], page), 9);
}
