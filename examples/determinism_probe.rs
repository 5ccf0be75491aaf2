//! Determinism probe: drives the Carina protocol engine through a fixed
//! scripted scenario from a *single host thread* (so every interleaving is
//! deterministic) and prints the resulting coherence statistics, virtual
//! clocks, and a memory checksum.
//!
//! Host-side performance work on the engine must not change anything this
//! prints: run it before and after a change and diff the output.
//!
//! ```sh
//! cargo run --release --example determinism_probe > after.txt
//! diff before.txt after.txt
//! ```


// Indexed loops below mirror the reference kernels (multi-array accesses
// keyed by one index); iterator rewrites would obscure them.
#![allow(clippy::needless_range_loop)]
use carina::{CarinaConfig, ClassificationMode, Coherence, Dsm, Tardis};
use mem::{CacheConfig, GlobalAddr, PAGE_BYTES};
use rma::{Endpoint as _, FaultPlan, FaultyTransport, SimTransport, Transport};
use simnet::{ClusterTopology, CostModel, Interconnect, NodeId, SimThread};
use std::sync::Arc;

fn cluster<C: Coherence>(
    nodes: usize,
    config: CarinaConfig,
) -> (Arc<Dsm<SimTransport, C>>, Vec<SimThread>) {
    let topo = ClusterTopology::tiny(nodes);
    let net = Interconnect::new(topo, CostModel::paper_2011());
    let dsm = Dsm::with_policy(net.clone(), 4 << 20, config);
    let threads = (0..nodes)
        .map(|n| SimThread::new(topo.loc(NodeId(n as u16), 0), net.clone()))
        .collect();
    (dsm, threads)
}

/// A fixed workout touching every protocol path: misses, hits, write
/// faults, false sharing, fences, evictions, buffer overflow, and decay.
/// Generic over the coherence policy so the same script pins both the
/// SI/SD engine and the Tardis lease engine.
fn workout<C: Coherence>(header: String, mode: ClassificationMode) {
    let nodes = 3usize;
    let mut cfg = CarinaConfig::with_mode(mode);
    cfg.cache = CacheConfig::new(64, 2); // small enough to force conflicts
    cfg.write_buffer_pages = 4; // small enough to overflow
    let (dsm, mut ts) = cluster::<C>(nodes, cfg);

    // Phase 1: every node reads a shared region homed across the cluster.
    for round in 0..3u64 {
        for n in 0..nodes {
            let t = &mut ts[n];
            for p in 0..24u64 {
                let a = GlobalAddr((p + 1) * PAGE_BYTES + (round % 8) * 64);
                let _ = dsm.read_u64(t, a);
            }
        }
    }
    // Phase 2: staggered writers create P/S + SW/MW mixes and overflow the
    // write buffer.
    for round in 0..4u64 {
        for n in 0..nodes {
            let t = &mut ts[n];
            for p in 0..12u64 {
                let a = GlobalAddr((p + 1 + (n as u64 % 2) * 6) * PAGE_BYTES + round * 8);
                dsm.write_u64(t, a, round * 1000 + p * 10 + n as u64);
            }
            dsm.sd_fence(t);
        }
        for n in 0..nodes {
            dsm.si_fence(&mut ts[n]);
        }
    }
    // Phase 3: conflict evictions (pages far apart map to the same slots).
    for n in 0..nodes {
        let t = &mut ts[n];
        for k in 0..8u64 {
            let a = GlobalAddr((1 + k * 128) * PAGE_BYTES);
            dsm.write_u64(t, a, k + n as u64);
            let _ = dsm.read_u64(t, a);
        }
        dsm.sd_fence(t);
    }
    // Phase 4: slices, both u64 and f64.
    let mut buf = vec![0u64; 1500];
    dsm.write_u64_slice(
        &mut ts[0],
        GlobalAddr(40 * PAGE_BYTES),
        &(0..1500u64).map(|i| i * 3 + 1).collect::<Vec<_>>(),
    );
    dsm.read_u64_slice(&mut ts[1], GlobalAddr(40 * PAGE_BYTES), &mut buf);
    let mut fbuf = vec![0f64; 700];
    dsm.write_f64_slice(
        &mut ts[2],
        GlobalAddr(50 * PAGE_BYTES),
        &(0..700).map(|i| i as f64 * 0.5 - 3.0).collect::<Vec<_>>(),
    );
    dsm.read_f64_slice(&mut ts[0], GlobalAddr(50 * PAGE_BYTES), &mut fbuf);
    for t in &mut ts {
        dsm.sd_fence(t);
        dsm.si_fence(t);
    }
    // Phase 5: decay, then a second ownership pattern.
    dsm.decay_classification(&mut ts[0]);
    for n in 0..nodes {
        let t = &mut ts[n];
        for p in 0..6u64 {
            let a = GlobalAddr((60 + p + n as u64 * 6) * PAGE_BYTES);
            dsm.write_u64(t, a, p + 100 * n as u64);
        }
        dsm.sd_fence(t);
        dsm.si_fence(t);
    }

    let v = dsm.check_invariants();
    assert!(v.is_empty(), "invariants violated: {v:?}");

    // Checksum of home memory over the touched region.
    let mut checksum = 0u64;
    for p in 0..200u64 {
        for w in (0..mem::WORDS_PER_PAGE as u64).step_by(7) {
            checksum = checksum
                .wrapping_mul(1099511628211)
                .wrapping_add(dsm.peek_u64(GlobalAddr(p * PAGE_BYTES + w * 8)));
        }
    }
    let slice_sum: u64 = buf.iter().sum();
    let fslice_sum: f64 = fbuf.iter().sum();
    let s = dsm.stats().snapshot();
    println!("=== {header} ===");
    println!("checksum        {checksum}");
    println!("slice_sum       {slice_sum}");
    println!("fslice_sum      {fslice_sum}");
    for (n, t) in ts.iter().enumerate() {
        println!("clock[{n}]        {}", t.now());
    }
    println!("{s:#?}");
    println!("net {:#?}", dsm.net().stats().snapshot());
}

/// The faulted half of the probe: the same style of fixed single-threaded
/// scenario, but driven through a [`FaultyTransport`] with a seeded plan.
/// Everything here is deterministic — the fault schedule is a pure function
/// of the seed and the verb sequence, the backoff schedule of the retry
/// policy — so the checksum, the clocks, the injection counts, *and* the
/// retry counters are all pinned by the committed baseline. The checksum
/// must also be bit-identical to the fault-free run of the same scenario:
/// faults may only ever perturb timing and accounting.
fn faulted_scenario(plan: FaultPlan) -> (u64, Vec<u64>, u64, u64, rma::FaultSnapshot) {
    let nodes = 3usize;
    let topo = ClusterTopology::tiny(nodes);
    let net = FaultyTransport::wrap(Interconnect::new(topo, CostModel::paper_2011()), plan);
    let dsm: Arc<Dsm<FaultyTransport<SimTransport>>> =
        Dsm::new(net.clone(), 4 << 20, CarinaConfig::default());
    let mut ts: Vec<_> = (0..nodes)
        .map(|n| <FaultyTransport<SimTransport> as Transport>::endpoint(&net, topo.loc(NodeId(n as u16), 0)))
        .collect();
    for round in 0..4u64 {
        for n in 0..nodes {
            let t = &mut ts[n];
            for p in 0..16u64 {
                let a = GlobalAddr((p + 1) * PAGE_BYTES + round * 16);
                dsm.write_u64(t, a, round * 1000 + p * 10 + n as u64);
                let _ = dsm.read_u64(t, a);
            }
            dsm.sd_fence(t);
        }
        for n in 0..nodes {
            dsm.si_fence(&mut ts[n]);
        }
    }
    let v = dsm.check_invariants();
    assert!(v.is_empty(), "invariants violated under faults: {v:?}");
    let mut checksum = 0u64;
    for p in 0..24u64 {
        for w in (0..mem::WORDS_PER_PAGE as u64).step_by(7) {
            checksum = checksum
                .wrapping_mul(1099511628211)
                .wrapping_add(dsm.peek_u64(GlobalAddr(p * PAGE_BYTES + w * 8)));
        }
    }
    let s = dsm.stats().snapshot();
    (
        checksum,
        ts.iter().map(|t| t.now()).collect(),
        s.verb_retries,
        s.verb_exhaustions,
        net.injected(),
    )
}

fn faulted_probe(seed: u64) {
    let (clean_sum, _, clean_retries, _, _) = faulted_scenario(FaultPlan::disabled());
    assert_eq!(clean_retries, 0, "a healthy fabric must not retry");
    let (sum, clocks, retries, exhaustions, injected) = faulted_scenario(FaultPlan::seeded(seed));
    println!("=== faulted seed {seed} ===");
    println!("checksum        {sum}");
    println!("matches_clean   {}", sum == clean_sum);
    for (n, c) in clocks.iter().enumerate() {
        println!("clock[{n}]        {c}");
    }
    println!("verb_retries    {retries}");
    println!("verb_exhaustions {exhaustions}");
    println!("injected {injected:?}");
    assert_eq!(sum, clean_sum, "faults changed the data plane");
    assert_eq!(exhaustions, 0, "a mild plan exhausted a retry budget");
}

fn main() {
    // `determinism_probe tardis` pins the timestamp-lease policy against
    // results/determinism_baseline_tardis.txt, `determinism_probe pyxis`
    // pins the hybrid (mode switches included) against
    // results/determinism_baseline_pyxis.txt; the default run pins the
    // SI/SD policy (all three classification modes) plus the faulted
    // sections against results/determinism_baseline.txt.
    match std::env::args().nth(1).as_deref() {
        Some("tardis") => {
            workout::<Tardis>("policy tardis".to_string(), ClassificationMode::Ps3);
            return;
        }
        Some("pyxis") => {
            workout::<carina::Pyxis>("policy pyxis".to_string(), ClassificationMode::Ps3);
            return;
        }
        _ => {}
    }
    for mode in [
        ClassificationMode::AllShared,
        ClassificationMode::PsNaive,
        ClassificationMode::Ps3,
    ] {
        workout::<carina::CarinaSiSd>(format!("mode {mode:?}"), mode);
    }
    for seed in [2026u64, 4052] {
        faulted_probe(seed);
    }
}

