//! Fence-sweep cost vs. cache *residency* — the regression guard for the
//! O(resident) sweep work.
//!
//! An SI fence must examine every resident page, but it should owe nothing
//! for the empty slots of a roomy cache: the default geometry is 8192
//! slots, and a thread that touched 3 pages should fence in nanoseconds,
//! not in time proportional to the cache size. These benchmarks pin a
//! node's residency at a handful vs. thousands of pages (out of the same
//! 8192-slot cache) and time the fence: cost must track the first number,
//! not the second.
//!
//! Residency is steady across iterations because read-only pages are
//! Private under P/S3 classification, and private pages survive SI fences.
//!
//! Set `LYRA_DISABLED=1` to run with the flight recorder off: timing both
//! configurations back to back shows what always-on recording costs here.

use carina::{CarinaConfig, Dsm};
use criterion::{criterion_group, criterion_main, Criterion};
use mem::{GlobalAddr, PAGE_BYTES};
use simnet::{ClusterTopology, CostModel, Interconnect, NodeId, SimThread};
use std::sync::Arc;

/// A node-0 thread with exactly `pages` remote pages resident in its
/// (default: 8192-slot) page cache.
fn resident_dsm(pages: u64) -> (Arc<Dsm>, SimThread) {
    let topo = ClusterTopology::tiny(2);
    let net = Interconnect::new(topo, CostModel::paper_2011());
    let dsm = Dsm::new(net.clone(), 64 << 20, CarinaConfig::default());
    if std::env::var_os("LYRA_DISABLED").is_some() {
        dsm.lyra().set_enabled(false);
    }
    let mut t = SimThread::new(topo.loc(NodeId(0), 0), net);
    // Odd pages are homed at node 1 (interleaved homes): reading them from
    // node 0 fills distinct cache slots. Nobody else touches them, so they
    // classify Private and SI fences keep them resident.
    for i in 0..pages {
        let _ = dsm.read_u64(&mut t, GlobalAddr((2 * i + 1) * PAGE_BYTES));
    }
    (dsm, t)
}

fn bench_fences(c: &mut Criterion) {
    let slots = CarinaConfig::default().cache.lines;
    let mut g = c.benchmark_group("fences");
    for &resident in &[3u64, 3000] {
        let (dsm, mut t) = resident_dsm(resident);
        g.bench_function(format!("si_fence/resident_{resident}_of_{slots}"), |b| {
            b.iter(|| dsm.si_fence(&mut t))
        });
        // Acquire+release pair, as a lock handoff would issue.
        let (dsm, mut t) = resident_dsm(resident);
        g.bench_function(format!("full_fence/resident_{resident}_of_{slots}"), |b| {
            b.iter(|| {
                dsm.sd_fence(&mut t);
                dsm.si_fence(&mut t);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fences);
criterion_main!(benches);
