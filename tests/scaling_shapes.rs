//! Cheap shape assertions: the paper's headline qualitative results must
//! hold even at the reduced problem sizes CI can afford. (The bench
//! binaries regenerate the full figures; these tests pin the *direction*
//! of every claim so a regression is caught by `cargo test`.)

use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaConfig, ClassificationMode};
use vela::{DsmCohortLock, DsmPairingHeap, Hqdl};
use workloads::{blackscholes, cg};

/// Figure 8 direction: P/S3 is no slower than no-classification (S) on a
/// classification-friendly workload, and strictly faster on Blackscholes.
/// The refill hides most of S's re-fetch latency on the read-only inputs,
/// so classification's gain shows as traffic and kept pages more than as
/// time: S re-reads three times the bytes.
#[test]
fn ps3_beats_no_classification_on_blackscholes() {
    let p = blackscholes::BsParams {
        options: 4096,
        iterations: 3,
    };
    let run = |mode| {
        let mut cfg = ArgoConfig::small(4, 2);
        cfg.carina = CarinaConfig::with_mode(mode);
        blackscholes::run_argo(&ArgoMachine::new(cfg), p)
    };
    let s = run(ClassificationMode::AllShared);
    let ps3 = run(ClassificationMode::Ps3);
    assert!(s.checksum_matches(&ps3, 1e-9));
    assert!(ps3.cycles < s.cycles, "P/S3 {} vs S {}", ps3.cycles, s.cycles);
    let (ps3_bytes, s_bytes) = (ps3.net.bytes_read, s.net.bytes_read);
    assert!(2 * ps3_bytes <= s_bytes, "bytes read: P/S3 {ps3_bytes} vs S {s_bytes}");
    // And the classification actually kept pages at SI fences.
    assert!(ps3.coherence.si_kept > ps3.coherence.si_invalidated);
}

/// Figure 9 direction: a tiny write buffer is much slower than a large one.
/// LU at n=128/b=16 is the stressor: a thread's consecutive blocks revisit
/// the same pages (one matrix row = one page), so a 1-page buffer
/// downgrades hot pages between blocks and every revisit refaults —
/// deterministically, with one thread per node (no scheduling luck).
#[test]
fn tiny_write_buffer_is_catastrophic() {
    let p = workloads::lu::LuParams { n: 128, block: 16 };
    let run = |wb| {
        let mut cfg = ArgoConfig::small(4, 1);
        cfg.carina = CarinaConfig::with_write_buffer(wb);
        workloads::lu::run_argo(&ArgoMachine::new(cfg), p)
    };
    let tiny = run(1);
    let large = run(4096);
    assert!(tiny.checksum_matches(&large, 1e-9));
    assert!(
        tiny.cycles > large.cycles,
        "tiny buffer {} not slower than large {}",
        tiny.cycles,
        large.cycles
    );
    assert!(
        tiny.coherence.writebacks > large.coherence.writebacks,
        "Figure 10 direction: writebacks must fall with buffer size"
    );
}

/// Figure 12 direction: HQDL sustains higher critical-section throughput
/// than the distributed cohort lock on a multi-node cluster.
#[test]
fn hqdl_beats_cohort_over_dsm() {
    fn run(hqdl: bool) -> u64 {
        let m = ArgoMachine::new(ArgoConfig::small(3, 3));
        let dsm = m.dsm().clone();
        let base = dsm
            .allocator()
            .alloc(DsmPairingHeap::bytes_needed(4096), 8)
            .unwrap();
        let qd = Hqdl::new(dsm.clone(), 256);
        let cohort = DsmCohortLock::new(dsm.clone(), 48);
        let d0 = dsm.clone();
        m.run(move |ctx| {
            if ctx.tid() == 0 {
                let h = DsmPairingHeap::init(&d0, &mut ctx.thread, base, 4096);
                for k in 0..128 {
                    h.insert(&d0, &mut ctx.thread, k * 3);
                }
            }
            ctx.start_measurement();
            let heap = DsmPairingHeap::attach(base);
            for i in 0..60u64 {
                let dsm = d0.clone();
                let k = i * 17 + ctx.tid() as u64;
                if hqdl {
                    if i % 2 == 0 {
                        let _ = qd.delegate(&mut ctx.thread, move |ht| heap.insert(&dsm, ht, k));
                    } else {
                        qd.delegate_wait(&mut ctx.thread, move |ht| {
                            heap.extract_min(&dsm, ht);
                        });
                    }
                } else if i % 2 == 0 {
                    cohort.with(&mut ctx.thread, |ht| heap.insert(&d0, ht, k));
                } else {
                    cohort.with(&mut ctx.thread, |ht| {
                        heap.extract_min(&d0, ht);
                    });
                }
            }
            if hqdl {
                qd.delegate_wait(&mut ctx.thread, |_| {});
            }
            0.0
        })
        .cycles
    }
    let hqdl_cycles = run(true);
    let cohort_cycles = run(false);
    assert!(
        hqdl_cycles < cohort_cycles,
        "HQDL {hqdl_cycles} not faster than cohort {cohort_cycles}"
    );
}

/// Figure 13f direction: going from 1 to 4 nodes helps Argo's CG more than
/// the PGAS (UPC-style) version, whose per-rank bulk pulls scale worse.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-size CG; run with --release")]
fn argo_cg_scales_better_than_pgas() {
    // Large enough that compute dominates reductions — at toy sizes both
    // systems are communication-bound and neither scales.
    let p = cg::CgParams {
        n: 16_384,
        nnz_per_row: 12,
        iterations: 3,
    };
    let argo1 = cg::run_argo(&ArgoMachine::new(ArgoConfig::small(1, 4)), p);
    let argo4 = cg::run_argo(&ArgoMachine::new(ArgoConfig::small(4, 4)), p);
    let pgas1 = cg::run_pgas(1, 4, p);
    let pgas4 = cg::run_pgas(4, 4, p);
    let argo_gain = argo1.cycles as f64 / argo4.cycles as f64;
    let pgas_gain = pgas1.cycles as f64 / pgas4.cycles as f64;
    assert!(
        argo_gain > pgas_gain,
        "argo gain {argo_gain:.2} vs pgas gain {pgas_gain:.2}"
    );
}

/// Passive vs active directory: the ablation must never favour handlers.
#[test]
fn passive_directory_is_never_slower() {
    // 3000 options: deliberately *not* page-aligned to the thread count,
    // so chunks straddle remote pages. (2048 options on 8 threads puts
    // every chunk on its own home node — accidentally perfect placement
    // with zero traffic.)
    let p = blackscholes::BsParams {
        options: 3000,
        iterations: 2,
    };
    let passive = blackscholes::run_argo(&ArgoMachine::new(ArgoConfig::small(4, 2)), p);
    let mut cfg = ArgoConfig::small(4, 2);
    cfg.carina.active_directory = true;
    let active = blackscholes::run_argo(&ArgoMachine::new(cfg), p);
    assert!(passive.cycles <= active.cycles);
    assert_eq!(passive.net.handler_invocations, 0);
    assert!(active.net.handler_invocations > 0);
}

/// Blackscholes keeps scaling with node count in Argo (Figure 13c
/// direction) at fixed problem size.
#[test]
fn blackscholes_argo_scales_with_nodes() {
    let p = blackscholes::BsParams {
        options: 8192,
        iterations: 3,
    };
    let seq = blackscholes::run_argo(&ArgoMachine::new(ArgoConfig::small(1, 1)), p);
    let n2 = blackscholes::run_argo(&ArgoMachine::new(ArgoConfig::small(2, 4)), p);
    let n4 = blackscholes::run_argo(&ArgoMachine::new(ArgoConfig::small(4, 4)), p);
    let s2 = n2.speedup_over(&seq);
    let s4 = n4.speedup_over(&seq);
    assert!(s2 > 1.5, "2-node speedup {s2:.2}");
    assert!(s4 > s2, "4 nodes ({s4:.2}) not faster than 2 ({s2:.2})");
}
