//! Figure 11 (virtual-time companion): single-node lock scaling measured
//! on the simulator's clock rather than the host's.
//!
//! The real-time harness (`fig11_locks_single_node`) is the faithful
//! reproduction but needs as many host cores as benchmark threads. This
//! companion models the same microbenchmark on a one-node simulated
//! machine, so the *shape* — delegation on top, cohort next, a plain
//! mutex saturating early — is visible on any host.
//!
//! Lock models on one node: QD = `Hqdl` (delegation, batched, detached
//! inserts); Cohort = `DsmCohortLock` (local tier + fairness-bounded
//! passes); Mutex = bare `DsmGlobalLock` with per-section fences and a
//! cache-line-bouncing hand-off (every acquire pays an inter-socket hop —
//! the non-NUMA-aware behaviour that makes Pthreads mutexes flatten).

use argo::{ArgoConfig, ArgoMachine};
use bench::prioq::{LocalWork, WORK_UNIT_CYCLES};
use bench::{cell, f2, full_scale, print_header, print_row};
use std::sync::Arc;
use vela::{DsmCohortLock, DsmGlobalLock, DsmPairingHeap, Hqdl};

const HEAP_CAP: u64 = 1 << 16;
const PREFILL: u64 = 512;

fn machine(threads: usize) -> Arc<ArgoMachine> {
    let mut cfg = ArgoConfig::small(1, threads);
    cfg.bytes_per_node = 16 << 20;
    ArgoMachine::new(cfg)
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Qd,
    Cohort,
    Mutex,
}

fn run(kind: Kind, threads: usize, ops: usize) -> f64 {
    let m = machine(threads);
    let dsm = m.dsm().clone();
    let base = dsm
        .allocator()
        .alloc(DsmPairingHeap::bytes_needed(HEAP_CAP), 8)
        .expect("mem");
    let qd = Hqdl::new(dsm.clone(), 1024);
    let cohort = DsmCohortLock::new(dsm.clone(), 48);
    let mutex = DsmGlobalLock::new(simnet::NodeId(0));
    let d0 = dsm.clone();
    let report = m.run(move |ctx| {
        if ctx.tid() == 0 {
            let h = DsmPairingHeap::init(&d0, &mut ctx.thread, base, HEAP_CAP);
            for k in 0..PREFILL {
                h.insert(&d0, &mut ctx.thread, k.wrapping_mul(2654435761));
            }
        }
        ctx.start_measurement();
        let mut w = LocalWork::new(ctx.tid() as u64 + 1);
        let heap = DsmPairingHeap::attach(base);
        for _ in 0..ops {
            w.run(48);
            ctx.thread.compute(48 * WORK_UNIT_CYCLES);
            let insert = w.coin();
            let key = w.key();
            let dsm = d0.clone();
            match kind {
                Kind::Qd => {
                    if insert {
                        let _ = qd.delegate(&mut ctx.thread, move |ht| heap.insert(&dsm, ht, key));
                    } else {
                        qd.delegate_wait(&mut ctx.thread, move |ht| {
                            heap.extract_min(&dsm, ht);
                        });
                    }
                }
                Kind::Cohort => {
                    cohort.with(&mut ctx.thread, |ht| {
                        if insert {
                            heap.insert(&d0, ht, key);
                        } else {
                            heap.extract_min(&d0, ht);
                        }
                    });
                }
                Kind::Mutex => {
                    mutex.acquire(&mut ctx.thread);
                    // A vanilla mutex bounces its cache line to every
                    // acquirer regardless of placement.
                    ctx.thread
                        .compute(ctx.thread.net().cost().intersocket_latency);
                    if insert {
                        heap.insert(&d0, &mut ctx.thread, key);
                    } else {
                        heap.extract_min(&d0, &mut ctx.thread);
                    }
                    mutex.release(&mut ctx.thread, carina::Published::default());
                }
            }
        }
        if kind == Kind::Qd {
            qd.delegate_wait(&mut ctx.thread, |_| {});
        }
        0.0
    });
    (ops * threads) as f64 / (report.cycles as f64 / m.config().cost.cpu_ghz / 1e3)
}

fn main() {
    let full = full_scale();
    let ops = if full { 400 } else { 150 };
    let thread_counts: &[usize] = if full {
        &[1, 2, 4, 6, 8, 10, 12, 14, 16]
    } else {
        &[1, 2, 4, 8]
    };
    print_header(
        "Figure 11 (virtual): single-node lock scaling (ops/us)",
        &["threads", "QD", "Cohort", "Mutex"],
    );
    for &t in thread_counts {
        print_row(&[
            cell(t),
            f2(run(Kind::Qd, t, ops)),
            f2(run(Kind::Cohort, t, ops)),
            f2(run(Kind::Mutex, t, ops)),
        ]);
    }
    println!("\nShape check (paper): all rise until the lock saturates; QD sustains");
    println!("the highest plateau (batched execution on one core), Cohort second,");
    println!("the location-blind mutex lowest.");
}
