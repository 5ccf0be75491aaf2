//! Figure 11: scaling of lock-synchronized code on a single node —
//! **measured in real time on real threads** (this is the one figure that
//! needs no simulation: our QD/Cohort/Mutex implementations are genuine).
//!
//! Expected shape (paper): QD locking on top (its helper keeps the heap
//! hot in one core's cache and inserts detach), Cohort below it, the
//! Pthreads mutex flat/declining beyond a few threads.

use bench::prioq::LocalWork;
use bench::{cell, f2, full_scale, print_header, print_row};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vela::pairing_heap::PairingHeap;
use vela::{CohortLock, CsLock, PthreadsMutex, QdLock};

/// Run the microbenchmark for `dur` and return ops/µs.
fn throughput<L>(lock: Arc<L>, threads: usize, work_units: usize, dur: Duration) -> f64
where
    L: CsLock<PairingHeap> + Send + Sync + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    // Pre-populate so extract_min usually succeeds.
    lock.with(0, |h| {
        for k in 0..4096u64 {
            h.insert(k);
        }
    });
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let lock = lock.clone();
            let stop = stop.clone();
            let ops = ops.clone();
            std::thread::spawn(move || {
                let mut w = LocalWork::new(t as u64 + 1);
                let socket = t / 4; // paper topology: 4 cores per NUMA node
                let mut local_ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    w.run(work_units);
                    if w.coin() {
                        let k = w.key();
                        lock.with(socket, move |h| h.insert(k));
                    } else {
                        lock.with(socket, |h| {
                            h.extract_min();
                        });
                    }
                    local_ops += 1;
                }
                ops.fetch_add(local_ops, Ordering::Relaxed);
            })
        })
        .collect();
    std::thread::sleep(dur);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("bench thread panicked");
    }
    ops.load(Ordering::Relaxed) as f64 / dur.as_micros() as f64
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!(
            "WARNING: only {cores} CPU core(s) available — this figure measures real\n\
             concurrent lock throughput; with fewer cores than threads the scaling\n\
             series degenerates to timesharing. The lock *ordering* may still show."
        );
    }
    let full = full_scale();
    let dur = Duration::from_millis(if full { 1000 } else { 200 });
    let work_units = 48; // the paper's Figure 11/12 setting
    let thread_counts: &[usize] = if full {
        &[1, 2, 4, 6, 8, 10, 12, 14, 16]
    } else {
        &[1, 2, 4, 8]
    };
    print_header(
        "Figure 11: single-node lock scaling (ops/us, real time)",
        &["threads", "QD", "Cohort", "Pthreads"],
    );
    for &t in thread_counts {
        let qd = throughput(Arc::new(QdLock::new(PairingHeap::new())), t, work_units, dur);
        let cohort = throughput(
            Arc::new(CohortLock::new(4, 48, PairingHeap::new())),
            t,
            work_units,
            dur,
        );
        let mutex = throughput(
            Arc::new(PthreadsMutex::new(PairingHeap::new())),
            t,
            work_units,
            dur,
        );
        print_row(&[cell(t), f2(qd), f2(cohort), f2(mutex)]);
    }
    println!("\nShape check (paper): QD highest at high thread counts; Cohort second;");
    println!("the Pthreads mutex stops scaling after a handful of threads.");
}
