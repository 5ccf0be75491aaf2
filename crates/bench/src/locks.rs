//! Lock scaling (Figs. 11 and 12) and the two lock ablations, all over
//! the §5.3 priority queue ([`crate::prioq`]).

use crate::prioq::{cohort, hqdl, mutex, LocalWork, Queue, WORK_UNITS};
use crate::{arrow, check, threads_per_node, Check, Claim, Figure, Table};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;
use vela::pairing_heap::PairingHeap;
use vela::{CohortLock, CsLock, FencePlacement, PthreadsMutex, QdLock};

fn thread_counts(full: bool) -> Vec<usize> {
    if full {
        vec![1, 2, 4, 6, 8, 10, 12, 14, 16]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// A table of ops/µs, one row per swept value.
fn ops_table(title: &str, head: &'static str, cols: &[&str], rows: Vec<(usize, Vec<f64>)>) -> Table {
    let mut t = Table::new(title, head, &cols.iter().map(|c| (*c, 2)).collect::<Vec<_>>());
    rows.into_iter().for_each(|(x, v)| t.row(x, v));
    t
}

/// The last row's values.
fn top(t: &Table) -> &[f64] {
    &t.rows()[t.rows().len() - 1].1
}

/// `name a, name b, …` of the last row.
fn at_top(t: &Table, names: &[&str]) -> String {
    let (label, _) = &t.rows()[t.rows().len() - 1];
    let v: Vec<String> = names.iter().map(|n| format!("{n} {:.2}", t.get(label, n))).collect();
    format!("at {label}: {}", v.join(", "))
}

/// Real-time ops/µs of the microbenchmark on `threads` host threads for
/// `dur`, through one of the genuine single-node locks.
fn throughput(lock: impl CsLock<PairingHeap>, threads: usize, dur: Duration) -> f64 {
    let (stop, ops) = (AtomicBool::new(false), AtomicU64::new(0));
    // Pre-populate so extract_min usually succeeds.
    lock.with(0, |h| (0..4096u64).for_each(|k| h.insert(k)));
    std::thread::scope(|s| {
        for t in 0..threads {
            let (lock, stop, ops) = (&lock, &stop, &ops);
            s.spawn(move || {
                let mut w = LocalWork::new(t as u64 + 1);
                let socket = t / 4; // paper topology: 4 cores per NUMA node
                let mut local_ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    w.run(WORK_UNITS);
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
            });
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
    });
    ops.load(Ordering::Relaxed) as f64 / dur.as_micros() as f64
}

/// A claim about real concurrency: not checkable with fewer host cores
/// than the sweep's largest thread count, where the series is timesharing.
fn on_cores(t: &[Table], holds: fn(&Table, &[f64]) -> bool) -> Check {
    let (threads, v) = &t[0].rows()[t[0].rows().len() - 1];
    let threads: f64 = threads.parse().expect("thread count label");
    let values = format!("{} on {} cores", at_top(&t[0], &["QD", "Cohort", "Pthreads"]), v[3]);
    Check { holds: (v[3] >= threads).then(|| holds(&t[0], v)), values }
}

pub const FIG11: Figure = Figure {
    name: "fig11",
    // Real threads and real locks: the one figure measured in host time.
    sweep: |full| {
        let dur = Duration::from_millis(if full { 1000 } else { 200 });
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let row = |t| {
            let qd = throughput(QdLock::new(PairingHeap::new()), t, dur);
            let cohort = throughput(CohortLock::new(4, 48, PairingHeap::new()), t, dur);
            let mutex = throughput(PthreadsMutex::new(PairingHeap::new()), t, dur);
            (t, vec![qd, cohort, mutex, cores])
        };
        let rows = thread_counts(full).into_iter().map(row).collect();
        let title = "Figure 11: single-node lock scaling (ops/us, real time)";
        vec![ops_table(title, "threads", &["QD", "Cohort", "Pthreads", "cores"], rows)]
    },
    claims: &[
        Claim {
            id: "fig11.qd_highest",
            says: "QD locking has the highest throughput at high thread counts",
            test: |t| on_cores(t, |_, v| v[0] > v[1] && v[0] > v[2]),
        },
        Claim {
            id: "fig11.cohort_second",
            says: "Cohort comes second, above the Pthreads mutex",
            test: |t| on_cores(t, |_, v| v[1] > v[2]),
        },
        Claim {
            id: "fig11.mutex_stops_scaling",
            says: "the Pthreads mutex stops scaling after a handful (4) of threads",
            test: |t| on_cores(t, |t, v| v[2] <= t.get("4", "Pthreads")),
        },
    ],
};

pub const FIG11V: Figure = Figure {
    name: "fig11v",
    // One simulated node: QD = HQDL, Cohort = the DSM cohort lock, Mutex
    // = the bare global lock with a cache-line hop per acquire.
    sweep: |full| {
        let row = |threads| {
            let ops = if full { 400 } else { 150 };
            let q = Queue { nodes: 1, tpn: threads, ops, capacity: 1 << 16, prefill: 512, stride: 2654435761, bytes_per_node: 16 << 20 };
            let qd = q.ops_per_us(|d, h| hqdl(d, h, 1024));
            let c = q.ops_per_us(|d, h| cohort(d, h, FencePlacement::PerSection));
            (threads, vec![qd, c, q.ops_per_us(mutex)])
        };
        let rows = thread_counts(full).into_iter().map(row).collect();
        let title = "Figure 11 (virtual): single-node lock scaling (ops/us)";
        vec![ops_table(title, "threads", &["QD", "Cohort", "Mutex"], rows)]
    },
    claims: &[
        Claim {
            id: "fig11v.all_rise",
            says: "every lock's throughput rises with threads until the lock saturates",
            test: |t| {
                let (first, last) = (&t[0].rows()[0].1, top(&t[0]));
                let v: Vec<String> = first.iter().zip(last).map(|(a, b)| arrow(&[*a, *b])).collect();
                check(first.iter().zip(last).all(|(a, b)| b >= a), format!("QD, Cohort, Mutex: {}", v.join("; ")))
            },
        },
        Claim {
            id: "fig11v.qd_highest_plateau",
            says: "QD sustains the highest plateau (batched execution on one core)",
            test: |t| {
                let v = top(&t[0]);
                check(v[0] > v[1] && v[0] > v[2], at_top(&t[0], &["QD", "Cohort", "Mutex"]))
            },
        },
        Claim {
            id: "fig11v.cohort_above_mutex",
            says: "Cohort second, the location-blind mutex lowest",
            test: |t| check(top(&t[0])[1] > top(&t[0])[2], at_top(&t[0], &["Cohort", "Mutex"])),
        },
    ],
};

fn hqdl_series(t: &[Table]) -> String {
    let v = t[0].series("", "Argo HQDL");
    format!("HQDL {}; 1 -> 2 nodes {:+.0} %", arrow(&v), 100.0 * (v[1] / v[0] - 1.0))
}

pub const FIG12: Figure = Figure {
    name: "fig12",
    // Throughput is ops per virtual µs with the heap in global memory, so
    // every section's data migrates through the coherence layer.
    sweep: |full| {
        let (tpn, ops) = (threads_per_node(full), if full { 400 } else { 150 });
        let nodes: &[usize] = if full { &[1, 2, 4, 8, 16, 32] } else { &[1, 2, 4, 8] };
        let cols = [("threads", 0), ("Argo HQDL", 2), ("Cohort", 2)];
        let mut t = Table::new("Figure 12: DSM lock scaling (ops/us, virtual time)", "nodes", &cols);
        for &n in nodes {
            let bytes_per_node = (24 << 20) / n as u64 + (8 << 20);
            let q = Queue { nodes: n, tpn, ops, capacity: 1 << 18, prefill: 4096, stride: 0x9E37_79B9, bytes_per_node };
            let h = q.ops_per_us(|d, h| hqdl(d, h, 1024));
            t.row(n, vec![(n * tpn) as f64, h, q.ops_per_us(|d, h| cohort(d, h, FencePlacement::PerSection))]);
        }
        vec![t]
    },
    claims: &[
        Claim {
            id: "fig12.hqdl_drops_going_distributed",
            says: "HQDL drops going from one node to two (paper: ~40 %)",
            test: |t| {
                let v = t[0].series("", "Argo HQDL");
                check(v[1] < v[0], hqdl_series(t))
            },
        },
        Claim {
            id: "fig12.hqdl_flat_after_two_nodes",
            says: "after that drop HQDL stays stable: it loses less from 2 nodes to the most than from 1 to 2",
            test: |t| {
                let v = t[0].series("", "Argo HQDL");
                check(v[0] - v[1] > v[1] - v[v.len() - 1], hqdl_series(t))
            },
        },
        Claim {
            id: "fig12.hqdl_above_cohort",
            says: "HQDL stays above the distributed Cohort lock at every node count",
            test: |t| {
                let (h, c) = (t[0].series("", "Argo HQDL"), t[0].series("", "Cohort"));
                check(h.iter().zip(&c).all(|(h, c)| h > c), format!("{}; Cohort {}", hqdl_series(t), arrow(&c)))
            },
        },
    ],
};

/// Column `col` on more than one node, and whether it is above column
/// `below` at each of those node counts.
fn above_beyond_one_node(t: &[Table], col: &str, below: &str) -> Check {
    let rows = || t[0].rows().iter().filter(|(n, _)| n != "1");
    let (a, b): (Vec<f64>, Vec<f64>) = rows().map(|(n, _)| (t[0].get(n, col), t[0].get(n, below))).unzip();
    check(a.iter().zip(&b).all(|(a, b)| a > b), format!("2+ nodes: {col} {}; {below} {}", arrow(&a), arrow(&b)))
}

pub const COHORT_FENCING: Figure = Figure {
    name: "cohort_fencing",
    // HQDL's edge over the cohort lock is (1) hierarchical fencing, one
    // SI/SD per node tenure, and (2) delegation. The hierarchical column
    // gives the cohort lock (1) alone.
    sweep: |full| {
        let (tpn, ops) = if full { (15, 300) } else { (4, 120) };
        let nodes: &[usize] = if full { &[1, 2, 4, 8, 16] } else { &[1, 2, 4] };
        let row = |&n: &usize| {
            let q = Queue { nodes: n, tpn, ops, capacity: 1 << 16, prefill: 1024, stride: 11, bytes_per_node: 16 << 20 };
            let per_section = q.ops_per_us(|d, h| cohort(d, h, FencePlacement::PerSection));
            let hier = q.ops_per_us(|d, h| cohort(d, h, FencePlacement::Hierarchical));
            (n, vec![per_section, hier, q.ops_per_us(|d, h| hqdl(d, h, 1024))])
        };
        let title = "Ablation: fence placement in the cohort lock (ops/us)";
        vec![ops_table(title, "nodes", &["cohort/sect", "cohort/hier", "HQDL"], nodes.iter().map(row).collect())]
    },
    claims: &[
        Claim {
            id: "cohort_fencing.hierarchical_beats_per_section",
            says: "hierarchical fencing recovers part of HQDL's edge on more than one node",
            test: |t| above_beyond_one_node(t, "cohort/hier", "cohort/sect"),
        },
        Claim {
            id: "cohort_fencing.delegation_beats_hierarchical",
            says: "the rest of the edge is delegation itself: HQDL stays above on more than one node",
            test: |t| above_beyond_one_node(t, "HQDL", "cohort/hier"),
        },
    ],
};

pub const HQDL_BATCH: Figure = Figure {
    name: "hqdl_batch",
    // With batch_limit = 1 every section pays a global-lock round trip,
    // an SI and an SD: the cost structure of remote delegation (§4.2).
    sweep: |full| {
        let (nodes, tpn, ops) = if full { (8, 15, 300) } else { (4, 4, 120) };
        let q = Queue { nodes, tpn, ops, capacity: 1 << 16, prefill: 512, stride: 7, bytes_per_node: 16 << 20 };
        let rows = [1, 4, 16, 64, 256, 1024].map(|b| (b, vec![q.ops_per_us(|d, h| hqdl(d, h, b))]));
        let title = format!("Ablation: HQDL batch limit ({nodes} nodes x {tpn} threads)");
        vec![ops_table(&title, "batch", &["ops/us"], rows.to_vec())]
    },
    claims: &[Claim {
        id: "hqdl_batch.batch_1_slowest",
        says: "throughput rises with the batch limit: batch 1 is the slowest",
        test: |t| {
            let v = t[0].series("", "ops/us");
            check(v[1..].iter().all(|&x| x > v[0]), format!("batch 1, 4, … {}", arrow(&v)))
        },
    }],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{discriminates, table};

    fn locks(cols: &[&str], rows: &[(&str, &[f64])]) -> Vec<Table> {
        vec![table(cols, rows)]
    }

    #[test]
    fn fig11_claims_discriminate_and_need_the_cores() {
        let cols = ["QD", "Cohort", "Pthreads", "cores"];
        let good = locks(&cols, &[("1", &[1.0, 1.0, 1.0, 8.0]), ("4", &[3.0, 2.0, 2.0, 8.0]), ("8", &[4.0, 3.0, 1.5, 8.0])]);
        let bad = locks(&cols, &[("1", &[1.0, 1.0, 1.0, 8.0]), ("4", &[3.0, 2.0, 1.0, 8.0]), ("8", &[2.0, 1.0, 3.0, 8.0])]);
        discriminates(
            &FIG11,
            &[
                ("fig11.qd_highest", good.clone(), bad.clone()),
                ("fig11.cohort_second", good.clone(), bad.clone()),
                ("fig11.mutex_stops_scaling", good, bad),
            ],
        );
        let timeshared = locks(&cols, &[("4", &[3.0, 2.0, 2.0, 2.0]), ("8", &[4.0, 3.0, 1.5, 2.0])]);
        assert!(FIG11.claims.iter().all(|c| (c.test)(&timeshared).holds.is_none()));
    }

    #[test]
    fn fig11v_claims_discriminate() {
        let cols = ["QD", "Cohort", "Mutex"];
        let run = |top: &[f64]| locks(&cols, &[("1", &[1.9, 2.1, 1.8]), ("8", top)]);
        discriminates(
            &FIG11V,
            &[
                ("fig11v.all_rise", run(&[10.2, 3.0, 1.9]), run(&[10.2, 3.0, 1.7])),
                ("fig11v.qd_highest_plateau", run(&[10.2, 3.0, 1.9]), run(&[2.5, 3.0, 1.9])),
                ("fig11v.cohort_above_mutex", run(&[10.2, 3.0, 1.9]), run(&[10.2, 1.8, 1.9])),
            ],
        );
    }

    #[test]
    fn fig12_claims_discriminate() {
        let hqdl = |h: [f64; 4], c: [f64; 4]| {
            let r = |i: usize| [4.0, h[i], c[i]];
            let (a, b, cc, d) = (r(0), r(1), r(2), r(3));
            locks(&["threads", "Argo HQDL", "Cohort"], &[("1", &a), ("2", &b), ("4", &cc), ("8", &d)])
        };
        let paper = hqdl([3.95, 1.94, 1.55, 1.51], [2.28, 0.34, 0.17, 0.14]);
        discriminates(
            &FIG12,
            &[
                ("fig12.hqdl_drops_going_distributed", paper.clone(), hqdl([3.0, 3.1, 3.0, 3.0], [1.0; 4])),
                ("fig12.hqdl_flat_after_two_nodes", paper.clone(), hqdl([4.0, 3.5, 2.0, 1.5], [1.0; 4])),
                ("fig12.hqdl_above_cohort", paper, hqdl([3.0, 2.0, 1.9, 1.8], [3.5, 1.0, 1.0, 1.0])),
            ],
        );
    }

    #[test]
    fn cohort_fencing_claims_discriminate() {
        let cols = ["cohort/sect", "cohort/hier", "HQDL"];
        let run = |two: &[f64]| locks(&cols, &[("1", &[2.0, 2.0, 3.0]), ("2", two), ("4", &[0.2, 1.0, 1.8])]);
        discriminates(
            &COHORT_FENCING,
            &[
                ("cohort_fencing.hierarchical_beats_per_section", run(&[0.3, 1.5, 2.0]), run(&[1.6, 1.5, 2.0])),
                ("cohort_fencing.delegation_beats_hierarchical", run(&[0.3, 1.5, 2.0]), run(&[0.3, 2.4, 2.0])),
            ],
        );
    }

    #[test]
    fn hqdl_batch_claim_discriminates() {
        let run = |four: f64| locks(&["ops/us"], &[("1", &[0.25]), ("4", &[four]), ("16", &[2.0])]);
        discriminates(&HQDL_BATCH, &[("hqdl_batch.batch_1_slowest", run(1.0), run(0.2))]);
    }
}
