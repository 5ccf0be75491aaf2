//! Ablations of the design's future-work extensions: adaptive
//! classification, blocked data distribution, and where the traffic of
//! Blackscholes lands on Argo and on its MPI port.

use crate::{check, threads_per_node, Claim, Figure, Table};
use argo::types::GlobalF64Array;
use argo::{ArgoConfig, ArgoMachine};
use workloads::{blackscholes, cg, nbody};

/// Phased workload: in each phase ownership of every chunk shifts by one
/// thread; within a phase each owner re-reads and re-writes its chunk
/// `sweeps` times with a barrier after each sweep. Returns Mcycles, SI
/// invalidations and read misses.
fn phased(adapt: bool, elements: usize, phases: usize, sweeps: usize) -> Vec<f64> {
    let machine = ArgoMachine::new(ArgoConfig::small(4, 2));
    let data = GlobalF64Array::alloc(machine.dsm(), elements);
    let report = machine.run(move |ctx| {
        ctx.start_measurement();
        let nt = ctx.nthreads();
        let per = elements.div_ceil(nt);
        let mut buf = vec![0.0f64; per];
        for phase in 0..phases {
            if adapt && phase > 0 {
                ctx.adapt_classification();
            }
            let owner = (ctx.tid() + phase) % nt;
            let (lo, hi) = ((owner * per).min(elements), ((owner + 1) * per).min(elements));
            for _ in 0..sweeps {
                if hi > lo {
                    ctx.read_f64_slice(data.addr(lo), &mut buf[..hi - lo]);
                    buf[..hi - lo].iter_mut().for_each(|v| *v += 1.0);
                    ctx.thread.compute((hi - lo) as u64 * 2);
                    ctx.write_f64_slice(data.addr(lo), &buf[..hi - lo]);
                }
                ctx.barrier();
            }
        }
        0.0
    });
    let c = &report.coherence;
    vec![report.cycles as f64 / 1e6, c.si_invalidated as f64, c.read_misses as f64]
}

/// Whether `col` fell from the one-way run to the decay run.
fn decay_cuts(t: &[Table], col: &str) -> crate::Check {
    let (one_way, decay) = (t[0].get("one-way (paper)", col), t[0].get("with decay", col));
    check(decay < one_way, format!("{col}, one-way → decay: {}", crate::arrow(&[one_way, decay])))
}

pub const ADAPTIVE: Figure = Figure {
    name: "adaptive",
    // Carina's classification is one-way: once Shared,MW a page
    // self-invalidates at every fence, even after its sharing pattern
    // changes. The decay extension (paper §3.2 future work) lets it
    // re-classify.
    sweep: |full| {
        let (elements, phases, sweeps) = if full { (1 << 17, 6, 8) } else { (1 << 14, 4, 5) };
        let cols = [("Mcycles", 2), ("SI-invalidated", 0), ("read misses", 0)];
        let title = "Ablation: adaptive classification (phase-migrating ownership)";
        let mut t = Table::new(title, "variant", &cols);
        t.row("one-way (paper)", phased(false, elements, phases, sweeps));
        t.row("with decay", phased(true, elements, phases, sweeps));
        vec![t]
    },
    claims: &[
        Claim {
            id: "adaptive.decay_cuts_invalidations",
            says: "one-way classification stays S,MW after an ownership shift; decay re-classifies",
            test: |t| decay_cuts(t, "SI-invalidated"),
        },
        Claim {
            id: "adaptive.decay_cuts_misses",
            says: "with decay the new owners' pages survive fences instead of being refetched",
            test: |t| decay_cuts(t, "read misses"),
        },
        Claim { id: "adaptive.decay_is_faster", says: "so the decay run is faster", test: |t| decay_cuts(t, "Mcycles") },
    ],
};

/// Blackscholes allocates with blocked homes when `blocked`; CG and
/// Nbody, whose access is all-to-all, run interleaved either way as
/// controls. Returns (cycles, bytes read).
fn placed(blocked: bool, which: &str, full: bool) -> (f64, f64) {
    let mut cfg = ArgoConfig::small(4, threads_per_node(full));
    cfg.bytes_per_node = 32 << 20;
    let m = ArgoMachine::new(cfg);
    let s = |r: usize, f: usize| if full { f } else { r };
    let out = match which {
        "Blackscholes" => {
            let p = blackscholes::BsParams { options: s(16_384, 131_072), iterations: s(3, 5) };
            blackscholes::run_argo_with(&m, p, blocked)
        }
        "CG" => cg::run_argo(&m, cg::CgParams { n: s(4_096, 16_384), nnz_per_row: s(8, 16), iterations: s(4, 10) }),
        _ => nbody::run_argo(&m, nbody::NbodyParams { bodies: s(1_536, 8_192), steps: 3 }),
    };
    (out.cycles as f64, out.net.bytes_read as f64)
}

pub const DISTRIBUTION: Figure = Figure {
    name: "distribution",
    // The prototype interleaves pages round-robin; the paper blames
    // Fig. 13c's wiggles on that simplistic distribution (§3 future work).
    sweep: |full| {
        let cols = [("interleaved", 2), ("blocked", 2), ("speedup", 2), ("traffic x", 2)];
        let title = "Ablation: interleaved vs blocked data distribution (4 nodes, Mcycles)";
        let mut t = Table::new(title, "benchmark", &cols);
        for w in ["Blackscholes", "CG", "Nbody"] {
            let ((ci, ti), (cb, tb)) = (placed(false, w, full), placed(true, w, full));
            t.row(w, vec![ci / 1e6, cb / 1e6, ci / cb, tb / ti.max(1.0)]);
        }
        vec![t]
    },
    claims: &[
        Claim {
            id: "distribution.chunked_gains",
            says: "a chunked workload (Blackscholes) gains from blocked homes: its chunks land on its nodes",
            test: |t| {
                let s = t[0].get("Blackscholes", "speedup");
                check(s > 1.0, format!("Blackscholes interleaved/blocked time {s:.3}"))
            },
        },
        Claim {
            id: "distribution.chunked_traffic_drops",
            says: "and its read traffic drops",
            test: |t| {
                let x = t[0].get("Blackscholes", "traffic x");
                check(x < 1.0, format!("Blackscholes blocked/interleaved read bytes {x:.3}"))
            },
        },
        Claim {
            id: "distribution.all_to_all_gains_less",
            says: "all-to-all access (CG's p vector, Nbody's positions) gains less: every node reads everything",
            test: |t| {
                let s = t[0].series("", "speedup");
                check(s[1..].iter().all(|&x| x < s[0]), format!("Blackscholes, CG, Nbody speedup {s:.3?}"))
            },
        },
    ],
};

/// One table of per-node traffic of Blackscholes on Argo.
fn per_node(title: &str, rows: Vec<simnet::PerNodeSnapshot>) -> Table {
    let cols = [("KiB in", 0), ("KiB out", 0), ("ops in", 0)];
    let mut t = Table::new(title, "node", &cols);
    for (n, s) in rows.iter().enumerate() {
        t.row(n, vec![s.bytes_in as f64 / 1024.0, s.bytes_out as f64 / 1024.0, s.ops_in as f64]);
    }
    t
}

pub const TRAFFIC: Figure = Figure {
    name: "traffic",
    // The diagnosis behind Fig. 13c: Argo spreads Blackscholes' traffic
    // over every home NIC, the MPI port funnels it through rank 0.
    sweep: |full| {
        let (nodes, tpn) = (4, threads_per_node(full));
        let p = blackscholes::BsParams { options: if full { 131_072 } else { 16_384 }, iterations: 3 };
        let argo = |blocked| {
            let m = ArgoMachine::new(ArgoConfig::small(nodes, tpn));
            blackscholes::run_argo_with(&m, p, blocked);
            m.net().per_node_stats()
        };
        let interleaved = per_node("Blackscholes on Argo (interleaved homes): per-node traffic", argo(false));
        let blocked = per_node("Blackscholes on Argo (blocked allocation): per-node traffic", argo(true));
        let net = blackscholes::run_mpi_variant(nodes, tpn, p).net;
        let title = "Blackscholes MPI port: aggregate traffic (all through rank 0)";
        let mut mpi = Table::new(title, "port", &[("messages", 0), ("MiB moved", 0), ("handlers", 0)]);
        let mib = (net.msg_bytes >> 20) as f64;
        mpi.row("MPI", vec![net.messages as f64, mib, net.handler_invocations as f64]);
        vec![interleaved, blocked, mpi]
    },
    claims: &[
        Claim {
            id: "traffic.argo_spreads_over_every_home",
            says: "Argo spreads Blackscholes' bytes over every home NIC, where MPI funnels them through rank 0",
            test: |t| {
                let out = t[0].series("", "KiB out");
                check(out.iter().all(|&b| b > 0.0), format!("KiB out per node {out:.0?}"))
            },
        },
        Claim {
            id: "traffic.blocked_cuts_traffic",
            says: "blocked placement removes most cross-node read traffic",
            test: |t| {
                let total = |t: &Table| t.series("", "KiB in").iter().sum::<f64>();
                let (i, b) = (total(&t[0]), total(&t[1]));
                check(b < i, format!("KiB in, interleaved {i:.0}, blocked {b:.0}"))
            },
        },
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{discriminates, table};

    #[test]
    fn adaptive_claims_discriminate() {
        let run = |decay: &[f64]| {
            let cols = ["Mcycles", "SI-invalidated", "read misses"];
            vec![table(&cols, &[("one-way (paper)", &[1.2, 324.0, 400.0]), ("with decay", decay)])]
        };
        discriminates(
            &ADAPTIVE,
            &[
                ("adaptive.decay_cuts_invalidations", run(&[0.8, 72.0, 100.0]), run(&[0.8, 324.0, 100.0])),
                ("adaptive.decay_cuts_misses", run(&[0.8, 72.0, 100.0]), run(&[0.8, 72.0, 400.0])),
                ("adaptive.decay_is_faster", run(&[0.8, 72.0, 100.0]), run(&[1.3, 72.0, 100.0])),
            ],
        );
    }

    #[test]
    fn distribution_claims_discriminate() {
        let run = |bs: [f64; 2], cg: f64| {
            let cols = ["speedup", "traffic x"];
            vec![table(&cols, &[("Blackscholes", &bs), ("CG", &[cg, 1.0]), ("Nbody", &[1.0, 1.0])])]
        };
        discriminates(
            &DISTRIBUTION,
            &[
                ("distribution.chunked_gains", run([1.14, 0.0], 1.0), run([0.98, 0.0], 0.9)),
                ("distribution.chunked_traffic_drops", run([1.14, 0.0], 1.0), run([1.14, 1.0], 1.0)),
                ("distribution.all_to_all_gains_less", run([1.14, 0.0], 1.0), run([1.14, 0.0], 1.2)),
            ],
        );
    }

    #[test]
    fn traffic_claims_discriminate() {
        let cols = ["KiB in", "KiB out"];
        let spread = table(&cols, &[("0", &[10.0, 10.0]), ("1", &[10.0, 10.0])]);
        let local = table(&cols, &[("0", &[0.0, 1.0]), ("1", &[0.0, 1.0])]);
        let funnel = table(&cols, &[("0", &[10.0, 20.0]), ("1", &[10.0, 0.0])]);
        discriminates(
            &TRAFFIC,
            &[
                ("traffic.argo_spreads_over_every_home", vec![spread.clone(), local.clone()], vec![funnel, local.clone()]),
                ("traffic.blocked_cuts_traffic", vec![spread.clone(), local], vec![spread.clone(), spread]),
            ],
        );
    }
}
