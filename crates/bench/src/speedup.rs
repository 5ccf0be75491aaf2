//! The application speedup figures (Fig. 13a–f) and the extra SOR
//! workload: one sweep of a workload on Pthreads (one machine), on Argo
//! over `node_sweep` and, where the paper has one, on its MPI or UPC port,
//! each as a speedup over the one-thread run.

use crate::{arrow, check, node_sweep, rising, threads_per_node, Check, Claim, Figure, Table};
use argo::{ArgoConfig, ArgoMachine};
use std::sync::Arc;
use workloads::{blackscholes, cg, ep, lu, matmul, nbody, sor, Outcome};

/// A hand-written port's name and runner, `(nodes, threads per node,
/// params)`.
type Port<P> = (&'static str, fn(usize, usize, P) -> Outcome);

/// How to run one workload.
struct Workload<P> {
    params: P,
    argo: fn(&Arc<ArgoMachine>, P) -> Outcome,
    /// The single-machine series' name and thread counts (none, or the
    /// cluster's threads per node added when missing).
    local: (&'static str, &'static [usize]),
    port: Option<Port<P>>,
    max_nodes: usize,
    tolerance: f64,
}

impl<P: Copy> Workload<P> {
    /// Rows `Pthreads 8t`, `Argo 4n`, `MPI 4n`, …; every run must
    /// reproduce the sequential checksum.
    fn sweep(&self, title: String, full: bool) -> Table {
        let tpn = threads_per_node(full);
        let seq = (self.argo)(&ArgoMachine::new(ArgoConfig::small(1, 1)), self.params);
        let mut t = Table::new(title, "config", &[("threads", 0), ("speedup", 2)]);
        let mut add = |label: String, threads: usize, o: Outcome| {
            assert!(o.checksum_matches(&seq, self.tolerance), "{label}: checksum diverged");
            t.row(label, vec![threads as f64, o.speedup_over(&seq)]);
        };
        let mut local = self.local.1.to_vec();
        if !local.is_empty() && !local.contains(&tpn.min(16)) {
            local.push(tpn.min(16));
        }
        for th in local {
            let out = (self.argo)(&ArgoMachine::new(ArgoConfig::small(1, th)), self.params);
            add(format!("{} {th}t", self.local.0), th, out);
        }
        for n in node_sweep(self.max_nodes, full) {
            add(format!("Argo {n}n"), n * tpn, (self.argo)(&ArgoMachine::new(ArgoConfig::small(n, tpn)), self.params));
            if let Some((name, port)) = self.port {
                add(format!("{name} {n}n"), n * tpn, port(n, tpn, self.params));
            }
        }
        t
    }
}

/// One series' speedups, in sweep order.
fn series(t: &Table, name: &str) -> Vec<f64> {
    t.series(&format!("{name} "), "speedup")
}

fn last(t: &Table, name: &str) -> f64 {
    *series(t, name).last().expect("series in sweep")
}

fn shown(t: &Table, names: &[&str]) -> String {
    names.iter().map(|n| format!("{n} {}", arrow(&series(t, n)))).collect::<Vec<_>>().join("; ")
}

/// `name`'s speedup rises at every step of table `i`'s node sweep.
fn scales(t: &[Table], i: usize, names: &[&str]) -> Check {
    check(names.iter().all(|n| rising(&series(&t[i], n))), shown(&t[i], names))
}

/// `a` above `b` at the largest node count.
fn ahead_at_most(t: &Table, a: &str, b: &str) -> Check {
    check(last(t, a) > last(t, b), shown(t, &[a, b]))
}

pub const FIG13A: Figure = Figure {
    name: "fig13a",
    sweep: |full| {
        let params = lu::LuParams { n: if full { 1024 } else { 320 }, block: 16 };
        let local = ("Pthreads", &[2, 4, 8][..]);
        let w = Workload { params, argo: lu::run_argo, local, port: None, max_nodes: 32, tolerance: 1e-6 };
        vec![w.sweep("Figure 13a: SPLASH-2 LU speedup over sequential".into(), full)]
    },
    claims: &[
        Claim {
            id: "fig13a.argo_beats_pthreads",
            says: "despite migration overhead, Argo on several nodes beats single-machine Pthreads",
            test: |t| {
                let best = |n| series(&t[0], n).into_iter().fold(0.0, f64::max);
                check(best("Argo") > best("Pthreads"), shown(&t[0], &["Pthreads", "Argo"]))
            },
        },
        Claim {
            id: "fig13a.argo_gains_to_8_nodes",
            says: "Argo's gains continue up to ~8 nodes",
            test: |t| {
                let v: Vec<f64> = series(&t[0], "Argo").into_iter().take(4).collect();
                check(rising(&v), format!("Argo 1-8 nodes {}", arrow(&v)))
            },
        },
    ],
};

pub const FIG13B: Figure = Figure {
    name: "fig13b",
    sweep: |full| {
        let (bodies, steps) = if full { (8192, 4) } else { (1536, 3) };
        let params = nbody::NbodyParams { bodies, steps };
        let port = Some(("MPI", nbody::run_mpi_variant as fn(usize, usize, _) -> Outcome));
        let local = ("Pthreads", &[2, 4, 8][..]);
        let w = Workload { params, argo: nbody::run_argo, local, port, max_nodes: 32, tolerance: 1e-6 };
        vec![w.sweep("Figure 13b: N-body speedup over sequential".into(), full)]
    },
    claims: &[
        Claim {
            id: "fig13b.argo_scales",
            says: "Argo keeps scaling to the largest node count",
            test: |t| scales(t, 0, &["Argo"]),
        },
        Claim {
            id: "fig13b.argo_meets_mpi",
            says: "Argo meets or exceeds MPI, whose all-gather traffic grows with rank count",
            test: |t| check(last(&t[0], "Argo") >= last(&t[0], "MPI"), shown(&t[0], &["Argo", "MPI"])),
        },
    ],
};

pub const FIG13C: Figure = Figure {
    name: "fig13c",
    sweep: |full| {
        let (options, iterations) = if full { (262_144, 4) } else { (16_384, 3) };
        let params = blackscholes::BsParams { options, iterations };
        let port = Some(("MPI", blackscholes::run_mpi_variant as fn(usize, usize, _) -> Outcome));
        let local = ("Pthreads", &[2, 4, 8][..]);
        let w = Workload { params, argo: blackscholes::run_argo, local, port, max_nodes: 128, tolerance: 1e-6 };
        vec![w.sweep("Figure 13c: Blackscholes speedup over sequential".into(), full)]
    },
    claims: &[
        Claim {
            id: "fig13c.argo_scales",
            says: "Argo scales to the largest node count",
            test: |t| scales(t, 0, &["Argo"]),
        },
        Claim {
            id: "fig13c.mpi_falls_behind",
            says: "the MPI port's rank-0 scatter/gather saturates: Argo is ahead at the most nodes",
            test: |t| ahead_at_most(&t[0], "Argo", "MPI"),
        },
    ],
};

pub const FIG13D: Figure = Figure {
    name: "fig13d",
    sweep: |full| {
        let port = Some(("MPI", matmul::run_mpi_variant as fn(usize, usize, _) -> Outcome));
        let sizes = if full { [("small", 512), ("large", 1024)] } else { [("small", 128), ("large", 256)] };
        let one = |(label, n): (&str, usize)| {
            let params = matmul::MatmulParams { n };
            let local = ("Pthreads", &[4][..]);
            let w = Workload { params, argo: matmul::run_argo, local, port, max_nodes: 32, tolerance: 1e-6 };
            w.sweep(format!("Figure 13d ({label} input {n}x{n}): speedup over sequential"), full)
        };
        sizes.map(one).to_vec()
    },
    claims: &[
        Claim {
            id: "fig13d.mpi_wins_at_1_node",
            says: "MPI wins at one node (optimized kernel), on both inputs",
            test: |t| {
                let wins = t.iter().all(|t| t.get("MPI 1n", "speedup") > t.get("Argo 1n", "speedup"));
                check(wins, t.iter().map(|t| shown(t, &["Argo", "MPI"])).collect::<Vec<_>>().join(" | "))
            },
        },
        Claim {
            id: "fig13d.small_mpi_lead_shrinks",
            says: "on the small input MPI's lead evaporates with node count",
            test: |t| {
                let (a, m) = (series(&t[0], "Argo"), series(&t[0], "MPI"));
                check(last(&t[0], "MPI") / last(&t[0], "Argo") < m[0] / a[0], shown(&t[0], &["Argo", "MPI"]))
            },
        },
        Claim {
            id: "fig13d.small_argo_scales",
            says: "on the small input Argo scales",
            test: |t| scales(t, 0, &["Argo"]),
        },
        Claim {
            id: "fig13d.large_both_scale",
            says: "on the large input both scale",
            test: |t| scales(t, 1, &["Argo", "MPI"]),
        },
        Claim {
            id: "fig13d.large_mpi_lead_persists",
            says: "on the large input MPI's initial lead persists at every node count",
            test: |t| {
                let (a, m) = (series(&t[1], "Argo"), series(&t[1], "MPI"));
                check(a.iter().zip(&m).all(|(a, m)| m > a), shown(&t[1], &["Argo", "MPI"]))
            },
        },
    ],
};

pub const FIG13E: Figure = Figure {
    name: "fig13e",
    sweep: |full| {
        let params = ep::EpParams { pairs: if full { 1 << 22 } else { 1 << 18 } };
        let port = Some(("UPC", ep::run_pgas as fn(usize, usize, _) -> Outcome));
        let local = ("OpenMP", &[4][..]);
        let w = Workload { params, argo: ep::run_argo, local, port, max_nodes: 128, tolerance: 1e-6 };
        vec![w.sweep("Figure 13e: NAS EP speedup over sequential".into(), full)]
    },
    claims: &[
        Claim {
            id: "fig13e.both_scale",
            says: "Argo and UPC alike scale with node count (the only communication is the final reduction)",
            test: |t| scales(t, 0, &["Argo", "UPC"]),
        },
        Claim {
            id: "fig13e.near_linear",
            says: "both scale near-linearly: at the most nodes each keeps over half the ideal speedup",
            test: |t| {
                let threads = t[0].series("", "threads").into_iter().fold(0.0, f64::max);
                let ok = ["Argo", "UPC"].iter().all(|s| last(&t[0], s) > threads / 2.0);
                check(ok, format!("{} of {threads} threads", shown(&t[0], &["Argo", "UPC"])))
            },
        },
    ],
};

pub const FIG13F: Figure = Figure {
    name: "fig13f",
    sweep: |full| {
        let (n, nnz_per_row, iterations) = if full { (16_384, 16, 12) } else { (4_096, 8, 6) };
        let params = cg::CgParams { n, nnz_per_row, iterations };
        let port = Some(("UPC", cg::run_pgas as fn(usize, usize, _) -> Outcome));
        let local = ("OpenMP", &[4][..]);
        let w = Workload { params, argo: cg::run_argo, local, port, max_nodes: 32, tolerance: 1e-6 };
        vec![w.sweep("Figure 13f: NAS CG speedup over sequential".into(), full)]
    },
    claims: &[
        Claim {
            id: "fig13f.upc_ahead_at_1_node",
            says: "the optimized UPC kernel starts ahead on one node",
            test: |t| {
                let ahead = t[0].get("UPC 1n", "speedup") > t[0].get("Argo 1n", "speedup");
                check(ahead, shown(&t[0], &["Argo", "UPC"]))
            },
        },
        Claim {
            id: "fig13f.argo_keeps_scaling",
            says: "Argo's per-node caching lets it keep scaling past where UPC flattens",
            test: |t| scales(t, 0, &["Argo"]),
        },
        Claim {
            id: "fig13f.argo_passes_upc",
            says: "Argo is ahead of UPC at the largest node count",
            test: |t| ahead_at_most(&t[0], "Argo", "UPC"),
        },
    ],
};

pub const SOR: Figure = Figure {
    name: "sor",
    // Red-black SOR, the TreadMarks-lineage stencil: a workload beyond
    // the paper's six.
    sweep: |full| {
        let (n, iterations) = if full { (1024, 12) } else { (256, 8) };
        let params = sor::SorParams { n, iterations, omega: 1.25 };
        let w = Workload { params, argo: sor::run_argo, local: ("", &[]), port: None, max_nodes: 16, tolerance: 1e-9 };
        vec![w.sweep(format!("Extra: red-black SOR {n}x{n} speedup"), full)]
    },
    claims: &[Claim {
        id: "sor.argo_scales",
        says: "near-linear until halo traffic rivals each chunk's compute: speedup rises over the sweep",
        test: |t| scales(t, 0, &["Argo"]),
    }],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{discriminates, table};

    /// A sweep of `(series, speedups at 1, 2, 4, 8 nodes)`.
    fn sweep(series: &[(&str, [f64; 4])]) -> Table {
        let mut t = table(&["threads", "speedup"], &[]);
        for (name, s) in series {
            for (n, x) in [1, 2, 4, 8].iter().zip(s) {
                t.row(format!("{name} {n}n"), vec![(4 * n) as f64, *x]);
            }
        }
        t
    }

    const UP: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
    const FLAT: [f64; 4] = [3.0, 2.7, 1.8, 1.3];

    #[test]
    fn fig13a_claims_discriminate() {
        let pthreads = |best: f64| ("Pthreads", [1.0, 2.0, 3.0, best]);
        discriminates(
            &FIG13A,
            &[
                ("fig13a.argo_beats_pthreads", vec![sweep(&[pthreads(5.0), ("Argo", UP)])], vec![sweep(&[pthreads(5.2), ("Argo", FLAT)])]),
                ("fig13a.argo_gains_to_8_nodes", vec![sweep(&[("Argo", UP)])], vec![sweep(&[("Argo", FLAT)])]),
            ],
        );
    }

    #[test]
    fn fig13b_claims_discriminate() {
        let good = vec![sweep(&[("Argo", UP), ("MPI", UP)])];
        discriminates(
            &FIG13B,
            &[
                ("fig13b.argo_scales", good.clone(), vec![sweep(&[("Argo", FLAT), ("MPI", UP)])]),
                ("fig13b.argo_meets_mpi", good, vec![sweep(&[("Argo", [1.0, 2.0, 4.0, 7.9]), ("MPI", UP)])]),
            ],
        );
    }

    #[test]
    fn fig13c_claims_discriminate() {
        let good = vec![sweep(&[("Argo", UP), ("MPI", FLAT)])];
        discriminates(
            &FIG13C,
            &[
                ("fig13c.argo_scales", good.clone(), vec![sweep(&[("Argo", FLAT), ("MPI", FLAT)])]),
                ("fig13c.mpi_falls_behind", good, vec![sweep(&[("Argo", UP), ("MPI", [1.0, 2.0, 4.0, 9.0])])]),
            ],
        );
    }

    #[test]
    fn fig13d_claims_discriminate() {
        let small = sweep(&[("Argo", UP), ("MPI", [3.0, 4.0, 5.0, 7.0])]);
        let large = sweep(&[("Argo", UP), ("MPI", [2.0, 4.0, 8.0, 16.0])]);
        let with_small = |s: [f64; 4], m: [f64; 4]| vec![sweep(&[("Argo", s), ("MPI", m)]), large.clone()];
        let with_large = |m: [f64; 4]| vec![small.clone(), sweep(&[("Argo", UP), ("MPI", m)])];
        let paper = vec![small.clone(), large.clone()];
        discriminates(
            &FIG13D,
            &[
                ("fig13d.mpi_wins_at_1_node", paper.clone(), with_small(UP, [0.5, 4.0, 5.0, 7.0])),
                ("fig13d.small_mpi_lead_shrinks", paper.clone(), with_small(UP, [3.0, 6.0, 12.0, 24.0])),
                ("fig13d.small_argo_scales", paper.clone(), with_small([1.0, 2.0, 2.0, 3.0], [3.0, 4.0, 5.0, 6.0])),
                ("fig13d.large_both_scale", paper.clone(), with_large([2.0, 4.0, 8.0, 8.0])),
                ("fig13d.large_mpi_lead_persists", paper, with_large([2.0, 4.0, 8.0, 7.5])),
            ],
        );
    }

    #[test]
    fn fig13e_claims_discriminate() {
        let argo = ("Argo", [1.0, 7.0, 14.0, 25.0]);
        let good = vec![sweep(&[argo, ("UPC", [1.0, 7.5, 15.0, 26.0])])];
        discriminates(
            &FIG13E,
            &[
                ("fig13e.both_scale", good.clone(), vec![sweep(&[argo, ("UPC", [1.0, 7.5, 15.0, 14.0])])]),
                ("fig13e.near_linear", good, vec![sweep(&[("Argo", [1.0, 7.0, 14.0, 15.0]), ("UPC", [1.0, 7.5, 15.0, 26.0])])]),
            ],
        );
    }

    #[test]
    fn fig13f_claims_discriminate() {
        let paper = vec![sweep(&[("Argo", [1.0, 2.0, 3.0, 4.0]), ("UPC", [1.6, 2.5, 2.6, 2.6])])];
        discriminates(
            &FIG13F,
            &[
                ("fig13f.upc_ahead_at_1_node", paper.clone(), vec![sweep(&[("Argo", UP), ("UPC", [0.9, 2.5, 2.6, 2.6])])]),
                ("fig13f.argo_keeps_scaling", paper.clone(), vec![sweep(&[("Argo", FLAT), ("UPC", FLAT)])]),
                ("fig13f.argo_passes_upc", paper, vec![sweep(&[("Argo", FLAT), ("UPC", [5.0, 3.0, 1.6, 1.4])])]),
            ],
        );
    }

    #[test]
    fn sor_claim_discriminates() {
        discriminates(&SOR, &[("sor.argo_scales", vec![sweep(&[("Argo", UP)])], vec![sweep(&[("Argo", FLAT)])])]);
    }
}
