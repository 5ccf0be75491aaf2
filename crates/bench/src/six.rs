//! The six-benchmark suite (Blackscholes, CG, EP, LU, MM, Nbody on a
//! 4-node cluster) and the four figures that sweep a Carina configuration
//! over it: Fig. 8 (classification), Figs. 9/10 (write-buffer size), the
//! passive-directory and the prefetch-line ablations.

use crate::{check, geomean, threads_per_node, Check, Claim, Figure, Table};
use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaConfig, ClassificationMode};
use mem::CacheConfig;
use workloads::{blackscholes, cg, ep, lu, matmul, nbody, Outcome};

/// Benchmark names in the paper's Figure 8 order.
pub const NAMES: [&str; 6] = ["Blackscholes", "CG", "EP", "LU", "MM", "Nbody"];

/// Run one of the six by name on a cluster with the given coherence
/// config. `full` selects larger inputs.
pub fn run(name: &str, nodes: usize, tpn: usize, carina: CarinaConfig, full: bool) -> Outcome {
    let mut cfg = ArgoConfig::small(nodes, tpn);
    cfg.carina = carina;
    cfg.bytes_per_node = 32 << 20;
    let machine = ArgoMachine::new(cfg);
    let s = |reduced: usize, fullv: usize| if full { fullv } else { reduced };
    match name {
        "Blackscholes" => blackscholes::run_argo(
            &machine,
            blackscholes::BsParams { options: s(8_192, 65_536), iterations: s(3, 5) },
        ),
        "CG" => cg::run_argo(
            &machine,
            cg::CgParams { n: s(2_048, 16_384), nnz_per_row: s(8, 16), iterations: s(4, 15) },
        ),
        "EP" => ep::run_argo(&machine, ep::EpParams { pairs: s(1 << 16, 1 << 20) }),
        "LU" => lu::run_argo(&machine, lu::LuParams { n: s(128, 384), block: 16 }),
        "MM" => matmul::run_argo(&machine, matmul::MatmulParams { n: s(96, 384) }),
        "Nbody" => nbody::run_argo(
            &machine,
            nbody::NbodyParams { bodies: s(768, 4_096), steps: s(2, 4) },
        ),
        other => panic!("unknown benchmark {other}"),
    }
}

/// One benchmark's runs, one per configuration.
type Runs = Vec<(&'static str, Vec<Outcome>)>;

/// Run `names` on 4 nodes under every configuration of `configs`; every
/// configuration must compute the same checksum.
pub fn sweep(names: &[&'static str], configs: &[CarinaConfig], full: bool) -> Runs {
    let tpn = threads_per_node(full);
    let runs = |name: &'static str| {
        let outs: Vec<Outcome> = configs.iter().map(|&c| run(name, 4, tpn, c, full)).collect();
        let same = outs.iter().all(|o| o.checksum_matches(&outs[0], 1e-6));
        assert!(same, "{name}: checksums diverge across configurations");
        (name, outs)
    };
    names.iter().map(|&n| runs(n)).collect()
}

/// Each benchmark's cycles under every configuration relative to its
/// first, and their geomeans as an "Average" row.
fn normalized(title: &str, cols: &[&str], runs: &Runs) -> Table {
    let mut t = Table::new(title, "benchmark", &cols.iter().map(|c| (*c, 3)).collect::<Vec<_>>());
    let ratio = |o: &Vec<Outcome>| o.iter().map(|x| x.cycles as f64 / o[0].cycles as f64).collect();
    let rows: Vec<Vec<f64>> = runs.iter().map(|(_, o)| ratio(o)).collect();
    runs.iter().zip(&rows).for_each(|((name, _), r)| t.row(name, r.clone()));
    let mean = |c: usize| geomean(&rows.iter().map(|r| r[c]).collect::<Vec<_>>());
    t.row("Average", (0..cols.len()).map(mean).collect());
    t
}

fn averages(t: &[Table]) -> String {
    let (ps, ps3) = (t[0].get("Average", "P/S"), t[0].get("Average", "P/S3"));
    format!("geomean of S: P/S {ps:.3}, P/S3 {ps3:.3}")
}

pub const FIG08: Figure = Figure {
    name: "fig08",
    sweep: |full| {
        use ClassificationMode::*;
        let runs = sweep(&NAMES, &[AllShared, PsNaive, Ps3].map(CarinaConfig::with_mode), full);
        let title = "Figure 8: normalized execution time (lower is better)";
        vec![normalized(title, &["S", "P/S", "P/S3"], &runs)]
    },
    claims: &[
        Claim {
            id: "fig08.ps3_beats_s",
            says: "P/S3 is faster than S on average (paper: ~0.8)",
            test: |t| check(t[0].get("Average", "P/S3") < 1.0, averages(t)),
        },
        Claim {
            id: "fig08.ps3_beats_naive_ps",
            says: "P/S3 is faster than naive P/S on average",
            test: |t| check(t[0].get("Average", "P/S3") < t[0].get("Average", "P/S"), averages(t)),
        },
        Claim {
            id: "fig08.naive_ps_no_better_than_s",
            says: "naive P/S is no better than S: checkpointing its private pages cancels the gain",
            test: |t| check(t[0].get("Average", "P/S") >= 1.0, averages(t)),
        },
    ],
};

/// Each row's label with its first (`from_first`) or second-to-last
/// value, and its last value.
fn ends(t: &Table, from_first: bool) -> Vec<(&str, f64, f64)> {
    let pick = |v: &Vec<f64>| (if from_first { v[0] } else { v[v.len() - 2] }, v[v.len() - 1]);
    t.rows().iter().map(|(l, v)| (l.as_str(), pick(v).0, pick(v).1)).collect()
}

/// Whether every row's pair passes `ok`, with the pairs shown.
fn all_ends(v: &[(&str, f64, f64)], ok: fn(f64, f64) -> bool) -> Check {
    let shown: Vec<String> = v.iter().map(|(l, a, b)| format!("{l} {a}→{b}")).collect();
    check(!v.is_empty() && v.iter().all(|(_, a, b)| ok(*a, *b)), shown.join(", "))
}

pub const FIG09_10: Figure = Figure {
    name: "fig09_10",
    sweep: |full| {
        let sizes: Vec<usize> =
            if full { (0..16).map(|i| 1 << i).collect() } else { vec![1, 2, 4, 8, 32, 128, 1024, 8192] };
        let configs: Vec<_> = sizes.iter().map(|&p| CarinaConfig::with_write_buffer(p)).collect();
        let cols = |d| sizes.iter().map(|s| (s.to_string(), d)).collect::<Vec<_>>();
        let title = "Figure 9: execution time (Mcycles) vs write-buffer pages";
        let mut time = Table::new(title, "benchmark", &cols(1));
        let mut wbs = Table::new("Figure 10: writebacks vs write-buffer pages", "benchmark", &cols(0));
        for (name, outs) in sweep(&NAMES, &configs, full) {
            time.row(name, outs.iter().map(|o| o.cycles as f64 / 1e6).collect());
            wbs.row(name, outs.iter().map(|o| o.coherence.writebacks as f64).collect());
        }
        vec![time, wbs]
    },
    claims: &[
        Claim {
            id: "fig09.tiny_buffer_slower",
            says: "below a benchmark's critical size (it writes back more than at the largest) time explodes",
            test: |t| {
                let thrash = ends(&t[1], true).into_iter().map(|(_, a, b)| a > b);
                let time = ends(&t[0], true).into_iter().zip(thrash).filter(|x| x.1);
                all_ends(&time.map(|x| x.0).collect::<Vec<_>>(), |small, large| small > large)
            },
        },
        Claim {
            id: "fig09.large_buffers_cost_more",
            says: "very large buffers cost slightly more at sync points",
            test: |t| all_ends(&ends(&t[0], false), |big, biggest| biggest >= big),
        },
        Claim {
            id: "fig10.writebacks_fall",
            says: "writeback counts fall steeply with buffer size",
            test: |t| {
                let v = ends(&t[1], true);
                let mut c = all_ends(&v, |small, large| small >= large);
                c.holds = c.holds.map(|h| h && v.iter().any(|(_, a, b)| a > b));
                c
            },
        },
        Claim {
            id: "fig10.writebacks_plateau",
            says: "writebacks plateau once each benchmark's dirty working set fits in the buffer",
            test: |t| all_ends(&ends(&t[1], false), |big, biggest| big == biggest),
        },
    ],
};

/// The benchmark rows of an ablation table, without its "Average".
fn benchmarks(t: &Table) -> impl Iterator<Item = &(String, Vec<f64>)> {
    t.rows().iter().filter(|(l, _)| l != "Average")
}

pub const PASSIVE_DIR: Figure = Figure {
    name: "passive_dir",
    sweep: |full| {
        let active = CarinaConfig { active_directory: true, ..Default::default() };
        let title = "Ablation: active-directory slowdown vs passive (Argo)";
        let mut t = Table::new(title, "benchmark", &[("passive", 3), ("active", 3), ("handlers", 0)]);
        let (mut slowdowns, mut handlers) = (Vec::new(), 0.0);
        for (name, o) in sweep(&NAMES, &[CarinaConfig::default(), active], full) {
            assert_eq!(o[0].net.handler_invocations, 0, "{name}: the passive directory ran a handler");
            slowdowns.push(o[1].cycles as f64 / o[0].cycles as f64);
            handlers += o[1].net.handler_invocations as f64 / NAMES.len() as f64;
            t.row(name, vec![1.0, slowdowns[slowdowns.len() - 1], o[1].net.handler_invocations as f64]);
        }
        t.row("Average", vec![1.0, geomean(&slowdowns), handlers]);
        vec![t]
    },
    claims: &[
        Claim {
            id: "passive_dir.active_never_faster",
            says: "an active directory is no faster than the passive one on any benchmark",
            test: |t| {
                let v: Vec<String> = benchmarks(&t[0]).map(|(l, v)| format!("{l} {:.3}", v[1])).collect();
                check(benchmarks(&t[0]).all(|(_, v)| v[1] >= 1.0), format!("active/passive {}", v.join(", ")))
            },
        },
        Claim {
            id: "passive_dir.gap_grows_with_handlers",
            says: "the gap grows with the directory operations that pay a handler at the home",
            test: |t| {
                let by_handlers = |a: &&(String, Vec<f64>), b: &&(String, Vec<f64>)| a.1[2].total_cmp(&b.1[2]);
                let most = benchmarks(&t[0]).max_by(by_handlers).expect("rows");
                let fewest = benchmarks(&t[0]).min_by(by_handlers).expect("rows");
                let one = |(l, v): &(String, Vec<f64>)| format!("{l} ({} handlers) {:.3}", v[2], v[1]);
                check(most.1[1] > fewest.1[1], format!("{} vs {}", one(most), one(fewest)))
            },
        },
    ],
};

fn longest_lines(t: &[Table], names: &[&str]) -> String {
    let v: Vec<String> = names.iter().map(|n| format!("{n} {:.3}", t[0].get(n, "16p"))).collect();
    format!("16-page / 1-page time: {}", v.join(", "))
}

pub const PREFETCH: Figure = Figure {
    name: "prefetch",
    sweep: |full| {
        let lines = [1, 2, 4, 8, 16];
        let cfg = |ppl: usize| CarinaConfig { cache: CacheConfig::new(8192 / ppl, ppl), ..Default::default() };
        let runs = sweep(&["Blackscholes", "MM", "CG", "Nbody"], &lines.map(cfg), full);
        let title = "Ablation: exec time vs prefetch line size (norm. to 1 page)";
        vec![normalized(title, &["1p", "2p", "4p", "8p", "16p"], &runs)]
    },
    claims: &[
        Claim {
            id: "prefetch.streaming_gains",
            says: "streaming benchmarks (Blackscholes, MM) gain from longer lines",
            test: |t| {
                let gain = ["Blackscholes", "MM"].iter().all(|n| t[0].get(n, "16p") < 1.0);
                check(gain, longest_lines(t, &["Blackscholes", "MM"]))
            },
        },
        Claim {
            id: "prefetch.cg_gains_least",
            says: "irregular access (CG) gains less than the streaming benchmarks, or regresses",
            test: |t| {
                let cg = t[0].get("CG", "16p");
                let least = ["Blackscholes", "MM"].iter().all(|n| t[0].get(n, "16p") < cg);
                check(least, longest_lines(t, &["CG", "Blackscholes", "MM"]))
            },
        },
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{discriminates, table};

    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs all six workloads; use --release")]
    fn every_name_runs() {
        for name in NAMES {
            let out = run(name, 2, 2, CarinaConfig::default(), false);
            assert!(out.cycles > 0, "{name} produced no time");
            assert!(out.checksum.is_finite(), "{name} checksum not finite");
        }
    }

    fn modes(ps: f64, ps3: f64) -> Vec<Table> {
        vec![table(&["S", "P/S", "P/S3"], &[("Average", &[1.0, ps, ps3])])]
    }

    #[test]
    fn fig08_claims_discriminate() {
        discriminates(
            &FIG08,
            &[
                ("fig08.ps3_beats_s", modes(1.0, 0.8), modes(1.0, 1.2)),
                ("fig08.ps3_beats_naive_ps", modes(1.0, 0.8), modes(0.7, 0.8)),
                ("fig08.naive_ps_no_better_than_s", modes(1.01, 0.8), modes(0.9, 0.8)),
            ],
        );
    }

    /// Mcycles and writebacks at buffer sizes 1, 1024 and 8192 pages of a
    /// benchmark `a` and a flat one.
    fn buffers(a: [(f64, f64); 3]) -> Vec<Table> {
        let cols = ["1", "1024", "8192"];
        let flat: &[f64] = &[5.0, 5.0, 5.0];
        let (time, wbs) = (a.map(|x| x.0), a.map(|x| x.1));
        vec![table(&cols, &[("A", &time), ("B", flat)]), table(&cols, &[("A", &wbs), ("B", flat)])]
    }

    #[test]
    fn fig09_10_claims_discriminate() {
        let paper = buffers([(90.0, 50.0), (10.0, 5.0), (11.0, 5.0)]);
        let faster = buffers([(9.0, 50.0), (10.0, 5.0), (11.0, 5.0)]);
        let cheaper = buffers([(90.0, 50.0), (10.0, 5.0), (9.0, 5.0)]);
        let flat = buffers([(5.0, 5.0), (5.0, 5.0), (5.0, 5.0)]);
        let no_plateau = buffers([(90.0, 50.0), (10.0, 7.0), (11.0, 5.0)]);
        discriminates(
            &FIG09_10,
            &[
                ("fig09.tiny_buffer_slower", paper.clone(), faster),
                ("fig09.large_buffers_cost_more", paper.clone(), cheaper),
                ("fig10.writebacks_fall", paper.clone(), flat),
                ("fig10.writebacks_plateau", paper, no_plateau),
            ],
        );
    }

    #[test]
    fn passive_dir_claims_discriminate() {
        let dir = |a: [f64; 2], b: [f64; 2]| {
            let cols = ["passive", "active", "handlers"];
            let avg: &[f64] = &[1.0, 0.5, 5.0];
            vec![table(&cols, &[("A", &[1.0, a[0], a[1]]), ("B", &[1.0, b[0], b[1]]), ("Average", avg)])]
        };
        discriminates(
            &PASSIVE_DIR,
            &[
                ("passive_dir.active_never_faster", dir([1.1, 9.0], [1.01, 1.0]), dir([1.1, 9.0], [0.99, 1.0])),
                ("passive_dir.gap_grows_with_handlers", dir([1.1, 9.0], [1.01, 1.0]), dir([1.01, 9.0], [1.1, 1.0])),
            ],
        );
    }

    #[test]
    fn prefetch_claims_discriminate() {
        let lines = |bs: f64, mm: f64, cg: f64| {
            let cols = ["1p", "16p"];
            vec![table(&cols, &[("Blackscholes", &[1.0, bs]), ("MM", &[1.0, mm]), ("CG", &[1.0, cg])])]
        };
        discriminates(
            &PREFETCH,
            &[
                ("prefetch.streaming_gains", lines(0.95, 0.6, 1.2), lines(1.05, 0.6, 1.2)),
                ("prefetch.cg_gains_least", lines(0.95, 0.6, 1.2), lines(0.95, 0.6, 0.9)),
            ],
        );
    }
}
