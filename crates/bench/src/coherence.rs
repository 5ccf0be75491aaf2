//! Coherence-policy head-to-head: the same workloads under Carina SI/SD,
//! Tardis timestamp leases and the Pyxis hybrid, on both transports, with
//! every checksum bit-identical across policies (the head-to-head means
//! nothing unless all engines compute the same answer).

use crate::{check, Claim, Figure, Table};
use argo::types::GlobalF64Array;
use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaSiSd, Coherence, Pyxis, Tardis};
use rma::{NativeTransport, SimTransport, Transport};
use std::sync::Arc;
use workloads::harness::{outcome_of, Outcome};
use workloads::{ep, matmul, sor};

pub const POLICIES: [&str; 3] = ["sisd", "tardis", "pyxis"];

/// The head-to-head's workloads; the two loops take a round count.
#[derive(Clone, Copy)]
enum Work {
    Matmul,
    Sor,
    Ep,
    ReadMostly(usize),
    Mixed(usize),
}

const WORKS: [(&str, Work); 5] = [
    ("matmul_96", Work::Matmul),
    ("sor_96x8", Work::Sor),
    ("ep_16k", Work::Ep),
    ("read_mostly_10r", Work::ReadMostly(10)),
    ("mixed_16r", Work::Mixed(16)),
];

impl Work {
    fn run<T: Transport, C: Coherence>(self, m: &Arc<ArgoMachine<T, C>>) -> Outcome {
        match self {
            Work::Matmul => matmul::run_argo(m, matmul::MatmulParams { n: 96 }),
            Work::Sor => sor::run_argo(m, sor::SorParams { n: 96, iterations: 8, omega: 1.25 }),
            Work::Ep => ep::run_argo(m, ep::EpParams { pairs: 1 << 14 }),
            Work::ReadMostly(rounds) => read_mostly(m, rounds),
            Work::Mixed(rounds) => mixed(m, rounds),
        }
    }
}

/// `w` under policy `C` on the simulator.
fn on_sim<C: Coherence>(w: Work) -> Outcome {
    w.run(&ArgoMachine::<SimTransport, C>::with_policy(ArgoConfig::small(4, 2)))
}

/// `w` under policy `C` on the simulator, then on the native backend.
fn both<C: Coherence>(w: Work) -> [Outcome; 2] {
    [on_sim::<C>(w), w.run(&ArgoMachine::<NativeTransport, C>::native_with_policy(ArgoConfig::small(4, 2)))]
}

/// Fence-heavy read-mostly loop: one writer initializes a region, readers
/// then sweep it through repeated acquire fences while nothing changes —
/// the published-data pattern leases were designed for.
fn read_mostly<T: Transport, C: Coherence>(m: &Arc<ArgoMachine<T, C>>, rounds: usize) -> Outcome {
    let n = 16 * 1024usize;
    let arr = GlobalF64Array::alloc(m.dsm(), n);
    outcome_of(m.run(move |ctx| {
        if ctx.tid() == 0 {
            (0..n).for_each(|i| arr.set(ctx, i, i as f64));
        }
        // No start_measurement here: resetting the directory would erase
        // the writer's registration and leave the pages S/NW, which not
        // even SI/SD invalidates. The interesting case is S/SW: one
        // registered writer, fences every round.
        ctx.barrier();
        let mut sum = 0.0;
        for _ in 0..rounds {
            ctx.barrier(); // SI+SD per round; the data never changes
            sum += (0..n).step_by(64).map(|i| arr.get(ctx, i)).sum::<f64>();
        }
        sum
    }))
}

/// Mixed sharing — the hybrid's home turf. A quiet region is written once
/// and re-read every round; a hot region is rewritten by one writer every
/// round and read back by everyone. SI/SD refetches both at every reader
/// fence; Tardis leases the quiet region but churns leases on the hot one;
/// Pyxis should lease the quiet region, classify the hot one, and beat
/// both.
fn mixed<T: Transport, C: Coherence>(m: &Arc<ArgoMachine<T, C>>, rounds: usize) -> Outcome {
    let (quiet_n, hot_n) = (16 * 1024usize, 4 * 1024usize);
    let quiet = GlobalF64Array::alloc(m.dsm(), quiet_n);
    let hot = GlobalF64Array::alloc(m.dsm(), hot_n);
    outcome_of(m.run(move |ctx| {
        if ctx.tid() == 0 {
            (0..quiet_n).for_each(|i| quiet.set(ctx, i, i as f64));
        }
        ctx.barrier();
        let mut sum = 0.0;
        for round in 0..rounds {
            if ctx.tid() == 0 {
                (0..hot_n).step_by(8).for_each(|i| hot.set(ctx, i, (round * 7 + i) as f64));
            }
            ctx.barrier(); // publishes the round's hot writes
            sum += (0..quiet_n).step_by(64).map(|i| quiet.get(ctx, i)).sum::<f64>();
            sum += (0..hot_n).step_by(64).map(|i| hot.get(ctx, i)).sum::<f64>();
            ctx.barrier(); // orders this round's reads before the next writes
        }
        sum
    }))
}

/// One row per (workload, policy, backend) run; a policy's checksums are
/// bit-identical to the others' on each backend.
fn runs() -> Table {
    let cols = ["cycles", "wall_ms", "si_inval", "si_kept", "lease_kept", "rd_misses", "switches"];
    let cols = cols.map(|c| (c, if c == "wall_ms" { 3 } else { 0 }));
    let mut t = Table::new("Coherence policies: every run", "workload policy backend", &cols);
    for (name, w) in WORKS {
        let outs = [both::<CarinaSiSd>(w), both::<Tardis>(w), both::<Pyxis>(w)];
        for (b, backend) in ["sim", "native"].iter().enumerate() {
            let bits: Vec<u64> = outs.iter().map(|o| o[b].checksum.to_bits()).collect();
            assert!(bits.windows(2).all(|x| x[0] == x[1]), "{name}: policies disagree on {backend}");
            for (policy, o) in POLICIES.iter().zip(&outs) {
                let (o, c) = (&o[b], &o[b].coherence);
                let ledger = [c.si_invalidated, c.si_kept, c.lease_kept, c.read_misses, c.mode_to_lease + c.mode_to_sisd];
                let mut v = vec![o.cycles as f64, o.wall_seconds * 1e3];
                v.extend(ledger.map(|x| x as f64));
                t.row(format!("{name} {policy} {backend}"), v);
            }
        }
    }
    t
}

/// `col` of `work` on the simulator under each policy.
fn trio(t: &[Table], work: &str, col: &str) -> [f64; 3] {
    POLICIES.map(|p| t[0].get(&format!("{work} {p} sim"), col))
}

fn shown(what: &str, v: [f64; 3]) -> String {
    format!("{what}: sisd {}, tardis {}, pyxis {}", v[0], v[1], v[2])
}

pub const COHERENCE: Figure = Figure {
    name: "coherence",
    sweep: |_| {
        let all = runs();
        let mut sims = Table::new("Coherence policies: sim cycles", "workload", &[("tardis/sisd", 3), ("pyxis/sisd", 3)]);
        for (w, _) in WORKS {
            let c = POLICIES.map(|p| all.get(&format!("{w} {p} sim"), "cycles"));
            sims.row(w, vec![c[1] / c[0], c[2] / c[0]]);
        }
        // The marginal cycles of 20 more rounds once modes have settled,
        // which excludes the hybrid's one-time adaptation.
        let mut steady = Table::new("Coherence policies: steady read-mostly round", "policy", &[("cycles", 0)]);
        let long = Work::ReadMostly(30);
        let long = [on_sim::<CarinaSiSd>(long), on_sim::<Tardis>(long), on_sim::<Pyxis>(long)];
        for (p, o) in POLICIES.iter().zip(long) {
            let short = all.get(&format!("read_mostly_10r {p} sim"), "cycles");
            steady.row(p, vec![(o.cycles as f64 - short).max(0.0) / 20.0]);
        }
        vec![all, sims, steady]
    },
    claims: &[
        Claim {
            id: "coherence.tardis_cuts_read_mostly_invalidations",
            says: "leases cut SI invalidations on read-mostly sharing",
            test: |t| {
                let v = trio(t, "read_mostly_10r", "si_inval");
                check(v[1] < v[0], shown("read_mostly_10r SI invalidations", v))
            },
        },
        Claim {
            id: "coherence.pyxis_cuts_read_mostly_invalidations",
            says: "the hybrid inherits the cut",
            test: |t| {
                let v = trio(t, "read_mostly_10r", "si_inval");
                check(v[2] < v[0], shown("read_mostly_10r SI invalidations", v))
            },
        },
        Claim {
            id: "coherence.pyxis_sor_within_10pct",
            says: "on write-heavy SOR Pyxis keeps classification mode: within 10 % of the better pure policy",
            test: |t| {
                let v = trio(t, "sor_96x8", "cycles");
                check(v[2] <= 1.10 * v[0].min(v[1]), shown("sor_96x8 cycles", v))
            },
        },
        Claim {
            id: "coherence.pyxis_steady_read_mostly_within_10pct",
            says: "Pyxis's steady-state read-mostly round is within 10 % of the better pure policy",
            test: |t| {
                let v = POLICIES.map(|p| t[2].get(p, "cycles"));
                check(v[2] <= 1.10 * v[0].min(v[1]), shown("cycles per steady round", v))
            },
        },
        Claim {
            id: "coherence.pyxis_mixed_beats_both",
            says: "on mixed sharing the hybrid's total, adaptation included, beats both pure policies",
            test: |t| {
                let v = trio(t, "mixed_16r", "cycles");
                check(v[2] < v[0] && v[2] < v[1], shown("mixed_16r cycles", v))
            },
        },
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{discriminates, table};

    /// Simulator rows: (workload, [(cycles, SI invalidations); policy]),
    /// and the steady round per policy.
    fn h2h(works: &[(&str, [[f64; 2]; 3])], steady: [f64; 3]) -> Vec<Table> {
        let mut t = table(&["cycles", "si_inval"], &[]);
        for (w, v) in works {
            POLICIES.iter().zip(v).for_each(|(p, v)| t.row(format!("{w} {p} sim"), v.to_vec()));
        }
        let rounds = table(&["cycles"], &[("sisd", &[steady[0]]), ("tardis", &[steady[1]]), ("pyxis", &[steady[2]])]);
        vec![t, table(&[], &[]), rounds]
    }

    #[test]
    fn coherence_claims_discriminate() {
        let c = |v: [f64; 3]| v.map(|x| [x, 0.0]);
        let good = h2h(
            &[
                ("read_mostly_10r", [[1_079_240.0, 648.0], [599_527.0, 24.0], [1_071_965.0, 336.0]]),
                ("sor_96x8", c([714_537.0, 1_322_214.0, 710_062.0])),
                ("mixed_16r", c([1_719_725.0, 2_274_013.0, 1_709_615.0])),
            ],
            [40_233.0, 8_888.0, 7_603.0],
        );
        let bad = h2h(
            &[
                ("read_mostly_10r", [[1_079_240.0, 648.0], [599_527.0, 700.0], [1_071_965.0, 648.0]]),
                ("sor_96x8", c([714_537.0, 1_322_214.0, 790_000.0])),
                ("mixed_16r", c([1_719_725.0, 2_274_013.0, 1_729_615.0])),
            ],
            [40_233.0, 8_004.0, 10_342.0],
        );
        let cases: Vec<_> = COHERENCE.claims.iter().map(|c| (c.id, good.clone(), bad.clone())).collect();
        discriminates(&COHERENCE, &cases);
    }
}
