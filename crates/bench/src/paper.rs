//! The paper's motivation and mechanism figures: Fig. 1's technology
//! trends, Table 1's classification schemes and Fig. 7's bandwidth.

use crate::{arrow, check, rising, Claim, Figure, Table};
use argo::{ArgoConfig, ArgoMachine};
use carina::classification::{node_bit, ClassificationMode, DirView};
use carina::CarinaConfig;
use mem::{CacheConfig, GlobalAddr, PAGE_BYTES};
use simnet::{ClusterTopology, CostModel, Interconnect, NodeId};

/// The paper's trend table (adapted from Ramesh's thesis): year, CPU MHz,
/// then DRAM latency, network latency and network cost per KB in CPU
/// cycles. Its 2011 row is the calibration of `CostModel::paper_2011()`.
const TRENDS: [[u32; 5]; 8] = [
    [1992, 200, 16, 40_000, 1092],
    [1994, 500, 35, 50_000, 2731],
    [1997, 1000, 70, 30_000, 3901],
    [2000, 2400, 168, 24_000, 2313],
    [2005, 3200, 224, 4_160, 1311],
    [2007, 3200, 192, 4_160, 655],
    [2009, 3300, 165, 3_300, 211],
    [2011, 3400, 170, 1_700, 111],
];

pub const FIG01: Figure = Figure {
    name: "fig01",
    sweep: |_| {
        let cols = ["CPU MHz", "DRAM lat", "net lat", "cyc/KB", "net/DRAM"].map(|c| (c, 0));
        let mut t = Table::new("Figure 1: trends normalized to CPU cycles", "year", &cols);
        for [year, cpu, dram, net, per_kb] in TRENDS {
            let v = [cpu, dram, net, per_kb].map(f64::from);
            t.row(year, vec![v[0], v[1], v[2], v[3], v[2] / v[1]]);
        }
        vec![t]
    },
    // The observations the paper draws from this table (cycles per KB
    // peaked in 1997; network latency fell from 2 500 to 10 DRAM
    // latencies) are about constants, so no claim checks them.
    claims: &[],
};

pub const TABLE1: Figure = Figure {
    name: "table1",
    // Printed from the protocol's decision logic: the table is the code.
    sweep: |_| {
        let (me, other) = (node_bit(0), node_bit(1));
        let views = [
            ("P (mine)", DirView { readers: me, writers: me }),
            ("S, NW", DirView { readers: me | other, writers: 0 }),
            ("S, SW (me)", DirView { readers: me | other, writers: me }),
            ("S, SW (other)", DirView { readers: me | other, writers: other }),
            ("S, MW", DirView { readers: me | other, writers: me | other }),
        ];
        let scheme = |(mode, title)| {
            let mut t = Table::new(title, "state (1 = does)", &[("SI", 0), ("SD", 0)]);
            for (label, v) in &views {
                let (si, sd) = (v.must_self_invalidate(mode, 0), v.must_self_downgrade(mode));
                t.row(label, vec![f64::from(u8::from(si)), f64::from(u8::from(sd))]);
            }
            t
        };
        use ClassificationMode::*;
        [
            (AllShared, "S: no classification"),
            (PsNaive, "P/S: simple classification (naive)"),
            (Ps3, "P/S3: full P/S + writer classification"),
        ]
        .map(scheme)
        .to_vec()
    },
    // Its rows are asserted one by one by carina::classification's
    // table1_* unit tests.
    claims: &[],
};

/// MB/s for a given virtual duration and byte count.
fn mbps(bytes: u64, cycles: u64, cost: &CostModel) -> f64 {
    bytes as f64 / cost.cycles_to_secs(cycles) / 1e6
}

/// Cold misses on 32 lines of `line` pages: every other line of a region
/// `alloc_blocked` homes on the remote node of a 2-node cluster, so no
/// miss reads ahead past its line. Returns (bytes read, cycles).
fn argo_lines(line: u64) -> (u64, u64) {
    let mut cfg = ArgoConfig::small(2, 1);
    cfg.carina = CarinaConfig { cache: CacheConfig::new(64, line as usize), ..CarinaConfig::default() };
    cfg.bytes_per_node = 64 << 20;
    let machine = ArgoMachine::new(cfg);
    // Two halves of 65 lines: node 1 homes the second, 64 whole lines from `first`.
    let half = 65 * line;
    let base = machine.dsm().alloc_blocked(2 * half * PAGE_BYTES).expect("fig07 region fits");
    let first = (base.page().0 + half).div_ceil(line);
    let report = machine.run(move |ctx| {
        ctx.start_measurement(); // collective
        let lines = if ctx.tid() == 0 { 0..32 } else { 0..0 };
        lines.fold(0, |sink, i| sink ^ ctx.read_u64(GlobalAddr((first + 2 * i) * line * PAGE_BYTES))) as f64
    });
    assert_eq!(report.net.bytes_read, 32 * line * PAGE_BYTES, "fig07: a miss reads its whole line");
    (report.net.bytes_read, report.cycles)
}

pub const FIG07: Figure = Figure {
    name: "fig07",
    // Line sizes from 1 page to the cache's limit of 64 pages (4 KiB ..
    // 256 KiB): a line's valid mask is one 64-bit word.
    sweep: |_| {
        let cost = CostModel::paper_2011();
        let cols = [("Argo MB/s", 2), ("RMA MB/s", 2), ("ratio", 2)];
        let mut t = Table::new("Figure 7: bandwidth vs transfer size", "bytes", &cols);
        for pages in [1, 2, 4, 8, 16, 32, 64] {
            let bytes = pages * PAGE_BYTES;
            let topo = ClusterTopology::tiny(2);
            let raw = Interconnect::new(topo, cost).rdma_read(topo.loc(NodeId(0), 0), NodeId(1), 0, bytes);
            let rma = mbps(bytes, raw.initiator_done, &cost);
            let (transferred, cycles) = argo_lines(pages);
            let argo = mbps(transferred, cycles, &cost);
            t.row(bytes, vec![argo, rma, argo / rma]);
        }
        vec![t]
    },
    claims: &[
        Claim {
            id: "fig07.both_rise",
            says: "both curves rise with transfer size",
            test: |t| {
                let (a, r) = (t[0].series("", "Argo MB/s"), t[0].series("", "RMA MB/s"));
                check(rising(&a) && rising(&r), format!("Argo {}; RMA {}", arrow(&a), arrow(&r)))
            },
        },
        Claim {
            id: "fig07.argo_below_rma",
            says: "Argo tracks the raw one-sided rate from below (per-miss protocol overhead)",
            test: |t| {
                let ratio = t[0].series("", "ratio");
                check(ratio.iter().all(|&q| q <= 1.0), format!("Argo/RMA {}", arrow(&ratio)))
            },
        },
        Claim {
            id: "fig07.curves_converge",
            says: "Argo approaches the raw rate at large line sizes",
            test: |t| {
                let ratio = t[0].series("", "ratio");
                check(ratio[ratio.len() - 1] > ratio[0], format!("Argo/RMA {}", arrow(&ratio)))
            },
        },
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{discriminates, table};

    #[test]
    fn fig07_claims_discriminate() {
        let lines = |rows: [[f64; 2]; 3]| {
            let r = rows.map(|[a, m]| [a, m, a / m]);
            vec![table(&["Argo MB/s", "RMA MB/s", "ratio"], &[("4096", &r[0]), ("8192", &r[1]), ("16384", &r[2])])]
        };
        let paper = lines([[1.0, 3.0], [3.0, 5.0], [6.0, 7.0]]);
        discriminates(
            &FIG07,
            &[
                ("fig07.both_rise", paper.clone(), lines([[2.0, 3.0], [1.0, 5.0], [6.0, 7.0]])),
                ("fig07.argo_below_rma", paper.clone(), lines([[1.0, 3.0], [6.0, 5.0], [6.0, 7.0]])),
                ("fig07.curves_converge", paper, lines([[2.0, 3.0], [3.0, 5.0], [4.0, 7.0]])),
            ],
        );
    }
}
