//! Figure 7: achievable bandwidth of an Argo cache-line read vs raw
//! one-sided communication, as a function of transfer size.
//!
//! The paper plots MB/s of reading a "line" of consecutive pages through
//! Argo's cache against OpenMPI passive one-sided transfers of the same
//! size: Argo tracks the raw transfer rate closely, both asymptoting to
//! the wire bandwidth as the per-message latency amortizes.

use argo::{ArgoConfig, ArgoMachine};
use bench::{cell, f2, print_header, print_row};
use carina::CarinaConfig;
use mem::{CacheConfig, PAGE_BYTES};
use simnet::{CostModel, NodeId};

/// MB/s for a given virtual duration and byte count.
fn mbps(bytes: u64, cycles: u64, cost: &CostModel) -> f64 {
    bytes as f64 / cost.cycles_to_secs(cycles) / 1e6
}

fn main() {
    let cost = CostModel::paper_2011();
    print_header(
        "Figure 7: bandwidth vs transfer size",
        &["bytes", "Argo MB/s", "RMA MB/s", "ratio"],
    );
    // Sweep line sizes from 1 page to the cache's limit of 64 pages
    // (4 KiB .. 256 KiB): a line's valid mask is one 64-bit word.
    for pages_per_line in [1usize, 2, 4, 8, 16, 32, 64] {
        let bytes = pages_per_line as u64 * PAGE_BYTES;

        // Raw one-sided read of the same size (the MPI-RMA line).
        let topo = simnet::ClusterTopology::tiny(2);
        let net = simnet::Interconnect::new(topo, cost);
        let t0 = net.rdma_read(topo.loc(NodeId(0), 0), NodeId(1), 0, bytes);
        let rma = mbps(bytes, t0.initiator_done, &cost);

        // Argo cache-line read: cold miss on a line of `pages_per_line`
        // pages, all homed on the remote node of a 2-node cluster.
        let mut cfg = ArgoConfig::small(2, 1);
        cfg.carina = CarinaConfig {
            cache: CacheConfig::new(64, pages_per_line),
            ..CarinaConfig::default()
        };
        cfg.bytes_per_node = 64 << 20;
        let machine = ArgoMachine::new(cfg);
        // Touch `lines_to_read` distinct lines; average the cost.
        let lines_to_read = 32usize;
        let report = machine.run(move |ctx| {
            ctx.start_measurement(); // collective
            if ctx.tid() != 0 {
                return 0.0;
            }
            let mut sink = 0u64;
            for l in 1..=lines_to_read {
                // Demand one *remote* page per line (node 0 homes even
                // pages, so pick an odd page inside line `l`); the fill
                // brings the whole line.
                let base = (l * pages_per_line) as u64;
                let page = if pages_per_line == 1 {
                    // Lines are single pages; only odd lines are remote.
                    2 * base + 1
                } else if base % 2 == 1 {
                    base
                } else {
                    base + 1
                };
                sink ^= ctx.read_u64(mem::GlobalAddr(page * PAGE_BYTES));
            }
            sink as f64
        });
        // Per line: half the pages are remote (interleaving) — count the
        // actually transferred bytes from the stats.
        let transferred = report.net.bytes_read;
        let argo = mbps(transferred, report.cycles, &cost);
        print_row(&[
            cell(bytes),
            f2(argo),
            f2(rma),
            f2(argo / rma),
        ]);
    }
    println!("\nShape check (paper): both curves rise with transfer size and converge;");
    println!("Argo tracks the raw one-sided rate, slightly below it at small sizes");
    println!("(per-miss protocol overhead), approaching it at large line sizes.");
}
