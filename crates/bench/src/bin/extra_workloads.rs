//! An extra workload beyond the paper's six ("an initial set of benchmarks
//! — expanding rapidly", §6): red-black SOR, the TreadMarks-lineage
//! stencil.

use argo::{ArgoConfig, ArgoMachine};
use bench::{cell, f2, full_scale, print_header, print_row, threads_per_node};
use workloads::sor;

fn main() {
    let full = full_scale();
    let tpn = threads_per_node();

    let p = if full {
        sor::SorParams { n: 1024, iterations: 12, omega: 1.25 }
    } else {
        sor::SorParams { n: 256, iterations: 8, omega: 1.25 }
    };
    let seq = sor::run_argo(&ArgoMachine::new(ArgoConfig::small(1, 1)), p);
    print_header(
        &format!("Extra: red-black SOR {0}x{0} speedup", p.n),
        &["config", "threads", "speedup"],
    );
    for n in bench::node_sweep(16) {
        let out = sor::run_argo(&ArgoMachine::new(ArgoConfig::small(n, tpn)), p);
        assert!(out.checksum_matches(&seq, 1e-9));
        print_row(&[
            cell(format!("Argo {n}n")),
            cell(n * tpn),
            f2(out.speedup_over(&seq)),
        ]);
    }
    println!("\nExpectation: near-linear until halo traffic (two boundary rows per");
    println!("chunk per half-sweep) rivals each chunk's compute.");
}
