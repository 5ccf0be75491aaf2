//! Wall time of building a machine, of the end-of-initialisation reset and
//! of `check_invariants`, on empty n × 1 machines of 64 MiB nodes. Reports
//! only — host time is no verdict — so it is ignored by default:
//!
//! ```sh
//! cargo test --release -p carina --test sweep_cost -- --ignored --nocapture
//! ```
//!
//! It uses only the public API, so the same file measures an older tree.

use carina::{CarinaConfig, CarinaSiSd, Coherence, Dsm, Pyxis};
use rma::NativeTransport;
use simnet::ClusterTopology;
use std::time::Instant;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn sweeps<C: Coherence>(nodes: usize) {
    let start = Instant::now();
    let net = NativeTransport::new(ClusterTopology::tiny(nodes));
    let dsm = Dsm::<NativeTransport, C>::with_policy(net, 64 << 20, CarinaConfig::default());
    let build = ms(start);
    let start = Instant::now();
    dsm.reset_for_parallel_section();
    let reset = ms(start);
    let start = Instant::now();
    assert_eq!(dsm.check_invariants(), Vec::<String>::new());
    let check = ms(start);
    let shape = format!("{nodes:>3} × 64 MiB {:<5}", C::NAME);
    println!("{shape}  build {build:9.3} ms  reset {reset:9.3} ms  check {check:9.3} ms");
}

#[test]
#[ignore = "prints host wall times; run it in release with --ignored --nocapture"]
fn sweep_wall_times() {
    for nodes in [2, 128] {
        sweeps::<CarinaSiSd>(nodes);
        sweeps::<Pyxis>(nodes);
    }
}
