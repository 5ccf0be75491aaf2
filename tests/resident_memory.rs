//! A machine's resident memory follows what it touches. The home store,
//! the page caches and every policy's page tables — the Pyxis home
//! directory and directory caches, the Tardis timestamp columns, the
//! hybrid's census signals — are zero-mapped (`mem::zeroed_slice`), so a
//! 32-node machine at 16 MiB per node — 512 MiB of global memory, 1 GiB of
//! cache — makes resident little more than its slot metadata, before and
//! after the section reset every `start_measurement` runs, under each of
//! the three policies. Built and dropped twice per policy: glibc raises its
//! mmap threshold when a mapped chunk of up to 32 MiB is freed, after which
//! a zeroed allocation could come from the heap and be cleared eagerly.
#![cfg(target_os = "linux")]

use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaSiSd, Coherence, Pyxis, Tardis};
use mem::{GlobalAddr, PAGE_BYTES};
use rma::{SimTransport, Transport};
use simnet::NodeId;

/// Resident-set growth a 32 × 1 machine may cost. Allocating every table
/// and page up front cost ≈ 750 MiB; the zero-mapped machine ≈ 80 MiB.
const BOUND_MIB: f64 = 160.0;

/// This process's resident set in MiB (`VmRSS` of `/proc/self/status`).
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .expect("no VmRSS line in /proc/self/status");
    kib / 1024.0
}

fn resident_only_where_touched<C: Coherence>() {
    let cfg = ArgoConfig::small(32, 1);
    let before = rss_mib();
    for build in 1..=2 {
        let machine = ArgoMachine::<SimTransport, C>::with_policy(cfg);
        let dsm = machine.dsm();
        dsm.reset_for_parallel_section();
        let grown = rss_mib() - before;
        assert!(grown < BOUND_MIB, "{} build {build}: resident set grew {grown:.1} MiB", C::NAME);

        let mut t = SimTransport::endpoint(machine.net(), cfg.topology().loc(NodeId(0), 0));
        let last = GlobalAddr(dsm.total_bytes() - 8);
        dsm.write_u64(&mut t, last, 0xA460);
        assert_eq!(dsm.read_u64(&mut t, last), 0xA460);
        dsm.sd_fence(&mut t);
        assert_eq!(dsm.peek_u64(last), 0xA460, "the write reached its home page");
        assert_eq!(dsm.read_u64(&mut t, GlobalAddr(1000 * PAGE_BYTES + 8)), 0);
    }
}

/// One test, the policies in turn: tests of one binary run concurrently,
/// and this process's resident set is the measurement.
#[test]
fn a_machine_is_resident_only_where_it_is_touched() {
    resident_only_where_touched::<Pyxis>();
    resident_only_where_touched::<CarinaSiSd>();
    resident_only_where_touched::<Tardis>();
}
