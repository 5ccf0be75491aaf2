//! A machine's resident memory follows what it touches. The home store,
//! the page caches — their slot table, page metadata and page contents —
//! and every policy's page tables — the Pyxis home directory and directory
//! caches, the Tardis timestamp columns, the hybrid's census signals — are
//! zero-mapped (`mem::zeroed_slice`), so a machine of many nodes makes
//! resident little more than what its policy keeps per node, before and
//! after the section reset every `start_measurement` runs, under each of
//! the three policies. Built and dropped twice per policy: glibc raises its
//! mmap threshold when a mapped chunk of up to 32 MiB is freed, after which
//! a zeroed allocation could come from the heap and be cleared eagerly.
//! And a cached page costs one frame: each page of an arena starts on an OS
//! page, so one that sits alone does not straddle two.
#![cfg(target_os = "linux")]

use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaSiSd, Coherence, Pyxis, Tardis};
use mem::{GlobalAddr, PAGE_BYTES};
use rma::{SimTransport, Transport};
use simnet::NodeId;
use std::sync::Mutex;

/// Tests of one binary run concurrently, and this process's resident set
/// is the measurement: each test holds this while it measures.
static MEASURING: Mutex<()> = Mutex::new(());

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

/// Build an `nodes` × 1 machine twice, reset it and touch it: the resident
/// set may grow by at most `bound_mib` over the process's before the first.
fn resident_only_where_touched<C: Coherence>(nodes: usize, bound_mib: f64) {
    let cfg = ArgoConfig::small(nodes, 1);
    let before = rss_mib();
    for build in 1..=2 {
        let machine = ArgoMachine::<SimTransport, C>::with_policy(cfg);
        let dsm = machine.dsm();
        dsm.reset_for_parallel_section();
        let grown = rss_mib() - before;
        assert!(grown < bound_mib, "{nodes} × 1 {} build {build}: grew {grown:.1} MiB", C::NAME);

        let mut t = SimTransport::endpoint(machine.net(), cfg.topology().loc(NodeId(0), 0));
        let last = GlobalAddr(dsm.total_bytes() - 8);
        dsm.write_u64(&mut t, last, 0xA460);
        assert_eq!(dsm.read_u64(&mut t, last), 0xA460);
        dsm.sd_fence(&mut t);
        assert_eq!(dsm.peek_u64(last), 0xA460, "the write reached its home page");
        assert_eq!(dsm.read_u64(&mut t, GlobalAddr(1000 * PAGE_BYTES + 8)), 0);
    }
}

/// One test, the policies in turn. A 32 × 1 machine at 16 MiB per node —
/// 512 MiB of global memory, 1 GiB of cache — allocated up front grew the
/// resident set ≈ 750 MiB; with its slot metadata on the heap ≈ 60 MiB;
/// flat, ≤ 6.2 MiB (this bound is that plus half).
#[test]
fn a_machine_is_resident_only_where_it_is_touched() {
    let _measuring = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    resident_only_where_touched::<Pyxis>(32, 9.5);
    resident_only_where_touched::<CarinaSiSd>(32, 9.5);
    resident_only_where_touched::<Tardis>(32, 9.5);
}

/// The paper's node count: 128 × 1, 2 GiB of global memory and 4 GiB of
/// cache, grew it 186–275 MiB with its slot metadata on the heap; flat,
/// 20–53 MiB.
#[test]
fn a_128_node_machine_fits_in_64_mib() {
    let _measuring = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    resident_only_where_touched::<Pyxis>(128, 64.0);
    resident_only_where_touched::<CarinaSiSd>(128, 64.0);
    resident_only_where_touched::<Tardis>(128, 64.0);
}

/// Node 0 of two caches `PAGES` pages homed on node 1 — every other page,
/// so each sits alone in the cache. Each costs one 4 KiB frame: a page
/// straddling two OS pages would cost two.
#[test]
fn an_isolated_cached_page_costs_one_frame() {
    const PAGES: u64 = 2048;
    let _measuring = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ArgoConfig::small(2, 1);
    let machine = ArgoMachine::new(cfg);
    let dsm = machine.dsm();
    let remote = |i: u64| GlobalAddr((2 * i + 1) * PAGE_BYTES);
    for i in 0..PAGES {
        dsm.poke_u64(remote(i), i + 1);
    }
    let mut t = SimTransport::endpoint(machine.net(), cfg.topology().loc(NodeId(0), 0));
    let before = rss_mib();
    for i in 0..PAGES {
        assert_eq!(dsm.read_u64(&mut t, remote(i)), i + 1);
    }
    let grown = rss_mib() - before;
    let frames = (PAGES * PAGE_BYTES) as f64 / (1 << 20) as f64;
    assert!(grown <= 1.25 * frames, "{PAGES} cached pages grew the resident set {grown:.2} MiB");
}
