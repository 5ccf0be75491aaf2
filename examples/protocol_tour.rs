//! A guided tour of the Carina protocol: watch the Pyxis classification
//! evolve exactly as in the paper's Figures 3-5.
//!
//! Drives a 3-node DSM by hand (no thread team) and prints the home
//! directory view and each node's cached view after every step: first
//! read (Private), second node joins (P→S, deferred invalidation), first
//! write (NW→SW, the single writer keeps its copy across fences), second
//! writer (SW→MW, diffs reconcile false sharing).
//!
//! Run: `cargo run --release --example protocol_tour`

use carina::{CarinaConfig, Dsm, PageClass, WriterClass};
use mem::{GlobalAddr, PAGE_BYTES};
use simnet::{ClusterTopology, CostModel, Interconnect, NodeId, SimThread};

fn class_str(dsm: &Dsm, addr: GlobalAddr) -> String {
    let v = dsm.home_dir_view(addr);
    let p = match v.page_class() {
        PageClass::Private => "P",
        PageClass::Shared => "S",
    };
    let w = match v.writer_class() {
        WriterClass::None => "NW".to_string(),
        WriterClass::Single(n) => format!("SW(n{n})"),
        WriterClass::Multiple => "MW".to_string(),
    };
    format!("{p},{w} readers={:#06b} writers={:#06b}", v.readers, v.writers)
}

fn main() {
    let topo = ClusterTopology::tiny(3);
    let net = Interconnect::new(topo, CostModel::paper_2011());
    let dsm = Dsm::new(net.clone(), 4 << 20, CarinaConfig::default());
    // Also flight-record the per-page events (transitions, notifications,
    // downgrades, SI keeps/invalidations) the tour narrates.
    dsm.lyra().set_detail(true);
    let mut t: Vec<SimThread> = (0..3)
        .map(|n| SimThread::new(topo.loc(NodeId(n), 0), net.clone()))
        .collect();
    // A page homed on node 2, so nodes 0 and 1 both cache it remotely.
    let addr = GlobalAddr(5 * PAGE_BYTES);
    let addr2 = addr.offset(8);

    println!("page {} homed on node {}", addr.page().0, dsm.home_of(addr));

    println!("\n-- node 0 reads (Figure 3: first access) --");
    dsm.read_u64(&mut t[0], addr);
    println!("home dir: {}", class_str(&dsm, addr));
    assert!(dsm.home_dir_view(addr).is_private_to(0));

    println!("\n-- node 1 reads (P->S; no answer of node 0's changes, nobody is notified) --");
    dsm.read_u64(&mut t[1], addr);
    println!("home dir: {}", class_str(&dsm, addr));
    println!(
        "node 0's cached dir entry still reads {:?}: as P and as S,NW it keeps and self-downgrades the page",
        dsm.dir_view(0, addr).page_class()
    );

    println!("\n-- node 0 writes (NW->SW; Figure 5; node 1 notified passively) --");
    dsm.write_u64(&mut t[0], addr, 42);
    println!("home dir: {}", class_str(&dsm, addr));
    println!(
        "node 1's cached dir entry now shows {:?} (deferred invalidation: node 1 acts only at its next fence)",
        dsm.dir_view(1, addr).writer_class()
    );

    println!("\n-- node 0 releases (SD fence: diff travels to home) --");
    dsm.sd_fence(&mut t[0]);
    println!("home copy of word 0: {}", dsm.peek_u64(addr));

    println!("\n-- node 0's SI fence keeps the page (it is the single writer) --");
    dsm.si_fence(&mut t[0]);
    let s = dsm.stats().snapshot();
    println!("si_kept={} si_invalidated={}", s.si_kept, s.si_invalidated);

    println!("\n-- node 1 acquires (SI fence): invalidates, rereads 42 --");
    dsm.si_fence(&mut t[1]);
    let v = dsm.read_u64(&mut t[1], addr);
    println!("node 1 reads {v}");
    assert_eq!(v, 42);

    println!("\n-- node 1 writes a different word (SW->MW; false sharing) --");
    dsm.write_u64(&mut t[1], addr2, 7);
    println!("home dir: {}", class_str(&dsm, addr));
    println!(
        "node 0 (old single writer) sees MW in its cached entry: {:?}",
        dsm.dir_view(0, addr).writer_class()
    );

    println!("\n-- both release; diffs merge disjoint words at home --");
    dsm.sd_fence(&mut t[1]);
    dsm.sd_fence(&mut t[0]);
    println!(
        "home words: [{}, {}]  (42 from node 0, 7 from node 1)",
        dsm.peek_u64(addr),
        dsm.peek_u64(addr2)
    );
    assert_eq!(dsm.peek_u64(addr), 42);
    assert_eq!(dsm.peek_u64(addr2), 7);

    let s = dsm.stats().snapshot();
    println!(
        "\nprotocol events: {} P->S, {} NW->SW, {} SW->MW, {} write faults, {} diff words",
        s.p_to_s, s.nw_to_sw, s.sw_to_mw, s.write_faults, s.diff_words
    );
    println!(
        "message handlers executed anywhere: {} (the Pyxis property)",
        net.stats().snapshot().handler_invocations
    );

    println!("\n== raw protocol trace (Lyra flight recorder, per node) ==");
    for node in 0..3 {
        for rec in dsm.lyra().snapshot(node) {
            println!("{rec}");
        }
    }
}
