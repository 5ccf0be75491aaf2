//! The end-of-initialisation reset and the decay clear only the page-table
//! chunks a run stored to. This guards that they still clear everything a
//! run can store: on a 2 × 64 MiB machine, pages in the first and the last
//! 1 024-page chunk are registered, written, leased and (Pyxis) switched to
//! leases by both nodes. After `reset_for_parallel_section`, and again
//! after a decay through `ArgoCtx::adapt_classification`, every answer the
//! policy gives for them equals a fresh policy's, and `check_invariants`
//! finds nothing.

use argo::{ArgoConfig, ArgoMachine};
use carina::{CarinaSiSd, Coherence, Dsm, Pyxis, Tardis};
use mem::{GlobalAddr, PageNum, PAGE_BYTES};
use rma::{SimTransport, Transport};
use simnet::NodeId;
use std::sync::Arc;

type Machine<C> = Arc<ArgoMachine<SimTransport, C>>;
/// What a policy answers about a page beyond the `Coherence` trait.
type Extra<C> = fn(&Dsm<SimTransport, C>, PageNum) -> String;

fn machine<C: Coherence>() -> Machine<C> {
    ArgoMachine::with_policy(ArgoConfig { bytes_per_node: 64 << 20, ..ArgoConfig::small(2, 1) })
}

fn addr(page: PageNum) -> GlobalAddr {
    GlobalAddr(page.0 * PAGE_BYTES)
}

/// Two pages of the first 1 024-page chunk and two of the last.
fn pages<C: Coherence>(dsm: &Dsm<SimTransport, C>) -> [PageNum; 4] {
    let last = dsm.total_bytes() / PAGE_BYTES - 1;
    [0, 1, last - 1, last].map(PageNum)
}

/// Every answer the policy gives about each probed page, one line a page.
fn answers<C: Coherence>(dsm: &Dsm<SimTransport, C>, extra: Extra<C>) -> Vec<String> {
    let c = dsm.policy();
    let line = |p: PageNum| {
        let home = dsm.home_of(addr(p));
        let per_node = [0, 1].map(|n| {
            (c.read_registered(n, home, p), c.write_registered(n, home, p), c.write_buffered(n, p))
        });
        format!("page {}: {per_node:?} {:?} {}", p.0, c.page_mode(p), extra(dsm, p))
    };
    pages(dsm).map(line).to_vec()
}

/// Both nodes write each probed page, then re-read it across a dozen
/// acquire–release rounds (home reads included), then store to it again
/// without a release, so each reset also flushes dirty copies.
fn touch<C: Coherence>(m: &Machine<C>) {
    let dsm = m.dsm();
    let topology = m.config().topology();
    let mut ts = [0, 1].map(|n| SimTransport::endpoint(m.net(), topology.loc(NodeId(n), 0)));
    for t in &mut ts {
        for p in pages(dsm) {
            let word = GlobalAddr(addr(p).0 + 8 * u64::from(t.node().0));
            dsm.write_u64(t, word, 1);
        }
        dsm.sd_fence(t);
    }
    for _ in 0..12 {
        for t in &mut ts {
            dsm.si_fence(t);
            for p in pages(dsm) {
                assert_eq!(dsm.read_u64(t, addr(p)), 1);
            }
            dsm.sd_fence(t);
        }
    }
    for t in &mut ts {
        for p in pages(dsm) {
            dsm.write_u64(t, GlobalAddr(addr(p).0 + 64), 2);
        }
    }
}

/// Touch, clear through `clear`, and compare with a fresh machine.
fn guard<C: Coherence>(extra: Extra<C>, clear: fn(&Machine<C>), path: &str) {
    let fresh = answers(machine::<C>().dsm(), extra);
    let m = machine::<C>();
    touch(&m);
    let touched = answers(m.dsm(), extra);
    for (was, new) in touched.iter().zip(&fresh) {
        assert_ne!(was, new, "{}: the run left no trace to clear", C::NAME);
    }
    clear(&m);
    assert_eq!(answers(m.dsm(), extra), fresh, "{} after the {path}", C::NAME);
    assert_eq!(m.dsm().check_invariants(), Vec::<String>::new(), "{} {path}", C::NAME);
    for p in pages(m.dsm()) {
        assert_eq!(m.dsm().peek_u64(GlobalAddr(addr(p).0 + 64)), 2, "the {path} flushed");
    }
}

fn reset<C: Coherence>(m: &Machine<C>) {
    m.dsm().reset_for_parallel_section();
}

fn decay<C: Coherence>(m: &Machine<C>) {
    m.run(|ctx| ctx.adapt_classification());
}

fn sisd(dsm: &Dsm<SimTransport, CarinaSiSd>, p: PageNum) -> String {
    let views = [0, 1].map(|n| dsm.dir_view(n, addr(p)));
    format!("home {:?} rows {views:?}", dsm.home_dir_view(addr(p)))
}

fn tardis(dsm: &Dsm<SimTransport, Tardis>, p: PageNum) -> String {
    let c = dsm.policy();
    let leases = [0, 1].map(|n| c.granted_lease(n, p));
    let clocks = [0, 1].map(|n| c.clock(n));
    format!("timestamps {:?} leases {leases:?} clocks {clocks:?}", c.timestamps(p))
}

fn pyxis(dsm: &Dsm<SimTransport, Pyxis>, p: PageNum) -> String {
    let c = dsm.policy();
    format!("switches {} score {}", c.switch_count(p), c.score_of(p))
}

#[test]
fn a_reset_leaves_every_policy_as_fresh() {
    guard::<CarinaSiSd>(sisd, reset, "reset");
    guard::<Tardis>(tardis, reset, "reset");
    guard::<Pyxis>(pyxis, reset, "reset");
}

#[test]
fn a_decay_leaves_every_policy_as_fresh() {
    guard::<CarinaSiSd>(sisd, decay, "decay");
    guard::<Tardis>(tardis, decay, "decay");
    guard::<Pyxis>(pyxis, decay, "decay");
}

/// The rounds of `touch` do switch pages to leases, at both ends.
#[test]
fn the_touch_switches_pyxis_pages_to_leases() {
    let m = machine::<Pyxis>();
    touch(&m);
    let switched = pages(m.dsm()).map(|p| m.dsm().policy().switch_count(p) > 0);
    assert!(switched[..2].contains(&true) && switched[2..].contains(&true), "{switched:?}");
}
