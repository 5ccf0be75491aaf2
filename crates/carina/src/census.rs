//! The page census: an on-demand walk of the Pyxis directory reporting
//! the cluster's pages by classification (P/S × NW/SW/MW) and the top-K
//! hottest pages by read-miss count.
//!
//! The walk is read-only over directory words and the heat counters, so it
//! is safe at any quiescent point (between phases, after a run) and costs
//! nothing until asked for. `examples/argoscope.rs` prints one after every
//! workload.

use crate::classification::{PageClass, WriterClass};
use crate::coherence::PageMode;
use crate::protocol::Dsm;
use mem::PageNum;
use rma::Transport;

/// Classification cell indices for [`Census::by_class`]:
/// `[page_class][writer_class]` with P=0/S=1 and NW=0/SW=1/MW=2.
const CLASS_NAMES: [&str; 2] = ["private", "shared"];
/// Writer-class axis labels (see [`CLASS_NAMES`]).
const WRITER_NAMES: [&str; 3] = ["nw", "sw", "mw"];

/// One hot page in the census's top-K list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HotPage {
    pub(crate) page: PageNum,
    /// Read misses recorded against this page since the last reset.
    pub(crate) misses: u64,
    pub(crate) home: u16,
    pub(crate) class: PageClass,
    pub(crate) writers: WriterClass,
    /// Which protocol governs the page right now: fixed under the pure
    /// policies, per-page under the Pyxis hybrid.
    pub(crate) mode: PageMode,
}

/// Snapshot of directory-wide classification state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Census {
    pub(crate) total_pages: u64,
    /// Pages no node has ever registered an access to.
    pub(crate) untouched: u64,
    /// Touched pages by `[page_class][writer_class]` (see [`CLASS_NAMES`]).
    pub(crate) by_class: [[u64; 3]; 2],
    /// Touched pages by governing protocol: `[classify, lease]`. Pure
    /// policies land every touched page in one cell; Pyxis splits them.
    pub(crate) by_mode: [u64; 2],
    /// Total read misses across all pages.
    pub(crate) total_misses: u64,
    /// The `top_k` hottest pages, most-missed first.
    pub(crate) hottest: Vec<HotPage>,
}

impl Census {
    /// Touched pages (total minus untouched).
    pub(crate) fn touched(&self) -> u64 {
        self.total_pages - self.untouched
    }

    /// Multi-line text rendering: the P/S × NW/SW/MW matrix plus the
    /// hottest-pages table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pages: {} total, {} touched, {} untouched, {} read misses\n",
            self.total_pages,
            self.touched(),
            self.untouched,
            self.total_misses
        ));
        out.push_str(&format!(
            "  mode: {} si/sd, {} lease\n",
            self.by_mode[0], self.by_mode[1]
        ));
        out.push_str("  class       nw         sw         mw\n");
        for (pi, row) in self.by_class.iter().enumerate() {
            out.push_str(&format!(
                "  {:<9} {:>8}   {:>8}   {:>8}\n",
                CLASS_NAMES[pi], row[0], row[1], row[2]
            ));
        }
        if !self.hottest.is_empty() {
            out.push_str("  hottest pages:\n");
            for hp in &self.hottest {
                out.push_str(&format!(
                    "    p{:<8} misses={:<8} home=n{:<3} {}/{} mode={}\n",
                    hp.page.0,
                    hp.misses,
                    hp.home,
                    CLASS_NAMES[class_idx(hp.class)],
                    WRITER_NAMES[writer_idx(hp.writers)],
                    hp.mode.name()
                ));
            }
        }
        out
    }
}

fn class_idx(c: PageClass) -> usize {
    match c {
        PageClass::Private => 0,
        PageClass::Shared => 1,
    }
}

fn writer_idx(w: WriterClass) -> usize {
    match w {
        WriterClass::None => 0,
        WriterClass::Single(_) => 1,
        WriterClass::Multiple => 2,
    }
}

fn mode_idx(m: PageMode) -> usize {
    match m {
        PageMode::Classify => 0,
        PageMode::Lease => 1,
    }
}

impl<T: Transport, C: crate::coherence::Coherence> Dsm<T, C> {
    /// Walk the policy's accessor views and the heat counters into a
    /// [`Census`], listing the `top_k` hottest pages. Read-only; intended
    /// for quiescent points. Authoritative under SI/SD; under timestamp
    /// policies the views are diagnostic (see [`crate::coherence::Coherence::census_view`]).
    pub fn census(&self, top_k: usize) -> Census {
        let total_pages = self.total_pages();
        let mut by_class = [[0u64; 3]; 2];
        let mut by_mode = [0u64; 2];
        let mut untouched = 0u64;
        for q in 0..total_pages {
            let page = PageNum(q);
            let view = self.home_dir_view_of_page(page);
            if view.accessors() == 0 {
                untouched += 1;
                continue;
            }
            by_class[class_idx(view.page_class())][writer_idx(view.writer_class())] += 1;
            by_mode[mode_idx(self.page_mode_of(page))] += 1;
        }
        let heat = self.page_heat();
        let hottest = heat
            .top_k(top_k)
            .into_iter()
            .map(|(q, misses)| {
                let page = PageNum(q as u64);
                let view = self.home_dir_view_of_page(page);
                HotPage {
                    page,
                    misses,
                    home: self.home_of(mem::GlobalAddr(q as u64 * mem::PAGE_BYTES)),
                    class: view.page_class(),
                    writers: view.writer_class(),
                    mode: self.page_mode_of(page),
                }
            })
            .collect();
        Census {
            total_pages,
            untouched,
            by_class,
            by_mode,
            total_misses: heat.total(),
            hottest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CarinaConfig;
    use mem::{GlobalAddr, PAGE_BYTES};
    use rma::{ClusterTopology, CostModel, NodeId, SimTransport};

    #[test]
    fn census_counts_classes_and_heat() {
        let topo = ClusterTopology::tiny(2);
        let net = SimTransport::new(topo, CostModel::paper_2011());
        let dsm = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
        let mut a = <SimTransport as Transport>::endpoint(&net, topo.loc(NodeId(0), 0));
        let mut b = <SimTransport as Transport>::endpoint(&net, topo.loc(NodeId(1), 0));

        // Page homed on node 1: node 0 reads (P), then node 1 writes its
        // own home page (still one accessor each).
        let shared = GlobalAddr(dsm.total_bytes() / 2 + 3 * PAGE_BYTES);
        dsm.write_u64(&mut b, shared, 1); // home write: private to n1
        dsm.sd_fence(&mut b);
        dsm.si_fence(&mut a);
        dsm.read_u64(&mut a, shared); // n0 joins: P->S
        // A page only n0 ever reads stays private/NW.
        let private = GlobalAddr(dsm.total_bytes() / 2 + 9 * PAGE_BYTES);
        dsm.read_u64(&mut a, private);

        let census = dsm.census(4);
        assert_eq!(census.total_pages, dsm.total_bytes() / PAGE_BYTES);
        assert!(census.untouched > 0);
        assert_eq!(census.touched(), census.by_class.iter().flatten().sum::<u64>());
        // shared page: S/SW (one writer, two accessors).
        assert_eq!(census.by_class[1][1], 1);
        // private read-only page: P/NW.
        assert!(census.by_class[0][0] >= 1);
        assert!(census.total_misses >= 2);
        assert!(!census.hottest.is_empty());
        assert!(census.hottest[0].misses >= census.hottest.last().unwrap().misses);
        let text = census.render();
        assert!(text.contains("hottest pages"));
        assert!(text.contains("private"));
    }
}
