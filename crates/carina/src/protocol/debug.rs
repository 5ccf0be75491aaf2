//! Inspection surfaces that sit beside the protocol rather than on it: the
//! invariant checker, uncharged `peek`/`poke` of home memory, directory
//! views for the census and tests, and the live metrics exposition.

use super::*;
use crate::classification::DirView;

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Check the protocol's internal invariants; returns a list of
    /// violations (empty = healthy). Intended for tests and debugging at
    /// quiescent points (no concurrent accesses).
    ///
    /// Engine-owned checks:
    /// 1. A dirty page is valid; a clean page carries no mask bits (every
    ///    write fault marks; every downgrade posts the masked words).
    /// 2. When the policy buffers every dirty page, a quiescent node's
    ///    write buffer contains exactly its dirty page set.
    /// 3. Cached pages are never homed on the caching node.
    /// 4. A write buffer never holds more pages than its capacity.
    ///
    /// Policy-owned checks (registration consistency, `wts <= rts`, lease
    /// subsumption, …) are appended via [`Coherence::invariant_problems`].
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (n, ns) in self.nodes.iter().enumerate() {
            let me = n as u16;
            let mut dirty_pages = Vec::new();
            // Not `PageCache::sweep`: the checker must see invalid pages too.
            for slot in ns.cache.occupied_indices() {
                let st = ns.cache.lock_index(slot);
                let Some(tag) = st.tag else { continue };
                let base = ns.cache.line_base(tag);
                for (idx, cp) in st.pages.iter().enumerate() {
                    let page = PageNum(base.0 + idx as u64);
                    if cp.valid && self.global.home_of(page) == me {
                        problems.push(format!("n{n}: caches its own home page {}", page.0));
                    }
                    if cp.dirty {
                        if !cp.valid {
                            problems.push(format!("n{n}: dirty but invalid page {}", page.0));
                        }
                        dirty_pages.push(page);
                    } else if !cp.mask.is_empty() {
                        // A stale mask would post words nobody stored in
                        // the next epoch, over a false sharer's.
                        problems.push(format!("n{n}: clean page {} carries mask bits", page.0));
                    }
                }
            }
            if ns.wbuf.len() > ns.wbuf.capacity() {
                problems.push(format!("n{n}: {} pages in the write buffer", ns.wbuf.len()));
            }
            if self.coherence.buffers_every_dirty_page() {
                let mut buffered = ns.wbuf.snapshot();
                buffered.sort_unstable();
                let mut dirty = dirty_pages.clone();
                dirty.sort_unstable();
                if buffered != dirty {
                    problems.push(format!(
                        "n{n}: write buffer {:?} != dirty set {:?}",
                        buffered.iter().map(|q| q.0).collect::<Vec<_>>(),
                        dirty.iter().map(|q| q.0).collect::<Vec<_>>()
                    ));
                }
            }
            problems.extend(self.coherence.invariant_problems(me, &dirty_pages));
        }
        problems
    }

    /// Data-plane read of the home copy, bypassing caches and charging no
    /// time. Used by PGAS mode (which has no caching by design) and by test
    /// assertions on final memory contents.
    pub fn peek_u64(&self, addr: GlobalAddr) -> u64 {
        self.global.home_page(addr.page()).load(addr.word_index())
    }

    /// Data-plane write of the home copy (see [`Self::peek_u64`]).
    pub fn poke_u64(&self, addr: GlobalAddr, value: u64) {
        self.global
            .home_page(addr.page())
            .store(addr.word_index(), value)
    }

    /// The policy's accessor view for `page` (census walks). Authoritative
    /// under SI/SD; diagnostic under timestamp policies.
    pub(crate) fn home_dir_view_of_page(&self, page: PageNum) -> DirView {
        self.coherence.census_view(page)
    }

    /// Which protocol currently governs `page` (census walks). Fixed for
    /// the pure policies; per-page under the Pyxis hybrid.
    pub(crate) fn page_mode_of(&self, page: PageNum) -> PageMode {
        self.coherence.page_mode(page)
    }

    /// A live metrics exposition: every coherence counter, recorder
    /// health, and per-site latency summaries, pollable mid-run on either
    /// backend. Render with [`obs::MetricsSnapshot::to_prometheus`] or
    /// [`obs::MetricsSnapshot::to_json`].
    pub fn metrics_snapshot(&self) -> obs::MetricsSnapshot {
        let mut m = obs::MetricsSnapshot::default();
        let policy = [("policy", C::NAME)];
        for (name, value) in self.stats.snapshot().fields() {
            m.counter(&format!("carina_{name}"), &policy, value);
        }
        m.gauge(
            "carina_membership_epoch",
            &[],
            self.membership.epoch() as f64,
        );
        m.gauge(
            "carina_nodes_alive",
            &[],
            self.membership.nodes_alive() as f64,
        );
        m.counter("carina_heat_total_misses", &[], self.heat.total());
        let rs = self.lyra.stats();
        m.counter("lyra_records_submitted", &[], rs.submitted);
        m.counter("lyra_records_dropped", &[], rs.dropped);
        m.counter("lyra_tail_captures", &[], rs.tail_captures);
        m.gauge("lyra_records_kept", &[], rs.kept as f64);
        m.gauge(
            "lyra_recorder_enabled",
            &[],
            if rs.enabled { 1.0 } else { 0.0 },
        );
        let prof = self.profile.snapshot();
        for site in obs::Site::ALL {
            let h = prof.get(site);
            if h.is_empty() {
                continue;
            }
            m.summary("carina_site_latency", &[("site", site.name())], h);
        }
        m
    }
}

/// SI/SD-specific directory inspection (tests and the protocol tour peek
/// at the full maps; timestamp policies have no equivalent).
impl<T: Transport> Dsm<T, CarinaSiSd> {
    /// The directory view a node currently holds for `addr`'s page
    /// (test/diagnostic aid).
    pub fn dir_view(&self, node: u16, addr: GlobalAddr) -> DirView {
        self.coherence.node_view(node, addr.page())
    }

    /// The authoritative home directory view for `addr`'s page.
    pub fn home_dir_view(&self, addr: GlobalAddr) -> DirView {
        self.coherence.home_view(addr.page())
    }
}
