//! Inspection surfaces that sit beside the protocol rather than on it: the
//! invariant checker, uncharged `peek`/`poke` of home memory, directory
//! views for tests, and the live metrics exposition.

use super::*;
use crate::classification::DirView;

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Check the protocol's internal invariants; returns a list of
    /// violations (empty = healthy). Intended for tests and debugging at
    /// quiescent points (no concurrent accesses).
    ///
    /// Engine-owned checks:
    /// 1. A page's standing agrees with its bits: a dirty standing is
    ///    valid, `Dropped` is not, and a clean standing carries no mask bits
    ///    (every write fault marks; every downgrade posts the masked words).
    /// 2. When the policy buffers every dirty page, a quiescent node's
    ///    write buffer contains exactly its dirty page set: each cached
    ///    page is buffered iff dirty, and the buffer holds no other page.
    /// 3. Cached pages are never homed on the caching node.
    /// 4. A write buffer never holds more than `write_buffer_pages` pages.
    /// 5. A kept page is in its node's write buffer, under every policy.
    ///
    /// Policy-owned checks (registration consistency, `wts <= rts`, lease
    /// subsumption, …) are appended via [`Coherence::invariant_problems`].
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let every = self.coherence.buffers_every_dirty_page();
        let mut dirty = Vec::with_capacity(self.nodes.len());
        for (n, ns) in self.nodes.iter().enumerate() {
            let me = n as u16;
            let (mut dirty_pages, mut held) = (Vec::new(), 0);
            // Not `PageCache::sweep`: the checker must see invalid pages too,
            // and a dirty page that lost its copy sits in a dirty slot only.
            let mut slots: Vec<_> =
                ns.cache.occupied_indices().chain(ns.cache.dirty_indices()).collect();
            slots.sort_unstable();
            slots.dedup();
            for slot in slots {
                let st = ns.cache.lock_index(slot);
                let Some(tag) = st.tag() else { continue };
                let base = ns.cache.line_base(tag);
                for (idx, cp) in st.pages.iter().enumerate() {
                    let (page, s, valid) = (PageNum(base.0 + idx as u64), cp.standing, cp.valid);
                    if valid && self.global.home_of(page) == me {
                        problems.push(format!("n{n}: caches its own home page {}", page.0));
                    }
                    // A clean page's stale mask would post words nobody
                    // stored in the next epoch, over a false sharer's.
                    let (dirty, bits) = (cp.dirty(), cp.mask.count());
                    let dropped = s == Standing::Dropped;
                    if (dirty && !valid) || (valid && dropped) || (!dirty && bits > 0) {
                        let what = format!("{s:?} with valid = {valid} and {bits} mask bits");
                        problems.push(format!("n{n}: page {} is {what}", page.0));
                    }
                    if dirty {
                        dirty_pages.push(page);
                    }
                    let buffered = ns.wbuf.holds(page);
                    held += usize::from(buffered);
                    if matches!(s, Standing::Kept { .. }) && !buffered {
                        problems.push(format!("n{n}: kept page {} is unbuffered", page.0));
                    } else if every && dirty != buffered {
                        let (class, what) =
                            if dirty { ("dirty", "unbuffered") } else { ("clean", "buffered") };
                        problems.push(format!("n{n}: {class} page {} is {what}", page.0));
                    }
                }
            }
            // The walk met every buffered page: none sits outside the cache.
            if every && ns.wbuf.len() != held {
                let len = ns.wbuf.len();
                problems.push(format!("n{n}: write buffer holds {len} pages, {held} cached"));
            }
            if ns.wbuf.len() > self.config.write_buffer_pages {
                problems.push(format!("n{n}: {} pages in the write buffer", ns.wbuf.len()));
            }
            dirty.push(dirty_pages);
        }
        let home_of = |page| self.global.home_of(page);
        problems.extend(self.coherence.invariant_problems(&dirty, home_of));
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
        let rs = self.lyra.stats();
        m.counter("lyra_records_submitted", &[], rs.submitted);
        m.counter("lyra_records_dropped", &[], rs.dropped);
        m.gauge("lyra_records_kept", &[], rs.kept as f64);
        let prof = self.lyra.profile();
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
    /// (test/diagnostic aid). It may lag [`Self::home_dir_view`]: a node is
    /// notified only of transitions that change its Table 1 answers, so
    /// the two views always give the node the same answers, not the same
    /// maps.
    pub fn dir_view(&self, node: u16, addr: GlobalAddr) -> DirView {
        self.coherence.node_view(node, addr.page())
    }

    /// The authoritative home directory view for `addr`'s page.
    pub fn home_dir_view(&self, addr: GlobalAddr) -> DirView {
        self.coherence.home_view(addr.page())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classification::ClassificationMode;
    use rma::NativeTransport;
    use simnet::ClusterTopology;

    /// Node 0 of two under `cfg` holds pages 1 and 5 written and page 3
    /// read; `plant` edits one page's slot or the write buffer. Under naïve
    /// P/S the written pages are private, so unbuffered, and check (2) is
    /// off, which a dirty plant would trip too. Returns what the checker
    /// finds.
    fn planted(
        cfg: CarinaConfig,
        page: u64,
        plant: impl FnOnce(&mut SlotGuard<'_>, usize, &WriteBuffer),
    ) -> Vec<String> {
        let net = NativeTransport::new(ClusterTopology::tiny(2));
        let dsm = Dsm::<NativeTransport>::with_policy(net.clone(), 1 << 20, cfg);
        let mut t = NativeTransport::endpoint(&net, net.topology().loc(NodeId(0), 0));
        dsm.write_u64(&mut t, GlobalAddr(PAGE_BYTES), 1);
        dsm.write_u64(&mut t, GlobalAddr(5 * PAGE_BYTES), 1);
        dsm.read_u64(&mut t, GlobalAddr(3 * PAGE_BYTES));
        assert_eq!(dsm.check_invariants(), Vec::<String>::new());
        let (ns, page) = (&dsm.nodes[0], PageNum(page));
        plant(&mut ns.cache.lock_slot(page), ns.cache.index_in_line(page), &ns.wbuf);
        dsm.check_invariants()
    }

    fn one(problems: Vec<String>, what: &str) {
        assert_eq!(problems.len(), 1, "{what}: {problems:?}");
        assert!(problems[0].ends_with(what), "{what}: {problems:?}");
    }

    #[test]
    fn each_standing_its_bits_contradict_is_one_problem() {
        let naive = || CarinaConfig::with_mode(ClassificationMode::PsNaive);
        let written = "page 1 is Written { hot: false } with valid = false and 1 mask bits";
        one(planted(naive(), 1, |st, i, _| st.pages[i].valid = false), written);
        let dropped = "page 3 is Dropped with valid = true and 0 mask bits";
        one(planted(naive(), 3, |st, i, _| st.pages[i].standing = Standing::Dropped), dropped);
        let masked = "page 3 is Cold with valid = true and 1 mask bits";
        one(planted(naive(), 3, |st, i, _| st.pages[i].mask.set(7)), masked);
        let kept =
            planted(naive(), 1, |st, i, _| st.pages[i].standing = Standing::Kept { idle: 0 });
        one(kept, "kept page 1 is unbuffered");
    }

    /// Under P/S3 the buffer is the dirty set (check 2) and never holds
    /// more than its capacity (check 4).
    #[test]
    fn each_buffer_the_pages_contradict_is_one_problem() {
        let ps3 = CarinaConfig::default;
        let zeroed = planted(ps3(), 1, |_, _, wb| assert!(wb.remove(PageNum(1))));
        one(zeroed, "n0: dirty page 1 is unbuffered");
        let clean = planted(ps3(), 3, |_, _, wb| assert_eq!(wb.push(PageNum(3)), None));
        one(clean, "n0: clean page 3 is buffered");
        // One page of buffer: writing page 5 downgraded page 1. Re-dirty
        // it and buffer it again past the overflow check.
        let overfull = planted(CarinaConfig::with_write_buffer(1), 1, |st, i, wb| {
            assert!(!wb.holds(PageNum(1)));
            st.pages[i].standing = Standing::Written { hot: false };
            wb.push_past_capacity(PageNum(1));
        });
        one(overfull, "n0: 2 pages in the write buffer");
    }

    /// A sweep costs what the run stored to. On a 128 × 1 machine of
    /// 64 MiB nodes — 2²¹ pages, 2 048 chunks a row — two nodes store to
    /// and load pages in three chunks; `check_invariants` and the reset
    /// then visit at most three chunks of any table's row or column.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "a debug reset checks all ~10⁹ cells")]
    fn sweeps_visit_only_the_chunks_a_run_stored_to() {
        sweeps_at_scale::<CarinaSiSd>();
        sweeps_at_scale::<crate::Pyxis>();
    }

    fn sweeps_at_scale<C: Coherence>() {
        use crate::coherence::visits;
        let net = NativeTransport::new(ClusterTopology::tiny(128));
        let dsm = Dsm::<_, C>::with_policy(net.clone(), 64 << 20, CarinaConfig::default());
        let last = dsm.total_bytes() / PAGE_BYTES - 1;
        for n in [1, 2] {
            let mut t = NativeTransport::endpoint(&net, net.topology().loc(NodeId(n), 0));
            for page in [0, 1, last / 2, last - 1, last] {
                let at = GlobalAddr(page * PAGE_BYTES + 8 * u64::from(n));
                dsm.write_u64(&mut t, at, 1);
                dsm.read_u64(&mut t, GlobalAddr(at.0 + 8));
            }
            dsm.sd_fence(&mut t);
            dsm.si_fence(&mut t);
        }
        for sweep in ["check_invariants", "reset"] {
            visits::take();
            match sweep {
                "reset" => dsm.reset_for_parallel_section(),
                _ => assert_eq!(dsm.check_invariants(), Vec::<String>::new()),
            }
            let seen = visits::take();
            let widest = seen.values().copied().max().unwrap_or(0);
            assert!((1..=3).contains(&widest), "{} {sweep}: {seen:?}", C::NAME);
        }
    }

    /// A node keeps no directory-cache row for a page it homes: node 1's
    /// read of node 0's home page 2 is a P→S that tells node 0 nothing,
    /// and a bit planted in node 0's row is one problem.
    #[test]
    fn a_row_for_its_own_home_page_is_one_problem() {
        let net = NativeTransport::new(ClusterTopology::tiny(2));
        let dsm = Dsm::<NativeTransport>::with_policy(net.clone(), 1 << 20, CarinaConfig::default());
        let endpoint = |n| NativeTransport::endpoint(&net, net.topology().loc(NodeId(n), 0));
        let (mut t0, mut t1) = (endpoint(0), endpoint(1));
        let own = PageNum(2);
        dsm.write_u64(&mut t0, GlobalAddr(own.0 * PAGE_BYTES), 1);
        assert_eq!(dsm.read_u64(&mut t1, GlobalAddr(own.0 * PAGE_BYTES)), 1);
        assert_eq!(dsm.stats().snapshot().p_to_s, 1);
        assert_eq!(dsm.check_invariants(), Vec::<String>::new());
        let planted = DirView { readers: 1 << 1, writers: 0 };
        dsm.coherence.cached_entry(0, own).or_view(planted);
        let what = "n0: directory-cache row for its home page 2: DirView { readers: 2, writers: 0 }";
        one(dsm.check_invariants(), what);
    }
}
