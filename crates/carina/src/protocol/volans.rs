//! Volans: elastic membership on the engine — fail-fast against departed
//! nodes, failover (declare dead, re-home, scrub), online join, and shadow
//! homes. An extension; the paper's cluster is static.

use super::*;
use rma::VerbError;

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Volans: the cluster membership view (epoch, alive set, per-node
    /// observations).
    #[inline]
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Volans fail-fast: a verb about to target a departed node is rejected
    /// before issue — `attempts: 0`, [`VerbError::Departed`] — so a failure
    /// the membership already knows about costs no retry budget. Free until
    /// the first membership change (epoch 0 short-circuits everything);
    /// afterwards the caller's node also records its observation of the
    /// current epoch, which is what the epoch-monotonicity property tests
    /// gate admission on.
    #[inline]
    pub(super) fn check_alive(
        &self,
        me: u16,
        target: u16,
        class: VerbClass,
        span: obs::SpanId,
    ) -> Result<(), DsmError> {
        if self.membership.epoch() == 0 {
            return Ok(());
        }
        self.membership.observe(me);
        if self.membership.is_alive(target) {
            return Ok(());
        }
        Err(DsmError::departed(class, me, target, span))
    }

    /// Run a protocol operation, retrying it across failovers: when it
    /// fails, `volans_failover` is on and the fault admits one, declare the
    /// target departed (re-homing its pages) and re-run the operation
    /// against the survivors. Loops because the retry can fail against a
    /// *different* node; terminates because every iteration either declares
    /// one more node dead (at most n−1 declarations exist) or gives up. The
    /// failover runs only after the operation returned, so every slot guard
    /// it held is already dropped — the sweep can take any lock it needs.
    #[inline]
    pub(super) fn failover_retry<R>(
        &self,
        t: &mut T::Endpoint,
        mut op: impl FnMut(&Self, &mut T::Endpoint) -> Result<R, DsmError>,
    ) -> Result<R, DsmError> {
        loop {
            match op(self, t) {
                Ok(v) => return Ok(v),
                Err(e) if self.config.volans_failover && self.absorb_fault(t, e) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Can a failover absorb `e`? [`VerbError::Departed`] means we raced a
    /// declaration that already re-homed — the retry re-routes by itself.
    /// Anything else that exhausted its budget is the deterministic death
    /// signal: the target failed every reissue across the full backoff
    /// schedule, so declare it departed. `false` only when there is no
    /// survivor left to fail over to.
    fn absorb_fault(&self, t: &mut T::Endpoint, e: DsmError) -> bool {
        if e.last_error == VerbError::Departed {
            return true;
        }
        let me = t.node().0;
        self.declare_dead(e.target, me, e.span, t.obs_now())
    }

    /// Volans failover: declare `dead` departed, re-home every page it
    /// homed onto the rendezvous survivors ([`Self::rehome_page`]: cached
    /// copies are scrubbed, dirty data is preserved by writing it through
    /// to the flat store, which outlives the metadata change, and the
    /// page's coherence state is nulled), and bump the membership epoch.
    ///
    /// Deterministic: the sweep order and [`rendezvous_home`] are pure
    /// functions of `(page, survivors)`, so every declarer computes the
    /// identical new homes. Idempotent — returns `true` when `dead` is (now)
    /// departed and the cluster can continue, `false` when it is the last
    /// survivor (nothing to re-home to; the caller must surface its error).
    /// `span`/`obs_at` attribute the Lyra `EpochBump`/`Rehome` records to
    /// the exhausted verb that triggered the declaration, giving Perfetto a
    /// flow arrow from the failure to the transition.
    pub(crate) fn declare_dead(&self, dead: u16, me: u16, span: obs::SpanId, obs_at: u64) -> bool {
        let _serial = self.transition.lock().unwrap();
        if !self.membership.is_alive(dead) {
            // Someone else declared it while we waited: re-homing is done
            // and our retry will route to the new homes.
            return true;
        }
        let survivors: Vec<u16> = self
            .membership
            .alive_nodes()
            .into_iter()
            .filter(|&node| node != dead)
            .collect();
        if survivors.is_empty() {
            return false;
        }
        let mut rehomed = 0;
        for q in 0..self.global.total_pages() {
            let page = PageNum(q);
            if self.global.home_of(page) == dead {
                self.rehome_page(page, rendezvous_home(q, &survivors));
                rehomed += 1;
            }
        }
        self.membership.mark_dead(dead);
        let epoch = self.membership.bump_epoch();
        self.membership.observe(me);
        let shard = self.stats.shard(me);
        CoherenceStats::bump(&shard.failovers);
        CoherenceStats::add(&shard.pages_rehomed, rehomed);
        let record = |kind, arg| {
            self.lyra.record(me as usize, || obs::VerbRecord {
                span,
                start: obs_at,
                arg,
                target: dead as u32,
                node: me,
                kind,
                ..obs::VerbRecord::blank()
            })
        };
        record(obs::RecordKind::EpochBump, epoch);
        if rehomed > 0 {
            record(obs::RecordKind::Rehome, rehomed);
        }
        true
    }

    /// Move `page`'s home to `heir` and scrub every cached copy of it: a
    /// dirty copy is written through to the flat store first (nothing is
    /// lost), then invalidated so the next access refetches under the new
    /// home — the forced invalidation the epoch bump implies. `set_home`
    /// moves no bytes: the flat store survives the metadata change, so the
    /// last drained version is intact at the heir. The page's coherence
    /// state is nulled as the home moves
    /// ([`Coherence::on_membership_change`]), which clears the heir's
    /// directory-cache row: a home keeps none for its own pages.
    ///
    /// **Order.** The heir goes first, and the home changes *while its slot
    /// lock is held*: from the instant a thread on the heir can take the
    /// home path, the heir's own cached copy — where such a thread read its
    /// unreleased writes from — is already folded into home memory.
    /// Flipping the home before that scrub would let it read a stale word
    /// at home and let the late write-through overwrite its next home-path
    /// store. The other nodes' unreleased writes are owed to nobody yet.
    ///
    /// Safe mid-run: all stores to cached pages happen under the per-slot
    /// locks taken here (one at a time), and a thread blocked on the
    /// transition lock holds no slot lock (failover entry points run only
    /// after their operation returned).
    fn rehome_page(&self, page: PageNum, heir: u16) {
        self.scrub_copy(page, heir, true);
        for node in (0..self.nodes.len() as u16).filter(|&node| node != heir) {
            self.scrub_copy(page, node, false);
        }
    }

    /// One step of [`Self::rehome_page`], under `node`'s slot lock for
    /// `page`: write its dirty copy through, invalidate it, and — when
    /// `node` `inherits` the page — only then move the home there and null
    /// the page's coherence state.
    fn scrub_copy(&self, page: PageNum, node: u16, inherits: bool) {
        let ns = &self.nodes[node as usize];
        let mut st = ns.cache.lock_slot(page);
        let idx = ns.cache.index_in_line(page);
        if st.tag() == Some(ns.cache.line_of(page)) && st.pages[idx].valid {
            if st.pages[idx].dirty() {
                self.write_home(&st, page, idx);
                ns.wbuf.remove(page);
            }
            st.pages[idx].step(Event::Invalidate);
        }
        if inherits {
            self.global.set_home(page, node);
            self.coherence.on_membership_change(page);
        }
    }

    /// Volans online join: bring `node` into the membership at an epoch
    /// bump. The joiner enters with an empty page cache and warms purely by
    /// demand-faulting — no bulk transfer, and no re-homing either (pages
    /// stay where they are; only future failovers rendezvous over the
    /// larger survivor set). Returns the membership epoch after the join;
    /// idempotent — joining an already-alive node changes nothing.
    pub fn join_node(&self, node: u16) -> u64 {
        let _serial = self.transition.lock().unwrap();
        if !self.membership.mark_alive(node) {
            return self.membership.epoch();
        }
        let epoch = self.membership.bump_epoch();
        self.membership.observe(node);
        self.lyra.record(node as usize, || obs::VerbRecord {
            arg: epoch,
            target: node as u32,
            node,
            kind: obs::RecordKind::EpochBump,
            ..obs::VerbRecord::blank()
        });
        epoch
    }

    /// Volans shadow homes: mirror the fence's drained pages to each page's
    /// rendezvous *successor* — the node that would inherit it if its home
    /// died right now. Purely a warm spare against failover re-homing
    /// latency: the flat store needs no second copy, so this posts modeled
    /// whole-page traffic coalesced into one batched verb per successor,
    /// off the hot path at the fence boundary.
    pub(super) fn mirror_to_successors(
        &self,
        t: &mut T::Endpoint,
        pages: &[PageNum],
        me: u16,
    ) -> Result<(), DsmError> {
        let alive = self.membership.alive_nodes();
        if alive.len() < 2 {
            return Ok(());
        }
        let mut batches: Vec<(u16, Vec<u64>)> = Vec::new();
        for &page in pages {
            let home = self.global.home_of(page);
            let heirs: Vec<u16> = alive.iter().copied().filter(|&n| n != home).collect();
            if heirs.is_empty() {
                continue;
            }
            let succ = rendezvous_home(page.0, &heirs);
            if succ != me {
                // (our own cached copy is the mirror otherwise)
                push_grouped(&mut batches, succ, PAGE_BYTES);
            }
        }
        for (succ, sizes) in batches {
            let count = sizes.len() as u64;
            let (salt, verb) = (((succ as u64) << 32) | 1, Verb::WriteBatch { sizes });
            let timing = self.net_verb(t, succ, VerbClass::DrainBatch, salt, t.now(), &verb)?;
            self.settle_posted(t, me, &timing);
            CoherenceStats::add(&self.stats.shard(me).shadow_mirrored, count);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CarinaConfig;
    use mem::{GlobalAddr, PAGE_BYTES};
    use rma::NativeTransport;
    use simnet::{ClusterTopology, NodeId};
    use std::sync::Arc;

    /// `nodes` native nodes with failover on, an endpoint on node 0, and
    /// the address of page 1 (pages interleave: homed on node 1).
    #[allow(clippy::type_complexity)]
    fn failover_cluster(
        nodes: usize,
    ) -> (
        Arc<Dsm<NativeTransport>>,
        <NativeTransport as Transport>::Endpoint,
        GlobalAddr,
    ) {
        let net = NativeTransport::new(ClusterTopology::tiny(nodes));
        let cfg = CarinaConfig { volans_failover: true, ..CarinaConfig::default() };
        let dsm = Dsm::<NativeTransport>::with_policy(net.clone(), 1 << 20, cfg);
        let t = NativeTransport::endpoint(&net, net.topology().loc(NodeId(0), 0));
        let addr = GlobalAddr(PAGE_BYTES);
        assert_eq!(dsm.home_of(addr), 1);
        (dsm, t, addr)
    }

    /// The kill-mid-run race, interleaved by hand: an accessor on node 0
    /// decides "remote" for a page homed on node 1, a failover re-homes the
    /// page to node 0, and only then does the accessor reach `read_miss`.
    /// The miss must not leave the slot unfilled (it used to skip the now
    /// local page and the accessor then read a never-filled cache page): it
    /// reports a departed route, which `failover_retry` absorbs without
    /// declaring anything, and the re-run reads the home copy.
    #[test]
    fn read_miss_reroutes_a_page_rehomed_under_the_accessor() {
        let (dsm, mut t, addr) = failover_cluster(2);
        let page = addr.page();
        dsm.global.home_page(page).store(addr.word_index(), 42);

        let err = {
            let mut st = dsm.nodes[0].cache.lock_slot(page);
            dsm.global.set_home(page, 0); // what a failover does under this lock
            let err = dsm.read_miss(&mut t, &mut st, page, 0, false).unwrap_err();
            assert_eq!(st.tag(), None, "the refused miss touched the slot");
            err
        };
        assert_eq!(err.last_error, VerbError::Departed);
        assert!(dsm.absorb_fault(&mut t, err), "a departed route is retried");
        assert_eq!(dsm.try_read::<u64>(&mut t, addr), Ok(42));
        let stats = dsm.stats().snapshot();
        assert_eq!((stats.failovers, stats.read_misses), (0, 0));
        assert!(dsm.check_invariants().is_empty());
    }

    /// The re-home order, pinned by running the per-page steps one at a
    /// time: node 0 holds page 1 dirty (unreleased `X`) when the page is
    /// re-homed *to* node 0, and node 2 falsely shares it (unreleased `Z`).
    /// After the heir step alone, `home_of == heir` must imply the heir's
    /// copy is already home — the first thing node 0 reads on the home path
    /// is its own `X` — and a home-path store of `Y` made before the other
    /// nodes are scrubbed must survive both that scrub (node 2 contributes
    /// its masked diff, `Z` only) and the rest of the sweep. Flipping every
    /// home first and scrubbing afterwards (the old order) reads 0 for `X`,
    /// and the late write-through then overwrites `Y` with `X`. That the
    /// home moves *under* the heir's slot lock is `scrub_copy`'s shape; no
    /// single-threaded test can see it (a home-path access takes no lock).
    #[test]
    fn rehoming_folds_the_heirs_dirty_copy_in_before_the_home_moves() {
        let (dsm, mut t, addr) = failover_cluster(3);
        let (page, z_addr) = (addr.page(), addr.offset(8 * 100));
        let (x, y, z) = (0xAAAA, 0xBBBB, 0xCCCC);
        dsm.write_u64(&mut t, addr, x);
        let net = dsm.net().clone();
        let mut t2 = NativeTransport::endpoint(&net, net.topology().loc(NodeId(2), 0));
        dsm.write_u64(&mut t2, z_addr, z);
        assert_eq!((dsm.peek_u64(addr), dsm.peek_u64(z_addr)), (0, 0), "both cached dirty");

        dsm.scrub_copy(page, 0, true);
        assert_eq!(dsm.home_of(addr), 0);
        assert_eq!(dsm.peek_u64(addr), x, "the home moved before the heir's copy was home");
        assert_eq!(dsm.read_u64(&mut t, addr), x, "the heir lost its own write");
        dsm.write_u64(&mut t, addr, y);

        dsm.scrub_copy(page, 2, false);
        assert_eq!((dsm.peek_u64(addr), dsm.peek_u64(z_addr)), (y, z), "the scrub lost a write");
        assert!(dsm.declare_dead(1, 0, obs::SpanId::NONE, 0)); // the rest of the sweep
        assert_eq!(dsm.read_u64(&mut t, addr), y, "the sweep overwrote a home-path store");
        assert_eq!(dsm.read_u64(&mut t, z_addr), z);
        assert_eq!(dsm.stats().snapshot().failovers, 1);
        assert!(dsm.check_invariants().is_empty());
    }
}
