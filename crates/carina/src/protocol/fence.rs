//! The two fences (paper §3.1) and the other whole-cache sweeps: the SI
//! fence's self-invalidation sweep, the SD fence's write-buffer drain, the
//! naïve-P/S checkpoint sweep (§3.4.2), the end-of-initialization reset
//! (§3.4) and the adaptive classification decay (§3.2).

use super::*;
use crate::config::{CHECKPOINT_CYCLES, FENCE_SCAN_CYCLES, PROTECT_CYCLES};
use crate::stats::StatShard;
use std::convert::Infallible;

/// How many policy events of `kind` `shard`'s node has seen so far.
fn policy_events(shard: &StatShard, kind: obs::RecordKind) -> u64 {
    match kind {
        obs::RecordKind::LeaseExpiry => shard.lease_expiries.load(Ordering::Relaxed),
        _ => {
            shard.mode_to_lease.load(Ordering::Relaxed) + shard.mode_to_sisd.load(Ordering::Relaxed)
        }
    }
}

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Run a fence `body` of node `me` under its site scope and, once it
    /// completed, flight-record — under the same span and interval — how
    /// many policy events of each `watch` kind it caused on the node's
    /// shard: Tardis expires leases in the SI sweep, Pyxis switches modes
    /// at both fences' hooks. Fence-only, which is why it lives here and
    /// not in [`Self::site`].
    fn fence_site<const N: usize>(
        &self,
        t: &mut T::Endpoint,
        me: u16,
        site: obs::Site,
        watch: [obs::RecordKind; N],
        body: impl FnOnce(&mut T::Endpoint) -> Result<(), DsmError>,
    ) -> Result<(), DsmError> {
        let shard = self.stats.shard(me);
        let before = watch.map(|kind| policy_events(shard, kind));
        let start = t.obs_now();
        let span = self.site(t, me, site, 0, |t, span| body(t).map(|()| span))?;
        let dur = t.obs_now().saturating_sub(start);
        for (kind, was) in watch.into_iter().zip(before) {
            let caused = policy_events(shard, kind).saturating_sub(was);
            if caused > 0 {
                self.lyra_record(t, me, || obs::VerbRecord {
                    span,
                    start,
                    dur,
                    arg: caused,
                    node: me,
                    kind,
                    site: site.index() as u8,
                    ..obs::VerbRecord::blank()
                });
            }
        }
        Ok(())
    }

    /// Self-invalidation fence (acquire side): invalidate every cached page
    /// that Table 1 requires for the configured mode. Dirty pages are
    /// downgraded before invalidation so no write is lost.
    pub fn si_fence(&self, t: &mut T::Endpoint) {
        Self::unrecoverable(self.try_si_fence(t))
    }

    /// Fallible flavor of [`Self::si_fence`] (failover-aware; see
    /// [`Self::try_read`]).
    pub fn try_si_fence(&self, t: &mut T::Endpoint) -> Result<(), DsmError> {
        let me = t.node().0;
        let watch = [obs::RecordKind::LeaseExpiry, obs::RecordKind::ModeSwitch];
        self.failover_retry(t, |dsm, t| {
            dsm.fence_site(t, me, obs::Site::SiFence, watch, |t| dsm.si_sweep(t, me))
        })
    }

    /// The fence a lock owes on acquire — the one place the *handover
    /// rule* (`vela::DsmGlobalLock` module docs, DESIGN §11) is enforced.
    /// `handover` says the lock was last released by another node (or
    /// never): only then is there a remote critical section to observe,
    /// and the full SI fence runs. A lock that stayed on this node orders
    /// only writes the node made itself — still in its page cache, or
    /// written home where the next miss reads them — so the sweep is
    /// skipped; the acquire still drops speculation, exactly as the SI
    /// fence would have.
    pub fn acquire_fence(&self, t: &mut T::Endpoint, handover: bool) {
        if handover {
            self.si_fence(t);
        } else {
            self.flush_prefetch(t.node().0);
        }
    }

    /// The body of an SI fence, under its site scope.
    fn si_sweep(&self, t: &mut T::Endpoint, me: u16) -> Result<(), DsmError> {
        let shard = self.stats.shard(me);
        CoherenceStats::bump(&shard.si_fences);
        // An acquire invalidates speculation too: ring snapshots predate
        // the synchronization this fence establishes.
        self.flush_prefetch(me);
        // Acquire-side policy hook (Tardis merges the global clock here).
        self.coherence.begin_si_fence(me, shard);
        let ns = &self.nodes[me as usize];
        let mut consumed = Vec::new();
        // O(resident): only slots holding a line are visited; empty slots
        // of a roomy cache cost nothing.
        ns.cache.sweep(ns.cache.occupied_indices(), |st, idx, page| {
            t.compute(FENCE_SCAN_CYCLES);
            if self.coherence.must_self_invalidate(me, page, shard) {
                if st.pages[idx].dirty {
                    // Unbuffer first: the downgrade's local half always
                    // completes (errors only surface from the posting), so
                    // on a failure the page is clean and must not linger in
                    // the buffer.
                    ns.wbuf.remove(page);
                    self.downgrade_locked(t, st, page, me)?;
                }
                // A consumer's page is recorded for the next refill; a
                // refilled page nobody touched is not.
                match st.pages[idx].si_drop() {
                    Reuse::Consumer => consumed.push(page),
                    Reuse::Refilled => CoherenceStats::bump(&shard.refill_unused),
                    _ => {}
                }
                t.compute(PROTECT_CYCLES);
                CoherenceStats::bump(&shard.si_invalidated);
                self.detail(t, me, obs::RecordKind::SiInvalidate, page.0, obs::NO_TARGET);
            } else {
                CoherenceStats::bump(&shard.si_kept);
                self.detail(t, me, obs::RecordKind::SiKeep, page.0, obs::NO_TARGET);
            }
            Ok(())
        })?;
        let mut recorded = ns.refill.lock().expect("a refill panicked");
        // An epoch that missed but never on a recorded page left stale
        // candidates; an idle one (a writer's turn, say) hands them on.
        if ns.missed.swap(false, Ordering::Relaxed) {
            recorded.clear();
        }
        recorded.extend(consumed);
        Ok(())
    }

    /// Self-downgrade fence (release side): drain the write buffer and wait
    /// for every posted write of this node to settle at its home.
    pub fn sd_fence(&self, t: &mut T::Endpoint) {
        Self::unrecoverable(self.try_sd_fence(t))
    }

    /// Fallible flavor of [`Self::sd_fence`] (failover-aware; see
    /// [`Self::try_read`]).
    pub fn try_sd_fence(&self, t: &mut T::Endpoint) -> Result<(), DsmError> {
        let me = t.node().0;
        let watch = [obs::RecordKind::ModeSwitch];
        self.failover_retry(t, |dsm, t| {
            dsm.fence_site(t, me, obs::Site::SdFence, watch, |t| dsm.sd_drain(t, me))
        })
    }

    /// The body of an SD fence, under its site scope.
    fn sd_drain(&self, t: &mut T::Endpoint, me: u16) -> Result<(), DsmError> {
        CoherenceStats::bump(&self.stats.shard(me).sd_fences);
        let ns = &self.nodes[me as usize];
        // One drain per node at a time: a sibling's fence must not return
        // while this one holds, unbuffered, a page the sibling stored to.
        let _draining = ns.draining.lock().expect("a sibling's drain panicked");
        let drained = ns.wbuf.drain();
        // Shadow homes mirror what this fence writes home: no idle kept page.
        let mut mirrored = if self.config.volans_shadow { drained.clone() } else { Vec::new() };
        mirrored.retain(|&page| self.has_stores(me, page));
        self.drain_posted(t, &drained, me)?;
        if !self.coherence.buffers_every_dirty_page() {
            self.naive_checkpoint_sweep(t, me)?;
        }
        if !mirrored.is_empty() {
            self.mirror_to_successors(t, &mirrored, me)?;
        }
        // Wait for posted downgrades/notifications to become globally
        // visible. `pending_settle` carries the settle time of every write
        // this node posted (including its NIC serialization), which is
        // exactly the set the fence must await — the NIC timeline itself
        // also holds *other* nodes' future reservations and must not be
        // merged wholesale.
        t.merge(ns.pending_settle.load(Ordering::Acquire));
        // Release-side policy hook, after the drain settled (Tardis
        // publishes its clock and opens a new write epoch here).
        self.coherence.end_sd_fence(me, self.stats.shard(me));
        Ok(())
    }

    /// Is `page` cached dirty on `node` and written since its last drain
    /// (shadows mirror those)?
    fn has_stores(&self, node: u16, page: PageNum) -> bool {
        let st = self.nodes[node as usize].cache.lock_slot(page);
        self.dirty_index(&st, page, node).is_some_and(|idx| !st.pages[idx].mask.is_empty())
    }

    /// The naïve P/S scheme's sync-point obligation (§3.4.2): checkpoint
    /// every modified private page — the dirty pages the write buffer
    /// exempts — so a later P→S transition can be serviced. The page stays
    /// dirty and private; the checkpoint cost is paid at *every*
    /// synchronization point — which is why Figure 8 shows naïve P/S
    /// performing no better than no classification at all.
    fn naive_checkpoint_sweep(&self, t: &mut T::Endpoint, me: u16) -> Result<(), DsmError> {
        let ns = &self.nodes[me as usize];
        // O(dirty): clean and empty slots owe the sweep nothing.
        ns.cache.sweep(ns.cache.dirty_indices(), |st, idx, page| {
            // (A page the drain just kept is buffered: the next fence's.)
            if !st.pages[idx].dirty || st.pages[idx].kept_idle.is_some() {
                return Ok(());
            }
            if !self.coherence.write_buffered(me, page) {
                // Local checkpoint copy; the simulator also quietly deposits
                // the data at home so a later P→S reader finds it (the
                // newcomer is charged the checkpoint-service round trip at
                // transition time instead). The copy is cold — the sweep
                // touches pages no CPU cache holds.
                t.compute(CHECKPOINT_CYCLES);
                CoherenceStats::bump(&self.stats.shard(me).checkpoints);
                self.detail(t, me, obs::RecordKind::Checkpoint, page.0, obs::NO_TARGET);
                self.write_home(st, page, idx);
                Ok(())
            } else {
                // Became shared since the write fault, so the policy would
                // buffer it now: downgrade it instead.
                self.downgrade_locked(t, st, page, me)
            }
        })
    }

    /// End-of-initialization reset (paper §3.4): initialization writes do
    /// not count toward classification. Flushes all caches to home (data
    /// plane only — initialization is excluded from measurements), then
    /// nulls every reader/writer map, directory cache, and statistic.
    pub fn reset_for_parallel_section(&self) {
        for (n, ns) in self.nodes.iter().enumerate() {
            self.flush_prefetch(n as u16);
            let Ok(()) = ns.cache.sweep(ns.cache.occupied_indices(), |st, idx, page| {
                if st.pages[idx].dirty {
                    self.write_home(st, page, idx);
                }
                st.pages[idx].invalidate();
                Ok::<(), Infallible>(())
            });
            let _ = ns.wbuf.drain();
            ns.pending_settle.store(0, Ordering::Release);
        }
        self.coherence.reset_all();
        self.stats.reset();
        self.profile.reset();
        self.heat.reset();
        self.lock_obs.reset();
        self.lyra.reset();
    }

    /// Adaptive classification by decay — the extension the paper sketches
    /// in §3.2 ("straightforward to extend the classification to adaptive
    /// … using simple decay techniques"). A *collective* operation: the
    /// caller (one thread, with every other thread quiescent at a barrier)
    /// flushes and invalidates every node's cache and nulls all
    /// reader/writer maps, so pages re-classify according to the access
    /// pattern of the *next* phase. Unlike
    /// [`Self::reset_for_parallel_section`], all work is charged to the
    /// calling thread's clock and statistics are preserved.
    pub fn decay_classification(&self, t: &mut T::Endpoint) {
        Self::unrecoverable(self.try_decay_classification(t))
    }

    /// Fallible flavor of [`Self::decay_classification`].
    pub(crate) fn try_decay_classification(&self, t: &mut T::Endpoint) -> Result<(), DsmError> {
        let me = t.node().0;
        for (n, ns) in self.nodes.iter().enumerate() {
            self.flush_prefetch(n as u16);
            ns.cache.sweep(ns.cache.occupied_indices(), |st, idx, page| {
                t.compute(FENCE_SCAN_CYCLES);
                // Write back on behalf of the owning node: the posting leaves
                // from — and is waited out by — the decay initiator, which
                // coordinates the epoch. The invalidation below stands in
                // for the re-protection; the policy state is about to go.
                if let Some((_, owed)) = self.write_back(t, st, page, n as u16) {
                    if let Some(bytes) = owed {
                        let timing = self.post_write_back(t, page, bytes)?;
                        t.merge(timing.settled);
                    }
                    ns.wbuf.remove(page);
                }
                st.pages[idx].invalidate();
                t.compute(PROTECT_CYCLES);
                CoherenceStats::bump(&self.stats.shard(me).si_invalidated);
                Ok(())
            })?;
            ns.pending_settle.store(0, Ordering::Release);
        }
        self.coherence.reset_all();
        CoherenceStats::bump(&self.stats.shard(me).decays);
        Ok(())
    }
}
