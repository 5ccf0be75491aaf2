//! Coherence event counters.
//!
//! These drive the paper's protocol-characterization figures: Figure 8
//! (self-invalidations avoided per classification mode) and Figure 10
//! (writebacks vs write-buffer size), plus the ablation benches.
//!
//! Counters are sharded per node: every protocol operation bumps counters,
//! and a single cluster-wide set would put all nodes' hot increments on the
//! same cache lines. Each node writes its own [`StatShard`] (padded to its
//! own cache lines); [`CoherenceStats::snapshot`] merges the shards into
//! the same cluster-wide totals a single set would have produced.

use std::sync::atomic::{AtomicU64, Ordering};

/// The one place a coherence counter is named. Each `/// doc` + `name,`
/// entry becomes a public `AtomicU64` field of [`StatShard`], a public `u64`
/// field of [`CoherenceSnapshot`], a term of the shard merge and reset, and
/// a `(name, value)` pair of [`CoherenceSnapshot::fields`] — which is what
/// `RunReport::to_json` and `Dsm::metrics_snapshot` loop over, so adding a
/// counter is a one-line change that reaches every view.
macro_rules! counters {
    ($( $(#[$doc:meta])* $name:ident, )*) => {
        /// One node's coherence event counters (Relaxed; read after joins).
        ///
        /// Aligned to 128 bytes so adjacent nodes' shards never share a
        /// cache line (two lines covers adjacent-line prefetchers).
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub struct StatShard {
            $( $(#[$doc])* pub $name: AtomicU64, )*
        }

        impl StatShard {
            /// Every counter with its name, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, &AtomicU64)> {
                [$( (stringify!($name), &self.$name), )*].into_iter()
            }

            fn add_into(&self, out: &mut CoherenceSnapshot) {
                $( out.$name += self.$name.load(Ordering::Relaxed); )*
            }
        }

        /// Plain snapshot of [`CoherenceStats`]: cluster-wide totals.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CoherenceSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl CoherenceSnapshot {
            /// Every counter with its name, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($name), self.$name), )*].into_iter()
            }
        }
    };
}

counters! {
    /// Reads served from a valid cached page.
    read_hits,
    /// Writes to a page that was already dirty.
    write_hits,
    /// Reads that had to fetch their line from the pages' homes.
    read_misses,
    /// Protection faults on a valid page (first write after a downgrade).
    write_faults,
    /// Pages invalidated by SI fences.
    si_invalidated,
    /// Pages an SI fence kept because classification said so.
    si_kept,
    /// Dirty pages written back to their home (buffer overflow, fence, or
    /// eviction).
    writebacks,
    /// Bytes of downgrade traffic (diffs or whole pages).
    writeback_bytes,
    /// Words carried by diffs (vs whole-page transfers).
    diff_words,
    /// Private-page checkpoints taken at sync points (naïve P/S only).
    checkpoints,
    /// Private→Shared classification transitions observed.
    p_to_s,
    /// No-writer→Single-writer transitions observed.
    nw_to_sw,
    /// Single-writer→Multiple-writer transitions observed.
    sw_to_mw,
    /// Lines evicted with live contents due to direct-map conflicts.
    evictions,
    /// SI fences executed.
    si_fences,
    /// SD fences executed.
    sd_fences,
    /// Collective classification decays performed (adaptive extension).
    decays,
    /// Verb reissues after a fabric failure (0 on a healthy fabric).
    verb_retries,
    /// Retry budgets exhausted — each one surfaced a `DsmError`.
    verb_exhaustions,
    /// Leases re-granted on a page the node already held (Tardis only).
    lease_renewals,
    /// Cached pages an SI fence dropped because their lease expired
    /// (Tardis only).
    lease_expiries,
    /// Cached pages an SI fence kept because their lease was still valid —
    /// the invalidations the timestamp protocol avoided (Tardis only).
    lease_kept,
    /// Pages the hybrid switched classify→lease at a fence boundary
    /// (Pyxis only).
    mode_to_lease,
    /// Pages the hybrid switched lease→classify at a fence boundary
    /// (Pyxis only).
    mode_to_sisd,
    /// SI-fence page examinations governed by lease mode (Pyxis only).
    mode_lease_checks,
    /// SI-fence page examinations governed by classification mode (Pyxis
    /// only).
    mode_classify_checks,
    /// Forced invalidations at the first acquire observing a page's mode
    /// switch — the reconcile rule that keeps transitions sound (Pyxis
    /// only).
    mode_reconciles,
    /// Fence drains that posted a write-hot page's diff and re-armed its
    /// mask instead of protecting the page.
    write_retained,
    /// Kept pages a drain scanned and found unwritten (nothing posted).
    retained_idle_scans,
    /// Demand misses that re-fetched the consumer pages an SI fence dropped
    /// (refills installing at least one page).
    refills,
    /// Pages those refills installed.
    refill_pages,
    /// Refilled pages an SI fence dropped untouched.
    refill_unused,
}

/// Cluster-wide coherence event counters, sharded per node.
#[derive(Debug)]
pub struct CoherenceStats {
    shards: Box<[StatShard]>,
}

impl CoherenceStats {
    /// Counters for a cluster of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        CoherenceStats {
            shards: (0..nodes.max(1)).map(|_| StatShard::default()).collect(),
        }
    }

    /// The shard that `node`'s events are counted in.
    #[inline]
    pub fn shard(&self, node: u16) -> &StatShard {
        &self.shards[node as usize]
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Cluster-wide totals (all shards merged).
    pub fn snapshot(&self) -> CoherenceSnapshot {
        let mut out = CoherenceSnapshot::default();
        for s in self.shards.iter() {
            s.add_into(&mut out);
        }
        out
    }

    pub fn reset(&self) {
        for (_, c) in self.shards.iter().flat_map(StatShard::counters) {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// `part / whole`, 0.0 when nothing was counted yet.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        return 0.0;
    }
    part as f64 / whole as f64
}

impl CoherenceSnapshot {
    /// The derived ratios with their names, for the same loops that walk
    /// [`Self::fields`].
    pub fn ratios(&self) -> [(&'static str, f64); 4] {
        [
            ("si_keep_ratio", self.si_keep_ratio()),
            ("lease_keep_ratio", self.lease_keep_ratio()),
            ("lease_mode_occupancy", self.lease_mode_occupancy()),
            ("diff_efficiency", self.diff_efficiency()),
        ]
    }

    /// Fraction of SI-fence page examinations that resulted in keeping the
    /// page — the benefit classification buys (higher is better).
    pub(crate) fn si_keep_ratio(&self) -> f64 {
        ratio(self.si_kept, self.si_invalidated + self.si_kept)
    }

    /// Fraction of lease-held pages an SI fence kept because their lease
    /// was still valid — the invalidations Tardis avoided (0.0 under
    /// policies that grant no leases).
    pub fn lease_keep_ratio(&self) -> f64 {
        ratio(self.lease_kept, self.lease_expiries + self.lease_kept)
    }

    /// Fraction of SI-fence page examinations governed by lease mode — how
    /// much of the hybrid's footprint timestamps ended up covering (0.0
    /// under the pure policies, which never tick the mode counters).
    pub fn lease_mode_occupancy(&self) -> f64 {
        ratio(self.mode_lease_checks, self.mode_lease_checks + self.mode_classify_checks)
    }

    /// Fraction of write-back wire bytes that were diffed words — how much
    /// of the downgrade traffic travelled as word-granular payloads instead
    /// of whole pages (higher = diffs doing more of the work).
    pub fn diff_efficiency(&self) -> f64 {
        ratio(self.diff_words * 8, self.writeback_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merges_shards() {
        let s = CoherenceStats::new(3);
        CoherenceStats::bump(&s.shard(0).read_misses);
        CoherenceStats::bump(&s.shard(2).read_misses);
        CoherenceStats::add(&s.shard(1).writeback_bytes, 4096);
        let snap = s.snapshot();
        assert_eq!(snap.read_misses, 2);
        assert_eq!(snap.writeback_bytes, 4096);
        assert_eq!(s.shard(0).read_misses.load(Ordering::Relaxed), 1);
        assert_eq!(s.shard(1).read_misses.load(Ordering::Relaxed), 0);
        s.reset();
        assert_eq!(s.snapshot(), CoherenceSnapshot::default());
    }

    #[test]
    fn shards_do_not_share_cache_lines() {
        assert!(std::mem::align_of::<StatShard>() >= 128);
        assert!(std::mem::size_of::<StatShard>() >= 128);
    }

    #[test]
    fn keep_ratio_handles_zero() {
        assert_eq!(CoherenceSnapshot::default().si_keep_ratio(), 0.0);
        let s = CoherenceSnapshot {
            si_kept: 3,
            si_invalidated: 1,
            ..Default::default()
        };
        assert!((s.si_keep_ratio() - 0.75).abs() < 1e-12);
    }
}
