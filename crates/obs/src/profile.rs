//! [`LatencyProfile`]: the fixed set of protocol hot-path sites, one
//! [`Histogram`] per site per node.
//!
//! Per-node shards are cache-line-aligned so concurrent recording from
//! different nodes never false-shares; recording at a site is exactly the
//! two relaxed adds of [`Histogram::record`]. The read/write *hit* paths
//! never call into this module — only misses, faults, fences, barriers and
//! lock acquires do.

use crate::hist::{Histogram, HistogramSnapshot};

/// The instrumented protocol sites. Order is stable and indexes both
/// [`LatencyProfile`] shards and [`ProfileSnapshot::sites`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Read-miss service: fault trap through page fetch + classification.
    ReadMiss,
    /// Write fault: trap + directory registration.
    WriteFault,
    /// Self-downgrade fence: write-buffer drain (diffs + writebacks).
    SdFence,
    /// Self-invalidation fence: resident-page sweep.
    SiFence,
    /// Full barrier wait (SD + global rendezvous + SI).
    BarrierWait,
    /// Global lock acquire (CAS loop + transfer latency).
    LockAcquire,
    /// A verb retry episode: total backoff charged before the verb finally
    /// succeeded (or the budget exhausted). Empty unless the fabric injects
    /// faults.
    Retry,
    /// The issue→poll window of an overlapped verb group (read-miss line
    /// fills, fence drain batches): time between posting the first verb of
    /// the group and completing the last poll.
    IssueToPoll,
}

impl Site {
    /// All sites, in index order.
    pub const ALL: [Site; 8] = [
        Site::ReadMiss,
        Site::WriteFault,
        Site::SdFence,
        Site::SiFence,
        Site::BarrierWait,
        Site::LockAcquire,
        Site::Retry,
        Site::IssueToPoll,
    ];

    pub const COUNT: usize = Self::ALL.len();

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in text renderings and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Site::ReadMiss => "read_miss",
            Site::WriteFault => "write_fault",
            Site::SdFence => "sd_fence",
            Site::SiFence => "si_fence",
            Site::BarrierWait => "barrier_wait",
            Site::LockAcquire => "lock_acquire",
            Site::Retry => "retry",
            Site::IssueToPoll => "issue_to_poll",
        }
    }
}

/// One node's worth of site histograms, padded to its own cache lines.
#[repr(align(128))]
#[derive(Debug)]
struct NodeShard {
    sites: [Histogram; Site::COUNT],
}

impl NodeShard {
    fn new() -> Self {
        NodeShard {
            sites: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

/// Per-node latency histograms for every [`Site`].
#[derive(Debug)]
pub struct LatencyProfile {
    shards: Vec<NodeShard>,
}

impl LatencyProfile {
    pub fn new(nodes: usize) -> Self {
        LatencyProfile {
            shards: (0..nodes).map(|_| NodeShard::new()).collect(),
        }
    }

    pub fn nodes(&self) -> usize {
        self.shards.len()
    }

    /// Record one latency sample at `site` from `node`. Two relaxed adds.
    #[inline]
    pub fn record(&self, node: usize, site: Site, value: u64) {
        self.shards[node].sites[site.index()].record(value);
    }

    /// Cluster-wide snapshot: all node shards merged per site.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut sites: [HistogramSnapshot; Site::COUNT] =
            std::array::from_fn(|_| HistogramSnapshot::default());
        for shard in &self.shards {
            for (acc, h) in sites.iter_mut().zip(shard.sites.iter()) {
                acc.merge(&h.snapshot());
            }
        }
        ProfileSnapshot { sites }
    }

    /// Snapshot of a single node's shard.
    pub fn node_snapshot(&self, node: usize) -> ProfileSnapshot {
        ProfileSnapshot {
            sites: std::array::from_fn(|i| self.shards[node].sites[i].snapshot()),
        }
    }

    /// Zero every histogram (used when a run resets stats at the start of
    /// the measured parallel section).
    pub fn reset(&self) {
        for shard in &self.shards {
            for h in &shard.sites {
                h.reset();
            }
        }
    }
}

/// Plain-data snapshot of a [`LatencyProfile`], merged or per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSnapshot {
    pub sites: [HistogramSnapshot; Site::COUNT],
}

impl Default for ProfileSnapshot {
    fn default() -> Self {
        ProfileSnapshot {
            sites: std::array::from_fn(|_| HistogramSnapshot::default()),
        }
    }
}

impl ProfileSnapshot {
    pub fn get(&self, site: Site) -> &HistogramSnapshot {
        &self.sites[site.index()]
    }

    pub fn merge(&mut self, other: &ProfileSnapshot) {
        for (a, b) in self.sites.iter_mut().zip(other.sites.iter()) {
            a.merge(b);
        }
    }

    /// Total samples across all sites.
    pub fn total_samples(&self) -> u64 {
        self.sites.iter().map(|s| s.count()).sum()
    }

    /// One line per non-empty site: name + compact histogram rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for site in Site::ALL {
            let h = self.get(site);
            if h.is_empty() {
                continue;
            }
            out.push_str(&format!("  {:<12} {}\n", site.name(), h.render()));
        }
        if out.is_empty() {
            out.push_str("  (no samples)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_indices_are_dense_and_stable() {
        for (i, site) in Site::ALL.iter().enumerate() {
            assert_eq!(site.index(), i);
        }
        assert_eq!(Site::COUNT, 8);
    }

    #[test]
    fn per_node_recording_merges_into_cluster_snapshot() {
        let p = LatencyProfile::new(3);
        p.record(0, Site::ReadMiss, 100);
        p.record(1, Site::ReadMiss, 200);
        p.record(2, Site::LockAcquire, 50);
        let merged = p.snapshot();
        assert_eq!(merged.get(Site::ReadMiss).count(), 2);
        assert_eq!(merged.get(Site::ReadMiss).sum, 300);
        assert_eq!(merged.get(Site::LockAcquire).count(), 1);
        assert_eq!(merged.get(Site::WriteFault).count(), 0);
        assert_eq!(merged.total_samples(), 3);

        let n0 = p.node_snapshot(0);
        assert_eq!(n0.get(Site::ReadMiss).count(), 1);
        assert_eq!(n0.get(Site::LockAcquire).count(), 0);

        p.reset();
        assert_eq!(p.snapshot().total_samples(), 0);
    }

    #[test]
    fn render_names_only_nonempty_sites() {
        let p = LatencyProfile::new(1);
        p.record(0, Site::BarrierWait, 7);
        let text = p.snapshot().render();
        assert!(text.contains("barrier_wait"));
        assert!(!text.contains("read_miss"));
    }
}
