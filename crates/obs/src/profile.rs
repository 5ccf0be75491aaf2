//! The per-site time table every Lyra [`Lane`](crate::Lane) keeps, and its
//! plain-data [`ProfileSnapshot`].
//!
//! A lane's owner times each protocol [`Site`] it runs as a *scope*
//! ([`Lane::open`](crate::Lane::open) / [`Lane::close`](crate::Lane::close)):
//! the scope's inclusive latency lands in the site's [`Histogram`], and
//! every interval of the thread's clock is charged to exactly one bucket —
//! the innermost open site's *exclusive* cycles, or `outside` when no site
//! is open. So a table restarted at some clock reading and charged up to a
//! later one adds up to exactly the time between them. The read/write
//! *hit* paths open no scope and never touch the table.

use crate::hist::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// The protocol sites: every one is a scope. Order is stable and indexes
/// every per-site array here and the `site` byte of a flight record.
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
}

impl Site {
    /// All sites, in index order.
    pub const ALL: [Site; 6] = [
        Site::ReadMiss,
        Site::WriteFault,
        Site::SdFence,
        Site::SiFence,
        Site::BarrierWait,
        Site::LockAcquire,
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
        }
    }
}

/// One lane's table. Only the lane's owner writes it (plain loads and
/// stores, like the ring head); snapshots read it with relaxed loads.
#[derive(Debug, Default)]
pub(crate) struct SiteTable {
    inclusive: [Histogram; Site::COUNT],
    exclusive: [AtomicU64; Site::COUNT],
    outside: AtomicU64,
}

impl SiteTable {
    /// Charge `cycles` to `bucket`'s exclusive cycles, or to `outside`.
    #[inline]
    pub(crate) fn charge(&self, bucket: Option<Site>, cycles: u64) {
        let cell = match bucket {
            Some(site) => &self.exclusive[site.index()],
            None => &self.outside,
        };
        cell.store(cell.load(Ordering::Relaxed) + cycles, Ordering::Relaxed);
    }

    /// One completed scope of `site` that took `latency`.
    #[inline]
    pub(crate) fn record(&self, site: Site, latency: u64) {
        self.inclusive[site.index()].record_owned(latency);
    }

    /// Fold this table into `acc`.
    pub(crate) fn merge_into(&self, acc: &mut ProfileSnapshot) {
        for (i, h) in self.inclusive.iter().enumerate() {
            acc.sites[i].merge(&h.snapshot());
            acc.exclusive[i] += self.exclusive[i].load(Ordering::Relaxed);
        }
        acc.outside += self.outside.load(Ordering::Relaxed);
    }

    pub(crate) fn reset(&self) {
        for (h, e) in self.inclusive.iter().zip(&self.exclusive) {
            h.reset();
            e.store(0, Ordering::Relaxed);
        }
        self.outside.store(0, Ordering::Relaxed);
    }
}

/// Plain-data snapshot of one lane's table or of many merged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Inclusive latency of each completed scope, per site.
    pub sites: [HistogramSnapshot; Site::COUNT],
    /// Time spent in each site with no site nested inside it open.
    pub exclusive: [u64; Site::COUNT],
    /// Time spent in no site.
    pub outside: u64,
}

impl ProfileSnapshot {
    pub fn get(&self, site: Site) -> &HistogramSnapshot {
        &self.sites[site.index()]
    }

    /// `site`'s exclusive cycles.
    pub fn exclusive(&self, site: Site) -> u64 {
        self.exclusive[site.index()]
    }

    pub fn merge(&mut self, other: &ProfileSnapshot) {
        for (a, b) in self.sites.iter_mut().zip(other.sites.iter()) {
            a.merge(b);
        }
        for (a, b) in self.exclusive.iter_mut().zip(other.exclusive) {
            *a += b;
        }
        self.outside += other.outside;
    }

    /// Every charged cycle: the sites' exclusive cycles plus `outside`.
    /// For one thread's table this is the clock time it covers.
    pub fn total_cycles(&self) -> u64 {
        self.exclusive.iter().sum::<u64>() + self.outside
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

    /// Time by site: each bucket's exclusive cycles and its share of
    /// [`Self::total_cycles`], one line per site and `outside` last.
    pub fn render_time(&self) -> String {
        let total = self.total_cycles().max(1) as f64;
        let rows = Site::ALL.iter().map(|s| (s.name(), self.exclusive(*s)));
        let mut out = String::new();
        for (name, cycles) in rows.chain([("outside", self.outside)]) {
            let share = 100.0 * cycles as f64 / total;
            out.push_str(&format!("  {name:<12} {cycles:>14} {share:>6.2}%\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lyra::FlightRecorder;
    use std::sync::Arc;

    #[test]
    fn site_indices_are_dense_and_stable() {
        for (i, site) in Site::ALL.iter().enumerate() {
            assert_eq!(site.index(), i);
        }
        assert_eq!(Site::COUNT, 6);
    }

    /// One scope of `site` on `lane`, from `start` to `end`.
    fn scope(lane: &mut crate::Lane, site: Site, start: u64, end: u64) {
        let s = lane.open(site, start);
        lane.close(s, end, true);
    }

    #[test]
    fn lanes_merge_into_the_recorder_profile_and_reset_clears_them() {
        let fr = Arc::new(FlightRecorder::new(3, 8));
        let mut lanes: Vec<_> = (0..3).map(|n| FlightRecorder::lane(&fr, n)).collect();
        scope(&mut lanes[0], Site::ReadMiss, 0, 100);
        scope(&mut lanes[1], Site::ReadMiss, 0, 200);
        scope(&mut lanes[2], Site::LockAcquire, 10, 60);
        let merged = fr.profile();
        assert_eq!(merged.get(Site::ReadMiss).count(), 2);
        assert_eq!(merged.get(Site::ReadMiss).sum, 300);
        assert_eq!(merged.exclusive(Site::ReadMiss), 300);
        assert_eq!(merged.get(Site::LockAcquire).count(), 1);
        assert_eq!(merged.exclusive(Site::LockAcquire), 50);
        assert_eq!(merged.outside, 10, "lane 2 ran no site for its first 10");
        assert_eq!(merged.get(Site::WriteFault).count(), 0);

        let n0 = lanes[0].table(100);
        assert_eq!(n0.get(Site::ReadMiss).count(), 1);
        assert_eq!(n0.get(Site::LockAcquire).count(), 0);

        fr.reset();
        assert_eq!(fr.profile(), ProfileSnapshot::default());
    }

    #[test]
    fn a_nested_scope_is_carved_out_of_its_caller() {
        let fr = Arc::new(FlightRecorder::new(1, 8));
        let mut lane = FlightRecorder::lane(&fr, 0);
        lane.restart(1_000);
        let barrier = lane.open(Site::BarrierWait, 1_100);
        let outer_span = barrier.span;
        scope(&mut lane, Site::SdFence, 1_150, 1_400);
        assert_eq!(lane.span(), outer_span, "closing a scope reattaches its caller's span");
        scope(&mut lane, Site::SiFence, 1_450, 1_500);
        lane.close(barrier, 1_600, true);
        let t = lane.table(1_700);
        assert_eq!(t.exclusive(Site::SdFence), 250);
        assert_eq!(t.exclusive(Site::SiFence), 50);
        assert_eq!(t.exclusive(Site::BarrierWait), 500 - 250 - 50);
        assert_eq!(t.get(Site::BarrierWait).sum, 500);
        assert_eq!(t.outside, 100 + 100);
        assert_eq!(t.total_cycles(), 700);
    }

    #[test]
    fn a_failed_scope_is_charged_but_not_counted() {
        let fr = Arc::new(FlightRecorder::new(1, 8));
        let mut lane = FlightRecorder::lane(&fr, 0);
        let s = lane.open(Site::ReadMiss, 5);
        lane.close(s, 25, false);
        let t = lane.table(25);
        assert_eq!((t.exclusive(Site::ReadMiss), t.outside), (20, 5));
        assert!(t.get(Site::ReadMiss).is_empty());
    }

    #[test]
    fn render_names_only_nonempty_sites() {
        let fr = Arc::new(FlightRecorder::new(1, 8));
        let mut lane = FlightRecorder::lane(&fr, 0);
        scope(&mut lane, Site::BarrierWait, 0, 7);
        let snap = lane.table(10);
        let text = snap.render();
        assert!(text.contains("barrier_wait"));
        assert!(!text.contains("read_miss"));
        let time = snap.render_time();
        assert!(time.contains("barrier_wait") && time.contains("70.00%"), "{time}");
        assert!(time.contains("outside") && time.contains("30.00%"), "{time}");
        assert_eq!(time.lines().count(), Site::COUNT + 1, "{time}");
    }
}
