//! Per-lock HQDL observability: delegation counts, queue-wait and batch
//! distributions, holder handovers.
//!
//! Each Vela lock registers one [`LockObs`] in the DSM's [`LockRegistry`]
//! at construction; the hot paths bump it with relaxed atomics and the run
//! report collects [`LockObsSnapshot`]s after the workers join.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramSnapshot};

/// Live counters + histograms for one lock.
#[derive(Debug)]
pub struct LockObs {
    pub name: String,
    /// Critical sections submitted for delegation.
    pub delegations: AtomicU64,
    /// Sections the delegating thread ended up running itself (it became
    /// the helper and drained its own request).
    pub executed_local: AtomicU64,
    /// Sections executed by a *different* thread than their delegator —
    /// true delegated execution.
    pub executed_remote: AtomicU64,
    /// Queue-open episodes (lock acquisitions by a helper).
    pub batches: AtomicU64,
    /// Lock acquisitions whose previous holder was a different node.
    pub handovers: AtomicU64,
    /// Delegation enqueue → execution start, in observability-clock units.
    pub queue_wait: Histogram,
    /// Sections drained per queue-open episode.
    pub batch_size: Histogram,
    /// Global-lock acquire latency as seen by helpers.
    pub acquire: Histogram,
}

impl LockObs {
    pub fn new(name: impl Into<String>) -> Self {
        LockObs {
            name: name.into(),
            delegations: AtomicU64::new(0),
            executed_local: AtomicU64::new(0),
            executed_remote: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            handovers: AtomicU64::new(0),
            queue_wait: Histogram::new(),
            batch_size: Histogram::new(),
            acquire: Histogram::new(),
        }
    }

    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> LockObsSnapshot {
        LockObsSnapshot {
            name: self.name.clone(),
            delegations: self.delegations.load(Ordering::Relaxed),
            executed_local: self.executed_local.load(Ordering::Relaxed),
            executed_remote: self.executed_remote.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            handovers: self.handovers.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.snapshot(),
            batch_size: self.batch_size.snapshot(),
            acquire: self.acquire.snapshot(),
        }
    }

    pub fn reset(&self) {
        self.delegations.store(0, Ordering::Relaxed);
        self.executed_local.store(0, Ordering::Relaxed);
        self.executed_remote.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.handovers.store(0, Ordering::Relaxed);
        self.queue_wait.reset();
        self.batch_size.reset();
        self.acquire.reset();
    }
}

/// Plain-data snapshot of one lock's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct LockObsSnapshot {
    pub name: String,
    pub delegations: u64,
    pub executed_local: u64,
    pub executed_remote: u64,
    pub batches: u64,
    pub handovers: u64,
    pub queue_wait: HistogramSnapshot,
    pub batch_size: HistogramSnapshot,
    pub acquire: HistogramSnapshot,
}

impl LockObsSnapshot {
    pub fn executed(&self) -> u64 {
        self.executed_local + self.executed_remote
    }

    /// Mean sections drained per queue-open episode.
    pub fn mean_batch(&self) -> f64 {
        self.batch_size.mean()
    }

    /// One compact line for per-lock tables.
    pub fn render(&self) -> String {
        format!(
            "{:<12} deleg={:<7} local={:<7} remote={:<7} batches={:<6} \
             mean_batch={:<5.1} handovers={:<5} qwait_p50={:<8} acquire_p50={}",
            self.name,
            self.delegations,
            self.executed_local,
            self.executed_remote,
            self.batches,
            self.mean_batch(),
            self.handovers,
            self.queue_wait.percentile(50.0),
            self.acquire.percentile(50.0),
        )
    }
}

/// Registry of all locks created against one DSM instance.
#[derive(Debug, Default)]
pub struct LockRegistry {
    locks: Mutex<Vec<Arc<LockObs>>>,
}

impl LockRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create, register, and hand back the observer for a new lock.
    pub fn register(&self, name: impl Into<String>) -> Arc<LockObs> {
        let obs = Arc::new(LockObs::new(name));
        self.locks.lock().unwrap().push(obs.clone());
        obs
    }

    pub fn len(&self) -> usize {
        self.locks.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn snapshots(&self) -> Vec<LockObsSnapshot> {
        self.locks
            .lock()
            .unwrap()
            .iter()
            .map(|l| l.snapshot())
            .collect()
    }

    pub fn reset(&self) {
        for l in self.locks.lock().unwrap().iter() {
            l.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_collects_snapshots_in_registration_order() {
        let reg = LockRegistry::new();
        let a = reg.register("alpha");
        let b = reg.register("beta");
        LockObs::bump(&a.delegations);
        LockObs::bump(&a.executed_remote);
        LockObs::bump(&b.delegations);
        LockObs::bump(&b.delegations);
        b.queue_wait.record(128);

        let snaps = reg.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].name, "alpha");
        assert_eq!(snaps[0].delegations, 1);
        assert_eq!(snaps[0].executed(), 1);
        assert_eq!(snaps[0].executed_remote, 1);
        assert_eq!(snaps[1].delegations, 2);
        assert_eq!(snaps[1].queue_wait.count(), 1);

        reg.reset();
        assert_eq!(reg.snapshots()[1].delegations, 0);
    }

    #[test]
    fn render_is_one_line_and_names_the_lock() {
        let obs = LockObs::new("counter");
        obs.batch_size.record(4);
        let line = obs.snapshot().render();
        assert!(line.starts_with("counter"));
        assert_eq!(line.lines().count(), 1);
    }
}
