//! Real shared-memory locks, measured in real time (Figure 11).
//!
//! These are genuine concurrent lock implementations — not simulations.
//! The single-node lock microbenchmark runs them on actual OS threads and
//! reports actual throughput, exactly as the paper does on one machine.

pub mod cohort;
pub mod qd;
pub mod ticket;

pub use cohort::CohortLock;
pub use qd::{QdFuture, QdLock};
pub use ticket::TicketLock;

use std::sync::Mutex;

/// A uniform synchronous critical-section interface over every local lock,
/// so one benchmark harness can sweep all of them. `socket` is the NUMA
/// domain of the calling thread (used by NUMA-aware locks, ignored by the
/// rest).
pub trait CsLock<T>: Sync {
    fn with<R: Send + 'static>(&self, socket: usize, f: impl FnOnce(&mut T) -> R + Send + 'static)
        -> R;
    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// The "Pthreads mutex lock" baseline of Figure 11.
pub struct PthreadsMutex<T>(pub Mutex<T>);

impl<T> PthreadsMutex<T> {
    pub fn new(data: T) -> Self {
        PthreadsMutex(Mutex::new(data))
    }
}

impl<T: Send> CsLock<T> for PthreadsMutex<T> {
    fn with<R: Send + 'static>(
        &self,
        _socket: usize,
        f: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> R {
        f(&mut self.0.lock().expect("poisoned"))
    }
    fn name(&self) -> &'static str {
        "pthreads-mutex"
    }
}

impl<T: Send> CsLock<T> for CohortLock<T> {
    fn with<R: Send + 'static>(
        &self,
        socket: usize,
        f: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> R {
        CohortLock::with(self, socket % self.sockets(), f)
    }
    fn name(&self) -> &'static str {
        "cohort"
    }
}

impl<T: Send> CsLock<T> for QdLock<T> {
    fn with<R: Send + 'static>(
        &self,
        _socket: usize,
        f: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> R {
        self.delegate_wait(f)
    }
    fn name(&self) -> &'static str {
        "qd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn hammer<L: CsLock<u64> + Send + 'static>(lock: Arc<L>, threads: usize, per: u64) -> u64 {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let l = lock.clone();
                std::thread::spawn(move || {
                    for _ in 0..per {
                        l.with(i % 4, |v| *v += 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        lock.with(0, |v| *v)
    }

    #[test]
    fn every_lock_satisfies_the_trait_contract() {
        assert_eq!(hammer(Arc::new(PthreadsMutex::new(0)), 4, 5000), 20_000);
        assert_eq!(hammer(Arc::new(CohortLock::new(4, 32, 0)), 4, 5000), 20_000);
        assert_eq!(hammer(Arc::new(QdLock::new(0)), 4, 5000), 20_000);
    }
}
