//! Synchronization over the DSM cluster (virtual-time semantics).
//!
//! Everything here both provides real mutual exclusion between the OS
//! threads that simulate cluster threads *and* models the virtual-time cost
//! of the distributed algorithm, including the Carina fences each
//! primitive's semantics require.

pub mod barrier;
pub mod flag;
pub mod cohort_dsm;
pub mod global_lock;
pub mod heap;
pub mod hqdl;

pub use barrier::{ClockBarrier, HierBarrier};
pub use flag::DsmFlag;
pub use cohort_dsm::{DsmCohortLock, FencePlacement};
pub use global_lock::{DsmGlobalLock, GlobalLockStats};
pub use heap::DsmPairingHeap;
pub use hqdl::{DsmFuture, Hqdl};
