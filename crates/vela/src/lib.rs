//! # vela — Argo's synchronization system
//!
//! The paper's second contribution. Synchronization is where a
//! self-invalidation DSM lives or dies: every acquire costs an SI fence
//! over the node's whole page cache, so the protocol must synchronize as
//! rarely — and as locally — as possible.
//!
//! Two halves:
//!
//! - [`local`]: real shared-memory locks measured in real time on real
//!   threads — the Pthreads mutex, **queue delegation (QDL)** and the
//!   **cohort lock** (over a ticket lock). These reproduce Figure 11's
//!   single-node comparison.
//! - [`dsm`]: cluster-wide primitives — the hierarchical barrier (§4.1), a
//!   one-sided global lock, **HQDL** (hierarchical queue delegation, §4.2),
//!   the distributed cohort-lock baseline, and a pairing heap resident in
//!   global memory. These reproduce Figure 12. All of them are generic over
//!   `rma::Transport`: on the default `SimTransport` they carry virtual-time
//!   semantics; on `NativeTransport` the same fence placement runs at
//!   wall-clock speed.
//!
//! [`pairing_heap`] is the sequential priority queue both microbenchmarks
//! wrap a lock around (§5.3).

pub mod dsm;
pub mod local;
pub mod pairing_heap;

pub use dsm::{ClockBarrier, DsmCohortLock, DsmFlag, DsmGlobalLock, DsmPairingHeap, FencePlacement, HierBarrier, Hqdl};
pub use local::{CohortLock, CsLock, PthreadsMutex, QdLock, TicketLock};
pub use pairing_heap::PairingHeap;
