//! # argo — the DSM system façade
//!
//! "The result is a software DSM system called Argo which localizes as many
//! decisions as possible." This crate is the user-facing API of the
//! reproduction:
//!
//! - [`ArgoMachine`](machine::ArgoMachine) — build a simulated cluster
//!   (topology + cost model + Carina config) and run parallel regions on
//!   it with real OS threads carrying virtual clocks.
//! - [`ArgoCtx`](ctx::ArgoCtx) — what each simulated thread programs
//!   against: typed global memory, the hierarchical barrier, explicit
//!   acquire/release fences, measurement control.
//! - [`types`] — typed array/matrix views over global memory.
//! - [`pgas`] — a UPC-like no-caching access mode used as the PGAS
//!   baseline in the evaluation.
//!
//! ```
//! use argo::{ArgoConfig, ArgoMachine};
//! use argo::types::GlobalF64Array;
//!
//! let machine = ArgoMachine::new(ArgoConfig::small(2, 2));
//! let data = GlobalF64Array::alloc(machine.dsm(), 64);
//! let report = machine.run(move |ctx| {
//!     for i in ctx.my_chunk(64) {
//!         data.set(ctx, i, i as f64);
//!     }
//!     ctx.barrier();
//!     let mut sum = 0.0;
//!     for i in 0..64 {
//!         sum += data.get(ctx, i);
//!     }
//!     sum
//! });
//! assert!(report.results.iter().all(|&s| s == 2016.0));
//! ```

pub mod ctx;
pub mod machine;
pub mod pgas;
pub mod report;
pub mod sync;
pub mod types;

pub use ctx::ArgoCtx;
pub use machine::{ArgoConfig, ArgoMachine, RunReport};
pub use pgas::PgasCtx;
pub use sync::{ArgoMutex, ArgoMutexGuard};
pub use types::{GlobalArray, GlobalF64Array, GlobalMatrix, GlobalU64Array};
