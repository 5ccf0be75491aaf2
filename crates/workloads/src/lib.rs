//! # workloads — the paper's benchmark applications
//!
//! The seven programs of the evaluation (§5), each computing real answers
//! validated against sequential references, with compute costs charged to
//! the virtual clock (see [`costs`]):
//!
//! | module | paper figure | variants |
//! |---|---|---|
//! | [`blackscholes`] | 13c | Argo, Pthreads (1-node Argo), MPI |
//! | [`nbody`] | 13b | Argo, Pthreads, MPI |
//! | [`matmul`] | 13d | Argo, Pthreads, MPI |
//! | [`lu`] | 13a | Argo, Pthreads |
//! | [`ep`] | 13e | Argo, OpenMP (1-node), UPC (PGAS mode) |
//! | [`cg`] | 13f | Argo, OpenMP (1-node), UPC (PGAS mode) |
//! | [`sor`] | extra (TreadMarks-lineage stencil) | Argo, sequential reference |
//!
//! (The seventh "benchmark" is the priority-queue lock microbenchmark of
//! Figures 11/12, which lives in `vela` + `bench`.)
//!
//! [`harness`] provides the shared [`harness::Outcome`] type, the MPI rank
//! runner, and the hierarchical [`harness::GlobalReducer`].

pub mod blackscholes;
pub mod cg;
pub mod costs;
pub mod ep;
pub mod harness;
pub mod lu;
pub mod matmul;
pub mod nbody;
pub mod sor;

pub use harness::Outcome;
