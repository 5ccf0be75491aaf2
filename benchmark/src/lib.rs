//! `argobench` — the repository's benchmark.
//!
//! Five fixed-load workloads on a 2×1 cluster, measured end to end in the
//! two numbers that repeat on a small shared host — virtual cycles and
//! process CPU-seconds — plus per-layer probes and a call-boundary traced
//! run. The benchmark owns its kernels and measures the layers from
//! outside only; see `README.md` for the metric glossary and the list of
//! repository functions it compiles against.

pub mod cli;
pub mod compare;
pub mod host;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod probe;
pub mod rng;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
