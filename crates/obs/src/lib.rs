//! # obs — Argoscope, the observability layer
//!
//! Every performance argument this repository makes — SI keeps vs
//! invalidations, writebacks vs buffer size, HQDL delegation batching — is
//! read off distributions and attributions, not cluster totals. This crate
//! is the shared substrate those measurements report through:
//!
//! - [`hist`] — lock-free per-node log2-bucketed latency [`Histogram`]s.
//!   Recording is two relaxed atomic adds; merging, percentiles, and a
//!   compact text rendering happen on plain snapshots after the fact.
//! - [`profile`] — the fixed set of protocol [`Site`]s (read-miss service,
//!   write faults, fences, barrier waits, lock acquires), each a scope, and
//!   the [`ProfileSnapshot`] of the time table every lane keeps: per site
//!   an inclusive-latency histogram and exclusive cycles, plus the time
//!   spent in no site — so a thread's table adds up to its clock. The
//!   read/write *hit* paths contain no recording code at all.
//! - [`lock_stats`] — [`LockObs`], per-lock HQDL delegation statistics
//!   (remote vs local execution, queue wait, batch sizes, handovers) and
//!   the [`LockRegistry`] a run report collects them from.
//! - [`json`] — the tiny JSON writer/parser used by the Perfetto trace
//!   emitter, `RunReport::to_json()`, and the golden tests (no external
//!   dependencies are available in this build environment).
//! - [`span`] — [`SpanId`], the causal handle minted at every protocol
//!   site and threaded through the verb layer's issue/poll/retry halves.
//! - [`lyra`] — the always-on [`FlightRecorder`]: one single-writer
//!   [`Lane`] per endpoint (the only record writer; it also mints and
//!   holds the endpoint's span and keeps its owner's time table) of
//!   fixed-size [`VerbRecord`]s with counted loss and a flow-arrow
//!   Perfetto export.
//! - [`metrics`] — [`MetricsSnapshot`], a live Prometheus-text + JSON
//!   metrics exposition pollable mid-run on both backends.
//!
//! Units are deliberately the caller's problem: histograms store whatever
//! the backend's observability clock counts — virtual cycles under the
//! simulator, wall nanoseconds under the native transport — and snapshots
//! carry the numbers through unchanged.

pub mod hist;
pub mod json;
pub mod lock_stats;
pub mod lyra;
pub mod metrics;
pub mod profile;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use json::JsonValue;
pub use lock_stats::{LockObs, LockObsSnapshot, LockRegistry};
pub use lyra::{
    Fate, FlightRecorder, Lane, RecordKind, RecorderStats, Scope, VerbRecord,
    LANE_RECORDS, NO_CLASS, NO_SITE, NO_TARGET,
};
pub use metrics::{Metric, MetricValue, MetricsSnapshot};
pub use profile::{ProfileSnapshot, Site};
pub use span::SpanId;
