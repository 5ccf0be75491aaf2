//! # carina — Argo's coherence layer
//!
//! The paper's first contribution: a coherence protocol for data-race-free
//! programs built entirely from **self-invalidation**, **self-downgrade**,
//! and a **passive classification directory** (Pyxis) that is only ever
//! accessed by one-sided operations initiated by requesting nodes — no
//! message handlers, no home-node agents, no indirection.
//!
//! Module map:
//! - [`classification`] — page classes (P/S × NW/SW/MW) and the Table 1
//!   decision logic for what self-invalidates and self-downgrades.
//! - [`directory`] — Pyxis home entries (reader/writer full maps) and the
//!   per-node directory caches that transitions are remotely reflected into.
//! - [`write_buffer`] — the FIFO that drains dirty pages between syncs.
//! - [`config`] / [`stats`] — tunables and the one counter table.
//! - [`protocol`] — [`Dsm`], the engine: typed access path, miss handling,
//!   transitions and notifications, SI/SD fences.
//!
//! The memory model is the paper's: SC for DRF, provided every
//! synchronization point issues the appropriate fences — SI on acquire, SD
//! on release (both for a full fence). The `argo` crate's synchronization
//! primitives do this implicitly.

pub mod census;
pub mod classification;
pub mod coherence;
pub mod config;
pub mod directory;
pub mod error;
pub mod protocol;
pub mod stats;
pub mod write_buffer;

pub use census::{Census, HotPage};
pub use classification::{ClassificationMode, DirView, PageClass, WriterClass};
pub use coherence::{CarinaSiSd, Coherence, PageMode, PolicyKind, Pyxis, RegisterOutcome, Tardis};
pub use config::CarinaConfig;
pub use error::DsmError;
pub use protocol::Dsm;
pub use stats::{CoherenceSnapshot, CoherenceStats, StatShard};

// Re-exported so programs handling DSM errors can name the fault and retry
// vocabulary without depending on `rma` directly.
pub use rma::{RetryPolicy, VerbClass, VerbError};
pub use write_buffer::WriteBuffer;

// Lyra observability surface, re-exported so DSM users need not name `obs`.
pub use obs::{
    Fate, FlightRecorder, MetricsSnapshot, RecordKind, RecorderStats, SpanId, TailCapture,
    VerbRecord,
};
