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
//! - `coherence` — the [`Coherence`] policies: [`CarinaSiSd`], [`Tardis`],
//!   [`Pyxis`].
//! - `directory` — a Pyxis directory entry: reader/writer full maps in four
//!   words, the cell type of the home directory and of the per-node
//!   directory caches that transitions are remotely reflected into.
//! - `write_buffer` — the FIFO that drains dirty pages between syncs.
//! - [`config`] / `stats` — tunables and the one counter table.
//! - `protocol` — [`Dsm`], the engine: typed access path, miss handling,
//!   transitions and notifications, SI/SD fences, the refill.
//!
//! The memory model is the paper's: SC for DRF, provided every
//! synchronization point issues the appropriate fences — SI on acquire, SD
//! on release (both for a full fence). The `argo` crate's synchronization
//! primitives do this implicitly.

#![forbid(unsafe_code)]

pub mod classification;
mod coherence;
pub mod config;
mod directory;
mod error;
mod protocol;
mod stats;
mod write_buffer;

pub use classification::{ClassificationMode, PageClass, WriterClass};
pub use coherence::{CarinaSiSd, Coherence, Pyxis, Tardis};
pub use config::CarinaConfig;
pub use error::DsmError;
pub use protocol::{Dsm, Published};
pub use stats::{CoherenceSnapshot, CoherenceStats, StatShard};

// Re-exported so programs handling DSM errors can name the verb class
// without depending on `rma` directly, and read the Lyra recorder's health
// and span ids without naming `obs`.
pub use obs::{RecorderStats, SpanId};
pub use rma::VerbClass;
