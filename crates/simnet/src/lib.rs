//! # simnet — simulated cluster interconnect
//!
//! This crate is the hardware substrate for the Argo DSM reproduction. The
//! paper ran on a 128-node InfiniBand cluster; we run every "node" inside one
//! process and model the network with a **virtual-time cost model** instead of
//! real wires. Three properties of the paper's platform are preserved:
//!
//! 1. **One-sidedness.** RDMA verbs complete without any code executing on
//!    the target node. In the simulation, initiators touch the target's
//!    memory directly (the data plane lives in the `mem` crate); `simnet`
//!    only *charges time* to the initiating thread.
//! 2. **Latency structure.** Every verb costs propagation latency plus a
//!    bandwidth term, with constants calibrated from the paper's Figure 1
//!    (2011 column). Message-passing sends additionally pay a software
//!    message-handler cost on the receiving side — the overhead Argo's
//!    passive protocol is designed to avoid.
//! 3. **Bandwidth contention.** Each node has a NIC with an occupancy
//!    timeline; concurrent transfers through the same NIC serialize, so
//!    hot-spotting a home node shows up in virtual time exactly as it would
//!    on real hardware.
//!
//! Virtual time is carried by [`SimThread`]: a per-thread monotone cycle
//! counter that synchronization primitives merge at clock-exchange points
//! (barrier entry, lock hand-off, message receipt). Host time enters only
//! where a thread blocks for a peer, and every such wait goes through
//! [`Waits`] (module [`waits`]).

pub mod clock;
pub mod cost;
pub mod error;
pub mod msg;
pub mod net;
pub mod stats;
pub mod testkit;
pub mod topology;
pub mod waits;

pub use clock::{SimThread, TokenSlab};
pub use cost::CostModel;
pub use error::ConfigError;
pub use msg::{Msg, MsgWorld, Tag};
pub use net::Interconnect;
pub use stats::{NetStats, PerNodeSnapshot};
pub use topology::{ClusterTopology, NodeId, ThreadLoc};
pub use waits::{run_threads, Abort, Waits, MAX_THREADS, PEER_PANICKED};
