//! # rma — the pluggable RMA transport layer
//!
//! Carina's whole design rests on one observation (paper §3): every protocol
//! action is *just an RMA verb* — a one-sided read, a posted write, a remote
//! fetch-or / fetch-add / CAS — issued by the requesting node against memory
//! it does not own, with no code running at the target. This crate cuts that
//! observation into a seam: a [`Transport`] opens per-thread [`Endpoint`]s,
//! and an endpoint moves a [`Verb`] in exactly one way — [`Endpoint::issue`]
//! posts it at a given instant and returns a token, [`Endpoint::poll`] /
//! [`Endpoint::wait`] resolve the token into a [`Completion`]. That pair is
//! the verb surface the paper assumes from MPI-3 RMA and all a backend
//! implements; the blocking `Endpoint::rdma_*` verbs are trait-default
//! issue-at-`now` + wait + merge wrappers over it. Everything above
//! (carina's protocol, vela's synchronization, argo's machine, the
//! workloads) is generic over the trait pair.
//!
//! Two backends ship:
//!
//! * [`SimTransport`] — the virtual-time simulator. It *is*
//!   [`simnet::Interconnect`] (a type alias, with the traits implemented
//!   directly on it and on [`simnet::SimThread`]), so the adapter adds zero
//!   state and zero arithmetic: results are bit-for-bit identical to calling
//!   the interconnect directly. `examples/determinism_probe.rs` holds that
//!   contract.
//! * [`NativeTransport`] — a real shared-memory backend with **no virtual
//!   clock**. Verbs complete instantly in virtual time (the data plane in
//!   `mem` is host shared memory either way) and the identical protocol
//!   executes on host threads at wall-clock speed, so workloads can be
//!   benchmarked as real programs rather than simulated ones.
//!
//! Dispatch is static throughout: no `dyn Transport` exists on the read-hit
//! or fence hot paths. Generic structs default their parameter to
//! [`SimTransport`], so pre-existing call sites compile unchanged.
//!
//! ## Puppis: fallibility, faults, and retry
//!
//! Every verb resolves to `Result<_, VerbError>`. The two concrete
//! backends never fail, but [`FaultyTransport`] wraps either of them with a
//! seeded, reproducible [`FaultPlan`] (drops, timeouts, duplicates, latency
//! spikes, NIC brownouts) — each fate decided, counted and flight-recorded
//! at issue and applied at poll, for every verb — and [`RetryPolicy`] gives
//! the layers above a deterministic capped-exponential-backoff answer to
//! those failures — safe precisely because Carina's one-sided verbs are
//! idempotent.

pub mod fault;
pub mod native;
pub mod retry;
pub mod sim;
pub mod transport;

pub use fault::{Brownout, FaultPlan, FaultSnapshot, FaultyEndpoint, FaultyTransport};
pub use native::{NativeEndpoint, NativeTransport};
pub use retry::{splitmix64, Attempt, AttemptSeq, Retried, RetryExhausted, RetryPolicy, VerbClass};
pub use sim::{SimEndpoint, SimTransport};
pub use transport::{Completion, Endpoint, Transport, Verb, VerbError, VerbToken};

// Kept re-exported so call sites migrating to the transport layer can name
// the concrete simulator types through one crate.
pub use simnet::{ClusterTopology, CostModel, Interconnect, NodeId, SimThread, ThreadLoc};

// Lyra: the span handle the verb layer threads through issue/poll/retry,
// re-exported so transport users need not name `obs` directly.
pub use obs::SpanId;
