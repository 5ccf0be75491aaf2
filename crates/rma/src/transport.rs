//! The verb surface: [`Transport`] (shared fabric), [`Endpoint`] (per-thread
//! issue port), [`Verb`] (what is asked of a remote node) and
//! [`Completion`] (timing handle).
//!
//! The split mirrors MPI-3 RMA and InfiniBand verbs: a process-wide fabric
//! object knows topology, cost constants, and global accounting; each thread
//! owns an endpoint through which it issues verbs and on which any notion of
//! "time" (virtual cycles for the simulator, nothing for native) accrues.
//!
//! There is exactly one way to move a verb: [`Endpoint::issue`] posts it and
//! returns a [`VerbToken`], [`Endpoint::poll`] / [`Endpoint::wait`] resolve
//! the token. That pair is all a backend implements; the blocking
//! `Endpoint::rdma_*` verbs are trait-default wrappers over it.

use obs::SpanId;
use simnet::net::VerbTiming;
use simnet::{Abort, ClusterTopology, CostModel, NetStats, NodeId, PerNodeSnapshot, ThreadLoc};
use std::fmt::{self, Debug};
use std::sync::Arc;

/// Why a verb did not complete.
///
/// Real fabrics surface these as work-completion error CQEs; here they come
/// from [`crate::FaultyTransport`] (the concrete backends are infallible).
/// Every variant is transient from the protocol's point of view: Carina's
/// verbs are idempotent, so the only correct reactions are *reissue* or
/// *give up* — never a protocol-level repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerbError {
    /// The verb was issued but no completion arrived in time.
    Timeout,
    /// The target NIC is browned out (backpressured / resetting); retry
    /// after a backoff.
    NicStall,
    /// The posted payload was lost in the fabric.
    Dropped,
    /// The initiator tore the verb down before completion.
    Cancelled,
}

impl VerbError {
    /// Stable snake_case name for logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            VerbError::Timeout => "timeout",
            VerbError::NicStall => "nic_stall",
            VerbError::Dropped => "dropped",
            VerbError::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for VerbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::error::Error for VerbError {}

/// Outcome of a verb: when the initiator may continue and when the payload is
/// settled at the target.
///
/// Reads and atomics block the initiator until the response returns, so both
/// fields coincide. Posted writes unblock the initiator as soon as the payload
/// is handed to the NIC; `settled` is the later instant at which the data is
/// globally visible — SD fences collect the max of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Completion {
    /// Time at which the initiating thread unblocks.
    pub initiator_done: u64,
    /// Time at which the payload is fully deposited at the target.
    pub settled: u64,
}

impl Completion {
    /// A verb that is over the instant it is issued (native backend).
    #[inline]
    pub fn instant(at: u64) -> Self {
        Completion {
            initiator_done: at,
            settled: at,
        }
    }
}

impl From<VerbTiming> for Completion {
    #[inline]
    fn from(t: VerbTiming) -> Self {
        Completion {
            initiator_done: t.initiator_done,
            settled: t.settled,
        }
    }
}

/// One one-sided operation against a remote node's memory: everything a
/// verb needs besides its target and its issue time. Verbs carry *cost*
/// (payload sizes), not data — the data plane is host shared memory under
/// every backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Read `bytes` from the target's memory; the initiator blocks for the
    /// round trip.
    Read { bytes: u64 },
    /// Posted write of `bytes`: the initiator unblocks once the payload is
    /// handed to its NIC, the data is visible at `settled`.
    Write { bytes: u64 },
    /// Fetch-or on a directory word (reader/writer registration, paper
    /// §3.2).
    FetchOr,
    /// Fetch-add on a synchronization word (tickets, barrier counters).
    FetchAdd,
    /// Compare-and-swap on a synchronization word.
    Cas,
}

impl Verb {
    /// Whether the verb is *posted*: the initiator continues at
    /// `initiator_done` while the payload settles later. Reads and atomics
    /// are not — their completion is what the initiator waits for.
    #[inline]
    pub fn is_posted(&self) -> bool {
        matches!(self, Verb::Write { .. })
    }
}

/// Opaque handle to a verb posted through [`Endpoint::issue`], resolved
/// exactly once by [`Endpoint::poll`] or [`Endpoint::wait`].
///
/// Mirrors a work-request ID on an RDMA send queue: issuing never blocks
/// and never fails (even on a faulty fabric — errors surface as completion
/// events, like error CQEs), and the initiator's clock does not advance
/// until it waits on the completion and merges it. Tokens are endpoint-
/// local: resolving one on any other endpoint, or twice, is a caller bug
/// and panics (endpoints keep them in a [`simnet::TokenSlab`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerbToken(u64);

impl VerbToken {
    /// Wrap a backend-local raw handle (slot index + generation).
    pub(crate) fn from_raw(raw: u64) -> Self {
        VerbToken(raw)
    }

    /// The backend-local raw handle.
    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

/// A backend fabric: the process-wide half of the transport.
///
/// The fabric declares no verb: it opens [`Endpoint`]s, and every verb is
/// issued through one. It owns the one Lyra flight recorder its endpoints
/// record to. All verbs are *one-sided* — no code executes at the
/// target node. The data plane (actually moving bytes) lives in the `mem`
/// crate and is host shared memory under every backend; a backend decides
/// only what a verb *costs* and how it is accounted here.
pub trait Transport: Send + Sync + Debug + 'static {
    /// The per-thread issue port paired with this fabric.
    type Endpoint: Endpoint;

    /// Open an endpoint for the thread placed at `loc`.
    ///
    /// An associated function rather than a method because endpoints hold an
    /// owning handle to the fabric (`&Arc<Self>` is not a stable receiver).
    fn endpoint(this: &Arc<Self>, loc: ThreadLoc) -> Self::Endpoint
    where
        Self: Sized;

    /// Cluster shape this fabric spans.
    fn topology(&self) -> &ClusterTopology;

    /// Cost constants. Meaningful timing for the simulator; reference
    /// constants (handler costs, byte sizes) for native.
    fn cost(&self) -> &CostModel;

    /// Global verb counters, shared by all endpoints.
    fn stats(&self) -> &NetStats;

    /// Per-node traffic snapshot (who is the hotspot?).
    fn per_node_stats(&self) -> Vec<PerNodeSnapshot>;

    /// Reset the per-node counters ([`NetStats::reset`] resets the global
    /// ones).
    fn reset_per_node_stats(&self);

    /// The Lyra flight recorder this fabric owns: every endpoint it opens
    /// records through its own lane on it, and the DSM layer reads it.
    fn recorder(&self) -> &Arc<obs::FlightRecorder>;

    /// The flag raised when a thread of this fabric's machine panics; every
    /// blocking wait above the fabric checks it (`simnet::Waits`).
    fn abort(&self) -> &Abort;
}

/// A per-thread issue port: placement, the thread's time base, and verb
/// issue methods that advance it.
///
/// Each OS thread owns exactly one endpoint and mutates it without sharing;
/// time crosses threads only as plain `u64` stamps through synchronization
/// structures (which [`Endpoint::merge`] folds back in).
pub trait Endpoint: Send + Clone + Debug + 'static {
    /// Placement of this thread in the cluster topology.
    fn loc(&self) -> ThreadLoc;

    /// The node this thread runs on.
    #[inline]
    fn node(&self) -> NodeId {
        self.loc().node
    }

    /// Current time on this endpoint's time base (virtual cycles for the
    /// simulator, always 0 for native).
    fn now(&self) -> u64;

    /// The *observability* clock: a monotonic stamp for latency histograms
    /// and trace timestamps. Virtual cycles on the simulator (same as
    /// [`Endpoint::now`]); wall nanoseconds since process start on the
    /// native backend, whose protocol clock is pinned at 0. Differences of
    /// `obs_now()` stamps are meaningful durations on every backend;
    /// absolute values are backend-specific.
    #[inline]
    fn obs_now(&self) -> u64 {
        self.now()
    }

    /// The fabric's cost constants.
    fn cost(&self) -> &CostModel;

    /// The fabric's abort flag ([`Transport::abort`]).
    fn abort(&self) -> &Abort;

    /// Charge `cycles` of local computation.
    fn compute(&mut self, cycles: u64);

    /// Charge one local DRAM access (page-cache hit missing CPU caches).
    fn dram_access(&mut self);

    /// Charge a page-fault trap into the DSM runtime (models SIGSEGV entry).
    fn fault_trap(&mut self);

    /// Fold in an externally observed timestamp: this thread cannot proceed
    /// before `t` (lock hand-off, barrier exit, fence settle point).
    fn merge(&mut self, t: u64);

    // --- Lyra ---------------------------------------------------------------
    //
    // Purely observational: every record is written through the endpoint's
    // lane, protocol sites attach the span of the operation they are
    // servicing to it, and fault-injecting wrappers stamp that span onto
    // the fates they decide, so a flight-recorder timeline can link every
    // verb (and every injected fault) back to its parent operation. Span
    // ids never feed back into timing or protocol decisions.

    /// This endpoint's single-writer Lyra lane on its fabric's recorder:
    /// the only way to write a record (plain stores, no atomic
    /// read-modify-writes), and where the current span lives.
    fn lyra_lane(&mut self) -> &mut obs::Lane;

    /// Attach the Lyra span of the protocol operation about to issue verbs
    /// through this endpoint ([`SpanId::NONE`] detaches).
    #[inline]
    fn set_span(&mut self, span: SpanId) {
        self.lyra_lane().set_span(span);
    }

    /// The span last attached via [`Endpoint::set_span`].
    #[inline]
    fn current_span(&mut self) -> SpanId {
        self.lyra_lane().span()
    }

    // --- The verb surface (completion-queue model) ------------------------
    //
    // `issue` posts a verb and returns immediately with a token; `poll` /
    // `wait` resolve tokens later. Issuing neither advances nor consults the
    // caller-visible clock: the verb enters the fabric at exactly the `at`
    // it is given, and the initiator only pays for it when it merges the
    // completion's `initiator_done`. This is what lets a caller put many
    // verbs in flight and pay only for the slowest.

    /// Post `verb` against `target`'s memory, entering the fabric at `at`
    /// on this endpoint's time base (virtual cycles on the simulator;
    /// unclocked backends ignore it). `at` is taken as given — it may be
    /// older than [`Endpoint::now`] (a verb pipelined behind an earlier
    /// one) or later (a backed-off reissue); a caller that means "no
    /// earlier than my clock" writes `at.max(self.now())`.
    ///
    /// Issuing never fails: the concrete backends are infallible, and
    /// wrappers such as [`crate::FaultyTransport`] surface a [`VerbError`]
    /// when the token is polled. Every caller must then decide between
    /// reissue and giving up (verbs are idempotent, so reissue is always
    /// safe).
    fn issue(&mut self, target: NodeId, verb: &Verb, at: u64) -> VerbToken;

    /// Non-blocking completion check. `None` means still in flight; `Some`
    /// consumes the token and yields the verb's outcome. Does **not** merge
    /// anything into the endpoint's clock — the caller decides when (and
    /// whether) to pay for the completion via [`Endpoint::merge`].
    fn poll(&mut self, token: VerbToken) -> Option<Result<Completion, VerbError>>;

    /// Block the *host* thread until `token` resolves, consuming it. Like
    /// [`Endpoint::poll`] this never touches the endpoint's clock: waiting
    /// on a completion is free until the caller merges it.
    fn wait(&mut self, token: VerbToken) -> Result<Completion, VerbError> {
        loop {
            if let Some(r) = self.poll(token) {
                return r;
            }
            std::hint::spin_loop();
        }
    }

    // --- Blocking wrappers (issue at `now` + wait + merge) ----------------
    //
    // No backend overrides these: a blocking verb *is* its issue/poll pair.

    /// Issue `verb` at [`Endpoint::now`], wait for it, and merge the
    /// completion's `initiator_done`. On `Err` the clock has *not* advanced
    /// past the failed verb, so the caller may charge a backoff and reissue.
    fn blocking(&mut self, target: NodeId, verb: &Verb) -> Result<Completion, VerbError> {
        let token = self.issue(target, verb, self.now());
        let c = self.wait(token)?;
        self.merge(c.initiator_done);
        Ok(c)
    }

    /// Blocking one-sided read of `bytes` from `target`'s memory.
    fn rdma_read(&mut self, target: NodeId, bytes: u64) -> Result<(), VerbError> {
        self.blocking(target, &Verb::Read { bytes }).map(drop)
    }

    /// Posted one-sided write of `bytes` to `target`'s memory; returns the
    /// settle stamp (SD fences collect the max of these).
    fn rdma_write(&mut self, target: NodeId, bytes: u64) -> Result<u64, VerbError> {
        self.blocking(target, &Verb::Write { bytes }).map(|c| c.settled)
    }

    /// Blocking remote fetch-or (directory registration).
    fn rdma_fetch_or(&mut self, target: NodeId) -> Result<(), VerbError> {
        self.blocking(target, &Verb::FetchOr).map(drop)
    }

    /// Blocking remote fetch-add (tickets, counters).
    fn rdma_fetch_add(&mut self, target: NodeId) -> Result<(), VerbError> {
        self.blocking(target, &Verb::FetchAdd).map(drop)
    }

    /// Blocking remote compare-and-swap.
    fn rdma_cas(&mut self, target: NodeId) -> Result<(), VerbError> {
        self.blocking(target, &Verb::Cas).map(drop)
    }
}
