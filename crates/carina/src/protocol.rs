//! The Carina protocol engine.
//!
//! [`Dsm`] ties together the global memory, a pluggable [`Coherence`]
//! policy, page caches and write buffers, and implements the access path of
//! the paper's §3:
//!
//! - **Read miss** (§3.3): fetch a whole cache line of pages from their
//!   homes, depositing our registration in each page's directory entry with
//!   a remote fetch-or. What the registration *means* — reader full-map
//!   bits and P→S detection under [`CarinaSiSd`], a timestamp lease under
//!   [`crate::coherence::Tardis`] — is the policy's decision; the engine
//!   posts whatever notification or fetch verbs the policy's
//!   [`RegisterOutcome`] asks for (no handler runs anywhere).
//! - **Write fault** (§3.5): first write to a page registers us as a
//!   writer; the policy classifies the fault (possibly asking the engine to
//!   notify sharers) and decides twin and buffering via
//!   [`crate::coherence::WriteDisposition`]; the page enters the FIFO write
//!   buffer (§3.6.1) whose overflow downgrades the oldest dirty page.
//! - **SI fence** (§3.1): sweep the page cache and invalidate exactly the
//!   pages the policy's predicate names (Table 1 under SI/SD; expired
//!   leases under Tardis).
//! - **SD fence** (§3.1): drain the write buffer, diffing dirty pages
//!   against their twins and posting the result to their homes; wait for
//!   all posted writes to settle, then give the policy its release hook.
//!
//! The split is mechanism vs decision: the engine owns transport verbs,
//! retry/fault plumbing, issue/poll overlap, prefetching, and the write
//! buffer; the policy owns every *what-to-do* question. Both axes dispatch
//! statically: `Dsm<T, C>` defaults to `SimTransport` + `CarinaSiSd`.
//!
//! Pages whose home is the accessing node are read and written directly in
//! home memory (they are local); they still register with the policy so
//! remote sharers classify them correctly.

use crate::coherence::{CarinaSiSd, Coherence, RegisterOutcome};
use crate::classification::DirView;
use crate::config::{
    BatchDrain, CarinaConfig, CHECKPOINT_CYCLES, FENCE_SCAN_CYCLES, HIT_CYCLES, HOME_POLICY,
    PAGE_COPY_CYCLES, PROTECT_CYCLES,
};
use crate::error::DsmError;
use crate::stats::CoherenceStats;
use crate::write_buffer::WriteBuffer;
use mem::{
    GlobalAddr, GlobalAllocator, GlobalMemory, PageCache, PageData, PageNum, SlotGuard,
    CHUNK_WORDS, PAGE_BYTES,
};
use rma::{
    rendezvous_home, Attempt, AttemptSeq, Completion, Endpoint, Membership, Retried,
    RetryExhausted, SimTransport, Transport, Verb, VerbClass, VerbError, VerbToken,
};

/// An issued-but-unpolled verb: its token, the resumable remainder of the
/// retry schedule, and the schedule entry that issued it.
type IssuedVerb = (VerbToken, AttemptSeq, Attempt);
use simnet::NodeId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Wire overhead of a downgrade message header (address + length).
const DOWNGRADE_HEADER_BYTES: u64 = 32;
/// Wire bytes per diffed word (8 data + 2 index).
const DIFF_WORD_BYTES: u64 = 10;
/// Wire footprint of a directory-cache notification (one entry).
const NOTIFY_BYTES: u64 = 32;
/// Per-word compute charge of bulk (streaming) slice access.
const STREAM_WORD_CYCLES: u64 = 1;

/// One core's stride predictor: the last line it missed on, the stride of
/// that miss relative to the one before, and how many consecutive misses
/// have repeated the stride.
#[derive(Debug, Default, Clone, Copy)]
struct StridePredictor {
    last_line: u64,
    stride: i64,
    streak: u32,
    /// False until the core's first miss seeds `last_line`.
    primed: bool,
}

/// A speculatively fetched line parked outside the page cache until a
/// demand miss claims it.
#[derive(Debug)]
struct PrefetchedLine {
    line: u64,
    /// Virtual time the speculative reads complete. Never merged into the
    /// *issuing* thread's clock — only a consuming demand miss pays it.
    ready_at: u64,
    /// Remote pages of the line with their home contents as snapshotted at
    /// prefetch time.
    pages: Vec<(PageNum, PageData)>,
}

/// Per-node speculation state: per-core stride predictors plus the ring of
/// prefetched lines. Lives entirely outside the page cache (and therefore
/// outside every coherence invariant); SI fences, section resets, and
/// classification decays flush it, which is what makes consuming a stale
/// snapshot sound under the DSM's acquire semantics.
#[derive(Debug, Default)]
struct Prefetcher {
    cores: Vec<StridePredictor>,
    ring: VecDeque<PrefetchedLine>,
}

/// Per-node engine state (registration fast paths live in the policy).
#[derive(Debug)]
struct NodeState {
    cache: PageCache,
    wbuf: WriteBuffer,
    /// Max settle time of writes this node has posted but not yet fenced.
    pending_settle: AtomicU64,
    /// Stride-prefetch state (inert unless `CarinaConfig::prefetch_lines`
    /// is nonzero).
    prefetch: Mutex<Prefetcher>,
}

/// The distributed shared memory: data plane plus a pluggable coherence
/// protocol.
///
/// Generic over the RMA [`Transport`] backend and the [`Coherence`] policy;
/// defaults to the virtual-time [`SimTransport`] running the paper's
/// [`CarinaSiSd`]. All dispatch is static — instantiating with
/// `rma::NativeTransport` runs the identical protocol at wall-clock speed,
/// and instantiating with [`crate::coherence::Tardis`] runs timestamp
/// leases on the identical engine.
///
/// ```
/// use carina::{CarinaConfig, Dsm};
/// use mem::{GlobalAddr, PAGE_BYTES};
/// use rma::{ClusterTopology, CostModel, NodeId, SimTransport, Transport};
///
/// let topo = ClusterTopology::tiny(2);
/// let net = SimTransport::new(topo, CostModel::paper_2011());
/// let dsm = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
/// let mut producer = SimTransport::endpoint(&net, topo.loc(NodeId(0), 0));
/// let mut consumer = SimTransport::endpoint(&net, topo.loc(NodeId(1), 0));
///
/// let addr = GlobalAddr(3 * PAGE_BYTES);
/// dsm.write_u64(&mut producer, addr, 7);
/// dsm.sd_fence(&mut producer); // release
/// dsm.si_fence(&mut consumer); // acquire
/// assert_eq!(dsm.read_u64(&mut consumer, addr), 7);
/// ```
#[derive(Debug)]
pub struct Dsm<T: Transport = SimTransport, C: Coherence = CarinaSiSd> {
    global: GlobalMemory,
    coherence: C,
    allocator: GlobalAllocator,
    net: Arc<T>,
    config: CarinaConfig,
    stats: CoherenceStats,
    /// Latency histograms for the protocol slow paths (always on; recording
    /// is two relaxed adds and the hit paths never touch it).
    profile: obs::LatencyProfile,
    /// Per-lock HQDL statistics; Vela locks register themselves here.
    lock_obs: obs::LockRegistry,
    /// Per-page read-miss counters feeding [`Dsm::census`]'s hottest-pages
    /// report.
    heat: obs::PageHeat,
    /// The Lyra flight recorder: per-node rings of the last N verb records,
    /// the span minter, and tail captures. Always on; purely passive (it
    /// reads the observability clock and writes side tables nothing on the
    /// protocol path reads back), so determinism probes pin bit-identical
    /// output with it enabled. `Arc` because fault-injecting transports
    /// share it to attribute injected fates to spans.
    lyra: Arc<obs::FlightRecorder>,
    /// Volans: the cluster membership view — epoch, alive set, per-node
    /// observations. Epoch 0 means no membership change has ever happened;
    /// every verb-path check is gated on that one relaxed load, so a
    /// cluster that never loses a node pays nothing.
    membership: Membership,
    /// Serializes membership transitions (failover sweeps, joins). Never
    /// touched on access paths.
    transition: Mutex<()>,
    nodes: Vec<NodeState>,
}

impl<T: Transport> Dsm<T> {
    /// Build a DSM over `net`'s topology with `bytes_per_node` of global
    /// memory contributed by each node, running the paper's SI/SD protocol.
    pub fn new(net: Arc<T>, bytes_per_node: u64, config: CarinaConfig) -> Arc<Self> {
        Dsm::with_policy(net, bytes_per_node, config)
    }
}

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Build a DSM over `net`'s topology with `bytes_per_node` of global
    /// memory contributed by each node, running coherence policy `C`.
    pub fn with_policy(net: Arc<T>, bytes_per_node: u64, config: CarinaConfig) -> Arc<Self> {
        let n = net.topology().nodes;
        assert!(n <= 128, "directory metadata supports up to 128 nodes");
        let global = GlobalMemory::with_policy(n, bytes_per_node, HOME_POLICY);
        let total_pages = global.total_pages();
        let lyra = Arc::new(obs::FlightRecorder::new(n, config.lyra_ring));
        // Fault-injecting transports record the fates they decide against
        // the issuing endpoint's span; concrete backends ignore this.
        net.attach_recorder(lyra.clone());
        let membership = Membership::new(n);
        let latent = config.volans_latent_nodes.min(n.saturating_sub(1));
        if latent > 0 {
            // Latent nodes stand outside the initial membership: their
            // interleaved home pages are re-homed to the founding members
            // up front — a static homing decision like `alloc_blocked`, so
            // the epoch stays 0 — and `Dsm::join_node` brings them in
            // later at an epoch bump.
            let first_latent = (n - latent) as u16;
            for node in first_latent..n as u16 {
                membership.mark_dead(node);
            }
            let founders: Vec<u16> = (0..first_latent).collect();
            for q in 0..total_pages {
                let page = PageNum(q);
                if global.home_of(page) >= first_latent {
                    global.set_home(page, rendezvous_home(q, &founders));
                }
            }
        }
        Arc::new(Dsm {
            coherence: C::new(n, total_pages, &config),
            allocator: GlobalAllocator::new(global.total_bytes()),
            global,
            net,
            config,
            stats: CoherenceStats::new(n),
            profile: obs::LatencyProfile::new(n),
            lock_obs: obs::LockRegistry::new(),
            heat: obs::PageHeat::new(total_pages as usize),
            lyra,
            membership,
            transition: Mutex::new(()),
            nodes: (0..n)
                .map(|_| NodeState {
                    cache: PageCache::new(config.cache),
                    wbuf: WriteBuffer::new(config.write_buffer_pages),
                    pending_settle: AtomicU64::new(0),
                    prefetch: Mutex::new(Prefetcher::default()),
                })
                .collect(),
        })
    }

    /// The coherence policy's short name (report labels, bench ids).
    #[inline]
    pub fn policy_name(&self) -> &'static str {
        C::NAME
    }

    /// The coherence policy instance (tests and policy-specific probes).
    #[inline]
    pub fn coherence(&self) -> &C {
        &self.coherence
    }

    #[inline]
    pub fn config(&self) -> &CarinaConfig {
        &self.config
    }

    #[inline]
    pub fn net(&self) -> &Arc<T> {
        &self.net
    }

    #[inline]
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// The protocol's latency histograms (read-miss service, faults,
    /// fences; locks and barriers record into it from Vela).
    #[inline]
    pub fn profile(&self) -> &obs::LatencyProfile {
        &self.profile
    }

    /// Registry of per-lock HQDL statistics. Vela locks register here at
    /// construction; run reports collect the snapshots.
    #[inline]
    pub fn lock_registry(&self) -> &obs::LockRegistry {
        &self.lock_obs
    }

    /// Per-page read-miss counters (the census's heat source).
    #[inline]
    pub fn page_heat(&self) -> &obs::PageHeat {
        &self.heat
    }

    /// The Lyra flight recorder — the engine's only event path: per-node
    /// record rings, span minter, and tail captures. The per-page detail
    /// kinds are off until [`obs::FlightRecorder::set_detail`].
    #[inline]
    pub fn lyra(&self) -> &obs::FlightRecorder {
        &self.lyra
    }

    /// A live metrics exposition: every coherence counter, recorder
    /// health, and per-site latency summaries, pollable mid-run on either
    /// backend. Render with [`obs::MetricsSnapshot::to_prometheus`] or
    /// [`obs::MetricsSnapshot::to_json`].
    pub fn metrics_snapshot(&self) -> obs::MetricsSnapshot {
        let mut m = obs::MetricsSnapshot::default();
        let policy = [("policy", C::NAME)];
        for (name, value) in self.stats.snapshot().fields() {
            m.counter(&format!("carina_{name}"), &policy, value);
        }
        m.gauge(
            "carina_membership_epoch",
            &[],
            self.membership.epoch() as f64,
        );
        m.gauge(
            "carina_nodes_alive",
            &[],
            self.membership.nodes_alive() as f64,
        );
        m.counter("carina_heat_total_misses", &[], self.heat.total());
        let rs = self.lyra.stats();
        m.counter("lyra_records_submitted", &[], rs.submitted);
        m.counter("lyra_records_dropped", &[], rs.dropped);
        m.counter("lyra_tail_captures", &[], rs.tail_captures);
        m.gauge("lyra_records_kept", &[], rs.kept as f64);
        m.gauge(
            "lyra_recorder_enabled",
            &[],
            if rs.enabled { 1.0 } else { 0.0 },
        );
        let prof = self.profile.snapshot();
        for site in obs::Site::ALL {
            let h = prof.get(site);
            if h.is_empty() {
                continue;
            }
            m.summary("carina_site_latency", &[("site", site.name())], h);
        }
        m
    }

    #[inline]
    pub fn allocator(&self) -> &GlobalAllocator {
        &self.allocator
    }

    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.global.total_bytes()
    }

    /// Total pages in the global address space.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.global.total_pages()
    }

    /// Home node of the page containing `addr`.
    #[inline]
    pub fn home_of(&self, addr: GlobalAddr) -> u16 {
        self.global.home_of(addr.page())
    }

    /// Allocate page-aligned storage whose pages are **block-distributed**
    /// across the cluster: the allocation's page range is split into equal
    /// contiguous runs, one per node — so chunked access patterns touch
    /// mostly-local homes. This is the per-allocation distribution hint the
    /// paper leaves as future work (§3). Must be called before any access
    /// to the range.
    pub fn alloc_blocked(&self, bytes: u64) -> Result<GlobalAddr, mem::alloc::OutOfGlobalMemory> {
        let pages = bytes.div_ceil(PAGE_BYTES);
        let base = self.allocator.alloc(pages * PAGE_BYTES, PAGE_BYTES)?;
        let nodes = self.nodes.len() as u64;
        let first = base.page().0;
        let per = pages.div_ceil(nodes);
        for i in 0..pages {
            let node = (i / per).min(nodes - 1) as u16;
            self.global.set_home(PageNum(first + i), node);
        }
        Ok(base)
    }

    // ------------------------------------------------------------------
    // Retry bookkeeping
    // ------------------------------------------------------------------

    /// Fold a retry outcome into the stats, profile, and flight recorder,
    /// and translate an exhausted budget into a [`DsmError`] naming the
    /// route. Every remote verb site funnels through here; on a healthy
    /// fabric the zero-retry arm is the only one ever taken and records
    /// nothing. `span` attributes the retry records to the protocol site
    /// that issued the verb; `obs_at` is the caller's observability clock.
    #[inline]
    fn verb_retried<R>(
        &self,
        me: u16,
        target: u16,
        span: obs::SpanId,
        obs_at: u64,
        r: Result<Retried<R>, RetryExhausted>,
    ) -> Result<R, DsmError> {
        match r {
            Ok(Retried { value, retries: 0, .. }) => Ok(value),
            Ok(Retried { value, retries, delay }) => {
                CoherenceStats::add(&self.stats.shard(me).verb_retries, retries as u64);
                self.profile.record(me as usize, obs::Site::Retry, delay);
                self.lyra.record(me as usize, || obs::VerbRecord {
                    span,
                    start: obs_at,
                    arg: delay,
                    target: target as u32,
                    node: me,
                    attempt: retries as u16,
                    kind: obs::RecordKind::VerbRetry,
                    ..obs::VerbRecord::blank()
                });
                Ok(value)
            }
            Err(e) => {
                CoherenceStats::bump(&self.stats.shard(me).verb_exhaustions);
                CoherenceStats::add(
                    &self.stats.shard(me).verb_retries,
                    e.attempts.saturating_sub(1) as u64,
                );
                self.profile.record(me as usize, obs::Site::Retry, e.delay);
                self.lyra.record(me as usize, || obs::VerbRecord {
                    span,
                    start: obs_at,
                    arg: e.delay,
                    target: target as u32,
                    node: me,
                    attempt: e.attempts as u16,
                    kind: obs::RecordKind::VerbExhausted,
                    fate: obs::Fate::Exhausted,
                    class: e.class as u8,
                    ..obs::VerbRecord::blank()
                });
                Err(DsmError::new(e, me, target).with_span(span))
            }
        }
    }

    /// Drive an issued verb token to completion, reissuing along the
    /// schedule remainder when a failure surfaces at poll time, and fold
    /// the outcome into the usual retry bookkeeping. `reissue` posts a
    /// replacement given the cumulative backoff delay of the next attempt.
    /// Retrying at poll time walks exactly the schedule the blocking path
    /// would have walked — only the moment the failure is *observed* moves.
    ///
    /// Lyra: the issue→poll pair is flight-recorded under the span carried
    /// by the [`AttemptSeq`] — one `VerbIssue` slice spanning issue to
    /// completion (whose end marks the arrival on the target's track), one
    /// `VerbPoll` instant at completion, and one `VerbRetry` instant per
    /// reissue carrying the failed attempt's fate.
    #[allow(clippy::too_many_arguments)]
    fn poll_retried(
        &self,
        t: &mut T::Endpoint,
        me: u16,
        target: u16,
        issued: IssuedVerb,
        obs_issued: u64,
        class: VerbClass,
        bytes: u64,
        mut reissue: impl FnMut(&mut T::Endpoint, u64) -> VerbToken,
    ) -> Result<Completion, DsmError> {
        let (mut token, mut seq, mut attempt) = issued;
        let span = seq.span();
        loop {
            match t.wait(token) {
                Ok(c) => {
                    let now = t.obs_now();
                    self.lyra_record(t, me, || obs::VerbRecord {
                        span,
                        start: obs_issued,
                        dur: now.saturating_sub(obs_issued),
                        arg: bytes,
                        target: target as u32,
                        node: me,
                        attempt: attempt.index as u16,
                        kind: obs::RecordKind::VerbIssue,
                        class: class as u8,
                        ..obs::VerbRecord::blank()
                    });
                    self.lyra_record(t, me, || obs::VerbRecord {
                        span,
                        start: now,
                        arg: now.saturating_sub(obs_issued),
                        target: target as u32,
                        node: me,
                        attempt: attempt.index as u16,
                        kind: obs::RecordKind::VerbPoll,
                        class: class as u8,
                        ..obs::VerbRecord::blank()
                    });
                    // Stats/profile only: each reissue already produced its
                    // own `VerbRetry` flight record above, so funneling
                    // through `verb_retried` would double-record it.
                    if attempt.index > 0 {
                        CoherenceStats::add(
                            &self.stats.shard(me).verb_retries,
                            attempt.index as u64,
                        );
                        self.profile.record(me as usize, obs::Site::Retry, attempt.delay);
                    }
                    return Ok(c);
                }
                Err(e) => match seq.next() {
                    Some(a) => {
                        let now = t.obs_now();
                        self.lyra_record(t, me, || obs::VerbRecord {
                            span,
                            start: now,
                            arg: a.delay,
                            target: target as u32,
                            node: me,
                            attempt: a.index as u16,
                            kind: obs::RecordKind::VerbRetry,
                            fate: obs::Fate::from_error_name(e.name()),
                            class: class as u8,
                            ..obs::VerbRecord::blank()
                        });
                        attempt = a;
                        token = reissue(t, a.delay);
                    }
                    None => {
                        let now = t.obs_now();
                        return self.verb_retried(me, target, span, now, Err(seq.exhausted(e)));
                    }
                },
            }
        }
    }

    /// Issue one network-timeline verb with the full retry schedule and
    /// bookkeeping: `verb` is posted through `t` at exactly `base` plus the
    /// attempt's cumulative backoff — which may be older than `t`'s clock,
    /// e.g. an atomic pipelined behind a line fill's start — and waited
    /// for; `t`'s clock is left for the caller to merge. Every
    /// fire-and-wait remote verb site — notifications, write-backs,
    /// directory atomics, checkpoint fetches — funnels its
    /// `RetryPolicy::run` + error-map boilerplate through here. `t`'s
    /// current span and observability clock feed the flight recorder (the
    /// blocking path records one aggregate `VerbRetry`/`VerbExhausted`
    /// entry, not one per attempt).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn net_verb(
        &self,
        t: &mut T::Endpoint,
        me: u16,
        target: u16,
        class: VerbClass,
        salt: u64,
        base: u64,
        verb: &Verb,
    ) -> Result<Completion, DsmError> {
        let (span, obs_at) = (t.current_span(), t.obs_now());
        self.check_alive(me, target, class, span)?;
        let outcome = self.config.retry.run(class, salt, |a| {
            let token = t.issue(NodeId(target), verb, base + a.delay);
            t.wait(token)
        });
        self.verb_retried(me, target, span, obs_at, outcome)
    }

    /// Fold a posted write's completion into `me`'s clock and fence
    /// obligations: the initiator-done time advances the endpoint, the
    /// settle time joins the set the next SD fence must await.
    #[inline]
    fn settle_posted(&self, t: &mut T::Endpoint, me: u16, timing: &Completion) {
        t.merge(timing.initiator_done);
        self.nodes[me as usize]
            .pending_settle
            .fetch_max(timing.settled, Ordering::AcqRel);
    }

    /// Mint the span for a protocol operation starting on `t`: the
    /// endpoint's single-writer lane when present (plain stores, no atomic
    /// read-modify-writes), else the recorder's shared per-node minter.
    #[inline]
    pub fn mint_span(&self, t: &mut T::Endpoint, me: u16) -> obs::SpanId {
        match t.lyra_lane() {
            Some(lane) => lane.mint(),
            None => self.lyra.mint(me as usize),
        }
    }

    /// Flight-record through `t`'s single-writer lane when present, falling
    /// back to the recorder's shared multi-writer ring. Hot sites that hold
    /// the issuing endpoint route here; writers without one (the blocking
    /// retry aggregates, the fault injector) use the shared ring directly.
    #[inline]
    fn lyra_record(
        &self,
        t: &mut T::Endpoint,
        me: u16,
        make: impl FnOnce() -> obs::VerbRecord,
    ) {
        match t.lyra_lane() {
            Some(lane) => lane.record(make),
            None => self.lyra.record(me as usize, make),
        }
    }

    /// Fold one completed protocol site into every observability surface:
    /// the latency histogram, a `Site` flight record carrying the span
    /// (`arg` is the page for the per-page sites, 0 otherwise), and — when
    /// the latency crosses `lyra_tail_threshold` — a tail capture of the
    /// node's ring around the offender. Public because the synchronization
    /// layer (Vela locks/barriers) funnels its own sites through the same
    /// path.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record_site(
        &self,
        t: &mut T::Endpoint,
        me: u16,
        site: obs::Site,
        span: obs::SpanId,
        start: u64,
        dur: u64,
        arg: u64,
    ) {
        self.profile.record(me as usize, site, dur);
        self.lyra_record(t, me, || obs::VerbRecord {
            span,
            start,
            dur,
            arg,
            node: me,
            kind: obs::RecordKind::Site,
            site: site.index() as u8,
            ..obs::VerbRecord::blank()
        });
        let threshold = self.config.lyra_tail_threshold;
        if threshold > 0 && dur >= threshold {
            self.lyra.capture_tail(me as usize, site.index() as u8, span, start, dur);
        }
    }

    /// Flight-record one per-page protocol event — `kind` is one of the
    /// detail kinds, `arg` the page (or page count), `target` the other node
    /// or [`obs::NO_TARGET`] — as an instant under `t`'s current span (none
    /// on endpoints that do not track one). A no-op costing one relaxed
    /// load unless [`obs::FlightRecorder::set_detail`] is on.
    #[inline]
    fn detail(&self, t: &mut T::Endpoint, me: u16, kind: obs::RecordKind, arg: u64, target: u32) {
        if !self.lyra.detail() {
            return;
        }
        let (span, start) = (t.current_span(), t.obs_now());
        self.lyra_record(t, me, || obs::VerbRecord {
            span,
            start,
            arg,
            target,
            node: me,
            kind,
            ..obs::VerbRecord::blank()
        });
    }

    /// The panicking flavors' shared exit: programs that opted out of
    /// fault handling abort with the route and class in the message.
    #[inline]
    fn unrecoverable<R>(r: Result<R, DsmError>) -> R {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unrecoverable DSM fault: {e}"),
        }
    }

    // ------------------------------------------------------------------
    // Volans: membership, failover, join
    // ------------------------------------------------------------------

    /// Volans: the cluster membership view (epoch, alive set, per-node
    /// observations).
    #[inline]
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Volans fail-fast: a verb about to target a departed node is rejected
    /// before issue — `attempts: 0`, [`VerbError::Departed`] — so a failure
    /// the membership already knows about costs no retry budget. Free until
    /// the first membership change (epoch 0 short-circuits everything);
    /// afterwards the caller's node also records its observation of the
    /// current epoch, which is what the epoch-monotonicity property tests
    /// gate admission on.
    #[inline]
    fn check_alive(
        &self,
        me: u16,
        target: u16,
        class: VerbClass,
        span: obs::SpanId,
    ) -> Result<(), DsmError> {
        if self.membership.epoch() == 0 {
            return Ok(());
        }
        self.membership.observe(me);
        if self.membership.is_alive(target) {
            return Ok(());
        }
        Err(DsmError {
            class,
            attempts: 0,
            last_error: VerbError::Departed,
            node: me,
            target,
            span,
        })
    }

    /// Run a protocol operation, retrying it across failovers: when it
    /// fails, `volans_failover` is on and the fault admits one, declare the
    /// target departed (re-homing its pages) and re-run the operation
    /// against the survivors. Loops because the retry can fail against a
    /// *different* node; terminates because every iteration either declares
    /// one more node dead (at most n−1 declarations exist) or gives up. The
    /// failover runs only after the operation returned, so every slot guard
    /// it held is already dropped — the sweep can take any lock it needs.
    #[inline]
    fn failover_retry<R>(
        &self,
        t: &mut T::Endpoint,
        mut op: impl FnMut(&Self, &mut T::Endpoint) -> Result<R, DsmError>,
    ) -> Result<R, DsmError> {
        loop {
            match op(self, t) {
                Ok(v) => return Ok(v),
                Err(e) if self.config.volans_failover && self.absorb_fault(t, e) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Can a failover absorb `e`? [`VerbError::Departed`] means we raced a
    /// declaration that already re-homed — the retry re-routes by itself.
    /// Anything else that exhausted its budget is the deterministic death
    /// signal: the target failed every reissue across the full backoff
    /// schedule, so declare it departed. `false` only when there is no
    /// survivor left to fail over to.
    fn absorb_fault(&self, t: &mut T::Endpoint, e: DsmError) -> bool {
        if e.last_error == VerbError::Departed {
            return true;
        }
        let me = t.node().0;
        self.declare_dead(e.target, me, e.span, t.obs_now())
    }

    /// Volans failover: declare `dead` departed, re-home every page it
    /// homed onto the rendezvous survivors, scrub all cached copies of the
    /// re-homed pages (dirty data is preserved by writing it through to the
    /// flat store, which outlives the metadata change), null the affected
    /// coherence state, and bump the membership epoch.
    ///
    /// Deterministic: the sweep order and [`rendezvous_home`] are pure
    /// functions of `(page, survivors)`, so every declarer computes the
    /// identical new homes. Idempotent — returns `true` when `dead` is (now)
    /// departed and the cluster can continue, `false` when it is the last
    /// survivor (nothing to re-home to; the caller must surface its error).
    /// `span`/`obs_at` attribute the Lyra `EpochBump`/`Rehome` records to
    /// the exhausted verb that triggered the declaration, giving Perfetto a
    /// flow arrow from the failure to the transition.
    pub fn declare_dead(&self, dead: u16, me: u16, span: obs::SpanId, obs_at: u64) -> bool {
        let _serial = self.transition.lock().unwrap();
        if !self.membership.is_alive(dead) {
            // Someone else declared it while we waited: re-homing is done
            // and our retry will route to the new homes.
            return true;
        }
        let survivors: Vec<u16> = self
            .membership
            .alive_nodes()
            .into_iter()
            .filter(|&node| node != dead)
            .collect();
        if survivors.is_empty() {
            return false;
        }
        // Re-home the departed node's pages. `set_home` moves no bytes —
        // the flat page store survives the metadata change, so the last
        // drained version of every page is intact at its new home.
        let mut rehomed = Vec::new();
        for q in 0..self.global.total_pages() {
            let page = PageNum(q);
            if self.global.home_of(page) == dead {
                self.global.set_home(page, rendezvous_home(q, &survivors));
                rehomed.push(page);
            }
        }
        // Scrub every node's cached copy of a re-homed page: dirty data is
        // written through to the flat store first (nothing is lost), then
        // the copy is invalidated so the first post-failover access
        // refetches under the new home — the forced invalidation the epoch
        // bump implies. Safe mid-run: all stores to cached pages happen
        // under the same per-slot locks taken here, and any thread blocked
        // on our transition lock holds no slot lock (failover entry points
        // run only after their operation returned).
        for ns in &self.nodes {
            for &page in &rehomed {
                let mut st = ns.cache.lock_slot(page);
                if st.tag != Some(ns.cache.line_of(page)) {
                    continue;
                }
                let idx = ns.cache.index_in_line(page);
                if !st.pages[idx].valid {
                    continue;
                }
                if st.pages[idx].dirty {
                    self.silently_write_through(&st, page, idx);
                    ns.wbuf.remove(page);
                }
                st.pages[idx].invalidate();
            }
        }
        self.coherence.on_membership_change(&rehomed);
        self.membership.mark_dead(dead);
        let epoch = self.membership.bump_epoch();
        self.membership.observe(me);
        let shard = self.stats.shard(me);
        CoherenceStats::bump(&shard.failovers);
        CoherenceStats::add(&shard.pages_rehomed, rehomed.len() as u64);
        self.lyra.record(me as usize, || obs::VerbRecord {
            span,
            start: obs_at,
            arg: epoch,
            target: dead as u32,
            node: me,
            kind: obs::RecordKind::EpochBump,
            ..obs::VerbRecord::blank()
        });
        if !rehomed.is_empty() {
            self.lyra.record(me as usize, || obs::VerbRecord {
                span,
                start: obs_at,
                arg: rehomed.len() as u64,
                target: dead as u32,
                node: me,
                kind: obs::RecordKind::Rehome,
                ..obs::VerbRecord::blank()
            });
        }
        true
    }

    /// Volans online join: bring `node` into the membership at an epoch
    /// bump. The joiner enters with an empty page cache and warms purely by
    /// demand-faulting — no bulk transfer, and no re-homing either (pages
    /// stay where they are; only future failovers rendezvous over the
    /// larger survivor set). Returns the membership epoch after the join;
    /// idempotent — joining an already-alive node changes nothing.
    pub fn join_node(&self, node: u16) -> u64 {
        let _serial = self.transition.lock().unwrap();
        if !self.membership.mark_alive(node) {
            return self.membership.epoch();
        }
        let epoch = self.membership.bump_epoch();
        self.membership.observe(node);
        self.lyra.record(node as usize, || obs::VerbRecord {
            arg: epoch,
            target: node as u32,
            node,
            kind: obs::RecordKind::EpochBump,
            ..obs::VerbRecord::blank()
        });
        epoch
    }

    /// Volans shadow homes: mirror the fence's drained pages to each page's
    /// rendezvous *successor* — the node that would inherit it if its home
    /// died right now. Purely a warm spare against failover re-homing
    /// latency: the flat store needs no second copy, so this posts modeled
    /// whole-page traffic coalesced into one batched verb per successor,
    /// off the hot path at the fence boundary.
    fn mirror_to_successors(
        &self,
        t: &mut T::Endpoint,
        pages: &[PageNum],
        me: u16,
    ) -> Result<(), DsmError> {
        let alive = self.membership.alive_nodes();
        if alive.len() < 2 {
            return Ok(());
        }
        let mut batches: Vec<(u16, u64)> = Vec::new();
        for &page in pages {
            let home = self.global.home_of(page);
            let heirs: Vec<u16> = alive.iter().copied().filter(|&n| n != home).collect();
            if heirs.is_empty() {
                continue;
            }
            let succ = rendezvous_home(page.0, &heirs);
            if succ == me {
                continue; // our own cached copy is the mirror
            }
            match batches.iter_mut().find(|(h, _)| *h == succ) {
                Some((_, count)) => *count += 1,
                None => batches.push((succ, 1)),
            }
        }
        for (succ, count) in batches {
            let sizes = vec![PAGE_BYTES; count as usize];
            let timing = self.net_verb(
                t,
                me,
                succ,
                VerbClass::DrainBatch,
                ((succ as u64) << 32) | 1,
                t.now(),
                &Verb::WriteBatch { sizes },
            )?;
            self.settle_posted(t, me, &timing);
            CoherenceStats::add(&self.stats.shard(me).shadow_mirrored, count);
        }
        Ok(())
    }

    /// Is `page` currently cached dirty on `node`? Failure-path helper for
    /// re-buffering pages a partially-failed drain did not reach.
    fn is_dirty_cached(&self, node: u16, page: PageNum) -> bool {
        let ns = &self.nodes[node as usize];
        let st = ns.cache.lock_slot(page);
        st.tag == Some(ns.cache.line_of(page)) && {
            let idx = ns.cache.index_in_line(page);
            st.pages[idx].valid && st.pages[idx].dirty
        }
    }

    // ------------------------------------------------------------------
    // Typed access path
    // ------------------------------------------------------------------

    /// Read an aligned 64-bit word at `addr`.
    ///
    /// Panics if the fabric stays broken past the retry budget; see
    /// [`Self::try_read_u64`] for the fallible flavor.
    pub fn read_u64(&self, t: &mut T::Endpoint, addr: GlobalAddr) -> u64 {
        Self::unrecoverable(self.try_read_u64(t, addr))
    }

    /// Read an aligned 64-bit word at `addr`, surfacing retry-budget
    /// exhaustion as a [`DsmError`] instead of panicking. Under
    /// `volans_failover`, an exhausted budget declares the target departed,
    /// re-homes its pages, and re-runs the read against the survivors.
    pub fn try_read_u64(&self, t: &mut T::Endpoint, addr: GlobalAddr) -> Result<u64, DsmError> {
        self.failover_retry(t, |dsm, t| dsm.read_u64_inner(t, addr))
    }

    fn read_u64_inner(&self, t: &mut T::Endpoint, addr: GlobalAddr) -> Result<u64, DsmError> {
        let page = addr.page();
        let word = addr.word_index();
        let me = t.node().0;
        t.compute(HIT_CYCLES);
        if self.global.home_of(page) == me {
            self.register_reader_home(t, page, me)?;
            return Ok(self.global.home_page(page).load(word));
        }
        let ns = &self.nodes[me as usize];
        let line = ns.cache.line_of(page);
        let idx = ns.cache.index_in_line(page);
        // Hit fast path: optimistic seqlock read, no slot mutex. Falls
        // through to the locked path on a miss or a concurrent mutation.
        if let Some((v, ready)) = ns.cache.slot_for(page).try_read(line, idx, word) {
            CoherenceStats::bump(&self.stats.shard(me).read_hits);
            t.merge(ready);
            return Ok(v);
        }
        let mut st = ns.cache.lock_slot(page);
        if st.tag == Some(line) && st.pages[idx].valid {
            CoherenceStats::bump(&self.stats.shard(me).read_hits);
            t.merge(st.ready_at);
            return Ok(st.data(idx).load(word));
        }
        self.read_miss(t, &mut st, page, me)?;
        Ok(st.data(idx).load(word))
    }

    /// Write an aligned 64-bit word at `addr`.
    ///
    /// Panics if the fabric stays broken past the retry budget; see
    /// [`Self::try_write_u64`] for the fallible flavor.
    pub fn write_u64(&self, t: &mut T::Endpoint, addr: GlobalAddr, value: u64) {
        Self::unrecoverable(self.try_write_u64(t, addr, value))
    }

    /// Write an aligned 64-bit word at `addr`, surfacing retry-budget
    /// exhaustion as a [`DsmError`] instead of panicking (failover-aware;
    /// see [`Self::try_read_u64`]).
    pub fn try_write_u64(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        value: u64,
    ) -> Result<(), DsmError> {
        self.failover_retry(t, |dsm, t| dsm.write_u64_inner(t, addr, value))
    }

    fn write_u64_inner(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        value: u64,
    ) -> Result<(), DsmError> {
        let page = addr.page();
        let word = addr.word_index();
        let me = t.node().0;
        t.compute(HIT_CYCLES);
        if self.global.home_of(page) == me {
            self.register_writer_home(t, page, me)?;
            self.global.home_page(page).store(word, value);
            // A sibling thread's release may have closed our write epoch
            // between the registration above and the store landing, in
            // which case the epoch's version bump did not cover this byte.
            // Re-checking after the store re-registers the page so the
            // next release covers it. (No-op for map-based policies.)
            self.register_writer_home(t, page, me)?;
            return Ok(());
        }
        let ns = &self.nodes[me as usize];
        let mut st = ns.cache.lock_slot(page);
        let line = ns.cache.line_of(page);
        let idx = ns.cache.index_in_line(page);
        if st.tag != Some(line) || !st.pages[idx].valid {
            self.read_miss(t, &mut st, page, me)?; // write-allocate
        }
        let was_dirty = st.pages[idx].dirty;
        if was_dirty {
            CoherenceStats::bump(&self.stats.shard(me).write_hits);
            Self::store_cached(&st, idx, word, value);
            return Ok(());
        }
        let buffered = self.write_fault_locked(t, &mut st, page, me)?;
        Self::store_cached(&st, idx, word, value);
        drop(st);
        if buffered {
            if let Some(victim) = ns.wbuf.push(page) {
                self.downgrade(t, victim, me)?;
            }
        }
        Ok(())
    }

    /// Store into a cached page under its slot lock, maintaining the
    /// page's write mask. The first store into each 64-word chunk copies
    /// that chunk of the pre-store data into the twin — lazy, chunk-wise
    /// twin materialization, so twin cost is O(chunks written), not
    /// O(page). Sound because all stores to cached pages happen under the
    /// slot mutex: nothing can change a chunk between the fault that
    /// allocated the (empty) twin and the copy-on-first-touch here.
    #[inline]
    fn store_cached(st: &SlotGuard<'_>, idx: usize, word: usize, value: u64) {
        let cp = &st.pages[idx];
        if cp.mask.set(word) {
            if let Some(twin) = &cp.twin {
                twin.copy_chunk_from(st.data(idx), word / CHUNK_WORDS);
            }
        }
        st.data(idx).store(word, value);
    }

    /// The clean→dirty transition of a cached page (a protection fault in
    /// the real implementation): register as writer, snapshot a twin, mark
    /// dirty. Returns whether the page should enter the write buffer; the
    /// caller must push it after releasing the slot lock.
    fn write_fault_locked(
        &self,
        t: &mut T::Endpoint,
        st: &mut SlotGuard<'_>,
        page: PageNum,
        me: u16,
    ) -> Result<bool, DsmError> {
        let ns = &self.nodes[me as usize];
        let idx = ns.cache.index_in_line(page);
        let obs_start = t.obs_now();
        let span = self.mint_span(t, me);
        t.set_span(span);
        CoherenceStats::bump(&self.stats.shard(me).write_faults);
        t.fault_trap();
        self.register_writer(t, page, me)?;
        let disp = self.coherence.write_disposition(me, page);
        debug_assert!(st.pages[idx].mask.is_empty(), "clean page carries mask bits");
        if disp.need_twin {
            // The twin starts empty; `store_cached` copies each 64-word
            // chunk from the live data the first time the chunk is written,
            // so only touched chunks are ever materialized. The *virtual*
            // charge stays a full hot page copy — the simulated machine
            // snapshots eagerly; only host work became lazy.
            st.pages[idx].twin = Some(PageData::zeroed());
            t.compute(PAGE_COPY_CYCLES);
            CoherenceStats::bump(&self.stats.shard(me).twins_created);
        }
        st.pages[idx].dirty = true;
        self.record_site(
            t,
            me,
            obs::Site::WriteFault,
            span,
            obs_start,
            t.obs_now().saturating_sub(obs_start),
            page.0,
        );
        t.set_span(obs::SpanId::NONE);
        Ok(disp.buffer)
    }

    /// Read an aligned f64.
    pub fn read_f64(&self, t: &mut T::Endpoint, addr: GlobalAddr) -> f64 {
        f64::from_bits(self.read_u64(t, addr))
    }

    /// Fallible flavor of [`Self::read_f64`].
    pub fn try_read_f64(&self, t: &mut T::Endpoint, addr: GlobalAddr) -> Result<f64, DsmError> {
        self.try_read_u64(t, addr).map(f64::from_bits)
    }

    /// Write an aligned f64.
    pub fn write_f64(&self, t: &mut T::Endpoint, addr: GlobalAddr, value: f64) {
        self.write_u64(t, addr, value.to_bits());
    }

    /// Fallible flavor of [`Self::write_f64`].
    pub fn try_write_f64(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        value: f64,
    ) -> Result<(), DsmError> {
        self.try_write_u64(t, addr, value.to_bits())
    }

    /// Bulk read of `out.len()` consecutive words starting at `addr`.
    ///
    /// Semantically identical to a loop of [`Self::read_u64`], but the
    /// protocol work (slot locking, hit check) is done once per *page* and
    /// streaming words are charged [`STREAM_WORD_CYCLES`] each — modeling a
    /// loop whose per-element cost is hidden by hardware caches. Workload
    /// kernels use this for row-contiguous access.
    pub fn read_u64_slice(&self, t: &mut T::Endpoint, addr: GlobalAddr, out: &mut [u64]) {
        Self::unrecoverable(self.try_read_u64_slice(t, addr, out))
    }

    /// Fallible flavor of [`Self::read_u64_slice`] (failover-aware; see
    /// [`Self::try_read_u64`]).
    pub fn try_read_u64_slice(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        out: &mut [u64],
    ) -> Result<(), DsmError> {
        self.failover_retry(t, |dsm, t| dsm.read_u64_slice_inner(t, addr, out))
    }

    fn read_u64_slice_inner(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        out: &mut [u64],
    ) -> Result<(), DsmError> {
        let me = t.node().0;
        let mut i = 0usize;
        while i < out.len() {
            let a = addr.offset(i as u64 * 8);
            let page = a.page();
            let first_word = a.word_index();
            let run = (mem::WORDS_PER_PAGE - first_word).min(out.len() - i);
            t.compute(HIT_CYCLES + run as u64 * STREAM_WORD_CYCLES);
            if self.global.home_of(page) == me {
                self.register_reader_home(t, page, me)?;
                let hp = self.global.home_page(page);
                for k in 0..run {
                    out[i + k] = hp.load(first_word + k);
                }
            } else {
                let ns = &self.nodes[me as usize];
                let line = ns.cache.line_of(page);
                let idx = ns.cache.index_in_line(page);
                // Hit fast path: whole run copied under one seqlock window.
                if let Some(ready) = ns.cache.slot_for(page).try_read_run(
                    line,
                    idx,
                    first_word,
                    &mut out[i..i + run],
                ) {
                    CoherenceStats::bump(&self.stats.shard(me).read_hits);
                    t.merge(ready);
                    i += run;
                    continue;
                }
                let mut st = ns.cache.lock_slot(page);
                if st.tag == Some(line) && st.pages[idx].valid {
                    CoherenceStats::bump(&self.stats.shard(me).read_hits);
                    t.merge(st.ready_at);
                } else {
                    self.read_miss(t, &mut st, page, me)?;
                }
                let data = st.data(idx);
                for k in 0..run {
                    out[i + k] = data.load(first_word + k);
                }
            }
            i += run;
        }
        Ok(())
    }

    /// Bulk write of consecutive words (see [`Self::read_u64_slice`]).
    pub fn write_u64_slice(&self, t: &mut T::Endpoint, addr: GlobalAddr, data: &[u64]) {
        Self::unrecoverable(self.try_write_u64_slice(t, addr, data))
    }

    /// Fallible flavor of [`Self::write_u64_slice`] (failover-aware; see
    /// [`Self::try_read_u64`]).
    pub fn try_write_u64_slice(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        data: &[u64],
    ) -> Result<(), DsmError> {
        self.failover_retry(t, |dsm, t| dsm.write_u64_slice_inner(t, addr, data))
    }

    fn write_u64_slice_inner(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        data: &[u64],
    ) -> Result<(), DsmError> {
        let me = t.node().0;
        let mut i = 0usize;
        while i < data.len() {
            let a = addr.offset(i as u64 * 8);
            let page = a.page();
            let first_word = a.word_index();
            let run = (mem::WORDS_PER_PAGE - first_word).min(data.len() - i);
            t.compute(HIT_CYCLES + run as u64 * STREAM_WORD_CYCLES);
            if self.global.home_of(page) == me {
                self.register_writer_home(t, page, me)?;
                let hp = self.global.home_page(page);
                for k in 0..run {
                    hp.store(first_word + k, data[i + k]);
                }
                // Post-store re-check, as in `try_write_u64`: a sibling
                // thread's release mid-run must not leave these bytes
                // outside the epoch's version bump.
                self.register_writer_home(t, page, me)?;
            } else {
                let ns = &self.nodes[me as usize];
                let mut st = ns.cache.lock_slot(page);
                let line = ns.cache.line_of(page);
                let idx = ns.cache.index_in_line(page);
                if st.tag != Some(line) || !st.pages[idx].valid {
                    self.read_miss(t, &mut st, page, me)?; // write-allocate
                }
                let buffered = if st.pages[idx].dirty {
                    CoherenceStats::bump(&self.stats.shard(me).write_hits);
                    false
                } else {
                    self.write_fault_locked(t, &mut st, page, me)?
                };
                let pd = st.data(idx);
                {
                    // Bulk mask update: one fetch_or per touched chunk, and
                    // lazy twin chunks materialized before the stores land
                    // (see `store_cached`).
                    let cp = &st.pages[idx];
                    cp.mask.cover(first_word, run, |chunk| {
                        if let Some(twin) = &cp.twin {
                            twin.copy_chunk_from(pd, chunk);
                        }
                    });
                }
                for k in 0..run {
                    pd.store(first_word + k, data[i + k]);
                }
                drop(st);
                if buffered {
                    if let Some(victim) = ns.wbuf.push(page) {
                        self.downgrade(t, victim, me)?;
                    }
                }
            }
            i += run;
        }
        Ok(())
    }

    /// Bulk f64 read (see [`Self::read_u64_slice`]).
    pub fn read_f64_slice(&self, t: &mut T::Endpoint, addr: GlobalAddr, out: &mut [f64]) {
        Self::unrecoverable(self.try_read_f64_slice(t, addr, out))
    }

    /// Fallible flavor of [`Self::read_f64_slice`].
    pub fn try_read_f64_slice(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        out: &mut [f64],
    ) -> Result<(), DsmError> {
        // Reuse the u64 path by reinterpreting the buffer in place: f64 and
        // u64 have identical size and alignment, and every u64 bit pattern
        // is a valid f64 (and vice versa), so no scratch copy is needed.
        // Safety: same layout, both types valid for all bit patterns, and
        // the borrow is exclusive for the duration of the call.
        let words =
            unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u64>(), out.len()) };
        self.try_read_u64_slice(t, addr, words)
    }

    /// Bulk f64 write (see [`Self::write_u64_slice`]).
    pub fn write_f64_slice(&self, t: &mut T::Endpoint, addr: GlobalAddr, data: &[f64]) {
        Self::unrecoverable(self.try_write_f64_slice(t, addr, data))
    }

    /// Fallible flavor of [`Self::write_f64_slice`].
    pub fn try_write_f64_slice(
        &self,
        t: &mut T::Endpoint,
        addr: GlobalAddr,
        data: &[f64],
    ) -> Result<(), DsmError> {
        // Safety: as in `try_read_f64_slice`; shared borrow, read-only.
        let words =
            unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u64>(), data.len()) };
        self.try_write_u64_slice(t, addr, words)
    }

    // ------------------------------------------------------------------
    // Fences
    // ------------------------------------------------------------------

    /// Self-invalidation fence (acquire side): invalidate every cached page
    /// that Table 1 requires for the configured mode. Dirty pages are
    /// downgraded before invalidation so no write is lost.
    pub fn si_fence(&self, t: &mut T::Endpoint) {
        Self::unrecoverable(self.try_si_fence(t))
    }

    /// Fallible flavor of [`Self::si_fence`] (failover-aware; see
    /// [`Self::try_read_u64`]).
    pub fn try_si_fence(&self, t: &mut T::Endpoint) -> Result<(), DsmError> {
        self.failover_retry(t, |dsm, t| dsm.si_fence_inner(t))
    }

    /// The fence a lock owes on acquire — the one place the *handover
    /// rule* (`vela::DsmGlobalLock` module docs, DESIGN §11) is enforced.
    /// `handover` says the lock was last released by another node (or
    /// never): only then is there a remote critical section to observe,
    /// and the full SI fence runs. A lock that stayed on this node orders
    /// only writes the node made itself — still in its page cache, or
    /// written home where the next miss reads them — so the sweep is
    /// skipped; the acquire still drops speculation, exactly as the SI
    /// fence would have.
    pub fn acquire_fence(&self, t: &mut T::Endpoint, handover: bool) {
        if handover {
            self.si_fence(t);
        } else {
            self.flush_prefetch(t.node().0);
        }
    }

    fn si_fence_inner(&self, t: &mut T::Endpoint) -> Result<(), DsmError> {
        let me = t.node().0;
        let obs_start = t.obs_now();
        let span = self.mint_span(t, me);
        t.set_span(span);
        CoherenceStats::bump(&self.stats.shard(me).si_fences);
        // Baselines for the fence's policy-event deltas: Tardis expiries
        // and Pyxis mode switches both land in this node's shard during the
        // sweep, so the before/after difference is what *this* fence did.
        let shard = self.stats.shard(me);
        let expiries_before = shard.lease_expiries.load(Ordering::Relaxed);
        let switches_before = shard.mode_to_lease.load(Ordering::Relaxed)
            + shard.mode_to_sisd.load(Ordering::Relaxed);
        // An acquire invalidates speculation too: ring snapshots predate
        // the synchronization this fence establishes.
        self.flush_prefetch(me);
        // Acquire-side policy hook (Tardis merges the global clock here).
        self.coherence.begin_si_fence(me, self.stats.shard(me));
        let ns = &self.nodes[me as usize];
        // O(resident): only slots holding a line are visited; empty slots
        // of a roomy cache cost nothing.
        for slot_idx in ns.cache.occupied_indices() {
            let mut st = ns.cache.lock_index(slot_idx);
            let Some(tag) = st.tag else { continue };
            let base = ns.cache.line_base(tag);
            let mut any_valid = false;
            for idx in 0..st.pages.len() {
                if !st.pages[idx].valid {
                    continue;
                }
                let page = PageNum(base.0 + idx as u64);
                t.compute(FENCE_SCAN_CYCLES);
                if self
                    .coherence
                    .must_self_invalidate(me, page, self.stats.shard(me))
                {
                    if st.pages[idx].dirty {
                        // Unbuffer first: the downgrade's local half always
                        // completes (errors only surface from the posting),
                        // so on a failure the page is clean and must not
                        // linger in the buffer.
                        ns.wbuf.remove(page);
                        self.downgrade_locked(t, &mut st, page, me)?;
                    }
                    st.pages[idx].invalidate();
                    t.compute(PROTECT_CYCLES);
                    CoherenceStats::bump(&self.stats.shard(me).si_invalidated);
                    self.detail(t, me, obs::RecordKind::SiInvalidate, page.0, obs::NO_TARGET);
                } else {
                    any_valid = true;
                    CoherenceStats::bump(&self.stats.shard(me).si_kept);
                    self.detail(t, me, obs::RecordKind::SiKeep, page.0, obs::NO_TARGET);
                }
            }
            if !any_valid {
                // Fully invalidated: release the slot so future fences skip
                // it. Behaviorally identical to a tagged all-invalid line
                // (the next access misses either way, with no eviction),
                // but it keeps the occupied set — and thus fence cost —
                // proportional to what actually survives fences.
                st.tag = None;
                st.ready_at = 0;
            }
        }
        let dur = t.obs_now().saturating_sub(obs_start);
        self.record_site(t, me, obs::Site::SiFence, span, obs_start, dur, 0);
        let expired = shard
            .lease_expiries
            .load(Ordering::Relaxed)
            .saturating_sub(expiries_before);
        if expired > 0 {
            self.lyra_record(t, me, || obs::VerbRecord {
                span,
                start: obs_start,
                dur,
                arg: expired,
                node: me,
                kind: obs::RecordKind::LeaseExpiry,
                site: obs::Site::SiFence.index() as u8,
                ..obs::VerbRecord::blank()
            });
        }
        let switched = (shard.mode_to_lease.load(Ordering::Relaxed)
            + shard.mode_to_sisd.load(Ordering::Relaxed))
        .saturating_sub(switches_before);
        if switched > 0 {
            self.lyra_record(t, me, || obs::VerbRecord {
                span,
                start: obs_start,
                dur,
                arg: switched,
                node: me,
                kind: obs::RecordKind::ModeSwitch,
                site: obs::Site::SiFence.index() as u8,
                ..obs::VerbRecord::blank()
            });
        }
        t.set_span(obs::SpanId::NONE);
        Ok(())
    }

    /// Self-downgrade fence (release side): drain the write buffer and wait
    /// for every posted write of this node to settle at its home.
    pub fn sd_fence(&self, t: &mut T::Endpoint) {
        Self::unrecoverable(self.try_sd_fence(t))
    }

    /// Fallible flavor of [`Self::sd_fence`] (failover-aware; see
    /// [`Self::try_read_u64`]).
    pub fn try_sd_fence(&self, t: &mut T::Endpoint) -> Result<(), DsmError> {
        self.failover_retry(t, |dsm, t| dsm.sd_fence_inner(t))
    }

    fn sd_fence_inner(&self, t: &mut T::Endpoint) -> Result<(), DsmError> {
        let me = t.node().0;
        let obs_start = t.obs_now();
        let span = self.mint_span(t, me);
        t.set_span(span);
        CoherenceStats::bump(&self.stats.shard(me).sd_fences);
        // Pyxis applies pending mode switches at its release hook; baseline
        // the counters so the fence's delta becomes a `ModeSwitch` record.
        let shard = self.stats.shard(me);
        let switches_before = shard.mode_to_lease.load(Ordering::Relaxed)
            + shard.mode_to_sisd.load(Ordering::Relaxed);
        let ns = &self.nodes[me as usize];
        let drained = ns.wbuf.drain();
        // Auto: big drains coalesce — one doorbell per home amortizes once
        // a fence moves `batch_drain_cutover` pages — while small drains
        // keep the per-page path its timing calibration, on every backend.
        let batch = match self.config.batch_drain {
            BatchDrain::Auto => drained.len() >= self.config.batch_drain_cutover,
            BatchDrain::Always => true,
            BatchDrain::Never => false,
        };
        if batch {
            self.drain_batched(t, &drained, me)?;
        } else {
            for (i, &page) in drained.iter().enumerate() {
                if let Err(e) = self.downgrade(t, page, me) {
                    // Keep the buffer honest across the failure: pages the
                    // drain did not reach (and are still dirty) go back in,
                    // so a failover retry of this fence still drains them.
                    for &rest in &drained[i..] {
                        if self.is_dirty_cached(me, rest) {
                            if let Some(victim) = ns.wbuf.push(rest) {
                                let _ = self.downgrade(t, victim, me);
                            }
                        }
                    }
                    return Err(e);
                }
            }
        }
        if self.coherence.needs_checkpoint_sweep() {
            self.naive_checkpoint_sweep(t, me)?;
        }
        if self.config.volans_shadow && !drained.is_empty() {
            self.mirror_to_successors(t, &drained, me)?;
        }
        // Wait for posted downgrades/notifications to become globally
        // visible. `pending_settle` carries the settle time of every write
        // this node posted (including its NIC serialization), which is
        // exactly the set the fence must await — the NIC timeline itself
        // also holds *other* nodes' future reservations and must not be
        // merged wholesale.
        t.merge(ns.pending_settle.load(Ordering::Acquire));
        // Release-side policy hook, after the drain settled (Tardis
        // publishes its clock and opens a new write epoch here).
        self.coherence.end_sd_fence(me, self.stats.shard(me));
        let dur = t.obs_now().saturating_sub(obs_start);
        self.record_site(t, me, obs::Site::SdFence, span, obs_start, dur, 0);
        let switched = (shard.mode_to_lease.load(Ordering::Relaxed)
            + shard.mode_to_sisd.load(Ordering::Relaxed))
        .saturating_sub(switches_before);
        if switched > 0 {
            self.lyra_record(t, me, || obs::VerbRecord {
                span,
                start: obs_start,
                dur,
                arg: switched,
                node: me,
                kind: obs::RecordKind::ModeSwitch,
                site: obs::Site::SdFence.index() as u8,
                ..obs::VerbRecord::blank()
            });
        }
        t.set_span(obs::SpanId::NONE);
        Ok(())
    }

    /// The naïve P/S scheme's sync-point obligation (§3.4.2): checkpoint
    /// every modified private page so a later P→S transition can be
    /// serviced. The page stays dirty and private; the checkpoint cost is
    /// paid at *every* synchronization point — which is why Figure 8 shows
    /// naïve P/S performing no better than no classification at all.
    fn naive_checkpoint_sweep(&self, t: &mut T::Endpoint, me: u16) -> Result<(), DsmError> {
        let ns = &self.nodes[me as usize];
        // O(dirty): clean and empty slots owe the sweep nothing.
        for slot_idx in ns.cache.dirty_indices() {
            let mut st = ns.cache.lock_index(slot_idx);
            let Some(tag) = st.tag else { continue };
            let base = ns.cache.line_base(tag);
            for idx in 0..st.pages.len() {
                if !st.pages[idx].valid || !st.pages[idx].dirty {
                    continue;
                }
                let page = PageNum(base.0 + idx as u64);
                if self.coherence.private_in_cache(me, page) {
                    // Local checkpoint copy; the simulator also quietly
                    // deposits the data at home so a later P→S reader finds
                    // it (the newcomer is charged the checkpoint-service
                    // round trip at transition time instead). The copy is
                    // cold — the sweep touches pages no CPU cache holds.
                    t.compute(CHECKPOINT_CYCLES);
                    CoherenceStats::bump(&self.stats.shard(me).checkpoints);
                    self.detail(t, me, obs::RecordKind::Checkpoint, page.0, obs::NO_TARGET);
                    self.silently_write_through(&st, page, idx);
                } else {
                    // Became shared since the write fault: downgrade now.
                    self.downgrade_locked(t, &mut st, page, me)?;
                }
            }
        }
        Ok(())
    }

    fn silently_write_through(&self, st: &SlotGuard<'_>, page: PageNum, idx: usize) {
        let home = self.global.home_page(page);
        match &st.pages[idx].twin {
            // Lazily-materialized twins are only meaningful inside masked
            // chunks; the masked diff never looks outside them.
            Some(twin) => home.apply_diff(
                &st.data(idx).diff_against_masked(twin, &st.pages[idx].mask),
            ),
            None => home.copy_from(st.data(idx)),
        }
    }

    // ------------------------------------------------------------------
    // Miss handling
    // ------------------------------------------------------------------

    /// Handle a read miss on `page`: evict/flush the conflicting line if
    /// needed, then fetch the whole line from the pages' homes, registering
    /// as a reader of each fetched page.
    fn read_miss(
        &self,
        t: &mut T::Endpoint,
        st: &mut SlotGuard<'_>,
        page: PageNum,
        me: u16,
    ) -> Result<(), DsmError> {
        // Re-read the demanded page's home under the slot lock — once; the
        // fill below routes by this value. The accessor chose the remote
        // path from an unlocked `home_of`, and a concurrent failover may
        // since have re-homed `page` *here*. Its scrub serializes with us
        // on this slot, so either we see the new home now, or we fetch by
        // the old route and the scrub cleans up after us. Local pages are
        // never cached (the fill would skip it and leave the slot
        // unfilled), so report a stale route as departed: `failover_retry`
        // re-runs the access, which then takes the home path.
        let demanded_home = self.global.home_of(page);
        if demanded_home == me {
            return Err(DsmError {
                class: VerbClass::PageFetch,
                attempts: 0,
                last_error: VerbError::Departed,
                node: me,
                target: me,
                span: obs::SpanId::NONE,
            });
        }
        let obs_start = t.obs_now();
        let span = self.mint_span(t, me);
        t.set_span(span);
        CoherenceStats::bump(&self.stats.shard(me).read_misses);
        self.heat.bump(page.0 as usize);
        t.fault_trap();
        let ns = &self.nodes[me as usize];
        let line = ns.cache.line_of(page);
        if st.tag != Some(line) {
            // Conflict eviction: flush dirty pages of the old line.
            if let Some(old) = st.tag {
                let old_base = ns.cache.line_base(old);
                let mut evicted_live = false;
                for idx in 0..st.pages.len() {
                    if st.pages[idx].valid {
                        evicted_live = true;
                        if st.pages[idx].dirty {
                            let old_page = PageNum(old_base.0 + idx as u64);
                            // Unbuffer before posting (see `si_fence_inner`).
                            ns.wbuf.remove(old_page);
                            self.downgrade_locked(t, st, old_page, me)?;
                        }
                    }
                }
                if evicted_live {
                    CoherenceStats::bump(&self.stats.shard(me).evictions);
                }
            }
            st.retag(line);
        }
        // Fetch every not-yet-valid remote page of the line, grouped by
        // home so transfers to distinct homes overlap (pipelined one-sided
        // reads issued back to back).
        let base = ns.cache.line_base(line);
        let total_pages = self.global.total_pages();
        let start = t.now();
        let mut done = start;
        let mut group: Vec<(u16, Vec<usize>)> = Vec::new();
        for idx in 0..st.pages.len() {
            let p = PageNum(base.0 + idx as u64);
            if p.0 >= total_pages || st.pages[idx].valid {
                continue;
            }
            let home = if p == page { demanded_home } else { self.global.home_of(p) };
            if home == me {
                continue; // local pages are never cached
            }
            match group.iter_mut().find(|(h, _)| *h == home) {
                Some((_, v)) => v.push(idx),
                None => group.push((home, vec![idx])),
            }
        }
        // A line the stride predictor fetched ahead of time satisfies its
        // pages from the ring; only uncovered pages go to the wire.
        let prefetched = self.take_prefetched(me, line);
        // Issue phase: every group's registrations are posted back-to-back
        // (pipelined one-sided atomics: latencies overlap, only wire
        // occupancy serializes) and its data read is posted right behind
        // them on the same ordered channel — for all homes — before any
        // completion is polled. The atomics reach the home ahead of the
        // read (same queue pair), so the miss costs one round trip, and
        // in-flight transfers to distinct homes overlap on the fabric
        // instead of queuing behind one another on this thread.
        let obs_issue = t.obs_now();
        let mut inflight: Vec<(u64, Option<IssuedVerb>)> = Vec::with_capacity(group.len());
        for (home, idxs) in &mut group {
            self.check_alive(me, *home, VerbClass::PageFetch, span)?;
            let mut reg_done = start;
            for &idx in idxs.iter() {
                let p = PageNum(base.0 + idx as u64);
                if let Some(completed) = self.register_reader_remote(t, p, me, *home, start)? {
                    reg_done = reg_done.max(completed);
                }
            }
            // Registration covered the whole group; pages the prefetcher
            // already has in the ring need no data read of their own.
            if let Some(pf) = &prefetched {
                idxs.retain(|&idx| {
                    let p = PageNum(base.0 + idx as u64);
                    !pf.pages.iter().any(|(q, _)| *q == p)
                });
            }
            let token = if idxs.is_empty() {
                None
            } else {
                let bytes = idxs.len() as u64 * PAGE_BYTES;
                let mut seq = self
                    .config
                    .retry
                    .attempt_seq(VerbClass::PageFetch, base.0.wrapping_add((*home as u64) << 48))
                    .with_span(span);
                let a0 = seq.next().expect("retry budget is at least one attempt");
                // Registration outcomes (notifies, a checkpoint fetch) may
                // have advanced the clock past `start`: never post behind it.
                let at = (start + a0.delay).max(t.now());
                let tok = t.issue(NodeId(*home), &Verb::Read { bytes }, at);
                Some((tok, seq, a0))
            };
            inflight.push((reg_done, token));
        }
        // Poll phase: completions fold in as a single max, so the line fill
        // costs one slowest-home round trip rather than the sum.
        let overlapped = inflight.iter().filter(|(_, tok)| tok.is_some()).count() > 1;
        for ((home, idxs), (reg_done, token)) in group.into_iter().zip(inflight) {
            if let Some((tok, seq, a0)) = token {
                let bytes = idxs.len() as u64 * PAGE_BYTES;
                let timing = self.poll_retried(
                    t,
                    me,
                    home,
                    (tok, seq, a0),
                    obs_issue,
                    VerbClass::PageFetch,
                    bytes,
                    |t, delay| {
                        let at = (start + delay).max(t.now());
                        t.issue(NodeId(home), &Verb::Read { bytes }, at)
                    },
                )?;
                done = done.max(timing.initiator_done);
            }
            // The fill is ready once both the data and the registrations
            // are (an entirely prefetched group waits for the latter only).
            done = done.max(reg_done);
            for idx in idxs {
                let p = PageNum(base.0 + idx as u64);
                st.alloc_data(idx).copy_from(self.global.home_page(p));
                st.pages[idx].valid = true;
                st.pages[idx].dirty = false;
                st.pages[idx].twin = None;
                st.pages[idx].mask.clear();
            }
        }
        if let Some(pf) = prefetched {
            done = self.consume_prefetched(st, pf, done, me);
        }
        t.merge(done);
        st.ready_at = t.now();
        if overlapped {
            self.profile.record(
                me as usize,
                obs::Site::IssueToPoll,
                t.obs_now().saturating_sub(obs_issue),
            );
        }
        self.maybe_prefetch(t, line, me);
        self.record_site(
            t,
            me,
            obs::Site::ReadMiss,
            span,
            obs_start,
            t.obs_now().saturating_sub(obs_start),
            page.0,
        );
        t.set_span(obs::SpanId::NONE);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Stride prefetch
    // ------------------------------------------------------------------

    /// Pull the ring entry for `line` (if any) out of the node's prefetch
    /// ring so the in-progress demand fill can consume it.
    fn take_prefetched(&self, me: u16, line: u64) -> Option<PrefetchedLine> {
        if self.config.prefetch_lines == 0 {
            return None;
        }
        let mut pf = self.nodes[me as usize].prefetch.lock().unwrap();
        let pos = pf.ring.iter().position(|e| e.line == line)?;
        pf.ring.remove(pos)
    }

    /// Fold a claimed ring entry into the slot being filled: every page the
    /// slot still misses is satisfied from the speculative snapshot (a hit,
    /// paying the speculative read's completion time instead of a fresh
    /// round trip); anything else in the entry is wasted.
    fn consume_prefetched(
        &self,
        st: &mut SlotGuard<'_>,
        pf: PrefetchedLine,
        mut done: u64,
        me: u16,
    ) -> u64 {
        let ns = &self.nodes[me as usize];
        let shard = self.stats.shard(me);
        for (p, data) in pf.pages {
            let idx = ns.cache.index_in_line(p);
            if st.pages[idx].valid {
                CoherenceStats::bump(&shard.prefetch_wasted);
                continue;
            }
            st.alloc_data(idx).copy_from(&data);
            st.pages[idx].valid = true;
            st.pages[idx].dirty = false;
            st.pages[idx].twin = None;
            st.pages[idx].mask.clear();
            CoherenceStats::bump(&shard.prefetch_hits);
            done = done.max(pf.ready_at);
        }
        done
    }

    /// Advance `t`'s core's stride predictor past a demand miss on `line`
    /// and, once a stride has repeated `prefetch_streak` times, issue a
    /// speculative fetch of the predicted next line into the ring.
    fn maybe_prefetch(&self, t: &mut T::Endpoint, line: u64, me: u16) {
        if self.config.prefetch_lines == 0 {
            return;
        }
        let ns = &self.nodes[me as usize];
        let core = t.loc().core as usize;
        let next = {
            let mut pf = ns.prefetch.lock().unwrap();
            if pf.cores.len() <= core {
                pf.cores.resize(core + 1, StridePredictor::default());
            }
            let p = &mut pf.cores[core];
            let stride = if p.primed {
                line.wrapping_sub(p.last_line) as i64
            } else {
                0
            };
            if p.primed && stride != 0 && stride == p.stride {
                p.streak += 1;
            } else {
                p.streak = u32::from(p.primed && stride != 0);
            }
            p.stride = stride;
            p.last_line = line;
            p.primed = true;
            let (streak, stride) = (p.streak, p.stride);
            if streak < self.config.prefetch_streak {
                None
            } else {
                let next = line.wrapping_add(stride as u64);
                if next == line || pf.ring.iter().any(|e| e.line == next) {
                    None
                } else {
                    Some(next)
                }
            }
        };
        if let Some(next) = next {
            self.prefetch_line(t, next, me);
        }
    }

    /// Speculatively fetch every remote page of `line`. Fire-and-forget:
    /// the issued reads are polled immediately but their completion time is
    /// parked in the ring entry, never merged into the issuing thread's
    /// clock; a verb failure silently drops the line (speculation never
    /// retries and never surfaces errors). Takes no slot locks, so it is
    /// safe to call while a demand fill still holds its slot — pages the
    /// cache already holds are simply fetched redundantly and counted
    /// wasted when the entry is claimed or flushed.
    fn prefetch_line(&self, t: &mut T::Endpoint, line: u64, me: u16) {
        let ns = &self.nodes[me as usize];
        let base = ns.cache.line_base(line);
        let total_pages = self.global.total_pages();
        let mut group: Vec<(u16, Vec<PageNum>)> = Vec::new();
        for i in 0..self.config.cache.pages_per_line as u64 {
            let p = PageNum(base.0 + i);
            if p.0 >= total_pages {
                continue;
            }
            let home = self.global.home_of(p);
            if home == me {
                continue;
            }
            match group.iter_mut().find(|(h, _)| *h == home) {
                Some((_, v)) => v.push(p),
                None => group.push((home, vec![p])),
            }
        }
        if group.is_empty() {
            return;
        }
        let shard = self.stats.shard(me);
        let pages_total: u64 = group.iter().map(|(_, ps)| ps.len() as u64).sum();
        CoherenceStats::add(&shard.prefetch_issued, pages_total);
        let now = t.now();
        let tokens: Vec<VerbToken> = group
            .iter()
            .map(|(home, ps)| {
                let bytes = ps.len() as u64 * PAGE_BYTES;
                t.issue(NodeId(*home), &Verb::Read { bytes }, now)
            })
            .collect();
        let mut ready_at = now;
        let mut ok = true;
        for tok in tokens {
            match t.poll(tok) {
                Some(Ok(c)) => ready_at = ready_at.max(c.initiator_done),
                // Failed or still in flight: drop the whole line.
                Some(Err(_)) | None => ok = false,
            }
        }
        if !ok {
            CoherenceStats::add(&shard.prefetch_wasted, pages_total);
            return;
        }
        // Snapshot and park under the ring lock, so a concurrent write-back
        // from this node either lands before the snapshot or finds the
        // entry to retire (`retire_prefetched`).
        let mut pf = ns.prefetch.lock().unwrap();
        let pages: Vec<(PageNum, PageData)> = group
            .iter()
            .flat_map(|(_, ps)| ps.iter().map(|&p| (p, self.global.home_page(p).snapshot())))
            .collect();
        pf.ring.push_back(PrefetchedLine { line, ready_at, pages });
        while pf.ring.len() > self.config.prefetch_lines {
            if let Some(old) = pf.ring.pop_front() {
                CoherenceStats::add(&shard.prefetch_wasted, old.pages.len() as u64);
            }
        }
    }

    /// Drop every speculative line (and all predictor history) `node`
    /// holds, counting unconsumed pages as wasted. Acquire-side fences and
    /// phase resets call this: consuming a snapshot taken before the
    /// acquire would hand the program values it already synchronized away.
    fn flush_prefetch(&self, node: u16) {
        if self.config.prefetch_lines == 0 {
            return;
        }
        let mut pf = self.nodes[node as usize].prefetch.lock().unwrap();
        let shard = self.stats.shard(node);
        while let Some(e) = pf.ring.pop_front() {
            CoherenceStats::add(&shard.prefetch_wasted, e.pages.len() as u64);
        }
        pf.cores.clear();
    }

    /// `node` just wrote `page` home: a parked snapshot of its line
    /// predates the node's own write and must not satisfy a later miss.
    /// Called after the home copy, with the page's slot still locked, so no
    /// miss on the page can slip in between.
    fn retire_prefetched(&self, node: u16, page: PageNum) {
        if self.config.prefetch_lines == 0 {
            return;
        }
        let ns = &self.nodes[node as usize];
        let line = ns.cache.line_of(page);
        let mut pf = ns.prefetch.lock().unwrap();
        if let Some(pos) = pf.ring.iter().position(|e| e.line == line) {
            if let Some(old) = pf.ring.remove(pos) {
                CoherenceStats::add(
                    &self.stats.shard(node).prefetch_wasted,
                    old.pages.len() as u64,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Directory registration & notifications
    // ------------------------------------------------------------------

    /// Register as a reader of a page homed here (local, cheap).
    fn register_reader_home(
        &self,
        t: &mut T::Endpoint,
        page: PageNum,
        me: u16,
    ) -> Result<(), DsmError> {
        if self.coherence.read_registered(me, me, page) {
            return Ok(());
        }
        t.dram_access();
        let outcome = self
            .coherence
            .register_reader(me, me, page, self.stats.shard(me));
        let now = t.now();
        self.apply_outcome(t, page, me, outcome, now)
    }

    /// Register as a reader of `page` at remote `home`, issuing the
    /// directory atomic at virtual time `start` (pipelined with the rest
    /// of its line-fill group). Returns the completion time, or `None` if
    /// no directory access was needed.
    fn register_reader_remote(
        &self,
        t: &mut T::Endpoint,
        page: PageNum,
        me: u16,
        home: u16,
        start: u64,
    ) -> Result<Option<u64>, DsmError> {
        if self.coherence.read_registered(me, home, page) {
            // Already registered (or the lease still holds): refresh is
            // piggy-backed on the data fetch (no separate atomic).
            return Ok(None);
        }
        let timing = self.net_verb(
            t,
            me,
            home,
            VerbClass::DirectoryAtomic,
            page.0,
            start,
            &Verb::FetchOr,
        )?;
        let mut op_clock = timing.initiator_done;
        if self.config.active_directory {
            op_clock += self.net.cost().handler_cycles;
            self.net
                .stats()
                .handler_invocations
                .fetch_add(1, Ordering::Relaxed);
        }
        let outcome = self
            .coherence
            .register_reader(me, home, page, self.stats.shard(me));
        let now = t.now();
        self.apply_outcome(t, page, me, outcome, now)?;
        Ok(Some(op_clock))
    }

    /// Register as a writer of a page homed here.
    fn register_writer_home(
        &self,
        t: &mut T::Endpoint,
        page: PageNum,
        me: u16,
    ) -> Result<(), DsmError> {
        if self.coherence.write_registered(me, me, page) {
            return Ok(());
        }
        t.dram_access();
        let outcome = self
            .coherence
            .register_writer(me, me, page, self.stats.shard(me));
        let now = t.now();
        self.apply_outcome(t, page, me, outcome, now)
    }

    /// Register as a writer of a (remote) page, unless we already are. The
    /// directory atomic is *posted*: the writer needs nothing back from it
    /// before storing into its own copy, so the thread does not wait out
    /// the round trip. Its completion joins `pending_settle`, which the
    /// next SD fence awaits before it releases anything — the registration
    /// is globally visible no later than the writes it covers.
    fn register_writer(&self, t: &mut T::Endpoint, page: PageNum, me: u16) -> Result<(), DsmError> {
        let home = self.global.home_of(page);
        if self.coherence.write_registered(me, home, page) {
            return Ok(());
        }
        let timing = self.net_verb(
            t,
            me,
            home,
            VerbClass::DirectoryAtomic,
            page.0,
            t.now(),
            &Verb::FetchOr,
        )?;
        self.nodes[me as usize]
            .pending_settle
            .fetch_max(timing.settled, Ordering::AcqRel);
        if self.config.active_directory {
            t.compute(self.net.cost().handler_cycles);
            self.net
                .stats()
                .handler_invocations
                .fetch_add(1, Ordering::Relaxed);
        }
        let outcome = self
            .coherence
            .register_writer(me, home, page, self.stats.shard(me));
        // Whom to notify is in the atomic's reply: the notifies chain behind
        // it on the network timeline, not on this thread's clock.
        self.apply_outcome(t, page, me, outcome, timing.initiator_done)
    }

    /// Perform the wire work a registration decided on: flight-record its
    /// transitions (detail kinds), post one notification per affected node, and
    /// service a checkpoint fetch if the policy asked for one. The policy
    /// already applied all metadata mutations host-side; this is purely
    /// the engine's verbs-and-clocks half.
    ///
    /// `reply_at` is when the registration's reply — which names the nodes
    /// to notify and the owner to fetch from — reaches this node; nothing
    /// here is posted earlier. A caller that waited for the reply passes
    /// its own clock and the postings advance the thread as usual. A
    /// *posted* registration passes the reply's (later) arrival: its
    /// notifies chain behind it on the network timeline and join
    /// `pending_settle` for the next SD fence without holding the thread,
    /// while a checkpoint fetch, whose data the thread needs, still does.
    fn apply_outcome(
        &self,
        t: &mut T::Endpoint,
        page: PageNum,
        me: u16,
        outcome: RegisterOutcome,
        reply_at: u64,
    ) -> Result<(), DsmError> {
        if outcome.is_quiet() {
            return Ok(());
        }
        for (kind, other) in outcome.transitions.into_iter().flatten() {
            self.detail(t, me, kind, page.0, other);
        }
        let waited = reply_at <= t.now();
        let mut at = reply_at;
        for target in outcome.notify {
            let Some(timing) = self.notify(t, target, page, me, at.max(t.now()))? else {
                continue;
            };
            if waited {
                self.settle_posted(t, me, &timing);
            } else {
                at = timing.initiator_done;
                self.nodes[me as usize]
                    .pending_settle
                    .fetch_max(timing.settled, Ordering::AcqRel);
            }
            if self.config.active_directory {
                t.compute(self.net.cost().handler_cycles);
                self.net
                    .stats()
                    .handler_invocations
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(owner) = outcome.fetch_from {
            // Service the fill from `owner`'s checkpoint: one extra round
            // trip (§3.4.2 "naïve solution").
            let timing = self.net_verb(
                t,
                me,
                owner,
                VerbClass::PageFetch,
                page.0,
                at.max(t.now()),
                &Verb::Read { bytes: PAGE_BYTES },
            )?;
            t.merge(timing.initiator_done);
        }
        Ok(())
    }

    /// Post the wire half of a directory-cache notification at virtual time
    /// `at` — the passive mechanism's one-sided write; no code runs at
    /// `target`. The metadata itself was already deposited by the policy
    /// (host-side, like the real remote OR). Returns the posted write's
    /// timing for the caller to settle, `None` if there was nobody to tell.
    fn notify(
        &self,
        t: &mut T::Endpoint,
        target: u16,
        page: PageNum,
        me: u16,
        at: u64,
    ) -> Result<Option<Completion>, DsmError> {
        if target == me {
            return Ok(None);
        }
        if self.membership.epoch() != 0 && !self.membership.is_alive(target) {
            // The sharer departed: its directory cache died with it, so
            // there is nothing left to notify.
            return Ok(None);
        }
        self.detail(t, me, obs::RecordKind::Notify, page.0, target as u32);
        self.net_verb(
            t,
            me,
            target,
            VerbClass::Notify,
            page.0.wrapping_add((target as u64) << 48),
            at,
            &Verb::Write { bytes: NOTIFY_BYTES },
        )
        .map(Some)
    }

    // ------------------------------------------------------------------
    // Downgrades
    // ------------------------------------------------------------------

    /// Downgrade `page` (write its dirty data back to home), locking its
    /// slot. Used by write-buffer overflow and fence drains.
    fn downgrade(&self, t: &mut T::Endpoint, page: PageNum, me: u16) -> Result<(), DsmError> {
        let ns = &self.nodes[me as usize];
        let mut st = ns.cache.lock_slot(page);
        if st.tag != Some(ns.cache.line_of(page)) {
            return Ok(()); // evicted (and flushed) since it was buffered
        }
        self.downgrade_locked(t, &mut st, page, me)
    }

    /// Downgrade with the slot lock already held: resolve the data locally,
    /// then post the write-back home immediately (the per-page path).
    fn downgrade_locked(
        &self,
        t: &mut T::Endpoint,
        st: &mut SlotGuard<'_>,
        page: PageNum,
        me: u16,
    ) -> Result<(), DsmError> {
        let Some(bytes) = self.downgrade_local(t, st, page, me) else {
            return Ok(());
        };
        let home = self.global.home_of(page);
        if home == me {
            // Cannot happen: local pages are never cached. Kept as a guard.
            return Ok(());
        }
        let timing = self.net_verb(
            t,
            me,
            home,
            VerbClass::Downgrade,
            page.0,
            t.now(),
            &Verb::Write { bytes },
        )?;
        self.settle_posted(t, me, &timing);
        Ok(())
    }

    /// The local half of a downgrade: diff (or copy) the dirty page into
    /// its home memory, flip it clean, and return the wire size of the
    /// write-back that must now be posted to the home — `None` if the page
    /// needed no downgrade. Split out so fence drains can batch the posting
    /// by home while the data movement stays per-page.
    fn downgrade_local(
        &self,
        t: &mut T::Endpoint,
        st: &mut SlotGuard<'_>,
        page: PageNum,
        me: u16,
    ) -> Option<u64> {
        let ns = &self.nodes[me as usize];
        let idx = ns.cache.index_in_line(page);
        if !st.pages[idx].valid || !st.pages[idx].dirty {
            return None;
        }
        let home_page = self.global.home_page(page);
        // A single writer may skip diff transmission: no other node can
        // have written this page, so the whole page is safe to send and the
        // diff computation is saved (the sw_no_diff extension; paper §3.2
        // leaves it as future work). Only sound when the policy can prove
        // single-writer ownership — Tardis never can and always diffs.
        let sw_skip = self.config.sw_no_diff && self.coherence.downgrade_skip_diff(me, page);
        let data = st.data(idx);
        let bytes = match (&st.pages[idx].twin, sw_skip) {
            (Some(twin), false) => {
                t.compute(PAGE_COPY_CYCLES); // diff scan
                // The twin is only materialized chunk-wise where the mask
                // says stores landed; outside the mask both copies agree by
                // construction, so the masked diff is exact.
                let diff = data.diff_against_masked(twin, &st.pages[idx].mask);
                let diff_bytes =
                    DOWNGRADE_HEADER_BYTES + diff.len() as u64 * DIFF_WORD_BYTES;
                if diff_bytes < PAGE_BYTES {
                    CoherenceStats::add(&self.stats.shard(me).diff_words, diff.len() as u64);
                    home_page.apply_diff(&diff);
                    diff_bytes
                } else {
                    home_page.copy_from(data);
                    PAGE_BYTES
                }
            }
            _ => {
                home_page.copy_from(data);
                PAGE_BYTES
            }
        };
        st.pages[idx].dirty = false;
        st.pages[idx].twin = None;
        st.pages[idx].mask.clear();
        // The new version is home: retire any speculative snapshot of the
        // old one and let the policy advance its clocks (all drain paths —
        // fence, overflow, eviction — funnel through here).
        self.retire_prefetched(me, page);
        self.coherence.note_downgrade(me, page);
        // The real implementation re-protects the page read-only so the
        // next write faults again.
        t.compute(PROTECT_CYCLES);
        CoherenceStats::bump(&self.stats.shard(me).writebacks);
        CoherenceStats::add(&self.stats.shard(me).writeback_bytes, bytes);
        let home = self.global.home_of(page);
        self.detail(t, me, obs::RecordKind::Downgrade, page.0, home as u32);
        Some(bytes)
    }

    /// SD-fence drain that coalesces write-backs by home node: every dirty
    /// page is still diffed into home memory individually and in global
    /// FIFO order, but instead of one verb per page each home receives one
    /// [`Verb::WriteBatch`] (one doorbell, one posting) carrying all of its
    /// pages' diffs. Homes appear in first-victim order.
    fn drain_batched(
        &self,
        t: &mut T::Endpoint,
        pages: &[PageNum],
        me: u16,
    ) -> Result<(), DsmError> {
        let ns = &self.nodes[me as usize];
        let mut batches: Vec<(u16, Vec<u64>)> = Vec::new();
        for &page in pages {
            let mut st = ns.cache.lock_slot(page);
            if st.tag != Some(ns.cache.line_of(page)) {
                continue; // evicted (and flushed) since it was buffered
            }
            let Some(bytes) = self.downgrade_local(t, &mut st, page, me) else {
                continue;
            };
            let home = self.global.home_of(page);
            if home == me {
                continue; // guard; local pages are never cached
            }
            match batches.iter_mut().find(|(h, _)| *h == home) {
                Some((_, sizes)) => sizes.push(bytes),
                None => batches.push((home, vec![bytes])),
            }
        }
        if batches.is_empty() {
            return Ok(());
        }
        // (home, pages, bytes, the batch verb)
        let batches: Vec<(u16, u64, u64, Verb)> = batches
            .into_iter()
            .map(|(home, sizes)| {
                let (pages, bytes) = (sizes.len() as u64, sizes.iter().sum());
                (home, pages, bytes, Verb::WriteBatch { sizes })
            })
            .collect();
        // Issue every home's batch before polling any: drains to distinct
        // homes overlap on the fabric, so the fence pays the slowest home's
        // posting once instead of summing every home's. Homes still hit the
        // wire in first-victim order.
        let obs_issue = t.obs_now();
        let span = t.current_span();
        let base = t.now();
        let mut inflight = Vec::with_capacity(batches.len());
        for (home, _, _, verb) in &batches {
            self.check_alive(me, *home, VerbClass::DrainBatch, span)?;
            let mut seq = self
                .config
                .retry
                .attempt_seq(VerbClass::DrainBatch, *home as u64)
                .with_span(span);
            let a0 = seq.next().expect("retry budget is at least one attempt");
            let token = t.issue(NodeId(*home), verb, base + a0.delay);
            inflight.push((token, seq, a0));
        }
        let mut done = base;
        for ((home, pages, bytes, verb), issued) in batches.iter().zip(inflight) {
            let timing = self.poll_retried(
                t,
                me,
                *home,
                issued,
                obs_issue,
                VerbClass::DrainBatch,
                *bytes,
                |t, delay| t.issue(NodeId(*home), verb, base + delay),
            )?;
            done = done.max(timing.initiator_done);
            ns.pending_settle.fetch_max(timing.settled, Ordering::AcqRel);
            CoherenceStats::bump(&self.stats.shard(me).downgrade_batches);
            CoherenceStats::add(&self.stats.shard(me).downgrade_batch_pages, *pages);
            self.detail(t, me, obs::RecordKind::DowngradeBatch, *pages, *home as u32);
        }
        t.merge(done);
        self.profile.record(
            me as usize,
            obs::Site::IssueToPoll,
            t.obs_now().saturating_sub(obs_issue),
        );
        Ok(())
    }

    // ------------------------------------------------------------------
    // Phase control
    // ------------------------------------------------------------------

    /// End-of-initialization reset (paper §3.4): initialization writes do
    /// not count toward classification. Flushes all caches to home (data
    /// plane only — initialization is excluded from measurements), then
    /// nulls every reader/writer map, directory cache, and statistic.
    pub fn reset_for_parallel_section(&self) {
        for (n, ns) in self.nodes.iter().enumerate() {
            self.flush_prefetch(n as u16);
            for slot_idx in ns.cache.occupied_indices() {
                let mut st = ns.cache.lock_index(slot_idx);
                let Some(tag) = st.tag else { continue };
                let base = ns.cache.line_base(tag);
                for idx in 0..st.pages.len() {
                    if st.pages[idx].valid && st.pages[idx].dirty {
                        let page = PageNum(base.0 + idx as u64);
                        self.silently_write_through(&st, page, idx);
                    }
                    st.pages[idx].invalidate();
                }
                st.tag = None;
                st.ready_at = 0;
            }
            let _ = ns.wbuf.drain();
            ns.pending_settle.store(0, Ordering::Release);
        }
        self.coherence.reset_all();
        self.stats.reset();
        self.profile.reset();
        self.heat.reset();
        self.lock_obs.reset();
        self.lyra.reset();
    }

    /// Adaptive classification by decay — the extension the paper sketches
    /// in §3.2 ("straightforward to extend the classification to adaptive
    /// … using simple decay techniques"). A *collective* operation: the
    /// caller (one thread, with every other thread quiescent at a barrier)
    /// flushes and invalidates every node's cache and nulls all
    /// reader/writer maps, so pages re-classify according to the access
    /// pattern of the *next* phase. Unlike
    /// [`Self::reset_for_parallel_section`], all work is charged to the
    /// calling thread's clock and statistics are preserved.
    pub fn decay_classification(&self, t: &mut T::Endpoint) {
        Self::unrecoverable(self.try_decay_classification(t))
    }

    /// Fallible flavor of [`Self::decay_classification`].
    pub fn try_decay_classification(&self, t: &mut T::Endpoint) -> Result<(), DsmError> {
        let me = t.node().0;
        for (n, ns) in self.nodes.iter().enumerate() {
            self.flush_prefetch(n as u16);
            for slot_idx in ns.cache.occupied_indices() {
                let mut st = ns.cache.lock_index(slot_idx);
                let Some(tag) = st.tag else { continue };
                let base = ns.cache.line_base(tag);
                for idx in 0..st.pages.len() {
                    if !st.pages[idx].valid {
                        continue;
                    }
                    t.compute(FENCE_SCAN_CYCLES);
                    if st.pages[idx].dirty {
                        let page = PageNum(base.0 + idx as u64);
                        // Downgrade on behalf of the owning node; charge
                        // the decay initiator (it coordinates the epoch).
                        self.downgrade_as(t, &mut st, page, n as u16)?;
                        ns.wbuf.remove(page);
                    }
                    st.pages[idx].invalidate();
                    t.compute(PROTECT_CYCLES);
                    CoherenceStats::bump(&self.stats.shard(me).si_invalidated);
                }
                st.tag = None;
                st.ready_at = 0;
            }
            ns.pending_settle.store(0, Ordering::Release);
        }
        self.coherence.reset_all();
        CoherenceStats::bump(&self.stats.shard(me).decays);
        Ok(())
    }

    /// [`Self::downgrade_locked`] but writing back on behalf of node
    /// `owner` (used by the collective decay, where one thread flushes
    /// every node's cache).
    fn downgrade_as(
        &self,
        t: &mut T::Endpoint,
        st: &mut SlotGuard<'_>,
        page: PageNum,
        owner: u16,
    ) -> Result<(), DsmError> {
        let ns = &self.nodes[owner as usize];
        let idx = ns.cache.index_in_line(page);
        if !st.pages[idx].valid || !st.pages[idx].dirty {
            return Ok(());
        }
        let home = self.global.home_of(page);
        let home_page = self.global.home_page(page);
        let data = st.data(idx);
        let bytes = match &st.pages[idx].twin {
            Some(twin) => {
                t.compute(PAGE_COPY_CYCLES);
                let diff = data.diff_against_masked(twin, &st.pages[idx].mask);
                let diff_bytes = DOWNGRADE_HEADER_BYTES + diff.len() as u64 * DIFF_WORD_BYTES;
                if diff_bytes < PAGE_BYTES {
                    CoherenceStats::add(&self.stats.shard(owner).diff_words, diff.len() as u64);
                    home_page.apply_diff(&diff);
                    diff_bytes
                } else {
                    home_page.copy_from(data);
                    PAGE_BYTES
                }
            }
            None => {
                home_page.copy_from(data);
                PAGE_BYTES
            }
        };
        st.pages[idx].dirty = false;
        st.pages[idx].twin = None;
        st.pages[idx].mask.clear();
        if home != owner {
            let me = t.node().0;
            let timing = self.net_verb(
                t,
                me,
                home,
                VerbClass::Downgrade,
                page.0,
                t.now(),
                &Verb::Write { bytes },
            )?;
            t.merge(timing.settled);
            CoherenceStats::bump(&self.stats.shard(owner).writebacks);
            CoherenceStats::add(&self.stats.shard(owner).writeback_bytes, bytes);
        }
        Ok(())
    }

    /// Check the protocol's internal invariants; returns a list of
    /// violations (empty = healthy). Intended for tests and debugging at
    /// quiescent points (no concurrent accesses).
    ///
    /// Engine-owned checks:
    /// 1. Clean pages hold no twin or mask bits; dirty pages are valid.
    /// 2. When the policy buffers every dirty page, a quiescent node's
    ///    write buffer contains exactly its dirty page set.
    /// 3. Cached pages are never homed on the caching node.
    ///
    /// Policy-owned checks (registration consistency, `wts <= rts`, lease
    /// subsumption, …) are appended via [`Coherence::invariant_problems`].
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (n, ns) in self.nodes.iter().enumerate() {
            let me = n as u16;
            let mut dirty_pages = Vec::new();
            for slot_idx in ns.cache.occupied_indices() {
                let st = ns.cache.lock_index(slot_idx);
                let Some(tag) = st.tag else { continue };
                let base = ns.cache.line_base(tag);
                for idx in 0..st.pages.len() {
                    let page = PageNum(base.0 + idx as u64);
                    let cp = &st.pages[idx];
                    if cp.valid && self.global.home_of(page) == me {
                        problems.push(format!("n{n}: caches its own home page {}", page.0));
                    }
                    if cp.dirty {
                        if !cp.valid {
                            problems.push(format!("n{n}: dirty but invalid page {}", page.0));
                        }
                        dirty_pages.push(page);
                    } else if cp.twin.is_some() {
                        problems.push(format!("n{n}: clean page {} holds a twin", page.0));
                    } else if !cp.mask.is_empty() {
                        // A stale mask would make the next fault's lazy twin
                        // skip chunk snapshots it actually needs.
                        problems.push(format!("n{n}: clean page {} carries mask bits", page.0));
                    }
                }
            }
            if self.coherence.buffers_every_dirty_page() {
                let mut buffered = ns.wbuf.snapshot();
                buffered.sort_unstable();
                let mut dirty = dirty_pages.clone();
                dirty.sort_unstable();
                if buffered != dirty {
                    problems.push(format!(
                        "n{n}: write buffer {:?} != dirty set {:?}",
                        buffered.iter().map(|q| q.0).collect::<Vec<_>>(),
                        dirty.iter().map(|q| q.0).collect::<Vec<_>>()
                    ));
                }
            }
            problems.extend(self.coherence.invariant_problems(me, &dirty_pages));
        }
        problems
    }

    /// Data-plane read of the home copy, bypassing caches and charging no
    /// time. Used by PGAS mode (which has no caching by design) and by test
    /// assertions on final memory contents.
    pub fn peek_u64(&self, addr: GlobalAddr) -> u64 {
        self.global.home_page(addr.page()).load(addr.word_index())
    }

    /// Data-plane write of the home copy (see [`Self::peek_u64`]).
    pub fn poke_u64(&self, addr: GlobalAddr, value: u64) {
        self.global
            .home_page(addr.page())
            .store(addr.word_index(), value)
    }

    /// The policy's accessor view for `page` (census walks). Authoritative
    /// under SI/SD; diagnostic under timestamp policies.
    pub fn home_dir_view_of_page(&self, page: PageNum) -> DirView {
        self.coherence.census_view(page)
    }

    /// Which protocol currently governs `page` (census walks). Fixed for
    /// the pure policies; per-page under the Pyxis hybrid.
    pub fn page_mode_of(&self, page: PageNum) -> crate::coherence::PageMode {
        self.coherence.page_mode(page)
    }
}

/// SI/SD-specific directory inspection (tests and the protocol tour peek
/// at the full maps; timestamp policies have no equivalent).
impl<T: Transport> Dsm<T, CarinaSiSd> {
    /// The directory view a node currently holds for `addr`'s page
    /// (test/diagnostic aid).
    pub fn dir_view(&self, node: u16, addr: GlobalAddr) -> DirView {
        self.coherence.node_view(node, addr.page())
    }

    /// The authoritative home directory view for `addr`'s page.
    pub fn home_dir_view(&self, addr: GlobalAddr) -> DirView {
        self.coherence.home_view(addr.page())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma::NativeTransport;
    use simnet::ClusterTopology;

    /// The kill-mid-run race, interleaved by hand: an accessor on node 0
    /// decides "remote" for a page homed on node 1, a failover re-homes the
    /// page to node 0, and only then does the accessor reach `read_miss`.
    /// The miss must not leave the slot unfilled (it used to skip the now
    /// local page and the accessor then read a never-filled cache page): it
    /// reports a departed route, which `failover_retry` absorbs without
    /// declaring anything, and the re-run reads the home copy.
    #[test]
    fn read_miss_reroutes_a_page_rehomed_under_the_accessor() {
        let net = NativeTransport::new(ClusterTopology::tiny(2));
        let cfg = CarinaConfig { volans_failover: true, ..CarinaConfig::default() };
        let dsm = Dsm::<NativeTransport>::with_policy(net.clone(), 1 << 20, cfg);
        let mut t = NativeTransport::endpoint(&net, net.topology().loc(NodeId(0), 0));
        let addr = GlobalAddr(PAGE_BYTES); // pages interleave: page 1 is homed on node 1
        let page = addr.page();
        assert_eq!(dsm.home_of(addr), 1);
        dsm.global.home_page(page).store(addr.word_index(), 42);

        let err = {
            let mut st = dsm.nodes[0].cache.lock_slot(page);
            dsm.global.set_home(page, 0); // what `declare_dead(1, ..)` does first
            let err = dsm.read_miss(&mut t, &mut st, page, 0).unwrap_err();
            assert_eq!(st.tag, None, "the refused miss touched the slot");
            err
        };
        assert_eq!(err.last_error, VerbError::Departed);
        assert!(dsm.absorb_fault(&mut t, err), "a departed route is retried");
        assert_eq!(dsm.try_read_u64(&mut t, addr), Ok(42));
        let stats = dsm.stats().snapshot();
        assert_eq!((stats.failovers, stats.read_misses), (0, 0));
        assert!(dsm.check_invariants().is_empty());
    }
}
