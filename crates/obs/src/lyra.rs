//! Lyra: the always-on flight recorder, and the engine's only event path.
//!
//! Per-endpoint single-writer rings ([`Lane`]s) of fixed-size
//! [`VerbRecord`]s capturing the last N protocol operations — completed
//! sites, verb issues/polls, retries, injected fault fates, coherence mode
//! switches, lease expiries — each stamped with the [`SpanId`] of the
//! protocol site it served. The per-page *detail* kinds (classification
//! transitions, notifications, downgrades, SI keeps/invalidations,
//! checkpoints) ride the same lanes but only while
//! [`FlightRecorder::set_detail`] is on, so sweeps over thousands of pages
//! cannot flush the always-on window.
//!
//! Every transport owns one recorder and opens one lane per endpoint, and
//! a lane is the only way to write a record: exclusive ownership (the
//! `&mut` receiver) makes the hot path a plain head bump plus seqlock
//! stores — **zero read-modify-write instructions** — and the lane also
//! mints the spans and holds the one its endpoint is serving. Recording
//! allocates nothing. Loss is bounded and *counted*: every submitted
//! record is either resident in its lane or was evicted by a later lap —
//! `kept + dropped == submitted` holds at quiescence, and the proptests
//! pin it. Snapshots and the chrome-trace export merge a node's lanes into
//! one timeline ordered by record start time.
//!
//! The recorder is purely passive: it reads the observability clock the
//! caller hands it and writes side tables nobody on the protocol path ever
//! reads back, which is why the simulator's determinism probes stay
//! bit-identical with it recording.

use crate::json::escape;
use crate::profile::{ProfileSnapshot, Site, SiteTable};
use crate::span::SpanId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// `target` value meaning "no remote node involved".
pub const NO_TARGET: u32 = u32::MAX;
/// `site` value meaning "not attributed to a profile site".
pub const NO_SITE: u8 = 0xFF;
/// `class` value meaning "no verb class".
pub const NO_CLASS: u8 = 0xFF;
/// Records each endpoint's lane keeps: every transport's recorder is built
/// with this capacity.
pub const LANE_RECORDS: usize = 1024;

/// One table per `u8`-coded record enum: each variant with its stable code
/// and export name, generating the enum plus the `from_u8`/`name` pair the
/// ring codec and the exporters use. Unknown codes decode as code 0.
macro_rules! wire_enum {
    ($(#[$meta:meta])* $ty:ident {
        $(#[$doc0:meta])* $zero:ident = 0 => $name0:literal,
        $( $(#[$doc:meta])* $variant:ident = $code:literal => $name:literal, )*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $ty {
            $(#[$doc0])* $zero = 0,
            $( $(#[$doc])* $variant = $code, )*
        }

        impl $ty {
            pub fn from_u8(v: u8) -> $ty {
                match v {
                    $( $code => $ty::$variant, )*
                    _ => $ty::$zero,
                }
            }

            pub fn name(self) -> &'static str {
                match self {
                    $ty::$zero => $name0,
                    $( $ty::$variant => $name, )*
                }
            }
        }
    };
}

wire_enum! {
    /// What a [`VerbRecord`] describes. Stable `u8` encoding — new kinds
    /// append only.
    RecordKind {
        /// A completed protocol site (read-miss, fence, lock acquire...):
        /// `site` names it, `dur` is its full latency, `arg` the page for
        /// the per-page sites.
        Site = 0 => "site",
        /// A verb posted to the fabric: `target` is the home, `arg` the bytes.
        VerbIssue = 1 => "verb_issue",
        /// A verb completion observed at poll/wait: `dur` is issue→poll.
        VerbPoll = 2 => "verb_poll",
        /// A reissue after a failed attempt: `attempt` is the new attempt
        /// index, `fate` the error that triggered it, `arg` the backoff paid.
        VerbRetry = 3 => "verb_retry",
        /// A retry budget ran dry: `attempt` is the attempt count, `fate`
        /// the final error.
        VerbExhausted = 4 => "verb_exhausted",
        /// Puppis decided a fate for an issued verb: `fate` says which.
        FaultInjected = 5 => "fault_injected",
        /// Pyxis moved pages between lease and SI/SD modes at a fence
        /// boundary: `arg` is how many switched, `site` the fence site.
        ModeSwitch = 6 => "mode_switch",
        /// Tardis/Pyxis lease expiries noticed at an SI fence: `arg` is the
        /// count.
        LeaseExpiry = 7 => "lease_expiry",
        // 8 and 9 are retired (membership epoch bumps and re-homing) and
        // never reused.
        // The per-page *detail* kinds: instants under the current span,
        // written only while [`FlightRecorder::set_detail`] is on.
        /// A dirty page was written back: `arg` is the page, `target` its home.
        Downgrade = 10 => "downgrade",
        // 11 is retired (a home-coalesced fence drain) and never reused.
        /// An SI fence invalidated page `arg`.
        SiInvalidate = 12 => "si_invalidate",
        /// An SI fence kept page `arg`.
        SiKeep = 13 => "si_keep",
        /// The recording node joined private page `arg`: `target` is the
        /// owner it was private to.
        PToS = 14 => "p_to_s",
        /// The recording node became page `arg`'s first writer.
        NwToSw = 15 => "nw_to_sw",
        /// The recording node became page `arg`'s second writer: `target`
        /// is the previous single writer.
        SwToMw = 16 => "sw_to_mw",
        /// A directory-cache notification about page `arg` posted to `target`.
        Notify = 17 => "notify",
        /// A sync-point checkpoint of private page `arg` (naïve P/S only).
        Checkpoint = 18 => "checkpoint",
    }
}

wire_enum! {
    /// How a verb (or attempt) ended up. Mirrors `rma::VerbError`'s
    /// vocabulary plus the injector's duplicate/spike outcomes, without
    /// depending on `rma` (the dependency points the other way).
    Fate {
        Ok = 0 => "ok",
        Timeout = 1 => "timeout",
        NicStall = 2 => "nic_stall",
        Dropped = 3 => "dropped",
        Cancelled = 4 => "cancelled",
        Duplicate = 5 => "duplicate",
        Spike = 6 => "spike",
        Exhausted = 7 => "exhausted",
    }
}

impl Fate {
    /// Map `rma::VerbError::name()` strings (the rma crate calls this so
    /// the two vocabularies can never skew silently).
    pub fn from_error_name(name: &str) -> Fate {
        match name {
            "timeout" => Fate::Timeout,
            "nic_stall" => Fate::NicStall,
            "dropped" => Fate::Dropped,
            "cancelled" => Fate::Cancelled,
            _ => Fate::Ok,
        }
    }
}

/// One fixed-size flight-recorder entry: 48 bytes, `Copy`, no pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerbRecord {
    /// The protocol operation this record belongs to ([`SpanId::NONE`] if
    /// unattributed).
    pub span: SpanId,
    /// Observability-clock timestamp (virtual cycles on the simulator,
    /// wall nanoseconds on the native backend).
    pub start: u64,
    /// Duration in the same units; 0 for instantaneous events.
    pub dur: u64,
    /// Kind-specific payload: bytes, backoff cycles, switch counts, page.
    pub arg: u64,
    /// Remote node involved, or [`NO_TARGET`].
    pub target: u32,
    /// The recording node.
    pub node: u16,
    /// Attempt index within the span's retry sequence (0 = first try).
    pub attempt: u16,
    pub kind: RecordKind,
    /// [`Site`] index, or [`NO_SITE`].
    pub site: u8,
    pub fate: Fate,
    /// `rma::VerbClass` index, or [`NO_CLASS`].
    pub class: u8,
}

impl VerbRecord {
    /// A blank record callers fill in with struct-update syntax.
    pub fn blank() -> VerbRecord {
        VerbRecord {
            span: SpanId::NONE,
            start: 0,
            dur: 0,
            arg: 0,
            target: NO_TARGET,
            node: 0,
            attempt: 0,
            kind: RecordKind::Site,
            site: NO_SITE,
            fate: Fate::Ok,
            class: NO_CLASS,
        }
    }

    pub const WORDS: usize = 6;

    #[inline]
    fn encode(&self) -> [u64; Self::WORDS] {
        [
            self.span.0,
            self.start,
            self.dur,
            self.arg,
            (self.target as u64)
                | ((self.node as u64) << 32)
                | ((self.attempt as u64) << 48),
            (self.kind as u64)
                | ((self.site as u64) << 8)
                | ((self.fate as u64) << 16)
                | ((self.class as u64) << 24),
        ]
    }

    #[inline]
    fn decode(w: [u64; Self::WORDS]) -> VerbRecord {
        VerbRecord {
            span: SpanId(w[0]),
            start: w[1],
            dur: w[2],
            arg: w[3],
            target: w[4] as u32,
            node: (w[4] >> 32) as u16,
            attempt: (w[4] >> 48) as u16,
            kind: RecordKind::from_u8(w[5] as u8),
            site: (w[5] >> 8) as u8,
            fate: Fate::from_u8((w[5] >> 16) as u8),
            class: (w[5] >> 24) as u8,
        }
    }

    /// The profile site this record is attributed to, if any.
    pub fn site_enum(&self) -> Option<Site> {
        Site::ALL.get(self.site as usize).copied()
    }

    /// Export name: the site's for `Site` records, the kind's otherwise.
    pub fn label(&self) -> &'static str {
        match (self.kind, self.site_enum()) {
            (RecordKind::Site, Some(site)) => site.name(),
            (kind, _) => kind.name(),
        }
    }
}

/// One line per record, as the protocol tour prints them.
impl std::fmt::Display for VerbRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{:<10} n{} {:<15} arg={}", self.start, self.node, self.label(), self.arg)?;
        if self.target != NO_TARGET {
            write!(f, " ->n{}", self.target)?;
        }
        if self.dur > 0 {
            write!(f, " dur={}", self.dur)?;
        }
        Ok(())
    }
}

/// One ring slot: a seqlock over the six payload words. The sequence
/// encodes the owning ticket — `2t+1` while ticket `t` is mid-record,
/// `2t+2` once published, `0` never written — so readers can both detect
/// tears and recover the push order.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; VerbRecord::WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One lane's ring and time table. It has a **single writer** (the owning
/// [`Lane`]), so the whole `push` is plain stores, with no
/// read-modify-write. Tickets are encoded in the slot seqs so snapshots
/// recover push order, and `span_next` lives here (not on the handle) so
/// span ids stay unique when a recycled ring gets a new owner.
struct LaneRing {
    node: u32,
    /// Per-node registration index; tags the span ids this lane mints.
    id: u32,
    /// Next ticket. Written only by the owner (plain load + store), read
    /// by snapshotters for the submitted count.
    head: AtomicU64,
    mask: usize,
    slots: Box<[Slot]>,
    /// Next span sequence (1-based). Owner-only writes, like `head`.
    span_next: AtomicU64,
    /// The owner's time by site; kept whether or not recording is on.
    table: SiteTable,
}

impl LaneRing {
    fn new(node: u32, id: u32, capacity: usize) -> LaneRing {
        LaneRing {
            node,
            id,
            head: AtomicU64::new(0),
            mask: capacity - 1,
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            span_next: AtomicU64::new(1),
            table: SiteTable::default(),
        }
    }

    #[inline]
    fn push(&self, rec: &VerbRecord) {
        let ticket = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & self.mask];
        // Seqlock writer: mark the slot mid-write, store the payload,
        // publish. The release fence orders the odd marker before the
        // payload stores so a racing snapshot can never accept a slot it
        // saw us half-overwrite; the release store orders the payload
        // before publication.
        slot.seq.store(2 * ticket + 1, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(rec.encode()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * ticket + 2, Ordering::Release);
        self.head.store(ticket + 1, Ordering::Relaxed);
    }

    fn submitted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records evicted by ring laps. With a single writer nothing is ever
    /// abandoned mid-record, so eviction is the only loss.
    fn dropped(&self) -> u64 {
        self.submitted().saturating_sub(self.slots.len() as u64)
    }

    fn kept(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| {
                let v = s.seq.load(Ordering::Acquire);
                v != 0 && v % 2 == 0
            })
            .count() as u64
    }

    /// Seqlock-validated read of every published slot, with its ticket.
    /// A slot mid-write is skipped: it is counted once its writer lands.
    fn snapshot(&self) -> Vec<(u64, VerbRecord)> {
        let mut out: Vec<(u64, VerbRecord)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 != 0 {
                continue;
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue; // torn: the writer lapped us mid-read
            }
            out.push(((s1 - 2) / 2, VerbRecord::decode(words)));
        }
        out
    }

    fn reset(&self) {
        // Not concurrency-safe against a writing owner; callers reset only
        // between parallel sections, like the rest of the stats.
        self.head.store(0, Ordering::Relaxed);
        self.span_next.store(1, Ordering::Relaxed);
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
        }
        self.table.reset();
    }
}

/// A node's registered lanes plus the free list recycling feeds.
#[derive(Default)]
struct LaneSet {
    all: Vec<Arc<LaneRing>>,
    free: Vec<Arc<LaneRing>>,
}

impl std::fmt::Debug for LaneSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneSet")
            .field("lanes", &self.all.len())
            .field("free", &self.free.len())
            .finish()
    }
}

/// An exclusive single-writer recording handle onto one node's timeline,
/// and the only way to write a record.
///
/// Every endpoint owns one lane (the `&mut` receivers enforce the single
/// writer), so [`Lane::record`] is a handful of plain stores, minting a
/// span a plain increment, and the span of the operation the endpoint is
/// serving ([`Lane::set_span`]) lives here too. Snapshots and exports merge
/// a node's lanes into one timeline.
///
/// The lane also times its owner: [`Lane::open`] and [`Lane::close`]
/// bracket each protocol [`Site`], and every interval of the owner's clock
/// between two of those calls is charged to the innermost open site or to
/// `outside` (see [`crate::profile`]).
///
/// **Cloning registers a sibling lane** (two owners may never share one)
/// that starts under the same span; dropping returns the ring to the
/// node's free list so short-lived endpoints don't grow memory without
/// bound — a recycled ring keeps its records (it is the same node's
/// history) and its span counter (ids stay unique across owners).
pub struct Lane {
    fr: Arc<FlightRecorder>,
    ring: Arc<LaneRing>,
    span: SpanId,
    /// The site whose scope is innermost open, if any.
    open: Option<Site>,
    /// The clock reading the table is charged up to.
    mark: u64,
}

/// A site scope open on a [`Lane`]: what it times, and the site and span
/// it interrupted, which [`Lane::close`] reopens.
#[must_use = "a scope is closed with Lane::close"]
#[derive(Debug)]
pub struct Scope {
    /// The span minted for the scope and attached while it is open.
    pub span: SpanId,
    site: Site,
    /// The clock reading it opened at.
    start: u64,
    outer: (Option<Site>, SpanId),
}

impl Lane {
    /// The node this lane records for.
    #[inline]
    pub fn node(&self) -> usize {
        self.ring.node as usize
    }

    /// Mint a span id for an operation starting on this lane's endpoint:
    /// the node, this lane's registration index and its next sequence
    /// (see [`SpanId`]).
    #[inline]
    pub fn mint(&mut self) -> SpanId {
        let seq = self.ring.span_next.load(Ordering::Relaxed);
        self.ring.span_next.store(seq + 1, Ordering::Relaxed);
        let lane = (self.ring.id as u64 & 0xFFFF) << 32;
        SpanId::pack(self.node(), lane | (seq & 0xFFFF_FFFF))
    }

    /// Attach the span of the operation now issuing through this lane's
    /// endpoint ([`SpanId::NONE`] detaches).
    #[inline]
    pub fn set_span(&mut self, span: SpanId) {
        self.span = span;
    }

    /// The span last attached via [`Lane::set_span`].
    #[inline]
    pub fn span(&self) -> SpanId {
        self.span
    }

    /// Record one entry.
    #[inline]
    pub fn record(&mut self, make: impl FnOnce() -> VerbRecord) {
        self.ring.push(&make());
    }

    /// Charge the clock up to `now` to the innermost open site, or to
    /// `outside`.
    #[inline]
    fn charge(&mut self, now: u64) {
        debug_assert!(now >= self.mark, "a lane's clock ran backwards");
        self.ring.table.charge(self.open, now.saturating_sub(self.mark));
        self.mark = self.mark.max(now);
    }

    /// Open a scope of `site` at clock reading `now`: the time since the
    /// last charge goes to the scope that was open (or `outside`), and a
    /// freshly minted span is attached until the scope closes.
    #[inline]
    pub fn open(&mut self, site: Site, now: u64) -> Scope {
        self.charge(now);
        let outer = (self.open.replace(site), self.span);
        self.span = self.mint();
        Scope { site, span: self.span, start: now, outer }
    }

    /// Close `scope`, the innermost open one, at `now`: its last interval
    /// goes to its exclusive cycles, the site and span it interrupted are
    /// reopened, and — if it `completed` — its inclusive latency lands in
    /// the site's histogram.
    #[inline]
    pub fn close(&mut self, scope: Scope, now: u64, completed: bool) {
        debug_assert_eq!(self.open, Some(scope.site), "scopes close innermost first");
        self.charge(now);
        (self.open, self.span) = scope.outer;
        if completed {
            self.ring.table.record(scope.site, now.saturating_sub(scope.start));
        }
    }

    /// Zero this lane's table and start charging it at `now`, with no
    /// site open.
    pub fn restart(&mut self, now: u64) {
        self.ring.table.reset();
        (self.open, self.mark) = (None, now);
    }

    /// This lane's table, charged up to `now`. Since the last
    /// [`Lane::restart`] at `t0`, its [`ProfileSnapshot::total_cycles`] is
    /// `now - t0`.
    pub fn table(&mut self, now: u64) -> ProfileSnapshot {
        self.charge(now);
        let mut snap = ProfileSnapshot::default();
        self.ring.table.merge_into(&mut snap);
        snap
    }
}

impl Clone for Lane {
    /// A lane has exactly one writer, so a clone is a *sibling* lane on
    /// the same node (fresh or recycled), never a second handle to this
    /// ring.
    fn clone(&self) -> Lane {
        let mut lane = FlightRecorder::lane(&self.fr, self.node());
        lane.span = self.span;
        lane
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        let mut set = lock(&self.fr.lanes[self.node()]);
        set.free.push(self.ring.clone());
    }
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("node", &self.ring.node)
            .field("id", &self.ring.id)
            .field("submitted", &self.ring.submitted())
            .field("span", &self.span)
            .finish()
    }
}

/// Lock, recovering a poisoned mutex (observability must not cascade a
/// panic from another thread).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Counters a report surfaces so silent event loss is visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecorderStats {
    pub nodes: usize,
    pub capacity_per_lane: usize,
    /// Records submitted across all lanes (ring writes).
    pub submitted: u64,
    /// Records currently resident across all lanes.
    pub kept: u64,
    /// Records lost: evicted by a later lap of their lane. At quiescence
    /// `kept + dropped == submitted`.
    pub dropped: u64,
}

/// The per-node flight recorder. See the module docs for the contract.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Per-node single-writer lane rings (see [`Lane`]); registration and
    /// snapshots take the mutex, recording never does.
    lanes: Box<[Mutex<LaneSet>]>,
    /// Records per lane ring (a power of two).
    capacity: usize,
    /// Whether the per-page detail kinds are recorded (off by default).
    detail: AtomicBool,
}

impl FlightRecorder {
    /// `capacity` is per lane, rounded up to a power of two (min 8).
    pub fn new(nodes: usize, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            lanes: (0..nodes.max(1)).map(|_| Mutex::new(LaneSet::default())).collect(),
            capacity: capacity.next_power_of_two().max(8),
            detail: AtomicBool::new(false),
        }
    }

    pub fn nodes(&self) -> usize {
        self.lanes.len()
    }

    /// Register (or recycle) a single-writer [`Lane`] for `node` (clamped
    /// to the last node). Cold path: endpoints call this once at
    /// construction, never per record. Associated fn because `&Arc<Self>`
    /// is not a stable receiver.
    pub fn lane(fr: &Arc<FlightRecorder>, node: usize) -> Lane {
        let node = node.min(fr.nodes() - 1);
        let mut set = lock(&fr.lanes[node]);
        let ring = set.free.pop().unwrap_or_else(|| {
            let ring = Arc::new(LaneRing::new(node as u32, set.all.len() as u32, fr.capacity));
            set.all.push(ring.clone());
            ring
        });
        drop(set);
        Lane { fr: fr.clone(), ring, span: SpanId::NONE, open: None, mark: 0 }
    }

    /// Also record the per-page detail kinds ([`RecordKind::Downgrade`]
    /// through [`RecordKind::Checkpoint`]). Off by default so a 3000-page
    /// SI sweep does not flood the always-on lanes; safe at any time.
    pub fn set_detail(&self, on: bool) {
        self.detail.store(on, Ordering::Relaxed);
    }

    /// Should detail kinds be recorded? One relaxed load while off.
    #[inline]
    pub fn detail(&self) -> bool {
        self.detail.load(Ordering::Relaxed)
    }

    /// One node's resident records across all its lanes, merged into a
    /// single timeline: ordered by record start time, ties broken by lane
    /// (registration order) and push order within a lane.
    pub fn snapshot(&self, node: usize) -> Vec<VerbRecord> {
        let Some(lanes) = self.lanes.get(node) else {
            return Vec::new();
        };
        let mut keyed: Vec<((u64, u32, u64), VerbRecord)> = Vec::new();
        for ring in lock(lanes).all.iter() {
            keyed.extend(
                ring.snapshot().into_iter().map(|(ticket, rec)| ((rec.start, ring.id, ticket), rec)),
            );
        }
        keyed.sort_by_key(|&(key, _)| key);
        keyed.into_iter().map(|(_, r)| r).collect()
    }

    pub fn stats(&self) -> RecorderStats {
        let (mut submitted, mut kept, mut dropped) = (0, 0, 0);
        for lanes in self.lanes.iter() {
            for ring in lock(lanes).all.iter() {
                submitted += ring.submitted();
                kept += ring.kept();
                dropped += ring.dropped();
            }
        }
        RecorderStats {
            nodes: self.nodes(),
            capacity_per_lane: self.capacity,
            submitted,
            kept,
            dropped,
        }
    }

    /// Every lane's time table merged — registered lanes, recycled or
    /// not — each charged up to its owner's last scope boundary.
    pub fn profile(&self) -> ProfileSnapshot {
        let mut snap = ProfileSnapshot::default();
        for lanes in self.lanes.iter() {
            for ring in lock(lanes).all.iter() {
                ring.table.merge_into(&mut snap);
            }
        }
        snap
    }

    /// Clear every lane, time table and span mint (between parallel
    /// sections, alongside the other stats resets).
    pub fn reset(&self) {
        for lanes in self.lanes.iter() {
            for ring in lock(lanes).all.iter() {
                ring.reset();
            }
        }
    }

    /// Chrome-trace (Perfetto) export of every node's ring, with flow
    /// arrows linking all records of a span — parent site → issue →
    /// retries → poll — and requester→home arrival marks on the target
    /// node's track. Timestamps are the observability clock, unscaled;
    /// `otherData` carries the submitted/kept/dropped counters, so a
    /// truncated window never masquerades as a complete one.
    pub fn to_chrome_trace(&self) -> String {
        // (tid, ts, order, json) — sorted so output is deterministic and
        // each flow chain appears in ts order.
        let mut events: Vec<(u64, u64, u64, String)> = Vec::new();
        let mut order: u64 = 0;
        for node in 0..self.nodes() {
            events.push((
                node as u64,
                0,
                order,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{node},\
                     \"args\":{{\"name\":\"lyra node {node}\"}}}}"
                ),
            ));
            order += 1;
        }

        // Collect records per span for flow chains while emitting slices.
        // chain: span -> Vec<(ts, tid, order_of_slice)>
        let mut chains: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
            std::collections::BTreeMap::new();
        for node in 0..self.nodes() {
            for rec in self.snapshot(node) {
                let tid = node as u64;
                let name = rec.label();
                let args = format!(
                    "\"span\":\"{:#x}\",\"attempt\":{},\"fate\":\"{}\",\"target\":{},\"arg\":{}",
                    rec.span.0,
                    rec.attempt,
                    rec.fate.name(),
                    if rec.target == NO_TARGET { -1i64 } else { rec.target as i64 },
                    rec.arg,
                );
                // Sites are always slices (a fence with nothing to do is a
                // zero-length one); everything else only when it took time.
                let body = if rec.kind == RecordKind::Site || rec.dur > 0 {
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\
                         \"dur\":{},\"args\":{{{args}}}}}",
                        escape(name),
                        rec.start,
                        rec.dur,
                    )
                } else {
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\
                         \"ts\":{},\"args\":{{{args}}}}}",
                        escape(name),
                        rec.start,
                    )
                };
                events.push((tid, rec.start, order, body));
                order += 1;
                if !rec.span.is_none() {
                    chains.entry(rec.span.0).or_default().push((rec.start, tid));
                    // Cross-node hop: mark the verb's arrival on the home
                    // node's track and chain it, so requester→home draws
                    // as an arrow between the two tracks.
                    if rec.kind == RecordKind::VerbIssue && rec.target != NO_TARGET {
                        let home = rec.target as u64;
                        let at = rec.start + rec.dur;
                        events.push((
                            home,
                            at,
                            order,
                            format!(
                                "{{\"name\":\"arrive {}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
                                 \"tid\":{home},\"ts\":{at},\"args\":{{\"span\":\"{:#x}\"}}}}",
                                escape(name),
                                rec.span.0,
                            ),
                        ));
                        order += 1;
                        chains.entry(rec.span.0).or_default().push((at, home));
                    }
                }
            }
        }

        // Flow arrows: one chain per span that produced 2+ records.
        for (span, mut hops) in chains {
            if hops.len() < 2 {
                continue;
            }
            hops.sort();
            let last = hops.len() - 1;
            for (i, (ts, tid)) in hops.into_iter().enumerate() {
                let ph = if i == 0 {
                    "s"
                } else if i == last {
                    "f"
                } else {
                    "t"
                };
                let bp = if ph == "s" { "" } else { ",\"bp\":\"e\"" };
                events.push((
                    tid,
                    ts,
                    order,
                    format!(
                        "{{\"name\":\"span\",\"cat\":\"lyra\",\"ph\":\"{ph}\",\"id\":\"{span:#x}\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{ts}{bp}}}"
                    ),
                ));
                order += 1;
            }
        }

        events.sort_by_key(|&(tid, ts, ord, _)| (tid, ts, ord));
        let stats = self.stats();
        let mut out = String::with_capacity(events.len() * 96 + 256);
        out.push_str(&format!(
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"submitted\":{},\"kept\":{},\
             \"dropped\":{},\"capacity_per_lane\":{}}},\"traceEvents\":[",
            stats.submitted, stats.kept, stats.dropped, stats.capacity_per_lane,
        ));
        for (i, (_, _, _, body)) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(body);
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(span: SpanId, start: u64, kind: RecordKind) -> VerbRecord {
        VerbRecord { span, start, kind, node: 0, ..VerbRecord::blank() }
    }

    /// A recorder of `nodes` nodes with `capacity`-record lanes, and a lane
    /// on `node`.
    fn lane_on(nodes: usize, capacity: usize, node: usize) -> (Arc<FlightRecorder>, Lane) {
        let fr = Arc::new(FlightRecorder::new(nodes, capacity));
        let lane = FlightRecorder::lane(&fr, node);
        (fr, lane)
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = VerbRecord {
            span: SpanId::pack(3, 77),
            start: 123_456,
            dur: 42,
            arg: 4096,
            target: 2,
            node: 3,
            attempt: 5,
            kind: RecordKind::VerbRetry,
            site: Site::ReadMiss.index() as u8,
            fate: Fate::Timeout,
            class: 4,
        };
        assert_eq!(VerbRecord::decode(r.encode()), r);
    }

    #[test]
    fn reset_clears_everything() {
        let (fr, mut lane) = lane_on(1, 8, 0);
        let span = lane.mint();
        lane.record(|| rec(span, 1, RecordKind::Site));
        fr.reset();
        let st = fr.stats();
        assert_eq!((st.submitted, st.kept, st.dropped), (0, 0, 0));
        assert!(fr.snapshot(0).is_empty());
        assert_eq!(lane.mint().seq(), 1);
    }

    #[test]
    fn lane_records_merge_into_the_node_timeline() {
        let (fr, mut lane) = lane_on(2, 8, 1);
        let mut sibling = lane.clone();
        let span = lane.mint();
        assert!(!span.is_none());
        assert_eq!(span.node(), 1);
        // Interleave two lanes' records; the snapshot must merge them by
        // start time.
        lane.record(|| rec(span, 10, RecordKind::VerbIssue));
        let other = sibling.mint();
        sibling.record(|| rec(other, 20, RecordKind::FaultInjected));
        lane.record(|| rec(span, 30, RecordKind::VerbPoll));
        let snap = fr.snapshot(1);
        let starts: Vec<u64> = snap.iter().map(|r| r.start).collect();
        assert_eq!(starts, vec![10, 20, 30]);
        let st = fr.stats();
        assert_eq!(st.submitted, 3);
        assert_eq!(st.kept, 3);
        assert_eq!(st.dropped, 0);
    }

    #[test]
    fn lane_eviction_is_counted_loss() {
        let (fr, mut lane) = lane_on(1, 8, 0);
        for i in 0..20u64 {
            lane.record(|| rec(SpanId::pack(0, i + 1), i, RecordKind::Site));
        }
        let snap = fr.snapshot(0);
        let starts: Vec<u64> = snap.iter().map(|r| r.start).collect();
        assert_eq!(starts, (12..20).collect::<Vec<_>>());
        let st = fr.stats();
        assert_eq!(st.submitted, 20);
        assert_eq!(st.kept, 8);
        assert_eq!(st.dropped, 12);
    }

    #[test]
    fn lane_spans_are_unique_across_siblings() {
        let (_fr, mut a) = lane_on(1, 8, 0);
        let mut b = a.clone(); // sibling lane, not a second writer
        let mut c = b.clone();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            assert!(seen.insert(a.mint()));
            assert!(seen.insert(b.mint()));
            assert!(seen.insert(c.mint()));
        }
        assert_eq!(seen.len(), 30);
    }

    #[test]
    fn a_lane_holds_its_span_and_a_sibling_starts_under_it() {
        let (_fr, mut lane) = lane_on(1, 8, 0);
        assert!(lane.span().is_none());
        let span = lane.mint();
        lane.set_span(span);
        assert_eq!(lane.span(), span);
        let mut sibling = lane.clone();
        assert_eq!(sibling.span(), span);
        sibling.set_span(SpanId::NONE);
        assert_eq!(lane.span(), span, "siblings hold their spans apart");
    }

    #[test]
    fn dropped_lane_rings_are_recycled_with_their_history() {
        let (fr, mut lane) = lane_on(1, 8, 0);
        lane.record(|| rec(SpanId::pack(0, 1), 1, RecordKind::Site));
        let first_span = lane.mint();
        drop(lane);
        // The recycled ring keeps its records and continues its span
        // sequence: no double-counting, no duplicate ids.
        let mut again = FlightRecorder::lane(&fr, 0);
        assert_ne!(again.mint(), first_span);
        again.record(|| rec(SpanId::pack(0, 2), 2, RecordKind::Site));
        assert_eq!(fr.stats().submitted, 2);
        assert_eq!(fr.snapshot(0).len(), 2);
    }

    #[test]
    fn chrome_trace_links_a_span_with_flow_arrows() {
        let (fr, mut lane) = lane_on(2, 16, 0);
        let span = lane.mint();
        lane.record(|| VerbRecord {
            span,
            start: 100,
            dur: 50,
            target: 1,
            kind: RecordKind::VerbIssue,
            class: 0,
            ..VerbRecord::blank()
        });
        lane.record(|| VerbRecord {
            span,
            start: 160,
            attempt: 1,
            fate: Fate::Dropped,
            kind: RecordKind::VerbRetry,
            ..VerbRecord::blank()
        });
        lane.record(|| VerbRecord {
            span,
            start: 400,
            dur: 300,
            site: Site::ReadMiss.index() as u8,
            kind: RecordKind::Site,
            ..VerbRecord::blank()
        });
        let trace = fr.to_chrome_trace();
        // Parses with the in-tree JSON parser.
        let v = crate::json::JsonValue::parse(&trace).expect("valid JSON");
        let evs = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let phases: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert!(phases.contains(&"s"), "flow start missing: {phases:?}");
        assert!(phases.contains(&"f"), "flow finish missing: {phases:?}");
        // The cross-node arrival instant landed on the home's track.
        assert!(trace.contains("arrive verb_issue"));
        // Flow id is the span id.
        assert!(trace.contains(&format!("\"id\":\"{:#x}\"", span.0)));
    }
}
