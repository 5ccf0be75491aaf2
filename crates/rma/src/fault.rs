//! Deterministic fault injection: [`FaultPlan`] + [`FaultyTransport`].
//!
//! [`FaultyTransport`] wraps any [`Transport`] and perturbs the *verb*
//! layer only: it drops verbs, times them out, duplicates deliveries, adds
//! latency spikes, and browns out whole NICs — without ever touching the
//! data plane. That is exactly the failure surface of a real one-sided
//! fabric: payload bytes are moved by (idempotent) protocol actions after a
//! verb succeeds, so a dropped or duplicated verb can change *when* things
//! happen and *what the accounting says*, never *what memory holds* — which
//! is what `tests/chaos.rs` proves end-to-end.
//!
//! There is one fault path: a verb's fate is decided — and counted, and
//! flight-recorded against the issuing span — in [`Endpoint::issue`], and
//! applied when the token is polled. The blocking verbs are the trait's
//! issue + wait + merge wrappers, so they fault on the same schedule by
//! construction.
//!
//! The schedule is a pure function of the plan's seed, the verb kind, a
//! per-kind issue counter, and the target node. No wall clock, no global
//! RNG: replaying the same verb sequence against the same plan reproduces
//! the same faults, on any backend. Brownouts are the one exception — they
//! are windows in *virtual time* (`at` stamps), meaningful on the simulator
//! and degenerate (always `at == 0`) on native, where only the
//! `[0, u64::MAX)` blackout window is useful.

use crate::retry::splitmix64;
use crate::transport::{Completion, Endpoint, Transport, Verb, VerbError, VerbToken};
use obs::lyra::{Fate, FlightRecorder, RecordKind, VerbRecord};
use simnet::{
    Abort, ClusterTopology, CostModel, NetStats, NodeId, PerNodeSnapshot, ThreadLoc, TokenSlab,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A window of virtual time during which one node's NIC answers nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brownout {
    pub node: NodeId,
    /// First virtual instant of the outage (inclusive).
    pub from: u64,
    /// End of the outage (exclusive). `u64::MAX` makes it a blackout that
    /// never clears — the canonical way to exhaust retry budgets.
    pub until: u64,
}

/// A seeded, reproducible schedule of fabric misbehavior.
///
/// Rates are per-million per verb issue and independent: a verb is first
/// checked against the brownout windows, then may be dropped, timed out,
/// duplicated, or spiked (in that precedence order; at most one applies).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability (ppm) that a verb's payload is lost ([`VerbError::Dropped`]).
    pub drop_per_million: u32,
    /// Probability (ppm) that a verb completes no one knows when
    /// ([`VerbError::Timeout`]).
    pub timeout_per_million: u32,
    /// Probability (ppm) that a verb is delivered twice (the fabric retried
    /// under the initiator; both deliveries are accounted).
    pub duplicate_per_million: u32,
    /// Probability (ppm) that a verb completes late by [`Self::spike_cycles`].
    pub spike_per_million: u32,
    /// Extra latency charged by a spike.
    pub spike_cycles: u64,
    /// NIC outage windows; verbs targeting the node inside a window fail
    /// with [`VerbError::NicStall`].
    pub brownouts: Vec<Brownout>,
}

impl FaultPlan {
    /// No faults at all: the wrapper becomes a single predicted branch per
    /// verb.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this plan can never inject anything.
    pub fn is_disabled(&self) -> bool {
        self.drop_per_million == 0
            && self.timeout_per_million == 0
            && self.duplicate_per_million == 0
            && self.spike_per_million == 0
            && self.brownouts.is_empty()
    }

    /// A moderately hostile mixed plan: ~2% drops, ~1% timeouts, ~2%
    /// duplicates, ~2% spikes of 20k cycles. Well inside the default
    /// [`crate::RetryPolicy`] budget.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_million: 20_000,
            timeout_per_million: 10_000,
            duplicate_per_million: 20_000,
            spike_per_million: 20_000,
            spike_cycles: 20_000,
            ..Self::default()
        }
    }

    /// A permanent outage of `node`: every verb targeting it stalls, so any
    /// retry budget eventually exhausts. The clean-degradation test plan.
    pub fn blackout(node: NodeId) -> Self {
        FaultPlan {
            brownouts: vec![Brownout {
                node,
                from: 0,
                until: u64::MAX,
            }],
            ..Self::default()
        }
    }

    /// A bounded outage of `node`: verbs targeting it stall inside the
    /// virtual-time window `[from, until)` and succeed again afterwards.
    /// The brownout-recovery counterpart of [`Self::blackout`]: verbs to a
    /// node that comes back before the retry budget exhausts succeed.
    pub fn outage(node: NodeId, from: u64, until: u64) -> Self {
        FaultPlan {
            brownouts: vec![Brownout { node, from, until }],
            ..Self::default()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_drops(mut self, per_million: u32) -> Self {
        self.drop_per_million = per_million;
        self
    }

    pub fn with_timeouts(mut self, per_million: u32) -> Self {
        self.timeout_per_million = per_million;
        self
    }

    pub fn with_duplicates(mut self, per_million: u32) -> Self {
        self.duplicate_per_million = per_million;
        self
    }

    pub fn with_spikes(mut self, per_million: u32, cycles: u64) -> Self {
        self.spike_per_million = per_million;
        self.spike_cycles = cycles;
        self
    }

    pub fn with_brownout(mut self, node: NodeId, from: u64, until: u64) -> Self {
        self.brownouts.push(Brownout { node, from, until });
        self
    }
}

/// Counts of injected faults, for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    pub dropped: u64,
    pub timed_out: u64,
    pub duplicated: u64,
    pub spiked: u64,
    pub stalled: u64,
}

impl FaultSnapshot {
    /// Total verbs that observed *any* injected fault.
    pub fn total(&self) -> u64 {
        self.dropped + self.timed_out + self.duplicated + self.spiked + self.stalled
    }
}

#[derive(Debug, Default)]
struct FaultCounters {
    dropped: AtomicU64,
    timed_out: AtomicU64,
    duplicated: AtomicU64,
    spiked: AtomicU64,
    stalled: AtomicU64,
}

/// Which per-kind issue counter keys `verb`'s draw (the three atomics
/// share one, as they share one price). Kind 2 is retired (it keyed write
/// batches) and never reused, so every other kind's schedule is unchanged.
fn schedule_kind(verb: &Verb) -> usize {
    match verb {
        Verb::Read { .. } => 0,
        Verb::Write { .. } => 1,
        Verb::FetchOr | Verb::FetchAdd | Verb::Cas => 3,
    }
}

enum Decision {
    Deliver,
    Duplicate,
    Spike(u64),
    Fail(VerbError),
}

/// A fault-injecting wrapper around any backend.
///
/// Build with [`FaultyTransport::wrap`]; a [`FaultPlan::disabled`] plan
/// reduces every verb to one extra branch and a forwarded issue/poll.
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: Arc<T>,
    plan: FaultPlan,
    enabled: bool,
    /// Verbs issued so far, per [`schedule_kind`] — the deterministic schedule
    /// key (virtual time is *not* part of the drop/duplicate/spike draw, so
    /// the same verb sequence faults identically on every backend).
    issued: [AtomicU64; 4],
    injected: FaultCounters,
}

impl<T: Transport> FaultyTransport<T> {
    pub fn wrap(inner: Arc<T>, plan: FaultPlan) -> Arc<Self> {
        let enabled = !plan.is_disabled();
        Arc::new(FaultyTransport {
            inner,
            plan,
            enabled,
            issued: Default::default(),
            injected: FaultCounters::default(),
        })
    }

    pub fn inner(&self) -> &Arc<T> {
        &self.inner
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many faults of each kind have been injected so far.
    pub fn injected(&self) -> FaultSnapshot {
        let l = |c: &AtomicU64| c.load(Ordering::Relaxed);
        FaultSnapshot {
            dropped: l(&self.injected.dropped),
            timed_out: l(&self.injected.timed_out),
            duplicated: l(&self.injected.duplicated),
            spiked: l(&self.injected.spiked),
            stalled: l(&self.injected.stalled),
        }
    }

    fn decide(&self, verb: &Verb, target: NodeId, at: u64) -> Decision {
        let kind = schedule_kind(verb);
        let n = self.issued[kind].fetch_add(1, Ordering::Relaxed);
        for b in &self.plan.brownouts {
            if b.node == target && at >= b.from && at < b.until {
                self.injected.stalled.fetch_add(1, Ordering::Relaxed);
                return Decision::Fail(VerbError::NicStall);
            }
        }
        let h = splitmix64(
            self.plan
                .seed
                .wrapping_add((kind as u64) << 56)
                .wrapping_add((target.0 as u64) << 40)
                .wrapping_add(n.wrapping_mul(0x2545_F491_4F6C_DD1D)),
        );
        // Four independent per-million draws from one mixed word.
        let draw = |i: u64| splitmix64(h.wrapping_add(i)) % 1_000_000;
        if draw(1) < self.plan.drop_per_million as u64 {
            self.injected.dropped.fetch_add(1, Ordering::Relaxed);
            return Decision::Fail(VerbError::Dropped);
        }
        if draw(2) < self.plan.timeout_per_million as u64 {
            self.injected.timed_out.fetch_add(1, Ordering::Relaxed);
            return Decision::Fail(VerbError::Timeout);
        }
        if draw(3) < self.plan.duplicate_per_million as u64 {
            self.injected.duplicated.fetch_add(1, Ordering::Relaxed);
            return Decision::Duplicate;
        }
        if draw(4) < self.plan.spike_per_million as u64 {
            self.injected.spiked.fetch_add(1, Ordering::Relaxed);
            return Decision::Spike(self.plan.spike_cycles);
        }
        Decision::Deliver
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    type Endpoint = FaultyEndpoint<T>;

    fn endpoint(this: &Arc<Self>, loc: ThreadLoc) -> FaultyEndpoint<T> {
        FaultyEndpoint {
            inner: T::endpoint(&this.inner, loc),
            fab: this.clone(),
            pending: TokenSlab::default(),
        }
    }

    #[inline]
    fn topology(&self) -> &ClusterTopology {
        self.inner.topology()
    }

    #[inline]
    fn cost(&self) -> &CostModel {
        self.inner.cost()
    }

    #[inline]
    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn per_node_stats(&self) -> Vec<PerNodeSnapshot> {
        self.inner.per_node_stats()
    }

    fn reset_per_node_stats(&self) {
        self.inner.reset_per_node_stats()
    }

    /// The wrapped backend's recorder: injected fates land in the issuing
    /// endpoint's lane on it.
    #[inline]
    fn recorder(&self) -> &Arc<FlightRecorder> {
        self.inner.recorder()
    }

    fn abort(&self) -> &Abort {
        self.inner.abort()
    }
}

/// One verb in flight through the fault layer: what its fate, decided at
/// issue, obliges [`Endpoint::poll`] to do.
#[derive(Debug, Clone)]
enum PendingFault {
    /// Healthy: forward the inner completion.
    Deliver(VerbToken),
    /// The fabric delivers twice: the second copy enters the wire at poll
    /// time, once the first delivery's initiator window is known. Both
    /// deliveries are timed and accounted; the payload is idempotent, so
    /// memory is unmoved.
    Duplicate {
        first: VerbToken,
        target: NodeId,
        verb: Verb,
    },
    /// Completes `extra` cycles late. A spike delays what the verb's
    /// completion delays: the initiator for reads and atomics, only the
    /// settle stamp for posted writes.
    Spike {
        token: VerbToken,
        extra: u64,
        posted: bool,
    },
    /// Decided lost/stalled at issue; the error CQE surfaces at poll. No
    /// inner verb was ever posted.
    Fail(VerbError),
}

/// The issue port of a [`FaultyTransport`]: wraps the inner endpoint and
/// consults the shared fault schedule before every verb.
#[derive(Debug)]
pub struct FaultyEndpoint<T: Transport> {
    inner: T::Endpoint,
    fab: Arc<FaultyTransport<T>>,
    pending: TokenSlab<PendingFault>,
}

// Manual impl: `#[derive(Clone)]` would demand `T: Clone`, which the fabric
// behind an `Arc` does not need.
impl<T: Transport> Clone for FaultyEndpoint<T> {
    fn clone(&self) -> Self {
        FaultyEndpoint {
            inner: self.inner.clone(),
            fab: self.fab.clone(),
            pending: self.pending.clone(),
        }
    }
}

impl<T: Transport> FaultyEndpoint<T> {
    pub fn inner(&self) -> &T::Endpoint {
        &self.inner
    }

    /// Flight-record a decided fault through the inner endpoint's lane,
    /// attributed to its current span. A healthy `Deliver` records nothing.
    fn note_fault(&mut self, decision: &Decision, verb: &Verb, target: NodeId) {
        let fate = match decision {
            Decision::Deliver => return,
            Decision::Duplicate => Fate::Duplicate,
            Decision::Spike(_) => Fate::Spike,
            Decision::Fail(e) => Fate::from_error_name(e.name()),
        };
        let (node, start) = (self.inner.node().0, self.inner.obs_now());
        let extra = match decision {
            Decision::Spike(extra) => *extra,
            _ => schedule_kind(verb) as u64, // which counter decided the fate
        };
        let lane = self.inner.lyra_lane();
        let span = lane.span();
        lane.record(|| VerbRecord {
            span,
            start,
            arg: extra,
            target: target.0 as u32,
            node,
            kind: RecordKind::FaultInjected,
            fate,
            ..VerbRecord::blank()
        });
    }
}

impl<T: Transport> Endpoint for FaultyEndpoint<T> {
    #[inline]
    fn loc(&self) -> ThreadLoc {
        self.inner.loc()
    }

    #[inline]
    fn now(&self) -> u64 {
        self.inner.now()
    }

    #[inline]
    fn obs_now(&self) -> u64 {
        self.inner.obs_now()
    }

    #[inline]
    fn cost(&self) -> &CostModel {
        self.inner.cost()
    }

    fn abort(&self) -> &Abort {
        self.inner.abort()
    }

    #[inline]
    fn compute(&mut self, cycles: u64) {
        self.inner.compute(cycles)
    }

    #[inline]
    fn dram_access(&mut self) {
        self.inner.dram_access()
    }

    #[inline]
    fn fault_trap(&mut self) {
        self.inner.fault_trap()
    }

    #[inline]
    fn merge(&mut self, t: u64) {
        self.inner.merge(t)
    }

    #[inline]
    fn lyra_lane(&mut self) -> &mut obs::Lane {
        self.inner.lyra_lane()
    }

    /// Decide `verb`'s fate now (consuming its per-kind schedule counter),
    /// count and flight-record it, post the inner verb unless it is lost,
    /// and park what poll must do.
    ///
    /// Under a disabled plan the inner endpoint's token passes straight
    /// through (no fate, no parking) — the wrapper is the bare fabric.
    fn issue(&mut self, target: NodeId, verb: &Verb, at: u64) -> VerbToken {
        if !self.fab.enabled {
            return self.inner.issue(target, verb, at);
        }
        let decision = self.fab.decide(verb, target, at);
        self.note_fault(&decision, verb, target);
        let pending = match decision {
            Decision::Fail(e) => PendingFault::Fail(e),
            Decision::Deliver => PendingFault::Deliver(self.inner.issue(target, verb, at)),
            Decision::Duplicate => PendingFault::Duplicate {
                first: self.inner.issue(target, verb, at),
                target,
                verb: *verb,
            },
            Decision::Spike(extra) => PendingFault::Spike {
                token: self.inner.issue(target, verb, at),
                extra,
                posted: verb.is_posted(),
            },
        };
        VerbToken::from_raw(self.pending.insert(pending))
    }

    fn poll(&mut self, token: VerbToken) -> Option<Result<Completion, VerbError>> {
        if !self.fab.enabled {
            return self.inner.poll(token);
        }
        let outcome = match self.pending.take(token.raw()) {
            PendingFault::Fail(e) => Err(e),
            PendingFault::Deliver(t) => self.inner.wait(t),
            PendingFault::Duplicate { first, target, verb } => {
                self.inner.wait(first).and_then(|c1| {
                    let second = self.inner.issue(target, &verb, c1.initiator_done);
                    self.inner.wait(second).map(|c2| Completion {
                        initiator_done: c2.initiator_done,
                        settled: c1.settled.max(c2.settled),
                    })
                })
            }
            PendingFault::Spike { token, extra, posted } => {
                self.inner.wait(token).map(|c| Completion {
                    initiator_done: if posted {
                        c.initiator_done
                    } else {
                        c.initiator_done.saturating_add(extra)
                    },
                    settled: c.settled.saturating_add(extra),
                })
            }
        };
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NativeTransport, SimTransport};
    use simnet::Interconnect;

    fn sim() -> Arc<SimTransport> {
        Interconnect::new(ClusterTopology::tiny(2), CostModel::paper_2011())
    }

    /// A node-0 endpoint on `f`.
    fn ep<T: Transport>(f: &Arc<FaultyTransport<T>>) -> FaultyEndpoint<T> {
        FaultyTransport::endpoint(f, f.topology().loc(NodeId(0), 0))
    }

    /// Issue `verb` at `at` and wait for its completion (no merge).
    fn post<E: Endpoint>(
        e: &mut E,
        target: u16,
        verb: Verb,
        at: u64,
    ) -> Result<Completion, VerbError> {
        let token = e.issue(NodeId(target), &verb, at);
        e.wait(token)
    }

    const READ: Verb = Verb::Read { bytes: 64 };
    const WRITE: Verb = Verb::Write { bytes: 64 };

    #[test]
    fn disabled_plan_forwards_everything() {
        let f = FaultyTransport::wrap(sim(), FaultPlan::disabled());
        let mut e = ep(&f);
        for _ in 0..100 {
            e.rdma_read(NodeId(1), 4096).unwrap();
            e.rdma_write(NodeId(1), 64).unwrap();
            e.rdma_cas(NodeId(1)).unwrap();
        }
        assert_eq!(f.injected(), FaultSnapshot::default());
        assert_eq!(f.stats().snapshot().rdma_reads, 100);
    }

    #[test]
    fn schedule_is_reproducible_and_seed_sensitive() {
        let plan = FaultPlan::seeded(42);
        let run = |plan: FaultPlan| {
            let mut e = ep(&FaultyTransport::wrap(sim(), plan));
            (0..500)
                .map(|i| post(&mut e, 1 - (i % 2) as u16, READ, 0).is_ok())
                .collect::<Vec<_>>()
        };
        let a = run(plan.clone());
        let b = run(plan);
        assert_eq!(a, b, "same plan, same verb sequence, different faults");
        assert!(a.iter().any(|ok| !ok), "a 2% drop plan never dropped in 500 verbs");
        let c = run(FaultPlan::seeded(43));
        assert_ne!(a, c, "different seeds produced the identical schedule");
    }

    #[test]
    fn schedule_ignores_virtual_time_so_backends_agree() {
        let plan = FaultPlan::seeded(7);
        let on_sim = {
            let mut e = ep(&FaultyTransport::wrap(sim(), plan.clone()));
            (0..300)
                .map(|i| post(&mut e, 1, WRITE, i * 777).is_ok())
                .collect::<Vec<_>>()
        };
        let on_native = {
            let native = NativeTransport::new(ClusterTopology::tiny(2));
            let mut e = ep(&FaultyTransport::wrap(native, plan));
            (0..300)
                .map(|_| post(&mut e, 1, WRITE, 0).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(on_sim, on_native);
    }

    /// Brownout windows are checked against the `at` the verb is issued
    /// with, not the endpoint's clock (which stays at 0 throughout).
    #[test]
    fn brownout_stalls_only_its_node_and_window() {
        let plan = FaultPlan::default().with_brownout(NodeId(1), 1_000, 2_000);
        let f = FaultyTransport::wrap(sim(), plan);
        let mut e = ep(&f);
        assert!(post(&mut e, 1, READ, 0).is_ok());
        assert_eq!(post(&mut e, 1, READ, 1_500), Err(VerbError::NicStall));
        // Other node unaffected; window end clears it.
        assert!(post(&mut e, 0, READ, 1_500).is_ok());
        assert!(post(&mut e, 1, READ, 2_000).is_ok());
        assert_eq!(f.injected().stalled, 1);
    }

    #[test]
    fn blackout_never_clears() {
        let mut e = ep(&FaultyTransport::wrap(sim(), FaultPlan::blackout(NodeId(1))));
        for at in [0u64, 1 << 20, 1 << 40, u64::MAX - 1] {
            assert_eq!(post(&mut e, 1, READ, at), Err(VerbError::NicStall));
        }
    }

    #[test]
    fn duplicates_account_twice_but_deliver_the_same_payload() {
        let plan = FaultPlan::default().with_seed(3).with_duplicates(1_000_000);
        let f = FaultyTransport::wrap(sim(), plan);
        let c = post(&mut ep(&f), 1, WRITE, 0).unwrap();
        assert_eq!(f.injected().duplicated, 1);
        assert_eq!(f.stats().snapshot().rdma_writes, 2);
        // The duplicate finishes after a single delivery would have.
        let clean = FaultyTransport::wrap(sim(), FaultPlan::disabled());
        let single = post(&mut ep(&clean), 1, WRITE, 0).unwrap();
        assert!(c.initiator_done > single.initiator_done);
    }

    /// The blocking verbs are issue + wait + merge, so a verb sequence
    /// driven either way consumes the same schedule counters and leaves the
    /// same outcomes, clock and injection counts.
    #[test]
    fn async_verbs_fault_on_the_blocking_schedule() {
        let drive = |asynchronous: bool| {
            let f = FaultyTransport::wrap(sim(), FaultPlan::seeded(42));
            let mut e = ep(&f);
            let outcomes: Vec<bool> = (0..300)
                .map(|i| {
                    let verb = if i % 2 == 0 { WRITE } else { READ };
                    if asynchronous {
                        let at = e.now();
                        post(&mut e, 1, verb, at).map(|c| e.merge(c.initiator_done)).is_ok()
                    } else {
                        e.blocking(NodeId(1), &verb).is_ok()
                    }
                })
                .collect();
            (outcomes, e.now(), f.injected())
        };
        assert_eq!(drive(false), drive(true));
    }

    /// A lost verb is decided (and counted) at issue, but the error CQE
    /// only surfaces when the token is polled.
    #[test]
    fn async_failures_surface_at_poll() {
        let f = FaultyTransport::wrap(sim(), FaultPlan::blackout(NodeId(1)));
        let mut e = ep(&f);
        let tok = e.issue(NodeId(1), &Verb::Read { bytes: 4096 }, 0);
        assert_eq!(f.injected().stalled, 1, "fate decided at issue");
        assert_eq!(e.wait(tok), Err(VerbError::NicStall));
        assert_eq!(e.now(), 0, "a failed verb must not advance the clock");
    }

    #[test]
    fn faulty_endpoint_forwards_placement_and_clock() {
        let f = FaultyTransport::wrap(sim(), FaultPlan::disabled());
        let loc = f.topology().loc(NodeId(1), 1);
        let mut e = <FaultyTransport<SimTransport> as Transport>::endpoint(&f, loc);
        assert_eq!(Endpoint::loc(&e), loc);
        e.compute(123);
        assert_eq!(e.now(), 123);
        e.rdma_read(NodeId(0), 4096).unwrap();
        assert!(e.now() > 123);
    }
}
