//! Directory registration and notifications (paper §3.4–§3.5): deposit
//! this node's reader/writer registration with the page's policy state and
//! post whatever one-sided notifications the policy's [`RegisterOutcome`]
//! asks for. No handler runs anywhere — unless the `active_directory`
//! ablation charges one.
//!
//! Nothing here tells a page's home what it already knows. The home never
//! caches its own pages, so it is never notified and never serves a
//! checkpoint fetch; and a store covering a whole uncached page registers
//! once, as a writer, at its write fault (`miss.rs` skips the reader
//! registration of the page it will overwrite).

use super::*;
use crate::coherence::RegisterOutcome;

/// Wire footprint of a directory-cache notification (one entry).
const NOTIFY_BYTES: u64 = 32;

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// The `active_directory` ablation's charge for one directory operation
    /// or notification: the cycles of a software message-handler invocation
    /// at the target (counted in the net stats), 0 under the passive
    /// directory that is Argo's contribution.
    pub(super) fn handler_cycles(&self) -> u64 {
        if !self.config.active_directory {
            return 0;
        }
        self.net.stats().handler_invocations.fetch_add(1, Ordering::Relaxed);
        self.net.cost().handler_cycles
    }

    /// Register as a reader — with `write`, as a writer — of a page homed
    /// here (local, cheap).
    #[inline]
    pub(super) fn register_home(
        &self,
        t: &mut T::Endpoint,
        page: PageNum,
        me: u16,
        write: bool,
    ) -> Result<(), DsmError> {
        let (policy, shard) = (&self.coherence, self.stats.shard(me));
        let registered = match write {
            true => policy.write_registered(me, me, page),
            false => policy.read_registered(me, me, page),
        };
        if registered {
            return Ok(());
        }
        t.dram_access();
        let outcome = match write {
            true => policy.register_writer(me, me, page, shard),
            false => policy.register_reader(me, me, page, shard),
        };
        if write {
            // A home store has no fault and no drain to raise it.
            policy.note_written_epoch(me, page);
        }
        let now = t.now();
        self.apply_outcome(t, page, me, me, outcome, now)
    }

    /// Register as a reader of `page` at remote `home`, issuing the
    /// directory atomic at virtual time `start` (pipelined with the rest
    /// of its line-fill group). Returns the completion time, or `None` if
    /// no directory access was needed.
    pub(super) fn register_reader_remote(
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
        let timing =
            self.net_verb(t, home, VerbClass::DirectoryAtomic, page.0, start, &Verb::FetchOr)?;
        let op_clock = timing.initiator_done + self.handler_cycles();
        let outcome = self
            .coherence
            .register_reader(me, home, page, self.stats.shard(me));
        let now = t.now();
        self.apply_outcome(t, page, me, home, outcome, now)?;
        Ok(Some(op_clock))
    }

    /// Register as a writer of a (remote) page, unless we already are. The
    /// directory atomic is *posted*: the writer needs nothing back from it
    /// before storing into its own copy, so the thread does not wait out
    /// the round trip. Its completion joins `pending_settle`, which the
    /// next SD fence awaits before it releases anything — the registration
    /// is globally visible no later than the writes it covers.
    pub(super) fn register_writer(
        &self,
        t: &mut T::Endpoint,
        page: PageNum,
        me: u16,
    ) -> Result<(), DsmError> {
        let home = self.global.home_of(page);
        if self.coherence.write_registered(me, home, page) {
            return Ok(());
        }
        let timing =
            self.net_verb(t, home, VerbClass::DirectoryAtomic, page.0, t.now(), &Verb::FetchOr)?;
        self.await_at_fence(me, &timing);
        t.compute(self.handler_cycles());
        let outcome = self
            .coherence
            .register_writer(me, home, page, self.stats.shard(me));
        // Whom to notify is in the atomic's reply: the notifies chain behind
        // it on the network timeline, not on this thread's clock.
        self.apply_outcome(t, page, me, home, outcome, timing.initiator_done)
    }

    /// Perform the wire work a registration at `home` decided on:
    /// flight-record its transitions (detail kinds), post one notification
    /// per affected node, and service a checkpoint fetch if the policy
    /// asked for one. The policy already applied all metadata mutations
    /// host-side; this is purely the engine's verbs-and-clocks half.
    ///
    /// `reply_at` is when the registration's reply — which names the nodes
    /// to notify and the owner to fetch from — reaches this node; nothing
    /// here is posted earlier. A caller that waited for the reply passes
    /// its own clock and the postings advance the thread as usual. A
    /// *posted* registration passes the reply's (later) arrival: its
    /// notifies chain behind it on the network timeline and join
    /// `pending_settle` for the next SD fence without holding the thread,
    /// while a checkpoint fetch, whose data the thread needs, still does.
    pub(super) fn apply_outcome(
        &self,
        t: &mut T::Endpoint,
        page: PageNum,
        me: u16,
        home: u16,
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
        let mut targets = outcome.notify;
        while targets != 0 {
            let target = targets.trailing_zeros() as u16;
            targets &= targets - 1;
            let timing = self.notify(t, target, page, me, home, at.max(t.now()))?;
            if waited {
                self.settle_posted(t, me, &timing);
            } else {
                at = timing.initiator_done;
                self.await_at_fence(me, &timing);
            }
            t.compute(self.handler_cycles());
        }
        if let Some(owner) = outcome.fetch_from {
            debug_assert_ne!(owner, home, "a checkpoint fetch from the home");
            // Service the fill from `owner`'s checkpoint: one extra round
            // trip (§3.4.2 "naïve solution").
            let (at, verb) = (at.max(t.now()), Verb::Read { bytes: PAGE_BYTES });
            let timing = self.net_verb(t, owner, VerbClass::PageFetch, page.0, at, &verb)?;
            t.merge(timing.initiator_done);
        }
        Ok(())
    }

    /// Post the wire half of a directory-cache notification at virtual time
    /// `at` — the passive mechanism's one-sided write; no code runs at
    /// `target`. The metadata itself was already deposited by the policy
    /// (host-side, like the real remote OR). Returns the posted write's
    /// timing for the caller to settle.
    /// The policy never names this node or the page's `home`.
    fn notify(
        &self,
        t: &mut T::Endpoint,
        target: u16,
        page: PageNum,
        me: u16,
        home: u16,
        at: u64,
    ) -> Result<Completion, DsmError> {
        debug_assert_ne!(target, me, "a notification to the registering node");
        debug_assert_ne!(target, home, "a notification to the page's home");
        self.detail(t, me, obs::RecordKind::Notify, page.0, target as u32);
        let salt = page.0.wrapping_add((target as u64) << 48);
        let verb = Verb::Write { bytes: NOTIFY_BYTES };
        self.net_verb(t, target, VerbClass::Notify, salt, at, &verb)
    }
}
