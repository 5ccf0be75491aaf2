//! Verb plumbing shared by every protocol site: the retry glue around
//! `Endpoint::issue`/`poll` (the paper's fabric never fails) and the Lyra
//! helpers — the site scope, flight records, per-page detail events.

use super::*;
use rma::{Attempt, AttemptSeq, Retried, RetryExhausted};

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Fold a retry outcome into the stats and `t`'s lane, and
    /// translate an exhausted budget into a [`DsmError`] naming the route.
    /// Every remote verb site funnels through here; on a healthy fabric the
    /// zero-retry arm is the only one ever taken and records nothing. The
    /// retry records carry `t`'s current span (the protocol site that
    /// issued the verb); `obs_at` is the caller's observability clock.
    #[inline]
    fn verb_retried<R>(
        &self,
        t: &mut T::Endpoint,
        target: u16,
        obs_at: u64,
        r: Result<Retried<R>, RetryExhausted>,
    ) -> Result<R, DsmError> {
        let (me, span) = (t.node().0, t.current_span());
        // The blocking path's one aggregate flight record per retried verb.
        let mut record = |arg: u64, attempt: u32, kind, fate, class| {
            t.lyra_lane().record(|| obs::VerbRecord {
                span,
                start: obs_at,
                arg,
                target: target as u32,
                node: me,
                attempt: attempt as u16,
                kind,
                fate,
                class,
                ..obs::VerbRecord::blank()
            })
        };
        match r {
            Ok(Retried { value, retries: 0, .. }) => Ok(value),
            Ok(Retried { value, retries, delay }) => {
                CoherenceStats::add(&self.stats.shard(me).verb_retries, retries as u64);
                record(delay, retries, obs::RecordKind::VerbRetry, obs::Fate::Ok, obs::NO_CLASS);
                Ok(value)
            }
            Err(e) => {
                CoherenceStats::bump(&self.stats.shard(me).verb_exhaustions);
                CoherenceStats::add(
                    &self.stats.shard(me).verb_retries,
                    e.attempts.saturating_sub(1) as u64,
                );
                let (kind, fate) = (obs::RecordKind::VerbExhausted, obs::Fate::Exhausted);
                record(e.delay, e.attempts, kind, fate, e.class as u8);
                Err(DsmError::new(e, me, target))
            }
        }
    }

    /// Drive `token` — attempt 0 of `class`'s retry schedule under `salt`,
    /// issued earlier through `t` — to completion, reissuing along the
    /// schedule when a failure surfaces at poll time, and fold the outcome
    /// into the usual retry bookkeeping. `reissue` posts a replacement
    /// given the cumulative backoff delay of the next attempt. The schedule
    /// is built only once a failure surfaces, so an in-flight verb is just
    /// its token; retrying at poll time walks exactly the schedule the
    /// blocking path would have walked — only the moment the failure is
    /// *observed* moves.
    ///
    /// Lyra: the issue→poll pair is flight-recorded under `t`'s current
    /// span — one `VerbIssue` slice spanning issue to completion (whose end
    /// marks the arrival on the target's track), one `VerbPoll` instant at
    /// completion, and one `VerbRetry` instant per reissue carrying the
    /// failed attempt's fate.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn poll_retried(
        &self,
        t: &mut T::Endpoint,
        target: u16,
        token: VerbToken,
        (class, salt): (VerbClass, u64),
        obs_issued: u64,
        bytes: u64,
        mut reissue: impl FnMut(&mut T::Endpoint, u64) -> VerbToken,
    ) -> Result<Completion, DsmError> {
        let (me, span) = (t.node().0, t.current_span());
        let rec = obs::VerbRecord {
            span,
            target: target as u32,
            node: me,
            class: class as u8,
            ..obs::VerbRecord::blank()
        };
        let mut attempt = Attempt { index: 0, step: 0, delay: 0 };
        let mut seq: Option<AttemptSeq> = None;
        let mut outcome = t.wait(token);
        loop {
            match outcome {
                Ok(c) => {
                    let now = t.obs_now();
                    let waited = now.saturating_sub(obs_issued);
                    let attempt_no = attempt.index as u16;
                    let lane = t.lyra_lane();
                    lane.record(|| obs::VerbRecord {
                        start: obs_issued,
                        dur: waited,
                        arg: bytes,
                        attempt: attempt_no,
                        kind: obs::RecordKind::VerbIssue,
                        ..rec
                    });
                    lane.record(|| obs::VerbRecord {
                        start: now,
                        arg: waited,
                        attempt: attempt_no,
                        kind: obs::RecordKind::VerbPoll,
                        ..rec
                    });
                    // Stats only: each reissue already produced its
                    // own `VerbRetry` flight record above, so funneling
                    // through `verb_retried` would double-record it.
                    if attempt.index > 0 {
                        CoherenceStats::add(
                            &self.stats.shard(me).verb_retries,
                            attempt.index as u64,
                        );
                    }
                    return Ok(c);
                }
                Err(e) => {
                    let seq = seq.get_or_insert_with(|| {
                        let mut seq = self.config.retry.attempt_seq(class, salt);
                        seq.next(); // attempt 0: the token that just failed
                        seq
                    });
                    let now = t.obs_now();
                    let Some(a) = seq.next() else {
                        return self.verb_retried(t, target, now, Err(seq.exhausted(e)));
                    };
                    t.lyra_lane().record(|| obs::VerbRecord {
                        start: now,
                        arg: a.delay,
                        attempt: a.index as u16,
                        kind: obs::RecordKind::VerbRetry,
                        fate: obs::Fate::from_error_name(e.name()),
                        ..rec
                    });
                    attempt = a;
                    let token = reissue(t, a.delay);
                    outcome = t.wait(token);
                }
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
    pub(super) fn net_verb(
        &self,
        t: &mut T::Endpoint,
        target: u16,
        class: VerbClass,
        salt: u64,
        base: u64,
        verb: &Verb,
    ) -> Result<Completion, DsmError> {
        let obs_at = t.obs_now();
        let outcome = self.config.retry.run(class, salt, |a| {
            let token = t.issue(NodeId(target), verb, base + a.delay);
            t.wait(token)
        });
        self.verb_retried(t, target, obs_at, outcome)
    }

    /// A posted write's settle time joins the set `me`'s next SD fence
    /// must await before it releases anything.
    #[inline]
    pub(super) fn await_at_fence(&self, me: u16, timing: &Completion) {
        self.nodes[me as usize]
            .pending_settle
            .fetch_max(timing.settled, Ordering::AcqRel);
    }

    /// Fold a posted write's completion into `me`'s clock and fence
    /// obligations: the initiator-done time advances the endpoint, the
    /// settle time is awaited by the next SD fence.
    #[inline]
    pub(super) fn settle_posted(&self, t: &mut T::Endpoint, me: u16, timing: &Completion) {
        t.merge(timing.initiator_done);
        self.await_at_fence(me, timing);
    }

    /// The one site scope, and the only timer: run `body` as protocol
    /// site `site` on `t` under a freshly minted span (`arg` is the page
    /// for the per-page sites, 0 otherwise). Through `t`'s lane
    /// ([`obs::Lane::open`]/[`obs::Lane::close`]), the time before the
    /// scope goes to the enclosing site (or `outside`), the body's time
    /// less any nested scope's to `site`, and on **every** exit the span
    /// and site the scope found are reattached — so a body bailing out
    /// with `?` cannot leak its span onto what `t` does next, and a nested
    /// fence or miss hands its caller's span back. A completed body also
    /// lands in the site's latency histogram and as a `Site` flight record
    /// carrying the span. Public because the synchronization layer
    /// (Vela locks and barriers, Argo's mutex) times its sites here too.
    pub fn site<R, E>(
        &self,
        t: &mut T::Endpoint,
        site: obs::Site,
        arg: u64,
        body: impl FnOnce(&mut T::Endpoint, obs::SpanId) -> Result<R, E>,
    ) -> Result<R, E> {
        let start = t.obs_now();
        let scope = t.lyra_lane().open(site, start);
        let span = scope.span;
        let result = body(t, span);
        let end = t.obs_now();
        let lane = t.lyra_lane();
        lane.close(scope, end, result.is_ok());
        if result.is_ok() {
            let (node, dur) = (lane.node(), end - start);
            lane.record(|| obs::VerbRecord {
                span,
                start,
                dur,
                arg,
                node: node as u16,
                kind: obs::RecordKind::Site,
                site: site.index() as u8,
                ..obs::VerbRecord::blank()
            });
        }
        result
    }

    /// Flight-record one per-page protocol event — `kind` is one of the
    /// detail kinds, `arg` the page (or page count), `target` the other node
    /// or [`obs::NO_TARGET`] — as an instant under `t`'s current span. A
    /// no-op costing one relaxed load unless
    /// [`obs::FlightRecorder::set_detail`] is on.
    #[inline]
    pub(super) fn detail(
        &self,
        t: &mut T::Endpoint,
        me: u16,
        kind: obs::RecordKind,
        arg: u64,
        target: u32,
    ) {
        if !self.lyra.detail() {
            return;
        }
        let (span, start) = (t.current_span(), t.obs_now());
        t.lyra_lane().record(|| obs::VerbRecord {
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
    pub(super) fn unrecoverable<R>(r: Result<R, DsmError>) -> R {
        r.unwrap_or_else(|e| panic!("unrecoverable DSM fault: {e}"))
    }
}
