//! Property tests for the resilience layer: retry backoff schedules and
//! the deterministic fault injector must behave algebraically — same
//! inputs, same schedule; caps respected; duplicates never failures.

use proptest::prelude::*;
use rma::{
    splitmix64, Completion, Endpoint, FaultPlan, FaultyTransport, NativeTransport, Retried,
    RetryExhausted, RetryPolicy, Transport, Verb, VerbClass, VerbError, VerbToken,
};
use simnet::{ClusterTopology, CostModel, Interconnect, NodeId};
use std::sync::Arc;

fn class_of(i: u8) -> VerbClass {
    VerbClass::ALL[i as usize % VerbClass::COUNT]
}

fn sim(nodes: usize) -> Arc<Interconnect> {
    Interconnect::new(ClusterTopology::tiny(nodes), CostModel::paper_2011())
}

/// The generated op kinds, as verbs (kinds past the table wrap to a CAS).
fn verb_of(kind: u8, bytes: u64) -> Verb {
    match kind {
        0 => Verb::Read { bytes },
        1 => Verb::Write { bytes },
        2 => Verb::FetchOr,
        _ => Verb::Cas,
    }
}

proptest! {
    /// The backoff before any retry is a pure function of
    /// (policy, class, retry index, salt): recomputing it gives the same
    /// cycles, and a different jitter seed gives a different schedule
    /// somewhere in the first few steps.
    #[test]
    fn prop_backoff_is_deterministic(
        seed in 0u64..u64::MAX,
        salt in 0u64..u64::MAX,
        class in 0u8..7,
        retry in 1u32..24,
    ) {
        let p = RetryPolicy::default().with_seed(seed);
        let c = class_of(class);
        prop_assert_eq!(p.backoff_step(c, retry, salt), p.backoff_step(c, retry, salt));
        let q = RetryPolicy::default().with_seed(seed ^ 0xDEAD_BEEF);
        let differs = (1..=8).any(|k| p.backoff_step(c, k, salt) != q.backoff_step(c, k, salt));
        prop_assert!(differs, "jitter seed had no effect on the first 8 steps");
    }

    /// Every step respects the exponential floor and the jittered ceiling:
    /// base<<k capped at max, plus at most 25% jitter on top.
    #[test]
    fn prop_backoff_respects_caps(
        seed in 0u64..u64::MAX,
        salt in 0u64..u64::MAX,
        class in 0u8..7,
        retry in 1u32..64,
        base in 1u64..100_000,
        cap in 1u64..10_000_000,
    ) {
        let p = RetryPolicy {
            base_backoff_cycles: base,
            max_backoff_cycles: cap,
            jitter_seed: seed,
            ..RetryPolicy::default()
        };
        let c = class_of(class);
        let step = p.backoff_step(c, retry, salt);
        let exp = base.checked_shl(retry - 1).unwrap_or(u64::MAX).min(cap);
        prop_assert!(step >= exp, "step {} below the exponential floor {}", step, exp);
        prop_assert!(
            step <= exp + exp / 4,
            "step {} exceeds floor {} + 25% jitter",
            step,
            exp
        );
    }

    /// `run` against a permanently failing verb spends exactly the attempt
    /// budget, reports the last error, and accumulates the full backoff
    /// schedule as its delay — deterministically.
    #[test]
    fn prop_exhaustion_spends_the_exact_budget(
        salt in 0u64..u64::MAX,
        class in 0u8..7,
        attempts in 1u32..12,
    ) {
        let c = class_of(class);
        let p = RetryPolicy::default().with_budget(c, attempts);
        let mut issued = 0u32;
        let err = p
            .run::<()>(c, salt, |a| {
                assert_eq!(a.index, issued, "attempts must be issued in order");
                issued += 1;
                Err(VerbError::Timeout)
            })
            .expect_err("the verb never succeeds");
        prop_assert_eq!(issued, attempts);
        prop_assert_eq!(err.attempts, attempts);
        prop_assert_eq!(err.last_error, VerbError::Timeout);
        let schedule: u64 = (1..attempts).map(|k| p.backoff_step(c, k, salt)).sum();
        prop_assert_eq!(err.delay, schedule);
    }

    /// The injector's schedule is reproducible: the same plan over the same
    /// single-issuer verb sequence yields the same ok/err pattern and the
    /// same injection counts — on a simulated *and* a native fabric.
    #[test]
    fn prop_fault_schedule_replays(
        seed in 0u64..u64::MAX,
        drops in 0u32..400_000,
        timeouts in 0u32..400_000,
        ops in proptest::collection::vec((0u8..4, 1u64..4096), 1..60),
    ) {
        let plan = FaultPlan::default()
            .with_seed(seed)
            .with_drops(drops)
            .with_timeouts(timeouts);
        fn drive<T: Transport>(
            fab: Arc<FaultyTransport<T>>,
            ops: &[(u8, u64)],
        ) -> Vec<Result<(), VerbError>> {
            let loc = fab.topology().loc(NodeId(0), 0);
            let mut e = <FaultyTransport<T> as Transport>::endpoint(&fab, loc);
            ops.iter()
                .map(|&(kind, bytes)| e.blocking(NodeId(1), &verb_of(kind, bytes)).map(drop))
                .collect()
        }
        let a = FaultyTransport::wrap(sim(2), plan.clone());
        let b = FaultyTransport::wrap(sim(2), plan.clone());
        let pat_a = drive(a.clone(), &ops);
        prop_assert_eq!(&pat_a, &drive(b.clone(), &ops));
        prop_assert_eq!(a.injected(), b.injected());
        let n = FaultyTransport::wrap(NativeTransport::new(ClusterTopology::tiny(2)), plan);
        prop_assert_eq!(&pat_a, &drive(n.clone(), &ops));
        prop_assert_eq!(a.injected(), n.injected());
    }

    /// Duplicates are never failures: under a duplicates-only plan every
    /// verb succeeds, a duplicated verb's completion is no earlier than its
    /// issue time, and the inner fabric sees each duplicated verb exactly
    /// twice — the payload is idempotent, only the accounting doubles.
    #[test]
    fn prop_duplicates_are_idempotent_successes(
        seed in 0u64..u64::MAX,
        rate in 1u32..1_000_001,
        ops in proptest::collection::vec((0u8..3, 1u64..8192, 0u64..1_000_000), 1..50),
    ) {
        let plan = FaultPlan::default().with_seed(seed).with_duplicates(rate);
        let fab = FaultyTransport::wrap(sim(2), plan);
        let loc = fab.topology().loc(NodeId(0), 0);
        let mut e = <FaultyTransport<_> as Transport>::endpoint(&fab, loc);
        for &(kind, bytes, at) in &ops {
            let verb = verb_of(kind, bytes);
            let token = e.issue(NodeId(1), &verb, at);
            let c = e.wait(token).expect("duplication must never fail a verb");
            prop_assert!(c.initiator_done > at, "a verb must cost time");
            prop_assert!(c.settled >= c.initiator_done);
        }
        let snap = fab.injected();
        // A duplicates-only plan must inject nothing but duplicates.
        prop_assert_eq!(snap.total(), snap.duplicated);
        // Each duplicate is delivered (and accounted) exactly twice.
        let issued = ops.len() as u64;
        let inner_ops = {
            let s = fab.stats().snapshot();
            s.rdma_reads + s.rdma_writes + s.rdma_atomics
        };
        prop_assert_eq!(inner_ops, issued + snap.duplicated);
    }

    /// Completion poll order is immaterial: issue a batch of verbs, then
    /// resolve the tokens in issue order on one fabric and in an arbitrary
    /// permutation on an identical fabric. Every per-verb completion and
    /// the merged clock horizon must come out the same — on the simulated
    /// *and* the native backend.
    #[test]
    fn prop_poll_order_never_changes_results(
        seed in 0u64..u64::MAX,
        ops in proptest::collection::vec((0u8..3, 1u64..8192, 0u64..200_000), 2..40),
    ) {
        fn drive<T: Transport>(
            fab: &Arc<T>,
            ops: &[(u8, u64, u64)],
            shuffle_seed: Option<u64>,
        ) -> (Vec<Completion>, u64) {
            let loc = fab.topology().loc(NodeId(0), 0);
            let mut e = T::endpoint(fab, loc);
            let mut tokens: Vec<Option<VerbToken>> = ops
                .iter()
                .map(|&(kind, bytes, at)| Some(e.issue(NodeId(1), &verb_of(kind, bytes), at)))
                .collect();
            let mut order: Vec<usize> = (0..tokens.len()).collect();
            if let Some(s) = shuffle_seed {
                for i in (1..order.len()).rev() {
                    let j = (splitmix64(s ^ (i as u64)) % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
            }
            let mut done: Vec<Option<Completion>> = vec![None; tokens.len()];
            for &i in &order {
                let c = e
                    .poll(tokens[i].take().expect("each token polled once"))
                    .expect("every backend today resolves by poll time")
                    .expect("healthy fabric");
                done[i] = Some(c);
            }
            let horizon = done.iter().map(|c| c.unwrap().initiator_done).max().unwrap();
            e.merge(horizon);
            (done.into_iter().map(Option::unwrap).collect(), e.now())
        }
        let (in_order, clock_a) = drive(&sim(2), &ops, None);
        let (permuted, clock_b) = drive(&sim(2), &ops, Some(seed));
        prop_assert_eq!(&in_order, &permuted);
        prop_assert_eq!(clock_a, clock_b);
        let nat = || NativeTransport::new(ClusterTopology::tiny(2));
        let (n_in_order, n_clock_a) = drive(&nat(), &ops, None);
        let (n_permuted, n_clock_b) = drive(&nat(), &ops, Some(seed));
        prop_assert_eq!(&n_in_order, &n_permuted);
        prop_assert_eq!(n_clock_a, n_clock_b);
    }

    /// A `VerbError` surfacing at poll time retries identically to the
    /// blocking path: walking `attempt_seq` across the issue/poll gap —
    /// reissue on each polled failure, merge only on success — produces
    /// the same per-op outcomes (retry counts, backoff delays, settle
    /// stamps, exhaustions), the same injected-fault totals, and the same
    /// final clock as `RetryPolicy::run` around the blocking verbs.
    #[test]
    fn prop_poll_time_retry_matches_blocking_path(
        fault_seed in 0u64..u64::MAX,
        jitter_seed in 0u64..u64::MAX,
        budget in 1u32..8,
        drops in 50_000u32..600_000,
        timeouts in 50_000u32..600_000,
        ops in proptest::collection::vec((0u8..3, 1u64..8192, 0u64..u64::MAX), 1..40),
    ) {
        type Outcome = Result<Retried<u64>, RetryExhausted>;
        let plan = FaultPlan::default()
            .with_seed(fault_seed)
            .with_drops(drops)
            .with_timeouts(timeouts);
        let policy = RetryPolicy {
            max_attempts: [budget; VerbClass::COUNT],
            ..RetryPolicy::default().with_seed(jitter_seed)
        };
        let class = |kind: u8| match kind {
            0 => VerbClass::PageFetch,
            1 => VerbClass::Downgrade,
            _ => VerbClass::FlagWrite,
        };
        let blocking = {
            let fab = FaultyTransport::wrap(sim(2), plan.clone());
            let loc = fab.topology().loc(NodeId(0), 0);
            let mut e = <FaultyTransport<_> as Transport>::endpoint(&fab, loc);
            let outs: Vec<Outcome> = ops
                .iter()
                .map(|&(kind, bytes, salt)| {
                    policy.run(class(kind), salt, |_a| {
                        let c = e.blocking(NodeId(1), &verb_of(kind, bytes))?;
                        Ok(if kind == 0 { 0 } else { c.settled })
                    })
                })
                .collect();
            (outs, e.now(), fab.injected())
        };
        let polled = {
            let fab = FaultyTransport::wrap(sim(2), plan);
            let loc = fab.topology().loc(NodeId(0), 0);
            let mut e = <FaultyTransport<_> as Transport>::endpoint(&fab, loc);
            let outs: Vec<Outcome> = ops
                .iter()
                .map(|&(kind, bytes, salt)| {
                    let mut seq = policy.attempt_seq(class(kind), salt);
                    let mut attempt = seq.next().expect("budget is at least 1");
                    loop {
                        let now = e.now();
                        let token = e.issue(NodeId(1), &verb_of(kind, bytes), now);
                        match e.wait(token) {
                            Ok(c) => {
                                e.merge(c.initiator_done);
                                break Ok(Retried {
                                    value: if kind == 0 { 0 } else { c.settled },
                                    retries: attempt.index,
                                    delay: attempt.delay,
                                });
                            }
                            Err(err) => match seq.next() {
                                Some(a) => attempt = a,
                                None => break Err(seq.exhausted(err)),
                            },
                        }
                    }
                })
                .collect();
            (outs, e.now(), fab.injected())
        };
        prop_assert_eq!(&blocking.0, &polled.0);
        prop_assert_eq!(blocking.1, polled.1);
        prop_assert_eq!(blocking.2, polled.2);
    }
}
