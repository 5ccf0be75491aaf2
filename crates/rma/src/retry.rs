//! Retry with capped exponential backoff and deterministic jitter.
//!
//! Carina's verbs are idempotent — a page fetch, a directory fetch-or, a
//! diff write all deposit the same bytes no matter how often they run — so
//! the protocol may reissue any failed verb without coordination. What
//! remains is *policy*: how many times, and how long to wait between
//! attempts. [`RetryPolicy`] answers both per [`VerbClass`], and keeps the
//! schedule a pure function of `(seed, class, attempt, salt)` so two runs
//! of the same program retry at identical virtual instants.

use crate::transport::{Completion, Endpoint, Verb, VerbError};
use simnet::NodeId;
use std::fmt;

/// The protocol-level classes a remote verb can belong to. Budgets and
/// backoff are chosen per class: losing a drain batch mid-fence is worth
/// more patience than losing a best-effort notify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerbClass {
    /// Blocking page (or line) fetch on a read miss.
    PageFetch,
    /// Directory word fetch-or / fetch-add (reader/writer registration).
    DirectoryAtomic,
    /// Posted downgrade notification to a sharer.
    Notify,
    /// Posted diff/page write-back to the home.
    Downgrade,
    /// Lock CAS / handover write (HQDL, global ticket lock).
    LockAtomic,
    /// Synchronization flag publish / poll (barriers, DSM flags).
    FlagWrite,
}

impl VerbClass {
    /// All classes, in index order.
    pub const ALL: [VerbClass; 6] = [
        VerbClass::PageFetch,
        VerbClass::DirectoryAtomic,
        VerbClass::Notify,
        VerbClass::Downgrade,
        VerbClass::LockAtomic,
        VerbClass::FlagWrite,
    ];

    pub const COUNT: usize = Self::ALL.len();

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name for logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            VerbClass::PageFetch => "page_fetch",
            VerbClass::DirectoryAtomic => "directory_atomic",
            VerbClass::Notify => "notify",
            VerbClass::Downgrade => "downgrade",
            VerbClass::LockAtomic => "lock_atomic",
            VerbClass::FlagWrite => "flag_write",
        }
    }
}

impl fmt::Display for VerbClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// SplitMix64: the deterministic mixer behind backoff jitter and fault
/// schedules. Public so tests can predict schedules exactly.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One attempt handed to the operation closure by [`RetryPolicy::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// 0 for the first issue, 1 for the first retry, …
    pub index: u32,
    /// Backoff charged *before this attempt* (0 on the first issue).
    pub step: u64,
    /// Cumulative backoff across all attempts so far, including `step`.
    pub delay: u64,
}

/// A successful operation plus how hard it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retried<R> {
    pub value: R,
    /// Number of *re*-issues (0 = first attempt succeeded).
    pub retries: u32,
    /// Total backoff cycles charged across all retries.
    pub delay: u64,
}

/// The retry budget for a verb class ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryExhausted {
    pub class: VerbClass,
    /// Attempts made (= the class budget).
    pub attempts: u32,
    /// The error returned by the final attempt.
    pub last_error: VerbError,
    /// Total backoff cycles charged before giving up.
    pub delay: u64,
}

impl fmt::Display for RetryExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} verb failed after {} attempts (last error: {})",
            self.class, self.attempts, self.last_error
        )
    }
}

impl std::error::Error for RetryExhausted {}

/// Capped exponential backoff with deterministic jitter, budgeted per
/// [`VerbClass`].
///
/// The backoff before retry `k` (1-based) is
/// `min(max_backoff_cycles, base_backoff_cycles << (k-1))` plus a jitter of
/// up to a quarter of that, derived from `(jitter_seed, class, k, salt)` by
/// [`splitmix64`] — no global state, no wall clock, so the schedule is
/// reproducible and callers can de-correlate sites via `salt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempt budget per class, indexed by [`VerbClass::index`]. A budget
    /// of `n` means the verb is issued at most `n` times in total; budgets
    /// below 1 behave as 1.
    pub max_attempts: [u32; VerbClass::COUNT],
    /// Backoff before the first retry.
    pub base_backoff_cycles: u64,
    /// Ceiling on the exponential step (jitter may add up to 25% on top).
    pub max_backoff_cycles: u64,
    /// Seed folded into every jitter draw.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// 10 attempts for every class, 1k-cycle base, 250k-cycle cap: the full
    /// schedule spends ~750k cycles (~0.3 ms at the paper's clock) before
    /// giving up, enough to ride out any plausible transient.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: [10; VerbClass::COUNT],
            base_backoff_cycles: 1_000,
            max_backoff_cycles: 250_000,
            jitter_seed: 0xA5A5_5A5A_0F0F_F0F0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every class gets exactly one attempt.
    pub fn never() -> Self {
        RetryPolicy {
            max_attempts: [1; VerbClass::COUNT],
            ..Self::default()
        }
    }

    /// Same budgets, different jitter stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Set one class's attempt budget.
    pub fn with_budget(mut self, class: VerbClass, attempts: u32) -> Self {
        self.max_attempts[class.index()] = attempts;
        self
    }

    /// The attempt budget for `class` (at least 1).
    #[inline]
    pub fn attempts(&self, class: VerbClass) -> u32 {
        self.max_attempts[class.index()].max(1)
    }

    /// Backoff cycles before retry number `retry` (1-based) of `class`.
    /// Deterministic in `(self, class, retry, salt)`.
    pub fn backoff_step(&self, class: VerbClass, retry: u32, salt: u64) -> u64 {
        debug_assert!(retry >= 1, "the first issue has no backoff");
        let shift = (retry - 1).min(63);
        let exp = self
            .base_backoff_cycles
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(self.max_backoff_cycles);
        let key = self
            .jitter_seed
            .wrapping_add((class.index() as u64) << 32)
            .wrapping_add(retry as u64)
            .wrapping_add(salt.rotate_left(17));
        let jitter = splitmix64(key) % (exp / 4 + 1);
        exp + jitter
    }

    /// The full attempt schedule for one verb at one call site, as a
    /// resumable iterator. This is [`RetryPolicy::run`]'s engine, split out
    /// so issue/poll callers — which issue a verb, go do other work, and
    /// only learn of the failure when they poll the completion — can walk
    /// the *identical* schedule across that gap.
    pub fn attempt_seq(&self, class: VerbClass, salt: u64) -> AttemptSeq {
        AttemptSeq {
            policy: *self,
            class,
            salt,
            next_index: 0,
            delay: 0,
            budget: self.attempts(class),
        }
    }

    /// Drive `op` until it succeeds or the class budget runs out.
    ///
    /// `op` receives the [`Attempt`] so the caller decides how to *spend*
    /// the backoff: sites that post on the network timeline shift their
    /// `at` stamp by `attempt.delay`; blocking sites charge `attempt.step`
    /// as local compute before reissuing ([`Self::run_blocking`]). `salt`
    /// de-correlates jitter between call sites (pass the page/home/lock
    /// identity).
    pub fn run<R>(
        &self,
        class: VerbClass,
        salt: u64,
        mut op: impl FnMut(Attempt) -> Result<R, VerbError>,
    ) -> Result<Retried<R>, RetryExhausted> {
        let mut seq = self.attempt_seq(class, salt);
        loop {
            // The budget is at least 1, so the first `next()` always yields.
            let Some(attempt) = seq.next() else {
                unreachable!("attempt budget underflow");
            };
            match op(attempt) {
                Ok(value) => {
                    return Ok(Retried {
                        value,
                        retries: attempt.index,
                        delay: attempt.delay,
                    })
                }
                Err(last_error) => {
                    if seq.is_exhausted() {
                        return Err(seq.exhausted(last_error));
                    }
                }
            }
        }
    }

    /// Drive the blocking `verb` on `t` against `target` until it completes
    /// or the class budget runs out, charging each backoff step to `t` as
    /// local compute before the reissue — the retry loop of every
    /// synchronization-layer verb (lock CAS, flag write, flag poll, PGAS
    /// element access).
    pub fn run_blocking<E: Endpoint>(
        &self,
        t: &mut E,
        class: VerbClass,
        salt: u64,
        target: NodeId,
        verb: &Verb,
    ) -> Result<Retried<Completion>, RetryExhausted> {
        self.run(class, salt, |a| {
            if a.step > 0 {
                t.compute(a.step);
            }
            t.blocking(target, verb)
        })
    }
}

/// The deterministic attempt schedule of one verb: yields [`Attempt`]s in
/// order (index 0 first, backoff already accumulated into `delay`) until the
/// class budget runs out. Produced by [`RetryPolicy::attempt_seq`]; the
/// sequence is a pure function of `(policy, class, salt)`, so a caller that
/// issues attempt 0, parks the token, and resumes the schedule at poll time
/// retries at exactly the instants the blocking [`RetryPolicy::run`] loop
/// would have.
#[derive(Debug, Clone)]
pub struct AttemptSeq {
    policy: RetryPolicy,
    class: VerbClass,
    salt: u64,
    next_index: u32,
    delay: u64,
    budget: u32,
}

impl AttemptSeq {
    /// The verb class this schedule belongs to.
    #[inline]
    pub fn class(&self) -> VerbClass {
        self.class
    }

    /// The attempt index `next()` will hand out next (== attempts already
    /// handed out; flight-recorder records key retries off this).
    #[inline]
    pub fn next_index(&self) -> u32 {
        self.next_index
    }

    /// The next attempt, or `None` once the budget is spent.
    #[allow(clippy::should_implement_trait)] // not an Iterator: callers resume it statefully
    pub fn next(&mut self) -> Option<Attempt> {
        if self.next_index >= self.budget {
            return None;
        }
        let index = self.next_index;
        let step = if index == 0 {
            0
        } else {
            self.policy.backoff_step(self.class, index, self.salt)
        };
        self.delay += step;
        self.next_index += 1;
        Some(Attempt {
            index,
            step,
            delay: self.delay,
        })
    }

    /// Whether every attempt in the budget has been handed out.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.next_index >= self.budget
    }

    /// The terminal error once the schedule is spent (`attempts` = budget,
    /// `delay` = total backoff handed out) — exactly what
    /// [`RetryPolicy::run`] reports.
    pub fn exhausted(&self, last_error: VerbError) -> RetryExhausted {
        RetryExhausted {
            class: self.class,
            attempts: self.next_index,
            last_error,
            delay: self.delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_stable() {
        for (i, c) in VerbClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(VerbClass::COUNT, 6);
    }

    #[test]
    fn first_attempt_has_no_backoff() {
        let p = RetryPolicy::default();
        let r = p
            .run(VerbClass::PageFetch, 7, |a| {
                assert_eq!(a.index, 0);
                assert_eq!(a.step, 0);
                assert_eq!(a.delay, 0);
                Ok::<_, VerbError>(42)
            })
            .unwrap();
        assert_eq!(r.value, 42);
        assert_eq!(r.retries, 0);
        assert_eq!(r.delay, 0);
    }

    #[test]
    fn retries_until_budget_then_reports_last_error() {
        let p = RetryPolicy::default().with_budget(VerbClass::Notify, 3);
        let mut calls = 0;
        let err = p
            .run(VerbClass::Notify, 0, |_| {
                calls += 1;
                Err::<(), _>(VerbError::Dropped)
            })
            .unwrap_err();
        assert_eq!(calls, 3);
        assert_eq!(err.attempts, 3);
        assert_eq!(err.class, VerbClass::Notify);
        assert_eq!(err.last_error, VerbError::Dropped);
        assert!(err.delay > 0);
    }

    #[test]
    fn success_mid_schedule_reports_retry_count_and_delay() {
        let p = RetryPolicy::default();
        let mut failures = 2;
        let r = p
            .run(VerbClass::LockAtomic, 9, |a| {
                if failures > 0 {
                    failures -= 1;
                    Err(VerbError::Timeout)
                } else {
                    Ok(a.delay)
                }
            })
            .unwrap();
        assert_eq!(r.retries, 2);
        assert_eq!(r.value, r.delay);
        let expected = p.backoff_step(VerbClass::LockAtomic, 1, 9)
            + p.backoff_step(VerbClass::LockAtomic, 2, 9);
        assert_eq!(r.delay, expected);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            base_backoff_cycles: 100,
            max_backoff_cycles: 800,
            ..RetryPolicy::default()
        };
        // Strip jitter (≤ 25%) by checking the step is within [exp, 1.25*exp].
        for retry in 1..=8u32 {
            let exp = (100u64 << (retry - 1)).min(800);
            let s = p.backoff_step(VerbClass::Downgrade, retry, 3);
            assert!(s >= exp && s <= exp + exp / 4, "retry {retry}: step {s} vs exp {exp}");
        }
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_salt() {
        let p = RetryPolicy::default();
        for retry in 1..=5 {
            assert_eq!(
                p.backoff_step(VerbClass::PageFetch, retry, 11),
                p.backoff_step(VerbClass::PageFetch, retry, 11)
            );
        }
        // Different salts (call sites) decorrelate.
        let a: Vec<u64> = (1..=5).map(|r| p.backoff_step(VerbClass::PageFetch, r, 1)).collect();
        let b: Vec<u64> = (1..=5).map(|r| p.backoff_step(VerbClass::PageFetch, r, 2)).collect();
        assert_ne!(a, b);
    }

    /// The resumable schedule is the same sequence `run` walks, attempt for
    /// attempt, including the terminal exhaustion report.
    #[test]
    fn attempt_seq_replays_run_schedule() {
        let p = RetryPolicy::default().with_budget(VerbClass::Downgrade, 4);
        let mut from_run = Vec::new();
        let err = p
            .run(VerbClass::Downgrade, 77, |a| {
                from_run.push(a);
                Err::<(), _>(VerbError::Timeout)
            })
            .unwrap_err();
        let mut seq = p.attempt_seq(VerbClass::Downgrade, 77);
        let mut from_seq = Vec::new();
        while let Some(a) = seq.next() {
            from_seq.push(a);
        }
        assert_eq!(from_run, from_seq);
        assert!(seq.is_exhausted());
        assert_eq!(seq.exhausted(VerbError::Timeout), err);
    }

    #[test]
    fn zero_budget_behaves_as_one_attempt() {
        let p = RetryPolicy::default().with_budget(VerbClass::FlagWrite, 0);
        let mut calls = 0;
        let err = p
            .run(VerbClass::FlagWrite, 0, |_| {
                calls += 1;
                Err::<(), _>(VerbError::NicStall)
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(err.attempts, 1);
    }
}
