//! The one blocking seam. Every unbounded host wait of a simulated machine
//! blocks in a [`Waits`]: Vela's barrier, flag, lock tiers and HQDL helper
//! role, and the MPI baselines' mailboxes and barrier. Each keeps its own
//! state machine and asks `Waits` only to block until a predicate over its
//! state holds. Every simulated thread runs under [`run_threads`], which
//! raises the fabric's [`Abort`] flag when a thread panics. A waiter checks
//! the flag before it blocks and at every wake-up (at least every
//! [`ABORT_POLL`]) and then unwinds with [`PEER_PANICKED`]: the run fails
//! with the first thread's panic instead of hanging.
//!
//! Two host-time loops stay outside: the global lock's real-time shadow of
//! a virtual wait and an HQDL helper's 48-yield linger. Both are bounded,
//! so neither can hang a run, and both exist only because the free-running
//! simulator lets host order shape queue dynamics: a scheduler that runs
//! one simulated thread at a time deletes them.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What a waiter unwinds with once a peer thread has panicked.
pub const PEER_PANICKED: &str = "peer thread panicked";

/// The longest a waiter sleeps without checking its [`Abort`] flag.
pub const ABORT_POLL: Duration = Duration::from_millis(20);

/// The most simulated threads [`run_threads`] starts: each is an OS thread
/// with its own stack, and a shape past this would exhaust the host.
pub const MAX_THREADS: usize = 256;

/// Raised when a simulated thread panics. It stays raised: a machine whose
/// run failed fails every later wait.
#[derive(Debug, Default)]
pub struct Abort(AtomicBool);

impl Abort {
    pub fn raise(&self) {
        self.0.store(true, Ordering::Release);
    }

    pub fn is_raised(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A primitive's state `S` and the threads waiting on it.
#[derive(Debug, Default)]
pub struct Waits<S> {
    state: Mutex<S>,
    cond: Condvar,
    /// Threads asleep in `cond`, changed under `state`: a notify with nobody
    /// asleep, as after most HQDL sections, skips the futex wake-up call.
    sleepers: AtomicUsize,
}

impl<S> Waits<S> {
    pub const fn new(state: S) -> Self {
        Waits { state: Mutex::new(state), cond: Condvar::new(), sleepers: AtomicUsize::new(0) }
    }

    /// The state, for a step that does not wait. A thread that panicked
    /// holding it poisons nothing: the waits report the failure.
    pub fn lock(&self) -> MutexGuard<'_, S> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until `pred` holds of the state; return the state locked.
    /// Unwinds with [`PEER_PANICKED`] if `abort` is raised first.
    pub fn wait_until(&self, abort: &Abort, pred: impl FnMut(&S) -> bool) -> MutexGuard<'_, S> {
        self.wait(abort, None, ABORT_POLL, pred).expect("no deadline")
    }

    /// [`Self::wait_until`] for at most `timeout`: `None` if `pred` does
    /// not hold by then.
    pub fn wait_until_timeout(
        &self,
        abort: &Abort,
        timeout: Duration,
        pred: impl FnMut(&S) -> bool,
    ) -> Option<MutexGuard<'_, S>> {
        self.wait(abort, Instant::now().checked_add(timeout), ABORT_POLL, pred)
    }

    /// The wait, sleeping at most `poll` between checks of `abort`.
    fn wait(
        &self,
        abort: &Abort,
        deadline: Option<Instant>,
        poll: Duration,
        mut pred: impl FnMut(&S) -> bool,
    ) -> Option<MutexGuard<'_, S>> {
        let mut state = self.lock();
        loop {
            if abort.is_raised() {
                // Skips the panic hook: only the first panic is printed.
                resume_unwind(Box::new(PEER_PANICKED));
            }
            if pred(&state) {
                return Some(state);
            }
            let left = deadline.map_or(poll, |d| d.saturating_duration_since(Instant::now()));
            if left.is_zero() {
                return None;
            }
            self.sleepers.fetch_add(1, Ordering::Relaxed);
            let sleep = self.cond.wait_timeout(state, left.min(poll));
            state = sleep.unwrap_or_else(PoisonError::into_inner).0;
            self.sleepers.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Wake one waiter to re-check its predicate. Taking the state lock
    /// first, a notify cannot fall between a waiter's check and its sleep,
    /// even after a change made outside the lock.
    pub fn notify_one(&self) {
        let _state = self.lock();
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.cond.notify_one();
        }
    }

    /// Wake every waiter to re-check its predicate (as [`Self::notify_one`]).
    pub fn notify_all(&self) {
        let _state = self.lock();
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.cond.notify_all();
        }
    }
}

/// Run `n` simulated threads (1 MiB stacks), thread `i` named `name(i)`
/// and running `body(i)`; their results in thread order.
///
/// A thread's panic raises `abort`, so its peers' waits unwind too. Once
/// all are joined, the first panic in thread order that is not
/// [`PEER_PANICKED`] is re-raised (the first of all if every one is).
/// Panics before it starts any thread if `n` exceeds [`MAX_THREADS`].
pub fn run_threads<R: Send>(
    abort: &Abort,
    n: usize,
    name: impl Fn(usize) -> String,
    body: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    assert!(n <= MAX_THREADS, "{n} simulated threads requested; at most {MAX_THREADS} run");
    let body = &body;
    let outcomes: Vec<std::thread::Result<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let run = move || catch_unwind(AssertUnwindSafe(|| body(i)));
                let builder = std::thread::Builder::new().name(name(i)).stack_size(1 << 20);
                builder.spawn_scoped(s, move || run().inspect_err(|_| abort.raise()))
            })
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| {
                abort.raise();
                panic!("failed to spawn a simulated thread: {e}")
            });
        handles.into_iter().map(|h| h.join().unwrap_or_else(Err)).collect()
    });
    let (mut results, mut panics) = (Vec::with_capacity(n), Vec::new());
    for outcome in outcomes {
        outcome.map_or_else(|p| panics.push(p), |r| results.push(r));
    }
    if !panics.is_empty() {
        let peer = |p: &Box<dyn Any + Send>| p.downcast_ref::<&str>() == Some(&PEER_PANICKED);
        let first = panics.iter().position(|p| !peer(p)).unwrap_or(0);
        resume_unwind(panics.swap_remove(first));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// The text a panic carried.
    fn text(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().map_or_else(|_| "?".into(), |s| s.to_string()),
        }
    }

    /// A notify after a change made outside the state lock wakes the
    /// waiter: with no poll to fall back on, a lost wake-up would hang.
    #[test]
    fn a_notify_after_a_change_outside_the_lock_wakes_the_waiter() {
        let waits = Arc::new(Waits::new(()));
        let flag = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let (waits, flag) = (waits.clone(), flag.clone());
            std::thread::spawn(move || {
                let (abort, forever) = (Abort::default(), Duration::from_secs(3600));
                drop(waits.wait(&abort, None, forever, |_| flag.load(Ordering::Acquire)));
                tx.send(()).unwrap();
            });
        }
        while waits.sleepers.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        flag.store(true, Ordering::Release);
        waits.notify_one();
        rx.recv_timeout(Duration::from_secs(5)).expect("the notify was lost");
    }

    /// An abort raised while a thread waits unwinds it with
    /// `PEER_PANICKED` within a poll.
    #[test]
    fn an_abort_mid_wait_panics_the_waiter() {
        let waits = Arc::new(Waits::new(false));
        let abort = Arc::new(Abort::default());
        let waiter = {
            let (waits, abort) = (waits.clone(), abort.clone());
            std::thread::spawn(move || drop(waits.wait_until(&abort, |&done| done)))
        };
        while waits.sleepers.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let raised = Instant::now();
        abort.raise();
        assert_eq!(text(waiter.join().unwrap_err()), PEER_PANICKED);
        assert!(raised.elapsed() < Duration::from_secs(5));
    }

    /// A wait that starts after the abort panics before it looks at the
    /// state, even one whose predicate already holds.
    #[test]
    fn a_wait_after_the_abort_panics_at_once() {
        let (waits, abort) = (Waits::new(true), Abort::default());
        abort.raise();
        let late = catch_unwind(AssertUnwindSafe(|| drop(waits.wait_until(&abort, |&s| s))));
        assert_eq!(text(late.unwrap_err()), PEER_PANICKED);
    }

    #[test]
    fn the_timed_wait_times_out() {
        let (waits, abort) = (Waits::new(0u32), Abort::default());
        let start = Instant::now();
        assert!(waits.wait_until_timeout(&abort, Duration::from_millis(30), |&s| s > 0).is_none());
        assert!(start.elapsed() >= Duration::from_millis(30));
        *waits.lock() = 1;
        assert!(waits.wait_until_timeout(&abort, Duration::ZERO, |&s| s > 0).is_some());
    }

    /// The thread that panicked first is the one reported; its peers,
    /// stuck in a wait that would never end, unwind with `PEER_PANICKED`.
    #[test]
    fn run_threads_reraises_the_first_panic_that_is_not_a_peers() {
        let (waits, abort) = (Waits::new(()), Abort::default());
        let failed = catch_unwind(AssertUnwindSafe(|| {
            run_threads(&abort, 3, |i| format!("t{i}"), |i| {
                if i == 2 {
                    panic!("thread 2 failed");
                }
                drop(waits.wait_until(&abort, |_| false));
            })
        }));
        assert_eq!(text(failed.unwrap_err()), "thread 2 failed");
        assert!(abort.is_raised());
    }

    /// A shape past the cap is refused before any thread starts: the body
    /// never runs, and the message names the shape and the cap.
    #[test]
    fn run_threads_refuses_more_than_the_cap_and_starts_none() {
        let (abort, calls) = (Abort::default(), AtomicUsize::new(0));
        let refused = catch_unwind(AssertUnwindSafe(|| {
            run_threads(&abort, MAX_THREADS + 1, |i| format!("t{i}"), |_| {
                calls.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let text = text(refused.unwrap_err());
        assert!(text.contains("257") && text.contains("256"), "{text}");
        assert_eq!(calls.load(Ordering::Relaxed), 0, "a thread started");
        assert!(!abort.is_raised());
    }

    #[test]
    fn run_threads_returns_results_in_thread_order() {
        let abort = Abort::default();
        assert_eq!(run_threads(&abort, 4, |i| format!("t{i}"), |i| i * 10), [0, 10, 20, 30]);
        assert!(!abort.is_raised());
    }
}
