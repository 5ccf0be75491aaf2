//! A simulated thread that panics fails its run, whatever its peers are
//! waiting in: the run re-raises that thread's message, and no peer hangs.
//!
//! Each test panics one thread while the others block in one primitive —
//! the hierarchical barrier (on both backends), a `ClockBarrier`, a
//! `DsmFlag`, the global lock, the cohort lock, an HQDL future, and an MPI
//! rank's `recv` and `barrier`. The panicking thread sleeps first, so its
//! peers are usually asleep when it fails; a peer that arrives later must
//! fail as well. Each run sits on a watched thread: one that has not failed
//! after 5 s fails the test instead of hanging the suite.

use argo::{ArgoConfig, ArgoMachine};
use simnet::{CostModel, NodeId, Tag};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use vela::{ClockBarrier, DsmCohortLock, DsmFlag, DsmGlobalLock, Hqdl};
use workloads::harness::run_mpi;

/// Run `body` on a thread of its own; the message of the panic it must end
/// with, within 5 s.
fn failure_within_5s(body: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = panic::catch_unwind(AssertUnwindSafe(body));
        let _ = tx.send(outcome.err().map(|payload| match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().map_or_else(|_| "?".into(), |s| s.to_string()),
        }));
    });
    let failure = rx.recv_timeout(Duration::from_secs(5)).expect("the run hangs");
    failure.expect("the run did not fail")
}

/// Let the peers reach their wait, then fail.
fn fail_late(message: &str) -> ! {
    std::thread::sleep(Duration::from_millis(50));
    panic!("{message}")
}

fn machine() -> Arc<ArgoMachine> {
    ArgoMachine::new(ArgoConfig::small(2, 2))
}

#[test]
fn a_thread_panicking_while_its_peers_wait_at_the_barrier_fails_the_run() {
    let m = machine();
    let failure = failure_within_5s(move || {
        m.run(|ctx| {
            if ctx.tid() == 0 {
                fail_late("thread 0 failed");
            }
            ctx.barrier();
        });
    });
    assert_eq!(failure, "thread 0 failed");
}

/// The native backend's fabric carries its own abort flag.
#[test]
fn a_thread_panicking_on_the_native_backend_fails_the_run() {
    let m = ArgoMachine::native(ArgoConfig::small(2, 2));
    let failure = failure_within_5s(move || {
        m.run(|ctx| {
            if ctx.tid() == 0 {
                fail_late("thread 0 failed");
            }
            ctx.barrier();
        });
    });
    assert_eq!(failure, "thread 0 failed");
}

#[test]
fn a_peer_panicking_outside_a_clock_barrier_fails_its_waiters() {
    let m = machine();
    let b = Arc::new(ClockBarrier::new(4, 0));
    let failure = failure_within_5s(move || {
        m.run(move |ctx| {
            if ctx.tid() == 0 {
                fail_late("thread 0 failed");
            }
            b.wait(&mut ctx.thread);
        });
    });
    assert_eq!(failure, "thread 0 failed");
}

#[test]
fn a_signaller_panicking_fails_the_flags_waiters() {
    let m = machine();
    let flag = DsmFlag::new(m.dsm().clone(), NodeId(0));
    let failure = failure_within_5s(move || {
        m.run(move |ctx| {
            if ctx.tid() == 0 {
                fail_late("the signaller failed");
            }
            flag.wait_past(&mut ctx.thread, 0);
        });
    });
    assert_eq!(failure, "the signaller failed");
}

#[test]
fn a_global_lock_holder_panicking_fails_its_waiters() {
    let m = machine();
    let lock = DsmGlobalLock::new(NodeId(0), m.dsm().config().retry);
    let failure = failure_within_5s(move || {
        m.run(move |ctx| {
            if ctx.tid() != 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
            lock.acquire(&mut ctx.thread);
            if ctx.tid() == 0 {
                fail_late("the holder failed");
            }
            lock.release(&mut ctx.thread, carina::Published::default());
        });
    });
    assert_eq!(failure, "the holder failed");
}

/// Thread 0 fails inside its critical section: its node's sibling waits
/// at the node tier, the other node's threads at the global lock.
#[test]
fn a_cohort_section_panicking_fails_both_tiers_waiters() {
    let m = machine();
    let lock = DsmCohortLock::new(m.dsm().clone(), 16);
    let failure = failure_within_5s(move || {
        m.run(move |ctx| {
            if ctx.tid() != 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
            let tid = ctx.tid();
            lock.with(&mut ctx.thread, |_| {
                if tid == 0 {
                    fail_late("the section failed");
                }
            });
        });
    });
    assert_eq!(failure, "the section failed");
}

/// Thread 0 helps its node and runs its own section, which fails: its
/// sibling waits on the helper role, the other node's helpers at the
/// global lock the failed tenure holds.
#[test]
fn a_delegated_section_panicking_on_the_helper_fails_the_futures_waiters() {
    let m = machine();
    let lock = Hqdl::new(m.dsm().clone(), 64);
    let failure = failure_within_5s(move || {
        m.run(move |ctx| {
            if ctx.tid() == 0 {
                lock.delegate_wait(&mut ctx.thread, |_| fail_late("the delegated section failed"));
            } else {
                std::thread::sleep(Duration::from_millis(10));
                lock.delegate_wait(&mut ctx.thread, |_| ());
            }
        });
    });
    assert_eq!(failure, "the delegated section failed");
}

#[test]
fn a_rank_panicking_fails_the_ranks_in_recv_and_barrier() {
    let failure = failure_within_5s(|| {
        run_mpi(1, 3, CostModel::paper_2011(), |ctx| match ctx.rank {
            0 => drop(ctx.world.recv(&mut ctx.thread, 0, Some(2), Tag(1))),
            1 => ctx.world.barrier(&mut ctx.thread),
            _ => fail_late("rank 2 failed"),
        });
    });
    assert_eq!(failure, "rank 2 failed");
}
