//! The handover rule, as litmus tests: a Vela lock self-invalidates on
//! acquire only when the global lock arrived from another node
//! (`DsmGlobalLock` module docs). Every data-race-free pattern must still
//! compute the sequential answer — under all three coherence policies, on
//! both backends, through `Hqdl`, `DsmCohortLock` and `ArgoMutex` — and
//! the fences and remote verbs a passage costs are pinned exactly.
//!
//! Threads are sequenced with a *host* barrier where the order matters:
//! it carries no Carina fence, so the lock under test is the only thing
//! that can make one node's writes visible to the other.

use argo::{ArgoConfig, ArgoCtx, ArgoMachine, ArgoMutex, GlobalU64Array};
use carina::{CarinaSiSd, Coherence, Dsm, Pyxis, Tardis};
use mem::{CacheConfig, PAGE_BYTES, WORDS_PER_PAGE};
use rma::{NativeTransport, SimTransport, Transport};
use simnet::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use vela::{DsmCohortLock, DsmFlag, FencePlacement, Hqdl};

/// A payload spanning several pages; interleaved homing puts them on
/// alternating nodes, so every node finds some of it remote.
const PAYLOAD_PAGES: usize = 4;
const PAYLOAD_WORDS: usize = PAYLOAD_PAGES * WORDS_PER_PAGE;

/// A critical section: runs on whichever endpoint executes it (the
/// delegating node's helper under HQDL, the caller otherwise).
type Section<T, C> = Arc<dyn Fn(&Dsm<T, C>, &mut <T as Transport>::Endpoint) + Send + Sync>;

/// One of the three fence-placing locks behind a common `section` call.
enum Lock<T: Transport, C: Coherence> {
    Hqdl(Arc<Hqdl<T, C>>),
    Cohort(Arc<DsmCohortLock<T, C>>),
    Mutex(Arc<ArgoMutex<T, C>>),
}

impl<T: Transport, C: Coherence> Lock<T, C> {
    /// A fresh lock of each kind (the cohort lock with the hierarchical
    /// placement the rule applies to).
    fn all(dsm: &Arc<Dsm<T, C>>) -> [Self; 3] {
        [
            Lock::Hqdl(Hqdl::new(dsm.clone(), 64)),
            Lock::Cohort(DsmCohortLock::with_fencing(
                dsm.clone(),
                16,
                FencePlacement::Hierarchical,
            )),
            Lock::Mutex(ArgoMutex::new(dsm.clone(), 0)),
        ]
    }

    fn name(&self) -> &'static str {
        match self {
            Lock::Hqdl(_) => "hqdl",
            Lock::Cohort(_) => "cohort",
            Lock::Mutex(_) => "mutex",
        }
    }

    fn section(&self, ctx: &mut ArgoCtx<T, C>, cs: &Section<T, C>) {
        let dsm = ctx.dsm().clone();
        match self {
            Lock::Hqdl(l) => {
                let cs = cs.clone();
                l.delegate_wait(&mut ctx.thread, move |t| cs(&dsm, t));
            }
            Lock::Cohort(l) => l.with(&mut ctx.thread, |t| cs(&dsm, t)),
            Lock::Mutex(l) => l.with(ctx, |ctx| cs(&dsm, &mut ctx.thread)),
        }
    }

    /// Global-lock acquisitions that came from another node (or from
    /// nobody: the first one).
    fn handovers(&self) -> u64 {
        match self {
            Lock::Hqdl(l) => l.observer().snapshot().handovers,
            Lock::Cohort(l) => l.global_stats().node_switches,
            Lock::Mutex(l) => l.observer().snapshot().handovers,
        }
    }
}

/// Run `$f::<T, C>(machine)` on a fresh machine of every backend × policy:
/// `$nodes × $tpn` with the default coherence configuration, or whatever
/// the `$cfg` closure builds.
macro_rules! on_every_machine {
    ($f:ident, $nodes:expr, $tpn:expr) => {
        on_every_machine!($f, || ArgoConfig::small($nodes, $tpn))
    };
    ($f:ident, $cfg:expr) => {{
        let cfg = $cfg;
        $f(ArgoMachine::<SimTransport, CarinaSiSd>::with_policy(cfg()));
        $f(ArgoMachine::<SimTransport, Tardis>::with_policy(cfg()));
        $f(ArgoMachine::<SimTransport, Pyxis>::with_policy(cfg()));
        $f(ArgoMachine::<NativeTransport, CarinaSiSd>::native_with_policy(cfg()));
        $f(ArgoMachine::<NativeTransport, Tardis>::native_with_policy(cfg()));
        $f(ArgoMachine::<NativeTransport, Pyxis>::native_with_policy(cfg()));
    }};
}

/// What every litmus runs: one lock, a payload, and a section that checks
/// the whole payload holds `expect` (counting words that do not into
/// `stale`), then rewrites it with `next` — `step` maps the payload's
/// first word to `(expect, next)`.
struct Rig<T: Transport, C: Coherence> {
    what: String,
    lock: Arc<Lock<T, C>>,
    payload: GlobalU64Array,
    stale: Arc<AtomicU64>,
    cs: Section<T, C>,
}

impl<T: Transport, C: Coherence> Rig<T, C> {
    /// One rig per lock kind on `m`, coherence counters zeroed.
    fn each(
        m: &ArgoMachine<T, C>,
        step: fn(u64) -> (u64, u64),
    ) -> impl Iterator<Item = Self> + '_ {
        Lock::all(m.dsm()).into_iter().map(move |lock| {
            m.dsm().stats().reset();
            let payload = GlobalU64Array::alloc(m.dsm(), PAYLOAD_WORDS);
            let stale = Arc::new(AtomicU64::new(0));
            let seen = stale.clone();
            Rig {
                what: format!("{} on {}", lock.name(), m.dsm().policy_name()),
                lock: Arc::new(lock),
                payload,
                stale,
                cs: Arc::new(move |dsm, t| {
                    let mut words = vec![0u64; PAYLOAD_WORDS];
                    dsm.read_u64_slice(t, payload.base(), &mut words);
                    let (expect, next) = step(words[0]);
                    let bad = words.iter().filter(|&&w| w != expect).count();
                    seen.fetch_add(bad as u64, Ordering::Relaxed);
                    words.fill(next);
                    dsm.write_u64_slice(t, payload.base(), &words);
                }),
            }
        })
    }

    /// The region-side handles: the lock and the section to run under it.
    fn handles(&self) -> (Arc<Lock<T, C>>, Section<T, C>) {
        (self.lock.clone(), self.cs.clone())
    }

    /// No section saw a stale or torn payload, every payload word ended up
    /// `expect`, and the protocol invariants hold.
    fn assert_sound(&self, m: &ArgoMachine<T, C>, expect: u64) {
        let what = &self.what;
        assert_eq!(self.stale.load(Ordering::Relaxed), 0, "{what}: stale words seen");
        for i in 0..PAYLOAD_WORDS {
            assert_eq!(m.dsm().peek_u64(self.payload.addr(i)), expect, "{what}: word {i}");
        }
        let v = m.dsm().check_invariants();
        assert!(v.is_empty(), "{what}: invariants violated: {v:?}");
    }
}

/// (a) Contended counter + multi-page payload: exact final values, no
/// section ever sees a torn or stale payload, and the lock's SI fences are
/// exactly its handovers (no barrier runs in the region, so every SI fence
/// counted is the lock's).
fn contended_rewrite<T: Transport, C: Coherence>(m: Arc<ArgoMachine<T, C>>) {
    const ITERS: u64 = 40;
    for rig in Rig::each(&m, |v| (v, v + 1)) {
        let (lock, cs) = rig.handles();
        let report = m.run(move |ctx| {
            for _ in 0..ITERS {
                lock.section(ctx, &cs);
            }
        });
        let what = &rig.what;
        let handovers = rig.lock.handovers();
        assert!(handovers >= 2, "{what}: both nodes must have held the lock");
        assert_eq!(report.coherence.si_fences, handovers, "{what}: one SI fence per handover");
        rig.assert_sound(&m, ITERS * m.config().total_threads() as u64);
    }
}

#[test]
fn contended_sections_fence_once_per_handover() {
    on_every_machine!(contended_rewrite, 2, 2);
}

/// (b) A node that keeps the lock to itself fences once: 100 tenures, one
/// SI fence, and nothing fetched again after the first tenure.
fn solo_node<T: Transport, C: Coherence>(m: Arc<ArgoMachine<T, C>>) {
    for rig in Rig::each(&m, |v| (v, v + 1)) {
        let (lock, cs) = rig.handles();
        let report = m.run(move |ctx| {
            if ctx.node() != 0 {
                return 0;
            }
            lock.section(ctx, &cs);
            let after_first = ctx.dsm().stats().snapshot().read_misses;
            for _ in 1..100 {
                lock.section(ctx, &cs);
            }
            after_first
        });
        let what = &rig.what;
        assert_eq!(rig.lock.handovers(), 1, "{what}");
        assert_eq!(report.coherence.si_fences, 1, "{what}: only the first tenure fences");
        assert!(report.results[0] > 0, "{what}: the payload has remote pages");
        assert_eq!(
            report.coherence.read_misses, report.results[0],
            "{what}: re-fetches after the first tenure"
        );
        rig.assert_sound(&m, 100);
    }
}

#[test]
fn solo_node_fences_once_and_never_refetches() {
    on_every_machine!(solo_node, 2, 1);
}

/// (c) Transitivity: node 1 writes *outside* the lock and publishes through
/// another synchronization object — a barrier, then a `DsmFlag` — between
/// two tenures of node 0. The second tenure is not a handover and does not
/// fence, yet must observe the write, because barrier and flag carry their
/// own fences.
fn published_elsewhere<T: Transport, C: Coherence>(m: Arc<ArgoMachine<T, C>>) {
    // Node 0's sections only check that the payload is whole (every word
    // equals the first) and write it back unchanged.
    for rig in Rig::each(&m, |v| (v, v)) {
        let (lock, cs) = rig.handles();
        let payload = rig.payload;
        let flag = DsmFlag::new(m.dsm().clone(), NodeId(1));
        let host = Arc::new(Barrier::new(2));
        let report = m.run(move |ctx| {
            if ctx.node() == 0 {
                lock.section(ctx, &cs);
                ctx.barrier();
                ctx.barrier();
                lock.section(ctx, &cs);
                let seen = ctx.read_u64(payload.base());
                host.wait();
                flag.wait_past(&mut ctx.thread, 0);
                lock.section(ctx, &cs);
                (seen, ctx.read_u64(payload.base()))
            } else {
                ctx.barrier();
                ctx.write_u64_slice(payload.base(), &[7; PAYLOAD_WORDS]);
                ctx.barrier();
                host.wait();
                ctx.write_u64_slice(payload.base(), &[14; PAYLOAD_WORDS]);
                flag.signal(&mut ctx.thread);
                (0, 0)
            }
        });
        let what = &rig.what;
        assert_eq!(report.results[0], (7, 14), "{what}");
        assert_eq!(rig.lock.handovers(), 1, "{what}: node 0 never lost the lock");
        rig.assert_sound(&m, 14);
    }
}

#[test]
fn writes_published_through_other_sync_objects_are_observed() {
    on_every_machine!(published_elsewhere, 2, 1);
}

/// (d) Re-acquiring after another node's tenure: node 0 writes 1, node 1
/// checks 1 and writes 2, node 0 checks 2 — ordered by a host barrier
/// only, so the handover fence is what carries the data. Three tenures,
/// three handovers, three SI fences.
fn ping_pong<T: Transport, C: Coherence>(m: Arc<ArgoMachine<T, C>>) {
    for rig in Rig::each(&m, |v| (v, v + 1)) {
        let (lock, cs) = rig.handles();
        let host = Arc::new(Barrier::new(2));
        let report = m.run(move |ctx| {
            if ctx.node() == 0 {
                lock.section(ctx, &cs);
                host.wait();
                host.wait();
                lock.section(ctx, &cs);
            } else {
                host.wait();
                lock.section(ctx, &cs);
                host.wait();
            }
        });
        let what = &rig.what;
        assert_eq!(rig.lock.handovers(), 3, "{what}");
        assert_eq!(report.coherence.si_fences, 3, "{what}");
        rig.assert_sound(&m, 3);
    }
}

#[test]
fn reacquiring_node_sees_the_other_nodes_tenure() {
    on_every_machine!(ping_pong, 2, 1);
}

/// (e) A same-node tenure re-reads its own evicted write. Tenure 1 reads
/// and writes page 41. Tenure 2, same node, takes no SI fence; it reads
/// page 57, which evicts 41 from the 8-slot cache and writes it home, then
/// re-reads 41. The miss must see tenure 1's write.
fn evicted_write_across_tenures<T: Transport, C: Coherence>(m: Arc<ArgoMachine<T, C>>) {
    const PAGES: usize = 64;
    for lock in Lock::all(m.dsm()) {
        m.dsm().stats().reset();
        let what = format!("{} on {}", lock.name(), m.dsm().policy_name());
        let pages = GlobalU64Array::alloc(m.dsm(), PAGES * WORDS_PER_PAGE);
        // Interleaved homing: every other page is remote to node 0. Start
        // the numbering so that the odd ones are.
        let skew = (0..2)
            .find(|o| m.dsm().home_of(pages.addr((o + 41) * WORDS_PER_PAGE)) == 1)
            .expect("one parity is homed on node 1");
        let at = move |p: usize| pages.addr((p + skew) * WORDS_PER_PAGE);
        let first: Section<T, C> = Arc::new(move |dsm, t| {
            dsm.read_u64(t, at(41));
            dsm.write_u64(t, at(41), 42);
        });
        let seen = Arc::new(AtomicU64::new(0));
        let second: Section<T, C> = {
            let seen = seen.clone();
            Arc::new(move |dsm, t| {
                dsm.read_u64(t, at(57));
                seen.store(dsm.read_u64(t, at(41)), Ordering::Relaxed);
            })
        };
        let lock = Arc::new(lock);
        let region_lock = lock.clone();
        let report = m.run(move |ctx| {
            if ctx.node() == 0 {
                region_lock.section(ctx, &first);
                region_lock.section(ctx, &second);
            }
        });
        assert_eq!(seen.load(Ordering::Relaxed), 42, "{what}: own write lost");
        assert_eq!(lock.handovers(), 1, "{what}: tenure 2 is not a handover");
        assert_eq!(report.coherence.si_fences, 1, "{what}");
        let v = m.dsm().check_invariants();
        assert!(v.is_empty(), "{what}: invariants violated: {v:?}");
    }
}

#[test]
fn same_node_tenure_rereads_its_own_evicted_write() {
    on_every_machine!(evicted_write_across_tenures, || {
        let mut cfg = ArgoConfig::small(2, 1);
        cfg.carina.cache = CacheConfig::new(8, 1);
        cfg
    });
}

/// Remote references per passage (the RMR measure of the DSM model) on a
/// quiet 2-node simulator run: a same-node tenure issues exactly the lock
/// CAS, the release write and its write-backs, one per window run — no
/// reads; a cross-node tenure adds only the re-fetch of the pages the
/// other node dirtied.
fn verbs_per_passage<C: Coherence>(m: Arc<ArgoMachine<SimTransport, C>>) {
    for rig in Rig::each(&m, |v| (v, v + 1)) {
        let (lock, cs) = rig.handles();
        let host = Arc::new(Barrier::new(2));
        let net = m.net().clone();
        let report = m.run(move |ctx| {
            // (reads, writes, atomics) of one passage by this thread while
            // the other one is parked at the host barrier.
            let passage = |ctx: &mut ArgoCtx<SimTransport, C>| {
                let before = net.stats().snapshot();
                lock.section(ctx, &cs);
                let after = net.stats().snapshot();
                (
                    after.rdma_reads - before.rdma_reads,
                    after.rdma_writes - before.rdma_writes,
                    after.rdma_atomics - before.rdma_atomics,
                )
            };
            if ctx.node() == 1 {
                passage(ctx); // cold: first tenure, registrations, fills
                let same_node = passage(ctx);
                host.wait();
                host.wait();
                let cross_node = passage(ctx);
                vec![same_node, cross_node]
            } else {
                host.wait();
                passage(ctx);
                host.wait();
                Vec::new()
            }
        });
        let what = &rig.what;
        // Half the payload is homed on node 0: remote for the measured node.
        let remote = (PAYLOAD_PAGES / 2) as u64;
        // The remote pages are adjacent in their home's window: one write
        // carries up to a round trip's worth of them.
        let write_backs = remote.div_ceil(m.net().cost().transfers_per_round_trip(PAGE_BYTES));
        // SI/SD stays registered across fences, so the lock CAS is the only
        // atomic; the lease policies re-register a written or expired page
        // once per fence epoch and metadata plane.
        let atomics_ok = |atomics: u64| match m.dsm().policy_name() {
            "sisd" => atomics == 1,
            _ => (1..=1 + 2 * remote).contains(&atomics),
        };
        let (reads, writes, atomics) = report.results[1][0];
        assert_eq!(reads, 0, "{what}: a same-node tenure reads nothing remote");
        assert_eq!(writes, 1 + write_backs, "{what}: release write + write-backs");
        assert!(atomics_ok(atomics), "{what}: same-node tenure issued {atomics} atomics");
        let (reads, writes, atomics) = report.results[1][1];
        assert_eq!(reads, remote, "{what}: a cross-node tenure re-fetches the dirtied pages");
        assert_eq!(writes, 1 + write_backs, "{what}: release write + write-backs");
        assert!(atomics_ok(atomics), "{what}: cross-node tenure issued {atomics} atomics");
        rig.assert_sound(&m, 4);
    }
}

#[test]
fn remote_verbs_per_passage_are_bounded() {
    let cfg = || ArgoConfig::small(2, 1);
    verbs_per_passage(ArgoMachine::<SimTransport, CarinaSiSd>::with_policy(cfg()));
    verbs_per_passage(ArgoMachine::<SimTransport, Tardis>::with_policy(cfg()));
    verbs_per_passage(ArgoMachine::<SimTransport, Pyxis>::with_policy(cfg()));
}
