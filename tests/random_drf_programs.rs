//! The DRF oracle (paper §3.1: a data-race-free program whose
//! synchronization Carina sees is sequentially consistent): generated
//! programs, run at every point of the policy × backend × fault-plan
//! matrix, must leave memory and every thread's reads exactly as a
//! sequential model says, and each run must keep what `verdict` lists.
//! Epochs end at barriers; in one, each thread works its own slots and
//! page, reads what earlier epochs wrote (words and slices over other
//! threads' words), updates counters under `ArgoMutex` and HQDL sections,
//! fences, and hands a multi-page region on through a `DsmFlag`; further
//! generators build idle and decay epochs, the refill's producer/consumer
//! shape and the read-ahead's streams. A diverging run writes its trace
//! under the test target's tmpdir (`oracle/`); the program is replayed once
//! and, if it diverges again, shrunk at the same point; the panic names
//! seed, point and traces.

use argo::types::GlobalU64Array;
use argo::{ArgoConfig, ArgoCtx, ArgoMachine, ArgoMutex, RunReport};
use carina::ClassificationMode::{self, AllShared, Ps3, PsNaive};
use carina::{CarinaSiSd, Coherence, CoherenceSnapshot, Dsm, Pyxis, Tardis};
use mem::{CacheConfig, GlobalAddr, PAGE_BYTES, WORDS_PER_PAGE};
use obs::Site;
use rand::prelude::*;
use rma::{FaultPlan, FaultyTransport, NativeTransport, Transport, VerbClass};
use simnet::{Interconnect, NodeId};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use vela::{DsmFlag, Hqdl};

const SLOTS: usize = 1024;
/// Counters change only inside critical sections; lock `l` guards the
/// counters `≡ l` mod [`LOCKS`]: two `ArgoMutex`es, then the HQDL lock.
const COUNTERS: usize = 12;
const LOCKS: usize = 3;
const HQDL: usize = 2;

// A cell below `SLOTS` is a slot, placed by the program's layout; cell
// `SLOTS + w` is word `w` of a second array: one page per thread, a page of
// counters 8 words apart, then four pages holding the flag's region.
fn page_of(t: usize) -> Range<usize> {
    SLOTS + t * WORDS_PER_PAGE..SLOTS + (t + 1) * WORDS_PER_PAGE
}

fn counter(threads: usize, c: usize) -> usize {
    page_of(threads).start + 8 * c
}

/// The hand-off's region: across four pages, two of them whole.
fn region(threads: usize) -> Range<usize> {
    let base = page_of(threads + 1).start;
    base + 200..base + 1600
}

fn cells(threads: usize) -> usize {
    page_of(threads + 4).end
}

/// What a signal leaves in the region.
fn region_data(threads: usize, value: u64) -> Vec<u64> {
    region(threads).map(|c| value.wrapping_add(c as u64)).collect()
}

/// One operation of one thread.
#[derive(Debug, Clone)]
enum Op {
    /// Write `value + slot` into an owned slot.
    Write { slot: usize, value: u64 },
    /// Read any cell and fold it into the thread's running checksum.
    Read { slot: usize },
    /// owned[dst] = f(any[src]) — cross-slot dependency.
    Combine { src: usize, dst: usize },
    /// Write `value + cell` into every cell of the thread's page: one
    /// page-aligned whole-page slice store.
    Fill { value: u64 },
    /// Load `len` words of the slot array from `word`, one slice read.
    Slice { word: usize, len: usize },
    /// Add `add` to each counter inside a critical section of `lock`.
    Section { lock: usize, counters: Vec<usize>, add: u64 },
    Release,
    Acquire,
    /// Slice-store `region_data(value)` into the region, then signal.
    Signal { value: u64 },
    /// Wait until the flag has seen more than `past` signals, then
    /// slice-load the region.
    Await { past: u64 },
}

#[derive(Debug, Clone)]
struct Epoch {
    /// Every thread adapts the classification before its ops.
    decay: bool,
    /// `ops[t]`: thread `t`'s ops.
    ops: Vec<Vec<Op>>,
}

#[derive(Debug, Clone)]
struct Program {
    seed: u64,
    threads: usize,
    /// `layout[s]`: the word of the slot array slot `s` lives at.
    layout: Vec<usize>,
    epochs: Vec<Epoch>,
}

impl Program {
    /// For each word of the slot array, the slot living there.
    fn slot_at(&self) -> Vec<Option<usize>> {
        let mut at = vec![None; self.layout.iter().max().map_or(0, |w| w + 1)];
        for (s, &w) in self.layout.iter().enumerate() {
            at[w] = Some(s);
        }
        at
    }

    fn ops(&self) -> usize {
        self.epochs.iter().flat_map(|e| &e.ops).map(Vec::len).sum()
    }
}

/// Thread `t`'s slots at words `(t + rotate) % threads * stride ..`.
fn strided(threads: usize, stride: usize, rotate: usize) -> Vec<usize> {
    let per = SLOTS / threads;
    (0..SLOTS).map(|s| (s / per + rotate) % threads * stride + s % per).collect()
}

/// Thread `t` owns the words `≡ t` mod `threads`.
fn interleaved(threads: usize) -> Vec<usize> {
    let per = SLOTS / threads;
    (0..SLOTS).map(|s| s % per * threads + s / per).collect()
}

/// Every slot on its own `words` words.
fn spread(words: usize) -> Vec<usize> {
    (0..SLOTS).map(|s| s * words).collect()
}

fn program(seed: u64, threads: usize, layout: Vec<usize>, epochs: Vec<Vec<Vec<Op>>>) -> Program {
    let epochs = epochs.into_iter().map(|ops| Epoch { decay: false, ops }).collect();
    Program { seed, threads, layout, epochs }
}

/// Slot ops, about one fill of its page per thread and epoch, and reads of
/// any thread's page; each thread's slots packed back to back.
fn gen_program(seed: u64, threads: usize, epochs: usize, ops_per_epoch: usize) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let per = SLOTS / threads;
    let mut op = |t: usize| {
        let own = t * per + rng.random_range(0..per);
        match rng.random_range(0..40u32) {
            0 => Op::Fill { value: rng.random::<u32>() as u64 },
            1 | 2 => Op::Read { slot: rng.random_range(SLOTS..page_of(threads).start) },
            3..15 => Op::Write { slot: own, value: rng.random::<u32>() as u64 },
            15..27 => Op::Read { slot: rng.random_range(0..SLOTS) },
            _ => Op::Combine { src: rng.random_range(0..SLOTS), dst: own },
        }
    };
    let epochs = (0..epochs)
        .map(|_| (0..threads).map(|t| (0..ops_per_epoch).map(|_| op(t)).collect()).collect())
        .collect();
    program(seed, threads, strided(threads, per, 0), epochs)
}

/// The oracle's program class: [`gen_program`]'s ops plus, per epoch and
/// thread, up to two critical sections and two slices, fences, a read of a
/// counter and of the region, and one flag hand-off per epoch, all at
/// random places. Odd seeds interleave the slots and decay at epoch 2.
fn gen_drf(seed: u64, threads: usize) -> Program {
    let mut prog = gen_program(seed, threads, 5, 40);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ec7);
    if seed % 2 == 1 {
        prog.layout = interleaved(threads);
        prog.epochs[2].decay = true;
    }
    for (e, epoch) in prog.epochs.iter_mut().enumerate() {
        for (t, ops) in epoch.ops.iter_mut().enumerate() {
            let mut new = Vec::new();
            for _ in 0..rng.random_range(0..3) {
                let lock = rng.random_range(0..LOCKS);
                let counters = (0..rng.random_range(1..4))
                    .map(|_| lock + LOCKS * rng.random_range(0..COUNTERS / LOCKS))
                    .collect();
                new.push(Op::Section { lock, counters, add: rng.random::<u16>() as u64 });
            }
            for _ in 0..rng.random_range(0..3) {
                let (word, len) = (rng.random_range(0..SLOTS), rng.random_range(2..64));
                new.push(Op::Slice { word, len });
            }
            new.push(Op::Read { slot: counter(threads, rng.random_range(0..COUNTERS)) });
            new.push(Op::Read { slot: rng.random_range(region(threads)) });
            new.extend(rng.random_bool(0.3).then_some(Op::Release));
            new.extend(rng.random_bool(0.3).then_some(Op::Acquire));
            if t == e % threads {
                new.push(Op::Signal { value: rng.random::<u32>() as u64 });
            } else if t == (e + 1) % threads {
                new.push(Op::Await { past: 0 });
            }
            for op in new {
                ops.insert(rng.random_range(0..ops.len() + 1), op);
            }
        }
    }
    sanitize(&mut prog);
    prog
}

/// Make a program race-free. A read (or combine source, or slice word) of
/// a cell another thread writes in the same epoch is redirected to an owned
/// slot (a slice is cut before the first such word); an `Await` without a
/// signaller on another thread becomes an acquire, and each `Await` waits
/// past the signals of earlier epochs. Asserts that no counter sits under
/// two locks.
fn sanitize(prog: &mut Program) {
    let (threads, per) = (prog.threads, SLOTS / prog.threads);
    let slot_at = prog.slot_at();
    let mut guard = [None; COUNTERS];
    let mut signals = 0;
    for epoch in &mut prog.epochs {
        let mut written = vec![false; cells(threads)];
        let mut signaller = None;
        for (t, ops) in epoch.ops.iter().enumerate() {
            for op in ops {
                match op {
                    Op::Write { slot, .. } | Op::Combine { dst: slot, .. } => written[*slot] = true,
                    Op::Fill { .. } => written[page_of(t)].fill(true),
                    Op::Section { lock, counters, .. } => {
                        for &c in counters {
                            let held = *guard[c].get_or_insert(*lock);
                            assert_eq!(held, *lock, "counter {c} sits under two locks");
                            written[counter(threads, c)] = true;
                        }
                    }
                    Op::Signal { .. } => {
                        written[region(threads)].fill(true);
                        signaller = Some(t);
                    }
                    _ => {}
                }
            }
        }
        for (t, ops) in epoch.ops.iter_mut().enumerate() {
            let own = t * per..(t + 1) * per;
            let mine = |c: usize| {
                own.contains(&c)
                    || page_of(t).contains(&c)
                    || (signaller == Some(t) && region(threads).contains(&c))
            };
            let race = |c: usize| written[c] && !mine(c);
            for op in ops.iter_mut() {
                match op {
                    Op::Read { slot } | Op::Combine { src: slot, .. } if race(*slot) => {
                        *slot = own.start + *slot % per
                    }
                    Op::Slice { word, len } => {
                        let words = *word..slot_at.len().min(*word + *len);
                        let n = words.take_while(|&w| slot_at[w].is_none_or(|s| !race(s))).count();
                        if n == 0 {
                            *op = Op::Read { slot: own.start };
                        } else {
                            *len = n;
                        }
                    }
                    Op::Await { past } if signaller.is_some_and(|s| s != t) => *past = signals,
                    Op::Await { .. } => *op = Op::Acquire,
                    _ => {}
                }
            }
        }
        signals += signaller.is_some() as u64;
    }
}

/// Final memory (every cell) and each thread's read checksum.
type Expect = (Vec<u64>, Vec<u64>);

fn fold(sum: &mut u64, v: u64) {
    *sum = sum.rotate_left(7) ^ v;
}

/// The sequential model: within an epoch a thread sees the previous
/// epoch's memory plus its own writes, and after an `Await` the region as
/// its signaller left it; counters take every section's additions.
fn run_model(prog: &Program) -> Expect {
    let (threads, per) = (prog.threads, SLOTS / prog.threads);
    let slot_at = prog.slot_at();
    let mut memory = vec![0u64; cells(threads)];
    let mut sums = vec![0u64; threads];
    for epoch in &prog.epochs {
        let snapshot = memory.clone();
        let signal = epoch.ops.iter().flatten().find_map(|op| match op {
            Op::Signal { value } => Some(region_data(threads, *value)),
            _ => None,
        });
        let mut added = [0u64; COUNTERS];
        for (t, ops) in epoch.ops.iter().enumerate() {
            let mut view = snapshot.clone();
            let sum = &mut sums[t];
            for op in ops {
                match *op {
                    Op::Write { slot, value } => view[slot] = value.wrapping_add(slot as u64),
                    Op::Read { slot } => fold(sum, view[slot]),
                    Op::Combine { src, dst } => {
                        view[dst] = view[src].wrapping_mul(31).wrapping_add(1)
                    }
                    Op::Fill { value } => {
                        for c in page_of(t) {
                            view[c] = value.wrapping_add(c as u64);
                        }
                    }
                    Op::Slice { word, len } => {
                        for s in &slot_at[word..word + len] {
                            fold(sum, s.map_or(0, |s| view[s]));
                        }
                    }
                    Op::Section { ref counters, add, .. } => {
                        for &c in counters {
                            added[c] = added[c].wrapping_add(add);
                        }
                    }
                    Op::Release | Op::Acquire => {}
                    Op::Signal { .. } | Op::Await { .. } => {
                        let data = signal.as_ref().expect("a hand-off has a signal");
                        view[region(threads)].copy_from_slice(data);
                        if matches!(op, Op::Await { .. }) {
                            data.iter().for_each(|&v| fold(sum, v));
                        }
                    }
                }
            }
            let signalled = ops.iter().any(|op| matches!(op, Op::Signal { .. }));
            let regions = signalled.then(|| region(threads));
            for range in [t * per..(t + 1) * per, page_of(t)].into_iter().chain(regions) {
                memory[range.clone()].copy_from_slice(&view[range]);
            }
        }
        for (c, add) in added.into_iter().enumerate() {
            let cell = &mut memory[counter(threads, c)];
            *cell = cell.wrapping_add(add);
        }
    }
    (memory, sums)
}

/// Where a program's cells live on the DSM, and its locks and flag.
struct Rig<T: Transport, C: Coherence> {
    prog: Program,
    dsm: Arc<Dsm<T, C>>,
    slots: GlobalU64Array,
    rest: GlobalU64Array,
    mutexes: [Arc<ArgoMutex<T, C>>; 2],
    hqdl: Arc<Hqdl<T, C>>,
    flag: Arc<DsmFlag<T, C>>,
}

impl<T: Transport, C: Coherence> Rig<T, C> {
    fn new(machine: &ArgoMachine<T, C>, prog: Program) -> Self {
        let dsm = machine.dsm().clone();
        let last = (machine.config().nodes - 1) as u16;
        Rig {
            slots: GlobalU64Array::alloc(&dsm, prog.slot_at().len()),
            rest: GlobalU64Array::alloc(&dsm, cells(prog.threads) - SLOTS),
            mutexes: [ArgoMutex::new(dsm.clone(), 0), ArgoMutex::new(dsm.clone(), last)],
            hqdl: Hqdl::new(dsm.clone(), 8),
            flag: DsmFlag::new(dsm.clone(), NodeId(last)),
            prog,
            dsm,
        }
    }

    fn addr(&self, cell: usize) -> GlobalAddr {
        match cell.checked_sub(SLOTS) {
            None => self.slots.addr(self.prog.layout[cell]),
            Some(w) => self.rest.addr(w),
        }
    }

    /// Run one thread's program: (read checksum, time-table total,
    /// measured cycles).
    fn run(&self, ctx: &mut ArgoCtx<T, C>) -> (u64, u64, u64) {
        let mut sum = 0;
        for epoch in &self.prog.epochs {
            if epoch.decay {
                ctx.adapt_classification();
            }
            for op in &epoch.ops[ctx.tid()] {
                self.step(ctx, op, &mut sum);
            }
            ctx.barrier();
        }
        (sum, ctx.time_table().total_cycles(), ctx.measured_cycles())
    }

    fn step(&self, ctx: &mut ArgoCtx<T, C>, op: &Op, sum: &mut u64) {
        let threads = self.prog.threads;
        let mut load = |ctx: &mut ArgoCtx<T, C>, at, len| {
            let mut data = vec![0; len];
            ctx.read_u64_slice(at, &mut data);
            data.into_iter().for_each(|v| fold(sum, v));
        };
        match *op {
            Op::Write { slot, value } => {
                ctx.write_u64(self.addr(slot), value.wrapping_add(slot as u64))
            }
            Op::Read { slot } => fold(sum, ctx.read_u64(self.addr(slot))),
            Op::Combine { src, dst } => {
                let v = ctx.read_u64(self.addr(src));
                ctx.write_u64(self.addr(dst), v.wrapping_mul(31).wrapping_add(1));
            }
            Op::Fill { value } => {
                let page = page_of(ctx.tid());
                let data: Vec<u64> = page.clone().map(|c| value.wrapping_add(c as u64)).collect();
                ctx.write_u64_slice(self.addr(page.start), &data);
            }
            Op::Slice { word, len } => load(ctx, self.slots.addr(word), len),
            Op::Section { lock, ref counters, add } => {
                let at: Vec<_> = counters.iter().map(|&c| self.addr(counter(threads, c))).collect();
                let dsm = self.dsm.clone();
                let section = move |t: &mut T::Endpoint| {
                    for &a in &at {
                        let v = dsm.read_u64(t, a);
                        dsm.write_u64(t, a, v.wrapping_add(add));
                    }
                };
                match lock {
                    HQDL => self.hqdl.delegate_wait(&mut ctx.thread, section),
                    _ => self.mutexes[lock].with(ctx, |ctx| section(&mut ctx.thread)),
                }
            }
            Op::Release => ctx.release(),
            Op::Acquire => ctx.acquire(),
            Op::Signal { value } => {
                let at = self.addr(region(threads).start);
                ctx.write_u64_slice(at, &region_data(threads, value));
                self.flag.signal(&mut ctx.thread);
            }
            Op::Await { past } => {
                self.flag.wait_past(&mut ctx.thread, past);
                load(ctx, self.addr(region(threads).start), region(threads).len());
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Policy {
    Carina(ClassificationMode),
    Tardis,
    Pyxis,
}

#[derive(Debug, Clone, Copy)]
enum Net {
    Sim,
    Native,
    FaultySim,
    FaultyNative,
}

const POLICIES: [Policy; 3] = [Policy::Carina(Ps3), Policy::Tardis, Policy::Pyxis];
const NETS: [Net; 4] = [Net::Sim, Net::Native, Net::FaultySim, Net::FaultyNative];
const SHAPES: [(usize, usize); 5] = [(1, 4), (2, 1), (2, 2), (4, 2), (8, 1)];
/// (lines, pages per line, write-buffer pages).
type Cache = (usize, usize, usize);
const ROOMY: Cache = (8192, 1, 8192);
/// Evictions, write-buffer overflow and multi-page fills.
const SMALL: Cache = (24, 2, 4);

/// One point of the matrix; `shape` is nodes × threads per node.
#[derive(Debug, Clone, Copy)]
struct Point {
    policy: Policy,
    net: Net,
    shape: (usize, usize),
    cache: Cache,
}

impl Point {
    fn new(policy: Policy, net: Net, shape: (usize, usize)) -> Self {
        Point { policy, net, shape, cache: ROOMY }
    }

    /// 16 attempts a verb, as `chaos.rs`'s machines: at the hostile plan's
    /// failure rate a spurious exhaustion is astronomically unlikely.
    fn config(&self) -> ArgoConfig {
        let mut cfg = ArgoConfig::small(self.shape.0, self.shape.1);
        if let Policy::Carina(mode) = self.policy {
            cfg.carina.mode = mode;
        }
        cfg.carina.cache = CacheConfig::new(self.cache.0, self.cache.1);
        cfg.carina.write_buffer_pages = self.cache.2;
        cfg.carina.retry.max_attempts = [16; VerbClass::COUNT];
        cfg
    }
}

/// `chaos.rs`'s plan: ~28 % of verb issues fail outright, plus frequent
/// duplicates and spikes.
fn hostile(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        drop_per_million: 200_000,
        timeout_per_million: 100_000,
        duplicate_per_million: 150_000,
        spike_per_million: 150_000,
        spike_cycles: 20_000,
        ..FaultPlan::default()
    }
}

type Report = RunReport<(u64, u64, u64)>;
type Model = fn(&Program) -> Expect;
/// A program, what its model expects, the point, and where a failed run
/// writes its trace.
type Job<'a> = (&'a Program, &'a Expect, Point, Option<&'a Path>);

/// Run a job and judge the run.
fn run(job: Job) -> Result<Report, String> {
    match job.2.policy {
        Policy::Carina(_) => run_as::<CarinaSiSd>(job),
        Policy::Tardis => run_as::<Tardis>(job),
        Policy::Pyxis => run_as::<Pyxis>(job),
    }
}

fn run_as<C: Coherence>(job: Job) -> Result<Report, String> {
    let (cfg, seed) = (job.2.config(), job.0.seed);
    let sim = || Interconnect::new(cfg.topology(), cfg.cost);
    let native = || NativeTransport::with_cost(cfg.topology(), cfg.cost);
    match job.2.net {
        Net::Sim => check(ArgoMachine::<_, C>::on(cfg, sim()), job, || 0),
        Net::Native => check(ArgoMachine::<_, C>::on(cfg, native()), job, || 0),
        Net::FaultySim => {
            let net = FaultyTransport::wrap(sim(), hostile(seed));
            check(ArgoMachine::<_, C>::on(cfg, net.clone()), job, || net.injected().total())
        }
        Net::FaultyNative => {
            let net = FaultyTransport::wrap(native(), hostile(seed));
            check(ArgoMachine::<_, C>::on(cfg, net.clone()), job, || net.injected().total())
        }
    }
}

fn check<T: Transport, C: Coherence>(
    machine: Arc<ArgoMachine<T, C>>,
    (prog, expect, p, trace): Job,
    injected: impl Fn() -> u64,
) -> Result<Report, String> {
    let rig = Arc::new(Rig::new(&machine, prog.clone()));
    let r = rig.clone();
    let report = machine.run(move |ctx| r.run(ctx));
    let memory: Vec<u64> =
        (0..cells(prog.threads)).map(|c| machine.dsm().peek_u64(rig.addr(c))).collect();
    let verdict = verdict(&machine, &report, &memory, expect, p, injected());
    if let (Err(_), Some(path)) = (&verdict, trace) {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create the trace directory");
        std::fs::write(path, machine.dsm().lyra().to_chrome_trace()).expect("write the trace");
    }
    verdict.map(|()| report)
}

macro_rules! ensure {
    ($cond:expr, $($why:tt)+) => {
        if !$cond {
            return Err(format!($($why)+));
        }
    };
}

/// What every run keeps: the model's memory and checksums, the invariants,
/// its policy's ledger, no message handler, no bytes on one node, no clock
/// on native, simulated time tables that sum to the measured cycles, and
/// under faults injections but no exhausted budget. Each failure names its
/// check first: the shrinker keeps a drop only while that check fails.
fn verdict<T: Transport, C: Coherence>(
    machine: &ArgoMachine<T, C>,
    report: &Report,
    memory: &[u64],
    (model, sums): &Expect,
    p: Point,
    injected: u64,
) -> Result<(), String> {
    if let Some(c) = (0..memory.len()).find(|&c| memory[c] != model[c]) {
        return Err(format!("memory: cell {c} holds {:#x}, the model {:#x}", memory[c], model[c]));
    }
    let got: Vec<u64> = report.results.iter().map(|r| r.0).collect();
    ensure!(got == *sums, "checksums: {got:x?}, the model {sums:x?}");
    let violations = machine.dsm().check_invariants();
    ensure!(violations.is_empty(), "invariants: {violations:?}");
    ledger(p, &report.coherence)?;
    let (net, remote) = (report.net, p.shape.0 > 1);
    ensure!(net.handler_invocations == 0, "handlers: {} ran", net.handler_invocations);
    ensure!(remote || net.bytes_read + net.bytes_written == 0, "one node: {net:?}");
    if matches!(p.net, Net::Native | Net::FaultyNative) {
        ensure!(report.cycles == 0, "native clock: {} cycles", report.cycles);
    } else if let Some((t, r)) = report.results.iter().enumerate().find(|(_, r)| r.1 != r.2) {
        return Err(format!("time table: thread {t} sums to {}, measured {}", r.1, r.2));
    }
    if matches!(p.net, Net::FaultySim | Net::FaultyNative) {
        ensure!(!remote || injected > 0, "faults: the plan never fired");
        let exhausted = report.coherence.verb_exhaustions;
        ensure!(exhausted == 0, "faults: {exhausted} budgets exhausted");
    }
    Ok(())
}

/// Carina moves no lease or mode counter; Tardis classifies nothing and,
/// across nodes, leases; Pyxis, across nodes, attributes its fence
/// examinations to a mode, and reconciles only after a switch.
fn ledger(p: Point, c: &CoherenceSnapshot) -> Result<(), String> {
    let leases = c.lease_renewals + c.lease_expiries + c.lease_kept;
    let modes = c.mode_lease_checks + c.mode_classify_checks;
    let one_node = p.shape.0 == 1;
    match p.policy {
        Policy::Carina(_) => ensure!(leases + modes == 0, "ledger: sisd {leases}, {modes}"),
        Policy::Tardis => {
            ensure!(c.p_to_s + c.nw_to_sw + c.sw_to_mw == 0, "ledger: tardis classified");
            ensure!(one_node || leases > 0, "ledger: tardis touched no lease");
        }
        Policy::Pyxis => {
            ensure!(one_node || modes > 0, "ledger: pyxis attributed no examination");
            let switched = c.mode_to_lease + c.mode_to_sisd > 0;
            ensure!(switched || c.mode_reconciles == 0, "ledger: pyxis reconciled unswitched");
        }
    }
    Ok(())
}

/// Run `prog` at every point; on a divergence, [`fail`].
fn check_all(prog: &Program, points: impl IntoIterator<Item = Point>) -> Vec<Report> {
    let expect = run_model(prog);
    let judge = |p| match run((prog, &expect, p, Some(&trace(prog, p, "")))) {
        Ok(report) => report,
        Err(why) => fail(prog, p, why, run_model),
    };
    points.into_iter().map(judge).collect()
}

/// Drop whole epochs, then single ops, re-sanitizing after each drop and
/// keeping it while the same check still fails at `p`.
fn shrink(prog: &Program, p: Point, why: &str, model: Model) -> Program {
    let check = why.split(':').next();
    let keep = |prog: &mut Program, mut q: Program| {
        sanitize(&mut q);
        let fails = run((&q, &model(&q), p, None)).err();
        let kept = fails.is_some_and(|w| w.split(':').next() == check);
        if kept {
            *prog = q;
        }
        kept
    };
    let mut prog = prog.clone();
    let mut e = 0;
    while e < prog.epochs.len() {
        let mut q = prog.clone();
        q.epochs.remove(e);
        e += !keep(&mut prog, q) as usize;
    }
    let (epochs, threads) = (prog.epochs.len(), prog.threads);
    for (e, t) in (0..epochs).flat_map(|e| (0..threads).map(move |t| (e, t))) {
        let mut i = 0;
        while i < prog.epochs[e].ops[t].len() {
            let mut q = prog.clone();
            q.epochs[e].ops[t].remove(i);
            i += !keep(&mut prog, q) as usize;
        }
    }
    prog
}

/// Where a failed run of `prog` at `p` writes its trace; `tag` tells the
/// minimal program's run from the first.
fn trace(prog: &Program, p: Point, tag: &str) -> PathBuf {
    let ((nodes, tpn), dir) = (p.shape, Path::new(env!("CARGO_TARGET_TMPDIR")).join("oracle"));
    dir.join(format!("seed{}-{:?}-{:?}-{nodes}x{tpn}{tag}.json", prog.seed, p.policy, p.net))
}

/// Replay the failed program once: if it passes, the divergence is
/// host-ordered and shrinking would cost a replay per op for nothing, so
/// panic at once. Otherwise shrink it, and panic naming what replays it.
fn fail(prog: &Program, p: Point, why: String, model: Model) -> ! {
    let head = format!("DRF oracle: seed {} diverges at {p:?}: {why}\n", prog.seed);
    let head = head + &format!("trace {}", trace(prog, p, "").display());
    if run((prog, &model(prog), p, None)).is_ok() {
        panic!("{head}\n{} ops; did not replay, host-ordered", prog.ops());
    }
    let (min, path) = (shrink(prog, p, &why, model), trace(prog, p, "-min"));
    let last = run((&min, &model(&min), p, Some(&path))).err();
    let last = last.map_or("passes on replay".into(), |w| format!("{w}; trace {}", path.display()));
    panic!("{head}\nminimal program, {} ops ({last}):\n{:#?}", min.ops(), min.epochs);
}

/// Seed `s` runs on shape `s % 5`, with the roomy cache for `s % 10 < 5`
/// and the small one otherwise, on every backend and fault setting; over
/// the sweep every protocol site opens a scope.
fn sweep(policy: Policy, seeds: Range<u64>) {
    let mut sites = [0; Site::COUNT];
    for seed in seeds {
        let shape = SHAPES[seed as usize % SHAPES.len()];
        let cache = if seed % 10 < 5 { ROOMY } else { SMALL };
        let prog = gen_drf(seed, shape.0 * shape.1);
        let at = |net| Point { cache, ..Point::new(policy, net, shape) };
        let runs = check_all(&prog, NETS.map(at));
        Site::ALL.iter().for_each(|&s| sites[s.index()] += runs[0].profile.get(s).count());
    }
    assert!(sites.iter().all(|&n| n > 0), "{policy:?}: a site never opened: {sites:?}");
}

#[test]
fn random_programs_ps3() {
    sweep(Policy::Carina(Ps3), 0..40);
}

#[test]
fn random_programs_all_shared() {
    sweep(Policy::Carina(AllShared), 100..120);
}

#[test]
fn random_programs_ps_naive() {
    sweep(Policy::Carina(PsNaive), 200..220);
}

#[test]
fn random_programs_tardis() {
    sweep(Policy::Tardis, 300..340);
}

#[test]
fn random_programs_pyxis() {
    sweep(Policy::Pyxis, 400..440);
}

/// A model that skips thread 0's last write of epoch 1.
fn skips(prog: &Program) -> Expect {
    let mut q = prog.clone();
    if let Some(ops) = q.epochs.get_mut(1).map(|e| &mut e.ops[0]) {
        if let Some(i) = ops.iter().rposition(|op| matches!(op, Op::Write { .. })) {
            ops.remove(i);
        }
    }
    run_model(&q)
}

/// A run of `model` at `p` that diverges and writes its trace (a `tag`
/// trace too, if `fail`'s last run diverges), and `fail`'s panic message.
fn failure(model: Model, p: Point, tag: &str) -> (Program, String) {
    let mut prog = gen_program(7, 2, 3, 6);
    sanitize(&mut prog);
    let paths = [trace(&prog, p, ""), trace(&prog, p, tag)];
    paths.iter().for_each(|t| _ = std::fs::remove_file(t));
    let why = run((&prog, &model(&prog), p, Some(&paths[0]))).expect_err("unreported");
    let panic = std::panic::catch_unwind(|| fail(&prog, p, why, model)).expect_err("fail returned");
    assert!(paths.iter().all(|t| t.exists()), "a failed run wrote no trace");
    (prog, *panic.downcast::<String>().expect("a formatted panic"))
}

/// The oracle is not vacuous: against a model that skips a write, the run
/// diverges, its replay too, and the shrinker cuts it down to that write.
#[test]
fn a_model_that_skips_a_write_is_caught_and_shrunk() {
    let (_, why) = failure(skips, Point::new(Policy::Carina(Ps3), Net::Sim, (2, 1)), "-min");
    let ops = why.split("minimal program, ").nth(1).and_then(|s| s.split(' ').next()?.parse().ok());
    assert!(ops.is_some_and(|n: usize| n <= 3), "{why}");
}

/// A divergence the replay does not repeat (here a model wrong only once)
/// is reported at once as host-ordered, not shrunk op by op.
#[test]
fn a_divergence_that_does_not_replay_is_reported_host_ordered() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    fn once(prog: &Program) -> Expect {
        if CALLS.fetch_add(1, Relaxed) == 0 { skips(prog) } else { run_model(prog) }
    }
    let (prog, why) = failure(once, Point::new(Policy::Carina(Ps3), Net::Native, (2, 1)), "");
    assert!(why.ends_with(&format!("{} ops; did not replay, host-ordered", prog.ops())), "{why}");
    assert_eq!(CALLS.load(Relaxed), 2, "the program was replayed more than once");
}

/// Silence thread `t`'s writes (into reads) for runs of 1–9 epochs between
/// runs of 1–3 writing ones: kept pages sit through idle fences, some long
/// enough to be demoted.
fn add_idle_epochs(prog: &mut Program) {
    let mut rng = StdRng::seed_from_u64(prog.seed ^ 0x1d1e);
    for t in 0..prog.threads {
        let (mut silent, mut left) = (false, rng.random_range(1..4usize));
        for epoch in prog.epochs.iter_mut() {
            if left == 0 {
                silent = !silent;
                left = if silent { rng.random_range(1..10) } else { rng.random_range(1..4) };
            }
            left -= 1;
            for op in epoch.ops[t].iter_mut().filter(|_| silent) {
                *op = match *op {
                    Op::Write { slot, .. } | Op::Read { slot } => Op::Read { slot },
                    Op::Combine { src, .. } => Op::Read { slot: src },
                    _ => Op::Read { slot: page_of(t).start },
                };
            }
        }
    }
}

/// Write-hot retention: 16 epochs with idle runs, every thread's slots on
/// pages remote to it. Half a page apart on 4 × 2, two siblings store to
/// and fence one kept copy; a page apart on 8 × 1, a long silence demotes
/// the copy and the next write re-learns with one trap; half a page apart
/// on 8 × 1, false sharing: self-invalidated at every barrier, never hot.
#[test]
fn random_programs_with_idle_epochs() {
    for (seed, nodes, stride) in [(500, 4, 256), (501, 4, 256), (502, 8, 512), (503, 8, 256)] {
        let mut prog = gen_program(seed, 8, 16, 40);
        add_idle_epochs(&mut prog);
        prog.layout = strided(8, stride, 1024 / stride); // one page on
        sanitize(&mut prog);
        let p = Point::new(Policy::Carina(Ps3), Net::Sim, (nodes, 8 / nodes));
        let stats = check_all(&prog, [p])[0].coherence;
        if (nodes, stride) != (8, 256) {
            assert!(stats.write_retained > 0, "seed {seed}: no page was ever kept");
            assert!(stats.retained_idle_scans > 0, "seed {seed}: no kept page sat idle");
        }
        if stride == 512 {
            // Eight pages, two faults each to turn hot: any more is a
            // demoted copy's one re-learning trap.
            assert!(stats.write_faults > 16, "seed {seed}: no copy was ever demoted");
        }
    }
}

/// The refill's shape: thread 0 rewrites all its slots in even epochs, and
/// every other thread reads them all (folding some into its own) in odd
/// ones — with `sparse`, odd readers every other odd epoch (1, 5, 9, …).
/// Every slot on its own 512 bytes: the writer's span 16 pages on 8 threads.
fn gen_producer_consumer(seed: u64, threads: usize, epochs: usize, sparse: bool) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let per = SLOTS / threads;
    let mut ops = |e: usize, t: usize| -> Vec<Op> {
        match (t, e % 2) {
            (0, 0) => {
                (0..per).map(|slot| Op::Write { slot, value: rng.random::<u32>() as u64 }).collect()
            }
            (0, _) | (_, 0) => Vec::new(),
            _ if sparse && t % 2 == 1 && e % 4 == 3 => Vec::new(),
            _ => (0..per)
                .map(|src| match rng.random_range(0..4u32) {
                    0 => Op::Combine { src, dst: t * per + src },
                    _ => Op::Read { slot: src },
                })
                .collect(),
        }
    };
    let epochs = (0..epochs).map(|e| (0..threads).map(|t| ops(e, t)).collect()).collect();
    program(seed, threads, spread(64), epochs)
}

/// Every policy's counters on `shape`, simulated, through a cache of
/// `lines` one-page lines.
fn every_policy(prog: &Program, shape: (usize, usize), lines: usize) -> Vec<CoherenceSnapshot> {
    let at = |policy| Point { cache: (lines, 1, 8192), ..Point::new(policy, Net::Sim, shape) };
    check_all(prog, POLICIES.map(at)).iter().map(|r| r.coherence).collect()
}

/// Readers re-read one writer's pages across four reading epochs, on 8 × 1,
/// on 4 × 2 (siblings share the cache and its recorded set), and through a
/// 24-slot cache, where the readers' 32 pages take recorded pages' slots.
#[test]
fn producer_consumer_programs_refill() {
    let mut refilled = 0;
    for (seed, nodes, lines) in [(600, 8, 8192), (601, 4, 8192), (602, 8, 24)] {
        let prog = gen_producer_consumer(seed, 8, 8, false);
        let runs = every_policy(&prog, (nodes, 8 / nodes), lines);
        refilled += runs.iter().map(|c| c.refill_pages).sum::<u64>();
    }
    assert!(refilled > 0, "no program exercised the refill");
}

/// The acquire trigger: a sparse reader's recorded set is refilled by the
/// acquire ending the writer's turn, and the reader then skips the epoch,
/// so the next SI fence drops those pages untouched (`refill_unused`) — a
/// demand-triggered refill, inside a reading epoch, never leaves such
/// pages. On 2 × 1, 4 × 1 and 8 × 1, and through the 24-slot cache.
#[test]
fn sparse_readers_refill_at_the_acquire() {
    for (seed, nodes, lines) in [(610, 2, 8192), (611, 4, 8192), (612, 8, 8192), (613, 8, 24)] {
        let prog = gen_producer_consumer(seed, nodes, 12, true);
        let runs = every_policy(&prog, (nodes, 1), lines);
        let unused: Vec<u64> = runs.iter().map(|c| c.refill_unused).collect();
        let run = format!("{nodes} × 1, {lines} lines");
        assert!(unused.iter().all(|&u| u > 0), "{run}: no acquire refill seen: {unused:?}");
    }
}

/// The streams a read-ahead over-fetches from: in epoch `e` each thread of
/// parity `e % 2` rewrites its own region of slots (each on its own 512
/// bytes), and each other thread reads the region two before its own in
/// address order — which ends where a region being written now begins, so
/// a stream's read-ahead crosses into pages the next epoch reads.
fn gen_boundary_streams(seed: u64, threads: usize, epochs: usize) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let per = SLOTS / threads;
    let mut ops = |e: usize, t: usize| -> Vec<Op> {
        if t % 2 == e % 2 {
            let own = t * per..(t + 1) * per;
            return own.map(|slot| Op::Write { slot, value: rng.random::<u32>() as u64 }).collect();
        }
        let from = (t + threads - 2) % threads * per;
        (from..from + per).map(|slot| Op::Read { slot }).collect()
    };
    let epochs = (0..epochs).map(|e| (0..threads).map(|t| ops(e, t)).collect()).collect();
    program(seed, threads, spread(64), epochs)
}

/// Streams under every policy, backend and fault setting, on 2 × 4, 4 × 2
/// (a sibling reads what the stream over-fetched) and 8 × 1. In the first
/// epoch alone nothing is refilled, yet the misses bring more pages.
#[test]
fn streams_across_a_region_boundary() {
    for (seed, nodes) in [(620, 2), (621, 4), (622, 8)] {
        let shape = (nodes, 8 / nodes);
        let first = gen_boundary_streams(seed, 8, 1);
        let cold = &check_all(&first, [Point::new(Policy::Carina(Ps3), Net::Sim, shape)])[0];
        let (misses, pages) = (cold.coherence.read_misses, cold.net.bytes_read / PAGE_BYTES);
        assert!(pages > misses, "{shape:?}: {misses} misses, {pages} pages");
        let at = |policy| NETS.map(|net| Point::new(policy, net, shape));
        check_all(&gen_boundary_streams(seed, 8, 8), POLICIES.into_iter().flat_map(at));
    }
}

/// How a dirty set splits across SD fences is a timing question only: one
/// fence or two over its halves send the same write-backs home, the same
/// bytes on both backends. Thread `t` writes word `t` of each of 16 pages,
/// so every drain posts to several homes; one thread per node.
#[test]
fn one_fence_or_two_leave_identical_memory_on_both_backends() {
    let per = SLOTS / 3;
    let layout: Vec<usize> = (0..SLOTS)
        .map(|s| match s % per {
            j if j < 16 => j * WORDS_PER_PAGE + s / per,
            j => 16 * WORDS_PER_PAGE + s / per * per + j,
        })
        .collect();
    let writes = |pages: Range<usize>| -> Vec<Vec<Op>> {
        let ops = |t| pages.clone().map(|j| Op::Write { slot: t * per + j, value: 7 }).collect();
        (0..3).map(ops).collect()
    };
    let read_all = vec![vec![Op::Slice { word: 0, len: 16 * WORDS_PER_PAGE }]; 3];
    let at = |net| Point::new(Policy::Carina(Ps3), net, (3, 1));
    let runs = [16, 8].map(|split| {
        let epochs = vec![writes(0..split), writes(split..16), read_all.clone()];
        let prog = program(split as u64, 3, layout.clone(), epochs);
        let runs = check_all(&prog, [Net::Sim, Net::Native].map(at));
        let wire = |r: &Report| (r.coherence.writebacks, r.coherence.writeback_bytes);
        runs.iter().map(wire).collect::<Vec<_>>()
    });
    assert_eq!(runs[0], runs[1], "the split changed what goes home");
    assert_eq!(runs[0][0].1, runs[0][1].1, "the backends wrote back different bytes");
}

/// Overlapped verb issue (multi-page line fills, a fence posting every
/// write-back before polling any) is a timing feature only. Six threads
/// write ~21 pages each, most remote, then read every slot.
#[test]
fn overlapped_fills_identical_memory_on_both_backends() {
    let per = SLOTS / 6;
    let write = |t: usize| (t * per..(t + 1) * per).map(|slot| Op::Write { slot, value: 3 });
    let read = |_| (0..SLOTS).map(|slot| Op::Read { slot }).collect();
    let epochs = vec![(0..6).map(|t| write(t).collect()).collect(), (0..6).map(read).collect()];
    let prog = program(0, 6, spread(64), epochs);
    let at = |net| Point { cache: (256, 4, 8192), ..Point::new(Policy::Carina(Ps3), net, (3, 2)) };
    for c in check_all(&prog, [Net::Sim, Net::Native].map(at)).iter().map(|r| r.coherence) {
        assert!(c.writebacks >= 60, "every node's fence drains many pages: {c:?}");
    }
}

/// The report carries the policy name end to end.
#[test]
fn run_report_names_the_policy() {
    let cfg = ArgoConfig::small(2, 1);
    let report = ArgoMachine::<_, Tardis>::with_policy(cfg).run(|ctx| ctx.tid());
    assert_eq!(report.policy, "tardis");
    assert!(report.to_json().contains("\"policy\":\"tardis\""));
    let report = ArgoMachine::<_, CarinaSiSd>::with_policy(cfg).run(|ctx| ctx.tid());
    assert_eq!(report.policy, "sisd");
    assert!(report.summary().contains("policy sisd"));
    let report = ArgoMachine::<_, Pyxis>::with_policy(cfg).run(|ctx| ctx.tid());
    assert_eq!(report.policy, "pyxis");
    assert!(report.to_json().contains("\"policy\":\"pyxis\""));
}
