//! Property-based test of the whole coherence stack: generate random
//! barrier-structured DRF programs, run them on a simulated cluster under
//! every classification mode, and compare final memory against a simple
//! sequential model.
//!
//! A program is a sequence of epochs separated by barriers; within an
//! epoch each thread owns a disjoint set of slots and performs
//! reads/writes/read-modify-writes on them (reads may target *any* slot
//! written in a previous epoch — cross-thread visibility is exactly what
//! the protocol must get right). Besides its slots each thread owns one
//! page, which it overwrites whole with one slice store — the
//! write-allocate that fetches nothing — and which any thread may read in
//! a later epoch. Two more generators build the producer/consumer shape the
//! refill serves and the streams a read-ahead over-fetches from, run under
//! all three policies (the streams on both backends too).

use argo::types::GlobalU64Array;
use argo::{ArgoConfig, ArgoCtx, ArgoMachine};
use carina::{
    CarinaConfig, CarinaSiSd, ClassificationMode, Coherence, CoherenceSnapshot, Pyxis, Tardis,
};
use mem::{CacheConfig, PAGE_BYTES, WORDS_PER_PAGE};
use rand::prelude::*;
use rma::{NativeTransport, Transport};
use std::ops::Range;
use std::sync::Arc;

const SLOTS: usize = 1024;

/// Every cell of a `threads`-thread program: the slots, then one page per
/// thread.
fn cells(threads: usize) -> usize {
    SLOTS + threads * WORDS_PER_PAGE
}

/// The cells of thread `t`'s page.
fn page_of(t: usize) -> Range<usize> {
    SLOTS + t * WORDS_PER_PAGE..SLOTS + (t + 1) * WORDS_PER_PAGE
}

/// One thread's plan for one epoch.
#[derive(Debug, Clone)]
enum Op {
    /// Write `value + slot` into an owned slot.
    Write { slot: usize, value: u64 },
    /// Read any slot and fold it into the thread's running checksum.
    Read { slot: usize },
    /// owned[dst] = f(any[src]) — cross-slot dependency.
    Combine { src: usize, dst: usize },
    /// Write `value + cell` into every cell of the thread's page: one
    /// page-aligned whole-page slice store.
    Fill { value: u64 },
}

#[derive(Debug, Clone)]
struct Program {
    threads: usize,
    /// `epochs[e][t]` = ops of thread `t` in epoch `e`.
    epochs: Vec<Vec<Vec<Op>>>,
}

fn gen_program(seed: u64, threads: usize, epochs: usize, ops_per_epoch: usize) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let per = SLOTS / threads;
    let mut prog = Program {
        threads,
        epochs: Vec::new(),
    };
    for _ in 0..epochs {
        let mut epoch = Vec::new();
        for t in 0..threads {
            let own_lo = t * per;
            let mut ops = Vec::new();
            for _ in 0..ops_per_epoch {
                let own = own_lo + rng.random_range(0..per);
                ops.push(match rng.random_range(0..3u32) {
                    0 => Op::Write {
                        slot: own,
                        value: rng.random::<u32>() as u64,
                    },
                    1 => Op::Read {
                        slot: rng.random_range(0..SLOTS),
                    },
                    _ => Op::Combine {
                        src: rng.random_range(0..SLOTS),
                        dst: own,
                    },
                });
            }
            epoch.push(ops);
        }
        prog.epochs.push(epoch);
    }
    add_page_ops(&mut prog, seed);
    prog
}

/// Give about half of each thread's epochs one fill of its page, and every
/// epoch a few reads of any thread's page, at random places among the slot
/// ops (a stream of its own, so the slot ops stay what the seed made them).
fn add_page_ops(prog: &mut Program, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf111);
    let pages = SLOTS..cells(prog.threads);
    for ops in prog.epochs.iter_mut().flatten() {
        let fill = rng.random_bool(0.5).then(|| Op::Fill { value: rng.random::<u32>() as u64 });
        let reads: Vec<Op> = (0..rng.random_range(0..3))
            .map(|_| Op::Read { slot: rng.random_range(pages.clone()) })
            .collect();
        for op in fill.into_iter().chain(reads) {
            ops.insert(rng.random_range(0..ops.len() + 1), op);
        }
    }
}

/// Sequential model: apply epochs in order; within an epoch, reads see the
/// *previous* epoch's memory (threads are concurrent), writes land in the
/// next memory. Returns (final memory, per-thread checksums).
fn run_model(prog: &Program) -> (Vec<u64>, Vec<u64>) {
    let mut memory = vec![0u64; cells(prog.threads)];
    let mut checksums = vec![0u64; prog.threads];
    for epoch in &prog.epochs {
        let snapshot = memory.clone();
        // Each thread's ops execute against the snapshot for cross-thread
        // reads; reads/combines of a thread's OWN cells see its own writes
        // within the epoch (program order). We model this by giving each
        // thread a private view it writes only its own cells of.
        for (t, ops) in epoch.iter().enumerate() {
            let per = SLOTS / prog.threads;
            let own = [(t * per)..((t + 1) * per), page_of(t)];
            let mut view = snapshot.clone();
            for op in ops {
                match *op {
                    Op::Write { slot, value } => view[slot] = value.wrapping_add(slot as u64),
                    Op::Read { slot } => checksums[t] = checksums[t].rotate_left(7) ^ view[slot],
                    Op::Combine { src, dst } => {
                        view[dst] = view[src].wrapping_mul(31).wrapping_add(1)
                    }
                    Op::Fill { value } => {
                        for c in page_of(t) {
                            view[c] = value.wrapping_add(c as u64);
                        }
                    }
                }
            }
            for range in own {
                memory[range.clone()].copy_from_slice(&view[range]);
            }
        }
    }
    (memory, checksums)
}

/// Run the same program on the DSM, every thread's slots packed back to
/// back (several threads' to a page).
fn run_dsm(prog: &Program, mode: ClassificationMode, nodes: usize) -> (Vec<u64>, Vec<u64>) {
    let (memory, sums, _) = run_dsm_strided(prog, mode, nodes, SLOTS / prog.threads, 0);
    (memory, sums)
}

/// [`run_dsm`] with thread `t`'s slots starting at array word
/// `(t + rotate) % threads * stride` — `stride` decides which threads share
/// a page, `rotate` which node is its home. Also returns the run's
/// coherence counters.
fn run_dsm_strided(
    prog: &Program,
    mode: ClassificationMode,
    nodes: usize,
    stride: usize,
    rotate: usize,
) -> (Vec<u64>, Vec<u64>, CoherenceSnapshot) {
    let mut cfg = ArgoConfig::small(nodes, prog.threads / nodes);
    cfg.carina = CarinaConfig::with_mode(mode);
    let (per, threads) = (SLOTS / prog.threads, prog.threads);
    let at = move |slot: usize| (slot / per + rotate) % threads * stride + slot % per;
    run_dsm_on::<CarinaSiSd>(prog, cfg, threads * stride, at)
}

/// Run `prog` on a simulated machine of `cfg`'s shape under policy `C`,
/// slot `s` at word `at(s)` of a `words`-word array.
fn run_dsm_on<C: Coherence>(
    prog: &Program,
    cfg: ArgoConfig,
    words: usize,
    at: impl Fn(usize) -> usize + Copy + Send + Sync + 'static,
) -> (Vec<u64>, Vec<u64>, CoherenceSnapshot) {
    run_machine(&ArgoMachine::<_, C>::with_policy(cfg), prog, words, at)
}

/// [`run_dsm_on`] on `machine`, of either backend.
fn run_machine<T: Transport, C: Coherence>(
    machine: &Arc<ArgoMachine<T, C>>,
    prog: &Program,
    words: usize,
    at: impl Fn(usize) -> usize + Copy + Send + Sync + 'static,
) -> (Vec<u64>, Vec<u64>, CoherenceSnapshot) {
    let cells = Cells::alloc(machine, prog.threads, words, at);
    let prog = Arc::new(prog.clone());
    let p2 = prog.clone();
    let report = machine.run(move |ctx| {
        let mut checksum = 0u64;
        for epoch in &p2.epochs {
            cells.run(ctx, &epoch[ctx.tid()], &mut checksum);
            ctx.barrier();
        }
        checksum
    });
    // The protocol's internal invariants must hold at quiescence.
    let violations = machine.dsm().check_invariants();
    assert!(violations.is_empty(), "invariant violations: {violations:?}");
    (cells.memory(machine), report.results, report.coherence)
}

/// Where a program's cells live on the DSM: slot `s` at word `at(s)` of
/// `slots`, thread `t`'s page at page `t` of `pages` (page-aligned).
#[derive(Clone, Copy)]
struct Cells<F> {
    slots: GlobalU64Array,
    pages: GlobalU64Array,
    at: F,
}

impl<F: Fn(usize) -> usize + Copy> Cells<F> {
    fn alloc<T: Transport, C: Coherence>(
        machine: &ArgoMachine<T, C>,
        threads: usize,
        words: usize,
        at: F,
    ) -> Self {
        let slots = GlobalU64Array::alloc(machine.dsm(), words);
        let pages = GlobalU64Array::alloc(machine.dsm(), threads * WORDS_PER_PAGE);
        Cells { slots, pages, at }
    }

    fn addr(&self, cell: usize) -> mem::GlobalAddr {
        match cell.checked_sub(SLOTS) {
            None => self.slots.addr((self.at)(cell)),
            Some(w) => self.pages.addr(w),
        }
    }

    /// Run one thread's ops of one epoch, folding reads into `checksum`.
    fn run<T: Transport, C: Coherence>(
        &self,
        ctx: &mut ArgoCtx<T, C>,
        ops: &[Op],
        checksum: &mut u64,
    ) {
        for op in ops {
            match *op {
                Op::Write { slot, value } => {
                    ctx.write_u64(self.addr(slot), value.wrapping_add(slot as u64))
                }
                Op::Read { slot } => {
                    *checksum = checksum.rotate_left(7) ^ ctx.read_u64(self.addr(slot))
                }
                Op::Combine { src, dst } => {
                    let v = ctx.read_u64(self.addr(src));
                    ctx.write_u64(self.addr(dst), v.wrapping_mul(31).wrapping_add(1));
                }
                Op::Fill { value } => {
                    let page = page_of(ctx.tid());
                    let data: Vec<u64> =
                        page.clone().map(|c| value.wrapping_add(c as u64)).collect();
                    ctx.write_u64_slice(self.addr(page.start), &data);
                }
            }
        }
    }

    /// Every cell's home word, at quiescence.
    fn memory<T: Transport, C: Coherence>(&self, machine: &ArgoMachine<T, C>) -> Vec<u64> {
        let threads = machine.config().total_threads();
        (0..cells(threads))
            .map(|c| machine.dsm().peek_u64(self.addr(c)))
            .collect()
    }
}

// Raw generated programs may read a slot that its owner writes in the
// same epoch — a data race, outside the DRF contract (and outside the
// model's snapshot semantics). `sanitize` post-processes programs into
// DRF form: cross-thread reads/combine sources are redirected away from
// slots written in the current epoch.
fn sanitize(prog: &mut Program) {
    let threads = prog.threads;
    let per = SLOTS / threads;
    // written_upto[slot] = last epoch (exclusive) in which slot was
    // written before the current epoch.
    let mut written_before: Vec<Vec<bool>> = Vec::new(); // per epoch: written this epoch
    for epoch in &prog.epochs {
        let mut w = vec![false; cells(threads)];
        for (t, ops) in epoch.iter().enumerate() {
            for op in ops {
                match *op {
                    Op::Write { slot, .. } | Op::Combine { dst: slot, .. } => w[slot] = true,
                    Op::Fill { .. } => w[page_of(t)].fill(true),
                    Op::Read { .. } => {}
                }
            }
        }
        written_before.push(w);
    }
    for (e, epoch) in prog.epochs.iter_mut().enumerate() {
        for (t, ops) in epoch.iter_mut().enumerate() {
            let own_range = (t * per)..((t + 1) * per);
            for op in ops {
                let fix = |slot: &mut usize| {
                    let own = own_range.contains(slot) || page_of(t).contains(slot);
                    if !own && written_before[e][*slot] {
                        // Redirect to an owned slot: always race-free.
                        *slot = own_range.start + (*slot % per);
                    }
                };
                match op {
                    Op::Read { slot } => fix(slot),
                    Op::Combine { src, .. } => fix(src),
                    Op::Write { .. } | Op::Fill { .. } => {}
                }
            }
        }
    }
}

fn check_seed_sanitized(seed: u64, mode: ClassificationMode, nodes: usize, threads: usize) {
    let mut prog = gen_program(seed, threads, 5, 40);
    sanitize(&mut prog);
    let (model_mem, model_sums) = run_model(&prog);
    let (dsm_mem, dsm_sums) = run_dsm(&prog, mode, nodes);
    assert_eq!(
        dsm_sums, model_sums,
        "checksum divergence (seed {seed}, {mode:?}, {nodes} nodes)"
    );
    assert_eq!(
        dsm_mem, model_mem,
        "final memory divergence (seed {seed}, {mode:?}, {nodes} nodes)"
    );
}

#[test]
fn random_programs_ps3() {
    for seed in 0..6 {
        check_seed_sanitized(seed, ClassificationMode::Ps3, 4, 8);
    }
}

#[test]
fn random_programs_all_shared() {
    for seed in 100..103 {
        check_seed_sanitized(seed, ClassificationMode::AllShared, 4, 8);
    }
}

#[test]
fn random_programs_ps_naive() {
    for seed in 200..203 {
        check_seed_sanitized(seed, ClassificationMode::PsNaive, 4, 8);
    }
}

#[test]
fn random_programs_odd_shapes() {
    check_seed_sanitized(300, ClassificationMode::Ps3, 2, 8);
    check_seed_sanitized(301, ClassificationMode::Ps3, 8, 8);
    check_seed_sanitized(302, ClassificationMode::Ps3, 1, 4);
}

/// Silence thread `t`'s writes for runs of 1–9 epochs, between runs of 1–3
/// writing ones: in a silent epoch every write becomes a read of the slot
/// (a combine, of its source). Pages a node keeps writable across releases
/// then sit through idle fences — some long enough to be demoted.
fn add_idle_epochs(prog: &mut Program, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1d1e);
    for t in 0..prog.threads {
        let (mut silent, mut left) = (false, rng.random_range(1..4usize));
        for epoch in prog.epochs.iter_mut() {
            if left == 0 {
                silent = !silent;
                left = if silent { rng.random_range(1..10) } else { rng.random_range(1..4) };
            }
            left -= 1;
            for op in epoch[t].iter_mut().filter(|_| silent) {
                *op = match *op {
                    Op::Write { slot, .. } => Op::Read { slot },
                    Op::Combine { src, .. } => Op::Read { slot: src },
                    Op::Read { slot } => Op::Read { slot },
                    Op::Fill { .. } => Op::Read { slot: page_of(t).start },
                };
            }
        }
    }
}

/// The write-hot retention path under generated programs: 16 epochs with
/// idle runs, every thread's slots on pages remote to it. Half a page
/// apart on 4 × 2, a page has one writing node — two sibling threads
/// storing to and fencing one kept copy; a page apart on 8 × 1, one
/// writing thread, so a long silence demotes the copy protected-hot and
/// the next write re-learns with one trap; half a page apart on 8 × 1, two
/// writing nodes — false sharing, self-invalidated at every barrier, never
/// hot.
#[test]
fn random_programs_with_idle_epochs() {
    for (seed, nodes, stride) in [(500, 4, 256), (501, 4, 256), (502, 8, 512), (503, 8, 256)] {
        let mut prog = gen_program(seed, 8, 16, 40);
        add_idle_epochs(&mut prog, seed);
        sanitize(&mut prog);
        let (model_mem, model_sums) = run_model(&prog);
        let rotate = 1024 / stride; // one page on
        let (mem, sums, stats) =
            run_dsm_strided(&prog, ClassificationMode::Ps3, nodes, stride, rotate);
        assert_eq!(sums, model_sums, "checksum divergence (seed {seed}, {nodes} nodes)");
        assert_eq!(mem, model_mem, "final memory divergence (seed {seed}, {nodes} nodes)");
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

/// Interleaving decay epochs between barriers must not change results.
#[test]
fn random_programs_with_decay_epochs() {
    for seed in 400..403 {
        let mut prog = gen_program(seed, 8, 5, 40);
        sanitize(&mut prog);
        let (model_mem, model_sums) = run_model(&prog);
        // Same DSM run, but with an adapt_classification between epochs.
        let mut cfg = ArgoConfig::small(4, 2);
        cfg.carina = CarinaConfig::with_mode(ClassificationMode::Ps3);
        let machine = ArgoMachine::new(cfg);
        let cells = Cells::alloc(&machine, prog.threads, SLOTS, |s| s);
        let prog = Arc::new(prog);
        let p2 = prog.clone();
        let report = machine.run(move |ctx| {
            let mut checksum = 0u64;
            for (e, epoch) in p2.epochs.iter().enumerate() {
                if e == 2 {
                    ctx.adapt_classification();
                }
                cells.run(ctx, &epoch[ctx.tid()], &mut checksum);
                ctx.barrier();
            }
            checksum
        });
        assert_eq!(report.results, model_sums, "seed {seed} with decay");
        let mem = cells.memory(&machine);
        assert_eq!(mem, model_mem, "seed {seed} memory with decay");
    }
}

/// The shape the refill serves: thread 0 rewrites all its slots in even
/// epochs; every other thread reads them all (folding some into its own
/// slots) in odd epochs, so each reader re-reads the same pages after
/// every publishing barrier. With `sparse`, odd readers read only every
/// other odd epoch (1, 5, 9, …). Race-free by construction.
fn gen_producer_consumer(seed: u64, threads: usize, epochs: usize, sparse: bool) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let per = SLOTS / threads;
    let mut epoch_ops = |e: usize, t: usize| -> Vec<Op> {
        match (t, e % 2) {
            (0, 0) => (0..per)
                .map(|slot| Op::Write { slot, value: rng.random::<u32>() as u64 })
                .collect(),
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
    let epochs = (0..epochs)
        .map(|e| (0..threads).map(|t| epoch_ops(e, t)).collect())
        .collect();
    Program { threads, epochs }
}

/// One producer/consumer program under policy `C` on `nodes` nodes with a
/// cache of `lines` one-page lines, every slot on its own 512 bytes (the
/// writer's slots span 16 pages on 8 threads); returns the run's counters.
fn producer_consumer<C: Coherence>(
    prog: &Program,
    nodes: usize,
    lines: usize,
) -> CoherenceSnapshot {
    let (model_mem, model_sums) = run_model(prog);
    let mut cfg = ArgoConfig::small(nodes, prog.threads / nodes);
    cfg.carina.cache = CacheConfig::new(lines, 1);
    let spread = 64;
    let (mem, sums, stats) = run_dsm_on::<C>(prog, cfg, SLOTS * spread, move |s| s * spread);
    let run = format!("{} on {nodes} nodes, {lines} lines", C::NAME);
    assert_eq!(sums, model_sums, "checksum divergence ({run})");
    assert_eq!(mem, model_mem, "final memory divergence ({run})");
    stats
}

/// The refill under the oracle: readers re-read one writer's pages across
/// four reading epochs, under every policy, on 8 × 1, on 4 × 2 (sibling
/// threads share the cache and its recorded set), and through a 24-slot
/// cache — the readers' 32 pages conflict, taking recorded pages' slots.
#[test]
fn producer_consumer_programs_refill() {
    let mut refilled = 0;
    for (seed, nodes, lines) in [(600, 8, 8192), (601, 4, 8192), (602, 8, 24)] {
        let prog = gen_producer_consumer(seed, 8, 8, false);
        refilled += producer_consumer::<CarinaSiSd>(&prog, nodes, lines).refill_pages;
        refilled += producer_consumer::<Tardis>(&prog, nodes, lines).refill_pages;
        refilled += producer_consumer::<Pyxis>(&prog, nodes, lines).refill_pages;
    }
    assert!(refilled > 0, "no program exercised the refill");
}

/// The acquire trigger under the oracle. A sparse reader's set, recorded
/// at the end of its reading epoch and handed on by the writer's turn, is
/// refilled by the acquire that ends that turn — and the reader then
/// skips the epoch, so the next SI fence drops those pages untouched
/// (`refill_unused`). A demand-triggered refill never leaves such pages
/// here: it runs inside a reading epoch, which reads every page of the
/// set. Every policy, on 2 × 1, 4 × 1 and 8 × 1, and on 8 × 1 through
/// the 24-slot cache.
#[test]
fn sparse_readers_refill_at_the_acquire() {
    for (seed, nodes, lines) in [(610, 2, 8192), (611, 4, 8192), (612, 8, 8192), (613, 8, 24)] {
        let prog = gen_producer_consumer(seed, nodes, 12, true);
        let unused = [
            producer_consumer::<CarinaSiSd>(&prog, nodes, lines).refill_unused,
            producer_consumer::<Tardis>(&prog, nodes, lines).refill_unused,
            producer_consumer::<Pyxis>(&prog, nodes, lines).refill_unused,
        ];
        let run = format!("{nodes} × 1, {lines} lines");
        assert!(unused.iter().all(|&u| u > 0), "{run}: no acquire refill seen: {unused:?}");
    }
}

/// The streams a read-ahead over-fetches from: `threads` regions of
/// `SLOTS / threads` slots, back to back in one allocation. Threads take
/// turns by parity: in epoch `e` each thread of parity `e % 2` rewrites
/// every slot of its own region, and each other thread reads, in address
/// order, the whole region two before its own — written in an earlier
/// epoch, by nobody now. That region ends where the region of a thread
/// writing now begins, so a stream's read-ahead crosses into pages being
/// written between the barriers, which the next epoch reads. Race-free by
/// construction.
fn gen_boundary_streams(seed: u64, threads: usize, epochs: usize) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let per = SLOTS / threads;
    let epochs = (0..epochs)
        .map(|e| {
            (0..threads)
                .map(|t| match t % 2 == e % 2 {
                    true => (t * per..(t + 1) * per)
                        .map(|slot| Op::Write { slot, value: rng.random::<u32>() as u64 })
                        .collect(),
                    false => {
                        let from = (t + threads - 2) % threads * per;
                        (from..from + per).map(|slot| Op::Read { slot }).collect()
                    }
                })
                .collect()
        })
        .collect();
    Program { threads, epochs }
}

/// Run `prog` on `machine` with every slot on its own 512 bytes (16 pages
/// a region on 8 threads) and compare word for word with the model;
/// returns the run's counters.
fn streamed<T: Transport, C: Coherence>(
    machine: &Arc<ArgoMachine<T, C>>,
    prog: &Program,
    run: &str,
) -> CoherenceSnapshot {
    let (model_mem, model_sums) = run_model(prog);
    let spread = 64;
    let (mem, sums, stats) = run_machine(machine, prog, SLOTS * spread, move |s| s * spread);
    assert_eq!(sums, model_sums, "checksum divergence ({run}, {})", C::NAME);
    assert_eq!(mem, model_mem, "final memory divergence ({run}, {})", C::NAME);
    stats
}

/// Readers streaming up to the regions writers are rewriting, under every
/// policy on both backends, on 2 × 4, 4 × 2 and 8 × 1: the sequential
/// model's memory and checksums, word for word. On 4 × 2 a reader's
/// sibling reads, the next epoch, the pages its stream over-fetched. The
/// first epoch alone shows the read-ahead at work: with nothing dropped
/// yet, nothing is refilled, yet its misses bring more pages than misses.
#[test]
fn streams_across_a_region_boundary() {
    for (seed, nodes) in [(620, 2), (621, 4), (622, 8)] {
        let cfg = ArgoConfig::small(nodes, 8 / nodes);
        let run = format!("{nodes} × {}", 8 / nodes);
        let first = ArgoMachine::<_, CarinaSiSd>::with_policy(cfg);
        let cold = streamed(&first, &gen_boundary_streams(seed, 8, 1), &run);
        let pages = first.dsm().net().stats().snapshot().bytes_read / PAGE_BYTES;
        assert!(pages > cold.read_misses, "{run}: {} misses, {pages} pages", cold.read_misses);
        let prog = gen_boundary_streams(seed, 8, 8);
        streamed(&ArgoMachine::<_, CarinaSiSd>::with_policy(cfg), &prog, &run);
        streamed(&ArgoMachine::<_, Tardis>::with_policy(cfg), &prog, &run);
        streamed(&ArgoMachine::<_, Pyxis>::with_policy(cfg), &prog, &run);
        streamed(&ArgoMachine::<NativeTransport, CarinaSiSd>::native_with_policy(cfg), &prog, &run);
        streamed(&ArgoMachine::<NativeTransport, Tardis>::native_with_policy(cfg), &prog, &run);
        streamed(&ArgoMachine::<NativeTransport, Pyxis>::native_with_policy(cfg), &prog, &run);
    }
}
