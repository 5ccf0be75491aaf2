//! Unit-cost probes: what one operation of each layer costs, timed from
//! outside through the layer's public functions on a 2×1 cluster unless
//! noted. `_ns`/`_us`/`_ms` probes are host time (on the native backend
//! where a backend is involved): the median over [`ProbeBudget::batches`]
//! batches of at least [`ProbeBudget::batch`] each. `_cycles` probes are
//! virtual time on the simulator and repeat exactly.
//!
//! Cold-path probes (misses, write faults) run over as many distinct
//! pages as the page cache holds per batch instead of a time budget: a
//! page can be cold only once per machine.

use crate::metrics::PROBES;
use crate::stats::median;
use crate::workload::BYTES_PER_NODE;
use argo::{ArgoConfig, ArgoMachine, GlobalU64Array};
use carina::{CarinaSiSd, Coherence, Dsm, Pyxis, Tardis};
use mem::{CacheConfig, GlobalAddr, PageCache, PageData, PageNum, WriteMask, PAGE_BYTES};
use rma::{
    Endpoint, FaultPlan, FaultyTransport, Interconnect, NativeTransport, NodeId, SimThread,
    SimTransport, Transport,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vela::Hqdl;

/// How long the timed probes run.
#[derive(Debug, Clone, Copy)]
pub struct ProbeBudget {
    pub batch: Duration,
    pub batches: usize,
    /// Rounds of the native barrier and lock-passage probes. Both take
    /// tens of microseconds here (they yield the core while they wait), so
    /// a fixed count stands in for the time budget.
    pub sync_rounds: u64,
}

impl ProbeBudget {
    /// 5 batches of 20 ms: at least 100 ms of iterations per probe.
    pub const FULL: ProbeBudget = ProbeBudget {
        batch: Duration::from_millis(20),
        batches: 5,
        sync_rounds: 2048,
    };
    /// For tests and `--quick`.
    pub const QUICK: ProbeBudget = ProbeBudget {
        batch: Duration::from_millis(1),
        batches: 3,
        sync_rounds: 64,
    };
}

/// Distinct cold pages per batch of a cold-path probe.
const COLD_PAGES: usize = 2048;
/// Pages resident during the SI-fence probe (of the 8192-slot cache).
const SI_RESIDENT: usize = 3000;
/// Pages drained by the SD-fence probe, each with this many dirty words.
const SD_PAGES: usize = 512;
const SD_DIRTY_WORDS: usize = 8;

/// Median nanoseconds per call of `op`.
fn time_ns(budget: ProbeBudget, mut op: impl FnMut()) -> f64 {
    // Calibrate the iteration count to the batch length.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        if t.elapsed() >= budget.batch || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..budget.batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds per call of an operation that needs untimed
/// preparation first: `step` prepares, performs the operation once and
/// returns how long the operation alone took.
fn time_prepared_ns(budget: ProbeBudget, mut step: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..budget.batches)
        .map(|_| {
            let (mut spent, mut calls) = (Duration::ZERO, 0u64);
            while spent < budget.batch {
                spent += step();
                calls += 1;
            }
            spent.as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

fn config(nodes: usize) -> ArgoConfig {
    let mut cfg = ArgoConfig::small(nodes, 1);
    cfg.bytes_per_node = BYTES_PER_NODE;
    cfg
}

/// A DSM and a node-0 endpoint on it, outside any parallel region.
struct Bench<T: Transport, C: Coherence> {
    machine: Arc<ArgoMachine<T, C>>,
    t: T::Endpoint,
}

impl<T: Transport, C: Coherence> Bench<T, C> {
    fn on(machine: Arc<ArgoMachine<T, C>>) -> Self {
        let loc = machine.config().topology().loc(NodeId(0), 0);
        let t = T::endpoint(machine.net(), loc);
        Bench { machine, t }
    }

    fn dsm(&self) -> &Arc<Dsm<T, C>> {
        self.machine.dsm()
    }

    /// `count` page base addresses homed on node 1 (remote to the
    /// endpoint), freshly allocated.
    fn remote_pages(&self, count: usize) -> Vec<GlobalAddr> {
        let dsm = self.dsm();
        let words = 2 * count * (PAGE_BYTES / 8) as usize;
        let base = GlobalU64Array::alloc(dsm, words).base();
        let pages: Vec<GlobalAddr> = (0..2 * count as u64)
            .map(|p| base.offset(p * PAGE_BYTES))
            .filter(|&a| dsm.home_of(a) != 0)
            .take(count)
            .collect();
        assert_eq!(pages.len(), count, "not enough remote pages");
        pages
    }
}

fn sim_bench<C: Coherence>() -> Bench<SimTransport, C> {
    Bench::on(ArgoMachine::<_, C>::with_policy(config(2)))
}

fn native_bench() -> Bench<NativeTransport, CarinaSiSd> {
    Bench::on(ArgoMachine::native(config(2)))
}

/// Mean virtual cycles of a cold read miss under policy `C`.
fn read_miss_cycles<C: Coherence>() -> f64 {
    let mut b = sim_bench::<C>();
    let pages = b.remote_pages(256);
    let start = b.t.now();
    for &p in &pages {
        black_box(b.machine.dsm().read_u64(&mut b.t, p));
    }
    (b.t.now() - start) as f64 / pages.len() as f64
}

impl<T: Transport> Bench<T, CarinaSiSd> {
    /// Make `SI_RESIDENT` remote pages resident (private, so SI fences
    /// keep them).
    fn fill_cache(&mut self) {
        for p in self.remote_pages(SI_RESIDENT) {
            black_box(self.machine.dsm().read_u64(&mut self.t, p));
        }
    }

    /// Dirty `SD_DIRTY_WORDS` words in each of `pages` with `value`.
    fn dirty(&mut self, pages: &[GlobalAddr], value: u64) {
        for &p in pages {
            for w in 0..SD_DIRTY_WORDS as u64 {
                self.machine
                    .dsm()
                    .write_u64(&mut self.t, p.offset(w * 64), value);
            }
        }
    }

    /// Virtual cycles of `fence` on this endpoint.
    fn cycles_of(&mut self, fence: impl FnOnce(&Dsm<T, CarinaSiSd>, &mut T::Endpoint)) -> f64 {
        let start = self.t.now();
        fence(self.machine.dsm(), &mut self.t);
        (self.t.now() - start) as f64
    }
}

/// Per-barrier cost with nothing to fence: host nanoseconds on the native
/// backend, virtual cycles on the simulator.
fn barrier_cost<T: Transport>(machine: Arc<ArgoMachine<T>>, rounds: u64) -> f64 {
    let report = machine.run(move |ctx| {
        ctx.start_measurement();
        let start = ctx.thread.obs_now();
        for _ in 0..rounds {
            ctx.barrier();
        }
        ctx.thread.obs_now() - start
    });
    report.results.iter().copied().max().unwrap_or(0) as f64 / rounds as f64
}

/// Per-passage cost of an empty critical section through HQDL on a 1×1
/// machine (no contention, no handover).
fn hqdl_uncontended<T: Transport>(machine: Arc<ArgoMachine<T>>, rounds: u64) -> f64 {
    let lock = Hqdl::new(machine.dsm().clone(), 1024);
    let report = machine.run(move |ctx| {
        ctx.start_measurement();
        let start = ctx.thread.obs_now();
        for _ in 0..rounds {
            lock.delegate_wait(&mut ctx.thread, |_| {});
        }
        ctx.thread.obs_now() - start
    });
    report.results[0] as f64 / rounds as f64
}

/// Virtual cycles of a passage that takes the global lock over from the
/// other node: the two threads take strict turns (barriers force the
/// alternation; only the passages are timed).
fn hqdl_handover_cycles(rounds: u64) -> f64 {
    let machine = ArgoMachine::new(config(2));
    let lock = Hqdl::new(machine.dsm().clone(), 1024);
    let report = machine.run(move |ctx| {
        ctx.start_measurement();
        let mut spent = 0u64;
        for round in 0..2 * rounds {
            if round as usize % 2 == ctx.tid() {
                let start = ctx.thread.obs_now();
                lock.delegate_wait(&mut ctx.thread, |_| {});
                spent += ctx.thread.obs_now() - start;
            }
            ctx.barrier();
        }
        spent
    });
    report.results.iter().sum::<u64>() as f64 / (2 * rounds) as f64
}

/// Run every probe; returns `(name, value)` in the order of
/// [`crate::metrics::PROBES`].
pub fn run_all(budget: ProbeBudget) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::with_capacity(PROBES.len());
    let mut put = |name: &'static str, value: f64| out.push((name, value));

    // --- mem ---
    {
        let cache = PageCache::new(CacheConfig::default());
        let page = PageNum(3);
        let (tag, idx) = (cache.line_of(page), cache.index_in_line(page));
        {
            let mut slot = cache.lock_slot(page);
            slot.retag(tag);
            slot.alloc_data(idx).store(5, 42);
            slot.pages[idx].valid = true;
        }
        let slot = cache.slot_for(page);
        assert_eq!(slot.try_read(tag, idx, 5), Some((42, 0)));
        put(
            "mem.slot_read_ns",
            time_ns(budget, || {
                black_box(slot.try_read(black_box(tag), idx, 5));
            }),
        );
        let (src, dst) = (PageData::zeroed(), PageData::zeroed());
        put(
            "mem.page_copy_ns",
            time_ns(budget, || dst.copy_from(black_box(&src))),
        );
        for (name, dirty) in [("mem.diff_sparse_ns", 8usize), ("mem.diff_dense_ns", 512)] {
            let (page, twin, mask) = (PageData::zeroed(), PageData::zeroed(), WriteMask::new());
            for d in 0..dirty {
                let word = d * (512 / dirty);
                page.store(word, 1 + d as u64);
                mask.set(word);
            }
            assert_eq!(page.diff_against_masked(&twin, &mask).len(), dirty);
            put(
                name,
                time_ns(budget, || {
                    black_box(page.diff_against_masked(black_box(&twin), &mask));
                }),
            );
        }
    }

    // --- simnet ---
    {
        let cfg = config(2);
        let net = Interconnect::new(cfg.topology(), cfg.cost);
        let mut t = SimThread::new(cfg.topology().loc(NodeId(0), 0), net);
        let start = t.now();
        t.rdma_read(NodeId(1), PAGE_BYTES);
        let read4k = (t.now() - start) as f64;
        let start = t.now();
        t.rdma_atomic(NodeId(1));
        let fetch_add = (t.now() - start) as f64;
        put(
            "simnet.verb_host_ns",
            time_ns(budget, || t.rdma_read(NodeId(1), 64)),
        );
        put("simnet.read4k_cycles", read4k);
        put("simnet.fetch_add_cycles", fetch_add);
    }

    // --- rma ---
    {
        let cfg = config(2);
        let loc = cfg.topology().loc(NodeId(0), 0);
        let native = NativeTransport::with_cost(cfg.topology(), cfg.cost);
        let mut t = NativeTransport::endpoint(&native, loc);
        let read_ns = time_ns(budget, || {
            black_box(Endpoint::rdma_read(&mut t, NodeId(1), PAGE_BYTES)).expect("native verb");
        });
        put("rma.native_read_ns", read_ns);
        put(
            "rma.native_atomic_ns",
            time_ns(budget, || {
                black_box(t.rdma_fetch_add(NodeId(1))).expect("native verb");
            }),
        );
        let wrapped = FaultyTransport::wrap(
            NativeTransport::with_cost(cfg.topology(), cfg.cost),
            FaultPlan::disabled(),
        );
        let mut t = FaultyTransport::endpoint(&wrapped, loc);
        let wrapped_ns = time_ns(budget, || {
            black_box(t.rdma_read(NodeId(1), PAGE_BYTES)).expect("healthy fabric");
        });
        put("rma.faulty_disabled_overhead_ns", wrapped_ns - read_ns);
    }

    // --- carina: hit paths (native) ---
    {
        let mut b = native_bench();
        let page = b.remote_pages(1)[0];
        let dsm = b.dsm().clone();
        dsm.write_u64(&mut b.t, page, 7);
        put(
            "carina.read_hit_ns",
            time_ns(budget, || {
                black_box(dsm.read_u64(&mut b.t, black_box(page)));
            }),
        );
        put(
            "carina.write_hit_ns",
            time_ns(budget, || dsm.write_u64(&mut b.t, black_box(page), 9)),
        );
        let mut buf = vec![0.0f64; 512];
        put(
            "carina.slice_hit_ns_per_kib",
            time_ns(budget, || {
                dsm.read_f64_slice(&mut b.t, page, black_box(&mut buf))
            }) / 4.0,
        );
    }

    // --- carina: cold paths ---
    {
        let (mut miss_ns, mut fault_ns) = (Vec::new(), Vec::new());
        for _ in 0..budget.batches {
            let mut b = native_bench();
            let pages = b.remote_pages(COLD_PAGES);
            let dsm = b.dsm().clone();
            let t = Instant::now();
            for &p in &pages {
                black_box(dsm.read_u64(&mut b.t, p));
            }
            miss_ns.push(t.elapsed().as_nanos() as f64 / COLD_PAGES as f64);
            let t = Instant::now();
            for &p in &pages {
                dsm.write_u64(&mut b.t, p, 1);
            }
            fault_ns.push(t.elapsed().as_nanos() as f64 / COLD_PAGES as f64);
        }
        put("carina.read_miss_ns", median(&miss_ns));
        put("carina.read_miss_cycles", read_miss_cycles::<CarinaSiSd>());
        put(
            "carina.read_miss_cycles_tardis",
            read_miss_cycles::<Tardis>(),
        );
        put("carina.read_miss_cycles_pyxis", read_miss_cycles::<Pyxis>());
        put("carina.write_fault_ns", median(&fault_ns));
        let mut b = sim_bench::<CarinaSiSd>();
        let pages = b.remote_pages(256);
        for &p in &pages {
            black_box(b.machine.dsm().read_u64(&mut b.t, p));
        }
        let start = b.t.now();
        for &p in &pages {
            b.machine.dsm().write_u64(&mut b.t, p, 1);
        }
        put(
            "carina.write_fault_cycles",
            (b.t.now() - start) as f64 / pages.len() as f64,
        );
    }

    // --- carina: fences ---
    {
        let mut native = native_bench();
        native.fill_cache();
        let dsm = native.dsm().clone();
        put(
            "carina.si_fence_ns_3000",
            time_ns(budget, || dsm.si_fence(&mut native.t)),
        );
        let mut sim = sim_bench::<CarinaSiSd>();
        sim.fill_cache();
        put(
            "carina.si_fence_cycles_3000",
            sim.cycles_of(|dsm, t| dsm.si_fence(t)),
        );

        // Dirtying the pages is not timed.
        let mut native = native_bench();
        let pages = native.remote_pages(SD_PAGES);
        let mut round = 0;
        put(
            "carina.sd_fence_ns_512",
            time_prepared_ns(budget, || {
                round += 1;
                native.dirty(&pages, round);
                let start = Instant::now();
                native.machine.dsm().sd_fence(&mut native.t);
                start.elapsed()
            }),
        );
        let mut sim = sim_bench::<CarinaSiSd>();
        let pages = sim.remote_pages(SD_PAGES);
        sim.dirty(&pages, 1);
        put(
            "carina.sd_fence_cycles_512",
            sim.cycles_of(|dsm, t| dsm.sd_fence(t)),
        );
    }

    // --- vela ---
    {
        let rounds = budget.sync_rounds;
        put(
            "vela.barrier_ns",
            barrier_cost(ArgoMachine::native(config(2)), rounds),
        );
        put(
            "vela.barrier_cycles",
            barrier_cost(ArgoMachine::new(config(2)), 256),
        );
        put(
            "vela.hqdl_uncontended_ns",
            hqdl_uncontended(ArgoMachine::native(config(1)), rounds),
        );
        put(
            "vela.hqdl_uncontended_cycles",
            hqdl_uncontended(ArgoMachine::new(config(1)), 256),
        );
        put("vela.hqdl_handover_cycles", hqdl_handover_cycles(128));
    }

    // --- argo ---
    let machine = {
        let mut build_ms = Vec::new();
        let mut last = None;
        for _ in 0..budget.batches {
            drop(last.take());
            let t = Instant::now();
            let m = ArgoMachine::new(config(2));
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            last = Some(m);
        }
        put("argo.machine_build_ms", median(&build_ms));
        last.expect("at least one batch")
    };
    put(
        "argo.empty_region_us",
        time_ns(budget, || {
            black_box(machine.run(|_| ()).cycles);
        }) / 1e3,
    );

    // --- obs ---
    {
        let hist = obs::Histogram::new();
        let mut v = 1u64;
        put(
            "obs.hist_record_ns",
            time_ns(budget, || {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                hist.record(v >> 40);
            }),
        );
        let cell = GlobalU64Array::alloc(machine.dsm(), 1024);
        let report = machine.run(move |ctx| {
            for i in ctx.my_chunk(1024) {
                cell.set(ctx, i, i as u64);
            }
            ctx.barrier();
            (0..1024).map(|i| cell.get(ctx, i)).sum::<u64>()
        });
        put(
            "obs.metrics_snapshot_us",
            time_ns(budget, || {
                black_box(machine.dsm().metrics_snapshot());
            }) / 1e3,
        );
        put(
            "obs.report_json_us",
            time_ns(budget, || {
                black_box(report.to_json());
            }) / 1e3,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_once_in_table_order() {
        let got = run_all(ProbeBudget::QUICK);
        let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
        let table: Vec<&str> = PROBES.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, table);
        for (name, value) in &got {
            assert!(value.is_finite(), "{name} = {value}");
            if *name != "rma.faulty_disabled_overhead_ns" {
                assert!(*value > 0.0, "{name} = {value}");
            }
        }
    }

    #[test]
    fn virtual_costs_repeat_exactly() {
        assert_eq!(
            read_miss_cycles::<CarinaSiSd>(),
            read_miss_cycles::<CarinaSiSd>()
        );
        // A Pyxis miss registers in two metadata planes: never cheaper.
        assert!(read_miss_cycles::<Pyxis>() >= read_miss_cycles::<CarinaSiSd>());
    }
}
