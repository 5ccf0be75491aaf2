//! Time by site: every thread's lane charges each interval of its clock to
//! exactly one bucket — the innermost open protocol site, or `outside` —
//! so on the simulator a thread's table adds up to its measured cycles,
//! under every coherence policy.

use argo::types::GlobalU64Array;
use argo::{ArgoConfig, ArgoMachine, ArgoMutex};
use carina::{CarinaSiSd, Coherence, Pyxis, Tardis};
use mem::PAGE_BYTES;
use obs::Site;
use rma::SimTransport;
use vela::Hqdl;

const WORDS: usize = 8 * (PAGE_BYTES as usize / 8);

/// One program touching every site: write faults and read misses across
/// nodes, bare SD and SI fences, barriers, an HQDL lock and an
/// `ArgoMutex`; each thread checks its own table against its clock.
fn every_site_adds_up<C: Coherence>() {
    let machine = ArgoMachine::<SimTransport, C>::with_policy(ArgoConfig::small(2, 2));
    let dsm = machine.dsm().clone();
    let arr = GlobalU64Array::alloc(&dsm, WORDS);
    // Two counters on pages of their own: one behind each lock.
    let counters = GlobalU64Array::alloc(&dsm, 1024);
    let delegated = counters.addr(0);
    let hqdl = Hqdl::new(dsm.clone(), 8);
    let mutex = ArgoMutex::new(dsm.clone(), 1);
    let report = machine.run(move |ctx| {
        for i in ctx.my_chunk(WORDS) {
            arr.set(ctx, i, 1);
        }
        ctx.barrier();
        // The table restarts with the measured section.
        ctx.start_measurement();
        let sum: u64 = (0..WORDS).map(|i| arr.get(ctx, i)).sum();
        assert_eq!(sum, WORDS as u64);
        ctx.barrier();
        for i in ctx.my_chunk(WORDS).step_by(512) {
            arr.set(ctx, i, 2);
        }
        ctx.release();
        ctx.acquire();
        ctx.barrier();
        for _ in 0..4 {
            let d = dsm.clone();
            hqdl.delegate_wait(&mut ctx.thread, move |ht| {
                let v = d.read_u64(ht, delegated);
                d.write_u64(ht, delegated, v + 1);
            });
            mutex.with(ctx, |ctx| {
                let v = counters.get(ctx, 512);
                counters.set(ctx, 512, v + 1);
            });
        }
        ctx.barrier();
        assert_eq!(counters.get(ctx, 512), 16);
        let table = ctx.time_table();
        assert_eq!(table.total_cycles(), ctx.measured_cycles(), "thread {}", ctx.tid());
        table
    });
    for site in Site::ALL {
        assert!(report.profile.get(site).count() > 0, "{}: no {} scope", C::NAME, site.name());
    }
    let measured: u64 = report.results.iter().map(|t| t.total_cycles()).sum();
    assert_eq!(report.profile.total_cycles(), measured);
    assert!(report.profile.outside > 0, "the threads computed outside every site");
}

#[test]
fn every_site_adds_up_under_si_sd() {
    every_site_adds_up::<CarinaSiSd>();
}

#[test]
fn every_site_adds_up_under_tardis() {
    every_site_adds_up::<Tardis>();
}

#[test]
fn every_site_adds_up_under_pyxis() {
    every_site_adds_up::<Pyxis>();
}
