//! Argoscope: the observability layer end to end, on both backends.
//!
//! Runs one instrumented workload — striped writes, cluster-wide reads,
//! and HQDL-delegated critical sections — on the virtual-time simulator
//! and on the native shared-memory transport, then prints everything the
//! run can tell you about itself:
//!
//! - the run summary (coherence, downgrade batching, network traffic),
//! - per-site latency histograms (virtual cycles on sim, wall ns native),
//! - time by site: each site's exclusive time and its share of the
//!   threads' measured time, with the time spent in no site — on the
//!   simulator these add up to the measured cycles exactly,
//! - the per-lock delegation table (local vs remote execution, queue
//!   waits, batch sizes, handovers).
//!
//! It also exports machine-readable artifacts under `target/argoscope/`:
//! `lyra_<backend>.json` (the flight recorder as a Perfetto/chrome://tracing-
//! loadable trace with span flow arrows), `report_<backend>.json` (the full
//! `RunReport::to_json()` document) and `metrics_<backend>.{prom,json}`.
//!
//! Run: `cargo run --release --example argoscope`

use argo::types::GlobalU64Array;
use argo::{ArgoConfig, ArgoMachine, RunReport};
use obs::{JsonValue, Site};
use rma::Transport;
use std::sync::Arc;

const CELLS: usize = 8192;
const SECTIONS_PER_THREAD: usize = 100;

/// Each thread returns its checksum and its measured cycles.
fn workload<T: Transport>(machine: &Arc<ArgoMachine<T>>) -> RunReport<(u64, u64)> {
    let dsm = machine.dsm().clone();
    let arr = GlobalU64Array::alloc(machine.dsm(), CELLS);
    let counter = GlobalU64Array::alloc(machine.dsm(), 1).addr(0);
    let ledger = vela::Hqdl::new_named(dsm.clone(), 64, "ledger");
    machine.run(move |ctx| {
        // Phase 1: every thread fills its stripe (write faults, diffs).
        for i in ctx.my_chunk(CELLS) {
            arr.set(ctx, i, i as u64);
        }
        ctx.barrier();
        // Phase 2: every thread sums the whole array (read misses).
        let mut sum = 0u64;
        for i in 0..CELLS {
            sum += arr.get(ctx, i);
        }
        ctx.barrier();
        // Phase 3: delegated critical sections on a shared counter.
        for _ in 0..SECTIONS_PER_THREAD {
            let d = dsm.clone();
            ledger.delegate_wait(&mut ctx.thread, move |ht| {
                let v = d.read_u64(ht, counter);
                d.write_u64(ht, counter, v + 1);
            });
        }
        ctx.barrier();
        (sum, ctx.measured_cycles())
    })
}

fn inspect<T: Transport>(machine: &Arc<ArgoMachine<T>>, backend: &str) {
    println!("==== argoscope: {backend} backend ====");
    machine.dsm().lyra().set_detail(true);
    let report = workload(machine);

    let expect: u64 = (0..CELLS as u64).sum();
    assert!(report.results.iter().all(|&(s, _)| s == expect), "bad checksum");

    print!("{}", report.summary());
    let unit = if report.cycles > 0 { "virtual cycles" } else { "wall ns" };
    println!("latency profile ({unit}):");
    print!("{}", report.profile.render());
    println!("time by site ({unit}, exclusive, share of measured):");
    print!("{}", report.profile.render_time());
    println!("locks:");
    for lock in &report.locks {
        println!("  {}", lock.render());
    }

    // On the simulator every measured cycle of every thread is in exactly
    // one bucket of its time table.
    if report.cycles > 0 {
        let measured: u64 = report.results.iter().map(|&(_, cycles)| cycles).sum();
        assert_eq!(report.profile.total_cycles(), measured, "time by site must add up");
    }

    // The whole point: these histograms must actually have samples.
    assert!(report.profile.get(Site::ReadMiss).count() > 0, "no read misses recorded");
    assert!(report.profile.get(Site::LockAcquire).count() > 0, "no lock acquires recorded");
    assert!(report.profile.get(Site::BarrierWait).count() > 0, "no barrier waits recorded");
    assert_eq!(report.locks.len(), 1, "the ledger lock must be registered");
    assert!(report.locks[0].delegations > 0);

    // Export artifacts; all must parse as JSON (the trace is what Perfetto
    // loads, the report is what scripts consume).
    let dir = std::path::Path::new("target/argoscope");
    std::fs::create_dir_all(dir).expect("create artifact dir");
    let report_json = report.to_json();
    JsonValue::parse(&report_json).expect("report must be valid JSON");
    let report_path = dir.join(format!("report_{backend}.json"));
    std::fs::write(&report_path, &report_json).expect("write report");

    // The flight-recorder dump (detail kinds included) as a chrome trace
    // with span flow arrows, and the live metrics in both expositions.
    let lyra = machine.dsm().lyra().to_chrome_trace();
    let lyra_doc = JsonValue::parse(&lyra).expect("lyra dump must be valid JSON");
    assert!(
        !lyra_doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty(),
        "flight recorder must hold records"
    );
    let lyra_path = dir.join(format!("lyra_{backend}.json"));
    std::fs::write(&lyra_path, &lyra).expect("write lyra dump");
    let metrics = machine.dsm().metrics_snapshot();
    let prom_path = dir.join(format!("metrics_{backend}.prom"));
    std::fs::write(&prom_path, metrics.to_prometheus()).expect("write metrics");
    let metrics_json = metrics.to_json();
    JsonValue::parse(&metrics_json).expect("metrics must be valid JSON");
    let metrics_path = dir.join(format!("metrics_{backend}.json"));
    std::fs::write(&metrics_path, &metrics_json).expect("write metrics json");

    println!("report : {}", report_path.display());
    println!(
        "lyra   : {} ({} records kept, {} dropped)",
        lyra_path.display(),
        report.recorder.kept,
        report.recorder.dropped
    );
    println!("metrics: {} (+ .json)", prom_path.display());
    println!();
}

fn main() {
    let cfg = ArgoConfig::small(2, 2);
    inspect(&ArgoMachine::new(cfg), "sim");
    inspect(&ArgoMachine::native(cfg), "native");
    println!("load the traces at https://ui.perfetto.dev or chrome://tracing");
}
