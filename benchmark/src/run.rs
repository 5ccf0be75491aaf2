//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.
//!
//! Noise hygiene: a warm-up rep is discarded, simulator and native reps
//! are interleaved so host drift hits both alike, every rep gets a fresh
//! machine, CPU-seconds are read at the `start_measurement` collective and
//! when the region returns, and every timing is a median with quartiles
//! and its rep count.

use crate::host;
use crate::json::Value;
use crate::kernels::KernelRun;
use crate::metrics::{self, BOUNDARY_COUNTS, END_TO_END, HOST_COST};
use crate::probe::{self, ProbeBudget};
use crate::spans::{chrome_events, Site, ThreadLog, COMPUTE_SITE};
use crate::stats::{Log2Hist, Summary};
use crate::workload::{reference, run_rep, Backend, Rep, Scale, Workload, NODES};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Measured sim/native rep pairs of an end-to-end run: at least
/// `MIN_PAIRS`, then more while they fit in `--seconds`, up to `MAX_PAIRS`.
const MIN_PAIRS: usize = 3;
const MAX_PAIRS: usize = 7;
/// Traced/untraced native rep pairs of a traced run.
const MIN_TRACE_PAIRS: usize = 2;
const MAX_TRACE_PAIRS: usize = 3;
/// Share of `--seconds` a traced run spends on native rep pairs (the rest
/// goes to the simulator reps and the probes).
const TRACE_PAIR_SHARE: f64 = 0.25;

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    pub scale: Scale,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
    /// The per-rep values behind the summary, in rep order (empty for a
    /// value measured once).
    pub samples: Vec<f64>,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    /// Measured reps attempted, and how many of them failed: checksum off
    /// the sequential reference or differing between backends, exhausted
    /// verbs, a protocol invariant broken, a panic.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The declared metrics of this kind of run, in table order.
    pub metrics: Vec<Metric>,
    /// Host-cost figures an end-to-end run has the most samples of but
    /// cannot gate (see [`HOST_COST`]): in the table and the detailed
    /// file, not in the driver's line.
    pub ungated: Vec<Metric>,
}

fn detailed(metrics: &[Metric]) -> Value {
    let mut out = Value::obj();
    for m in metrics {
        out.set(
            &m.name,
            Value::obj()
                .with("value", m.summary.median)
                .with("unit", m.unit)
                .with("q1", m.summary.q1)
                .with("q3", m.summary.q3)
                .with("n", m.summary.n),
        );
    }
    out
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result the driver reads.
    pub fn driver_json(&self) -> Value {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            metrics.set(
                &m.name,
                Value::obj()
                    .with("value", m.summary.median)
                    .with("unit", m.unit),
            );
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// The same with quartiles and rep counts, for `compare`.
    pub fn detail_json(&self) -> Value {
        Value::obj()
            .with("workload", self.workload.name())
            .with("seed", self.seed)
            .with("traced", self.traced)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "failures",
                Value::Arr(self.failures.iter().map(|f| f.as_str().into()).collect()),
            )
            .with("metrics", detailed(&self.metrics))
            .with("ungated", detailed(&self.ungated))
    }

    /// A table for people, one metric per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "# {} seed {} ({}): {} reps attempted, {} failed\n",
            self.workload.name(),
            self.seed,
            if self.traced {
                "traced run, per-layer"
            } else {
                "end-to-end"
            },
            self.attempted,
            self.failed
        );
        for f in &self.failures {
            out.push_str(&format!("# FAILED: {f}\n"));
        }
        for m in self.metrics.iter().chain(&self.ungated) {
            let s = &m.summary;
            out.push_str(&format!("{:<34} {:>18.6} {:<7}", m.name, s.median, m.unit));
            if s.n > 1 {
                out.push_str(&format!(
                    " q1 {:.6} q3 {:.6} spread {:.2}% n {}",
                    s.q1,
                    s.q3,
                    100.0 * s.spread(),
                    s.n
                ));
            }
            out.push('\n');
            if !m.samples.is_empty() {
                let reps: Vec<String> = m.samples.iter().map(|v| format!("{v:.6}")).collect();
                out.push_str(&format!("#   reps: {}\n", reps.join(" ")));
            }
        }
        out
    }
}

/// Runs reps, checks each against the oracle, and keeps the tally.
struct Reps {
    opts: RunOptions,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Reps {
    fn new(opts: RunOptions) -> Self {
        Reps {
            opts,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// One measured rep; `None` if it failed (its numbers are not used).
    fn measured<const ON: bool>(
        &mut self,
        backend: Backend,
        nodes: usize,
        want: u64,
    ) -> Option<Rep> {
        let o = self.opts;
        self.attempted += 1;
        let what = format!(
            "{} {}x1{}",
            backend.name(),
            nodes,
            if ON { " traced" } else { "" }
        );
        let problems = match run_rep::<ON>(o.workload, backend, nodes, o.scale, o.seed) {
            Ok(rep) => {
                let mut problems = rep.failures.clone();
                if rep.run.checksum != want {
                    problems.push(format!(
                        "checksum {:#018x} differs from the sequential reference {want:#018x}",
                        rep.run.checksum
                    ));
                }
                if problems.is_empty() {
                    return Some(rep);
                }
                problems
            }
            Err(panic) => vec![panic],
        };
        self.failed += 1;
        for p in problems {
            self.failures.push(format!("{what}: {p}"));
        }
        None
    }

    /// An untimed warm-up rep: page-faults the allocator's arenas and the
    /// binary in; its numbers and its verdict are discarded.
    fn warm_up(&self) {
        let o = self.opts;
        let _ = run_rep::<false>(o.workload, Backend::Sim, NODES, o.scale, o.seed);
    }

    fn finish(self, traced: bool, metrics: Vec<Metric>, ungated: Vec<Metric>) -> RunResult {
        RunResult {
            workload: self.opts.workload,
            seed: self.opts.seed,
            traced,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            metrics,
            ungated,
        }
    }
}

fn remote_verbs(run: &KernelRun) -> u64 {
    run.net.rdma_reads + run.net.rdma_writes + run.net.rdma_atomics
}

fn remote_bytes(run: &KernelRun) -> u64 {
    run.net.bytes_read + run.net.bytes_written
}

/// Summary and samples of the reps that succeeded.
fn summarise(values: impl Iterator<Item = f64>) -> (Summary, Vec<f64>) {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        // Every rep failed; the run is reported incorrect.
        (Summary::exact(0.0), v)
    } else {
        (Summary::of(&v), v)
    }
}

/// A value measured once.
fn once(value: f64) -> (Summary, Vec<f64>) {
    (Summary::exact(value), Vec::new())
}

/// The untraced run: warm-up, interleaved simulator/native rep pairs for
/// `--seconds`, one single-node simulator rep; yields every end-to-end
/// metric.
pub fn end_to_end(opts: RunOptions) -> RunResult {
    let want = reference(opts.workload, opts.scale, opts.seed, NODES);
    let want_1n = reference(opts.workload, opts.scale, opts.seed, 1);
    let mut reps = Reps::new(opts);
    reps.warm_up();

    let (mut sim, mut native) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut pairs = 0;
    while pairs < MIN_PAIRS
        || (pairs < MAX_PAIRS && start.elapsed() + start.elapsed() / pairs as u32 <= budget)
    {
        sim.extend(reps.measured::<false>(Backend::Sim, NODES, want));
        native.extend(reps.measured::<false>(Backend::Native, NODES, want));
        pairs += 1;
    }
    let one_node = reps.measured::<false>(Backend::Sim, 1, want_1n);

    let of_sim = |f: fn(&Rep) -> f64| summarise(sim.iter().map(f));
    let values = [
        summarise(sim.iter().chain(&native).map(|r| r.setup_s)),
        of_sim(|r| r.run.cycles as f64),
        summarise(one_node.iter().map(|r| r.run.cycles as f64)),
        of_sim(|r| remote_verbs(&r.run) as f64),
        of_sim(|r| remote_bytes(&r.run) as f64),
        once(host::peak_rss_mb()),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (summary, samples))| Metric {
            name: m.name.to_string(),
            unit: m.unit,
            summary,
            samples,
        })
        .collect();
    let ungated = HOST_COST
        .iter()
        .zip(host_cost(&sim, &native))
        .map(|(name, (summary, samples))| Metric {
            name: name.to_string(),
            unit: "s",
            summary,
            samples,
        })
        .collect();
    reps.finish(false, metrics, ungated)
}

/// CPU-seconds and wall seconds of untraced reps per backend, in the order
/// of [`HOST_COST`].
fn host_cost(sim: &[Rep], native: &[Rep]) -> [(Summary, Vec<f64>); 4] {
    [
        summarise(sim.iter().map(|r| r.cpu_s)),
        summarise(native.iter().map(|r| r.cpu_s)),
        summarise(sim.iter().map(|r| r.wall_s)),
        summarise(native.iter().map(|r| r.wall_s)),
    ]
}

/// Per-site totals over some threads' logs.
#[derive(Default)]
struct SiteTotals {
    calls: [u64; 4],
    in_site: [u64; 4],
    hist: [Log2Hist; 4],
    measured: u64,
    self_time: u64,
}

impl SiteTotals {
    fn add(&mut self, logs: &[ThreadLog]) {
        for log in logs {
            for site in Site::ALL {
                let s = &log.sites[site as usize];
                self.calls[site as usize] += s.calls;
                self.in_site[site as usize] += s.sum;
                self.hist[site as usize].merge(&s.hist);
            }
            self.measured += log.measured();
            self.self_time += log.self_time();
        }
    }

    fn share(&self, part: u64) -> f64 {
        if self.measured == 0 {
            0.0
        } else {
            100.0 * part as f64 / self.measured as f64
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The boundary counts of one untraced simulator rep, named as in
/// [`BOUNDARY_COUNTS`] and in its order.
fn boundary_counts(rep: &Rep) -> Vec<(&'static str, f64)> {
    let c = &rep.run.coherence;
    let n = &rep.run.net;
    let verbs = remote_verbs(&rep.run);
    let (mut sections, mut batches, mut handovers) = (0, 0, 0);
    for lock in &rep.run.locks {
        sections += lock.executed_local + lock.executed_remote;
        batches += lock.batches;
        handovers += lock.handovers;
    }
    vec![
        ("carina.read_misses", c.read_misses as f64),
        ("carina.write_faults", c.write_faults as f64),
        ("carina.writebacks", c.writebacks as f64),
        ("carina.writeback_bytes", c.writeback_bytes as f64),
        ("carina.si_invalidated", c.si_invalidated as f64),
        (
            "carina.si_keep_ratio",
            ratio(c.si_kept, c.si_kept + c.si_invalidated),
        ),
        (
            "carina.lease_keep_ratio",
            ratio(c.lease_kept, c.lease_kept + c.lease_expiries),
        ),
        (
            "carina.mode_switches",
            (c.mode_to_lease + c.mode_to_sisd) as f64,
        ),
        ("rma.reads", n.rdma_reads as f64),
        ("rma.writes", n.rdma_writes as f64),
        ("rma.atomics", n.rdma_atomics as f64),
        ("rma.bytes_read", n.bytes_read as f64),
        ("rma.bytes_written", n.bytes_written as f64),
        ("rma.verb_retries", c.verb_retries as f64),
        ("rma.verb_exhaustions", c.verb_exhaustions as f64),
        ("rma.faults_injected", rep.faults_injected as f64),
        ("rma.retry_ratio", ratio(c.verb_retries, verbs)),
        ("vela.hqdl_batch_mean", ratio(sections, batches)),
        ("vela.lock_handovers", handovers as f64),
        // Remote references per critical section: the RMR measure.
        ("vela.verbs_per_passage", ratio(verbs, sections)),
        ("obs.recorder_dropped", rep.run.recorder_dropped as f64),
    ]
}

/// The value named `name` in a `(name, value)` list; 0 if absent (a rep
/// that failed leaves its list empty).
fn named(values: &[(&'static str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Share (in %) of the simulator's thread-cycles that boundary counts ×
/// probed unit costs + the kernel's charged compute account for. Waiting
/// (load imbalance at barriers, queueing for the lock) is what the outside
/// view cannot see.
fn explained_share(
    workload: Workload,
    counts: &[(&'static str, f64)],
    traced_sim: &SiteTotals,
    compute_charged: u64,
    probes: &[(&'static str, f64)],
) -> f64 {
    let probe = |name: &str| named(probes, name);
    let count = |name: &str| named(counts, name);
    let miss_cycles = if workload == Workload::MixedPyxis {
        probe("carina.read_miss_cycles_pyxis")
    } else {
        probe("carina.read_miss_cycles")
    };
    let sections = traced_sim.calls[Site::Delegate as usize] as f64;
    let handovers = count("vela.lock_handovers").min(sections);
    let explained = count("carina.read_misses") * miss_cycles
        + count("carina.write_faults") * probe("carina.write_fault_cycles")
        + count("carina.writebacks") * probe("carina.sd_fence_cycles_512") / 512.0
        + traced_sim.calls[Site::Barrier as usize] as f64 * probe("vela.barrier_cycles")
        + handovers * probe("vela.hqdl_handover_cycles")
        + (sections - handovers) * probe("vela.hqdl_uncontended_cycles")
        + compute_charged as f64;
    if traced_sim.measured == 0 {
        0.0
    } else {
        100.0 * explained / traced_sim.measured as f64
    }
}

/// The traced run: boundary counts from an untraced simulator rep, spans
/// from traced reps on both backends (the simulator's must add up
/// exactly), the tracing overhead from interleaved traced/untraced native
/// reps, and the unit-cost probes; yields every per-layer metric. The
/// spans are written to `trace_out` as Chrome-trace JSON.
pub fn per_layer(opts: RunOptions, trace_out: Option<PathBuf>) -> RunResult {
    let want = reference(opts.workload, opts.scale, opts.seed, NODES);
    let mut reps = Reps::new(opts);
    reps.warm_up();
    let start = Instant::now();

    let plain_sim = reps.measured::<false>(Backend::Sim, NODES, want);
    let traced_sim = reps.measured::<true>(Backend::Sim, NODES, want);
    let mut sim_totals = SiteTotals::default();
    let mut compute_charged = 0;
    let mut events = Vec::new();
    let rep_name = format!("rep:{}", opts.workload.name());
    if let Some(rep) = &traced_sim {
        for (tid, log) in rep.run.logs.iter().enumerate() {
            // A simulated thread's clock moves only inside a wrapped call
            // or a compute charge.
            if log.in_sites() + log.compute_charged != log.measured() {
                reps.failed += 1;
                reps.failures.push(format!(
                    "sim traced: thread {tid} spans {} + compute {} != measured cycles {}",
                    log.in_sites(),
                    log.compute_charged,
                    log.measured()
                ));
            }
            compute_charged += log.compute_charged;
        }
        sim_totals.add(&rep.run.logs);
        events.extend(chrome_events(&rep_name, 1, &rep.run.logs));
    }

    let pair_budget = Duration::from_secs_f64(opts.seconds * TRACE_PAIR_SHARE);
    let (mut plain_native, mut traced_native) = (Vec::new(), Vec::new());
    let mut native_totals = SiteTotals::default();
    let mut pairs = 0;
    while pairs < MIN_TRACE_PAIRS || (pairs < MAX_TRACE_PAIRS && start.elapsed() < pair_budget) {
        plain_native.extend(reps.measured::<false>(Backend::Native, NODES, want));
        if let Some(rep) = reps.measured::<true>(Backend::Native, NODES, want) {
            native_totals.add(&rep.run.logs);
            if pairs == 0 {
                events.extend(chrome_events(&rep_name, 2, &rep.run.logs));
            }
            traced_native.push(rep);
        }
        pairs += 1;
    }

    let budget = match opts.scale {
        Scale::Full => ProbeBudget::FULL,
        Scale::Quick => ProbeBudget::QUICK,
    };
    let probes = probe::run_all(budget);

    let declared = metrics::per_layer();
    let mut metrics = Vec::new();
    let mut put = |name: String, (summary, samples): (Summary, Vec<f64>)| {
        let unit = declared
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
            .unit;
        metrics.push(Metric {
            name,
            unit,
            summary,
            samples,
        });
    };
    for site in Site::ALL {
        let (s, i) = (site.name(), site as usize);
        put(format!("{s}.calls"), once(sim_totals.calls[i] as f64));
        put(
            format!("{s}.sim_share"),
            once(sim_totals.share(sim_totals.in_site[i])),
        );
        put(
            format!("{s}.native_share"),
            once(native_totals.share(native_totals.in_site[i])),
        );
        put(
            format!("{s}.p99_ns"),
            once(native_totals.hist[i].percentile(0.99) as f64),
        );
    }
    put(
        format!("{COMPUTE_SITE}.sim_share"),
        once(sim_totals.share(sim_totals.self_time)),
    );
    put(
        format!("{COMPUTE_SITE}.native_share"),
        once(native_totals.share(native_totals.self_time)),
    );
    let (traced_cpu, _) = summarise(traced_native.iter().map(|r| r.cpu_s));
    let (plain_cpu, _) = summarise(plain_native.iter().map(|r| r.cpu_s));
    let overhead = if plain_cpu.median > 0.0 {
        traced_cpu.median / plain_cpu.median
    } else {
        0.0
    };
    put("trace.overhead_ratio".to_string(), once(overhead));
    let counts = plain_sim.as_ref().map_or(Vec::new(), boundary_counts);
    for (name, _, _) in BOUNDARY_COUNTS {
        put(name.to_string(), once(named(&counts, name)));
    }
    for (name, value) in &probes {
        put(name.to_string(), once(*value));
    }
    let costs = host_cost(plain_sim.as_slice(), &plain_native);
    for (name, cost) in HOST_COST.iter().zip(costs) {
        put(name.to_string(), cost);
    }
    put(
        "model.sim_explained_share".to_string(),
        once(explained_share(
            opts.workload,
            &counts,
            &sim_totals,
            compute_charged,
            &probes,
        )),
    );

    if let Some(path) = trace_out {
        let doc = Value::obj()
            .with("displayTimeUnit", "ns")
            .with("traceEvents", Value::Arr(events));
        if let Err(e) = write_file(&path, &doc.to_string()) {
            eprintln!("argobench: could not write {}: {e}", path.display());
        }
    }
    reps.finish(true, metrics, Vec::new())
}

/// Write `text` to `path`, creating its directory.
pub fn write_file(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn quick(workload: Workload) -> RunOptions {
        RunOptions {
            workload,
            seed: 3,
            seconds: 0.0,
            scale: Scale::Quick,
        }
    }

    #[test]
    fn end_to_end_run_reports_every_metric_once() {
        let r = end_to_end(quick(Workload::SorStencil));
        assert!(r.correct(), "{:?}", r.failures);
        assert_eq!(r.attempted, 2 * MIN_PAIRS as u64 + 1);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let table: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        for m in &r.metrics {
            assert!(m.summary.median > 0.0, "{} is {}", m.name, m.summary.median);
        }
        // The driver's line parses and has exactly the contract's keys.
        let line = r.driver_json().to_string();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .fields()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(
            doc.get("metrics").unwrap().fields().unwrap().len(),
            END_TO_END.len()
        );
        assert!(r.table().contains("sim_cycles"));
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric_and_a_trace() {
        let dir = std::env::temp_dir().join(format!("argobench-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        let r = per_layer(quick(Workload::PrioqHqdl), Some(path.clone()));
        assert!(r.correct(), "{:?}", r.failures);
        let names: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
        let table: Vec<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        let get = |name: &str| {
            r.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.summary.median)
                .unwrap()
        };
        assert!(get("vela.delegate.calls") > 0.0);
        assert_eq!(get("argo.barrier.calls"), 0.0);
        assert!(get("vela.verbs_per_passage") > 0.0);
        assert!(get("trace.overhead_ratio") > 0.0);
        let shares: f64 = Site::ALL
            .iter()
            .map(|s| get(&format!("{}.sim_share", s.name())))
            .sum::<f64>()
            + get("app.compute.sim_share");
        assert!((shares - 100.0).abs() < 1e-6, "{shares}");
        let trace = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("rep:prioq_hqdl")));
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("vela.delegate")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn boundary_counts_follow_the_declared_table() {
        let rep =
            run_rep::<false>(Workload::SorChaos, Backend::Sim, NODES, Scale::Quick, 3).unwrap();
        let counts = boundary_counts(&rep);
        let names: Vec<&str> = counts.iter().map(|(n, _)| *n).collect();
        let table: Vec<&str> = BOUNDARY_COUNTS.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, table);
        assert!(named(&counts, "carina.write_faults") > 0.0);
        assert_eq!(named(&counts, "no.such.count"), 0.0);
    }

    #[test]
    fn a_wrong_reference_fails_the_rep() {
        let mut reps = Reps::new(quick(Workload::MatmulRo));
        assert!(reps.measured::<false>(Backend::Sim, NODES, 12345).is_none());
        assert_eq!((reps.attempted, reps.failed), (1, 1));
        assert!(reps.failures[0].contains("sequential reference"));
        let r = reps.finish(false, Vec::new(), Vec::new());
        assert!(!r.correct());
    }
}
