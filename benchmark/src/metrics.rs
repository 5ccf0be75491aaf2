//! The names, units, directions and bounds of every metric the benchmark
//! prints. `BENCHMARK.json` at the repository root repeats this table; a
//! test keeps the two equal.

use crate::spans::{Site, COMPUTE_SITE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, with the share of
/// the parent's median by which it may worsen before a change is a
/// regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of a single layer (no bound).
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

pub const END_TO_END: [EndToEnd; 6] = [
    // median wall seconds per rep from starting to build the machine to
    // the start_measurement collective (machine build, global
    // allocation, input initialisation through the DSM)
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // median virtual cycles of the measured section on the 2x1
    // simulator: modelled time to solution, waits included
    EndToEnd {
        name: "sim_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.06,
    },
    // the same kernel on a 1x1 simulator machine (single host thread,
    // exact): the single-node baseline speedups divide by
    EndToEnd {
        name: "sim_cycles_1n",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.01,
    },
    // one-sided reads + writes + atomics issued in the measured section
    // (median, simulator)
    EndToEnd {
        name: "remote_verbs",
        unit: "count",
        better: Better::Lower,
        bound: 0.08,
    },
    // fabric bytes read + written in the measured section (median,
    // simulator)
    EndToEnd {
        name: "remote_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.08,
    },
    // peak resident set (VmHWM) of the workload's process at exit
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Boundary counts read off the untraced simulator rep's report.
pub const BOUNDARY_COUNTS: [(&str, &str, Better); 21] = [
    ("carina.read_misses", "count", Better::Lower),
    ("carina.write_faults", "count", Better::Lower),
    ("carina.writebacks", "count", Better::Lower),
    ("carina.writeback_bytes", "bytes", Better::Lower),
    ("carina.si_invalidated", "count", Better::Lower),
    ("carina.si_keep_ratio", "ratio", Better::Higher),
    ("carina.lease_keep_ratio", "ratio", Better::Higher),
    ("carina.mode_switches", "count", Better::Lower),
    ("rma.reads", "count", Better::Lower),
    ("rma.writes", "count", Better::Lower),
    ("rma.atomics", "count", Better::Lower),
    ("rma.bytes_read", "bytes", Better::Lower),
    ("rma.bytes_written", "bytes", Better::Lower),
    ("rma.verb_retries", "count", Better::Lower),
    ("rma.verb_exhaustions", "count", Better::Lower),
    ("rma.faults_injected", "count", Better::Lower),
    ("rma.retry_ratio", "ratio", Better::Lower),
    ("vela.hqdl_batch_mean", "count", Better::Higher),
    ("vela.lock_handovers", "count", Better::Lower),
    ("vela.verbs_per_passage", "count", Better::Lower),
    ("obs.recorder_dropped", "count", Better::Lower),
];

/// Unit costs of single operations, timed from outside through each
/// layer's public functions (`_ns`/`_us`/`_ms`: host time; `_cycles`:
/// virtual time on the simulator).
pub const PROBES: [(&str, &str); 33] = [
    ("mem.slot_read_ns", "ns"),
    ("mem.page_copy_ns", "ns"),
    ("mem.diff_sparse_ns", "ns"),
    ("mem.diff_dense_ns", "ns"),
    ("simnet.verb_host_ns", "ns"),
    ("simnet.read4k_cycles", "cycles"),
    ("simnet.fetch_add_cycles", "cycles"),
    ("rma.native_read_ns", "ns"),
    ("rma.native_atomic_ns", "ns"),
    ("rma.faulty_disabled_overhead_ns", "ns"),
    ("carina.read_hit_ns", "ns"),
    ("carina.write_hit_ns", "ns"),
    ("carina.slice_hit_ns_per_kib", "ns"),
    ("carina.read_miss_ns", "ns"),
    ("carina.read_miss_cycles", "cycles"),
    ("carina.read_miss_cycles_tardis", "cycles"),
    ("carina.read_miss_cycles_pyxis", "cycles"),
    ("carina.write_fault_ns", "ns"),
    ("carina.write_fault_cycles", "cycles"),
    ("carina.si_fence_ns_3000", "ns"),
    ("carina.si_fence_cycles_3000", "cycles"),
    ("carina.sd_fence_ns_512", "ns"),
    ("carina.sd_fence_cycles_512", "cycles"),
    ("vela.barrier_ns", "ns"),
    ("vela.barrier_cycles", "cycles"),
    ("vela.hqdl_uncontended_ns", "ns"),
    ("vela.hqdl_uncontended_cycles", "cycles"),
    ("vela.hqdl_handover_cycles", "cycles"),
    ("argo.machine_build_ms", "ms"),
    ("argo.empty_region_us", "us"),
    ("obs.hist_record_ns", "ns"),
    ("obs.metrics_snapshot_us", "us"),
    ("obs.report_json_us", "us"),
];

/// Host cost of the measured section of one untraced rep, per backend:
/// median process CPU-seconds (user + system, all threads) and median wall
/// seconds. Reported, not gated: on a shared two-core host CPU time per
/// unit of work drifts by 10-40 % over minutes and wall time more, so
/// neither repeats within a bound the driver accepts; `sim_cycles` carries
/// the waiting instead.
pub const HOST_COST: [&str; 4] = [
    "argo.sim_cpu_s",
    "argo.native_cpu_s",
    "argo.sim_wall_s",
    "argo.native_wall_s",
];

/// Every per-layer metric, in the order they are printed.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    let mut push = |name: String, unit: &'static str, better: Better| {
        out.push(PerLayer { name, unit, better })
    };
    for site in Site::ALL {
        let s = site.name();
        push(format!("{s}.calls"), "count", Better::Lower);
        push(format!("{s}.sim_share"), "%", Better::Lower);
        push(format!("{s}.native_share"), "%", Better::Lower);
        push(format!("{s}.p99_ns"), "ns", Better::Lower);
    }
    push(format!("{COMPUTE_SITE}.sim_share"), "%", Better::Higher);
    push(format!("{COMPUTE_SITE}.native_share"), "%", Better::Higher);
    push("trace.overhead_ratio".to_string(), "ratio", Better::Lower);
    for (name, unit, better) in BOUNDARY_COUNTS {
        push(name.to_string(), unit, better);
    }
    for (name, unit) in PROBES {
        push(name.to_string(), unit, Better::Lower);
    }
    for name in HOST_COST {
        push(name.to_string(), "s", Better::Lower);
    }
    push("model.sim_explained_share".to_string(), "%", Better::Higher);
    out
}

/// A metric or workload name the contract accepts: starts with a letter or
/// digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit the contract accepts: at most 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workload::Workload;
    use std::collections::BTreeSet;

    #[test]
    fn name_and_unit_charsets() {
        for ok in ["a", "9lives", "carina.read_miss_cycles_pyxis", "a-b_c.d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".a", "_a", "a b", "a/b", "ü", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "seventeen_letters", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_metric_is_well_formed_and_named_once() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(seen.insert(w.name().to_string()));
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
        }
        let layers = per_layer();
        assert!(
            !layers.is_empty() && layers.len() <= 128,
            "{}",
            layers.len()
        );
        for m in &layers {
            assert!(valid_name(&m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` declares exactly this table.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .fields()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let text_of =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (decl, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text_of(decl, "name"), w.name());
            assert_eq!(text_of(decl, "why"), w.why());
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (decl, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text_of(decl, "name"), m.name);
            assert_eq!(text_of(decl, "unit"), m.unit);
            assert_eq!(text_of(decl, "better"), m.better.name());
            assert_eq!(decl.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = list("per_layer");
        let table = per_layer();
        assert_eq!(layers.len(), table.len());
        for (decl, m) in layers.iter().zip(&table) {
            assert_eq!(text_of(decl, "name"), m.name);
            assert_eq!(text_of(decl, "unit"), m.unit);
            assert_eq!(text_of(decl, "better"), m.better.name());
        }
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        assert_eq!(list("paths"), vec![Value::Str("benchmark".to_string())]);
    }
}
