//! Human-readable run summaries and the machine-readable report export.
//!
//! [`RunReport::summary`] renders the timing, coherence, and network
//! profile of a parallel region the way the examples print it — one place
//! to keep the format consistent. [`RunReport::to_json`] serializes the
//! same data (plus latency histograms and per-lock delegation stats) for
//! scripts and CI artifacts.

use crate::machine::RunReport;
use obs::HistogramSnapshot;
use std::fmt::Write as _;

/// Compact histogram serialization: sample count, mean, the common tail
/// percentiles, and the upper edge of the largest occupied bucket.
fn hist_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        h.count(),
        h.mean(),
        h.percentile(50.0),
        h.percentile(90.0),
        h.percentile(99.0),
        h.max_edge()
    )
}

impl<R> RunReport<R> {
    /// A multi-line human-readable summary of the run.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "virtual time : {:.3} ms ({} cycles), policy {}",
            self.seconds * 1e3,
            self.cycles,
            self.policy
        );
        let c = &self.coherence;
        let _ = writeln!(
            s,
            "coherence    : {} read misses, {} write faults, {} writebacks ({} KiB)",
            c.read_misses,
            c.write_faults,
            c.writebacks,
            c.writeback_bytes >> 10
        );
        let _ = writeln!(
            s,
            "classification: P->S {}, NW->SW {}, SW->MW {}; SI kept {} / invalidated {}",
            c.p_to_s, c.nw_to_sw, c.sw_to_mw, c.si_kept, c.si_invalidated
        );
        let _ = writeln!(
            s,
            "downgrades   : {} write-backs posted, {:.0}% of bytes diffed, {} pages kept writable",
            c.writebacks,
            100.0 * c.diff_efficiency(),
            c.write_retained
        );
        let n = &self.net;
        let _ = writeln!(
            s,
            "network      : {} reads ({} KiB), {} writes ({} KiB), {} atomics, {} handlers",
            n.rdma_reads,
            n.bytes_read >> 10,
            n.rdma_writes,
            n.bytes_written >> 10,
            n.rdma_atomics,
            n.handler_invocations
        );
        if c.refills > 0 || c.refill_unused > 0 {
            let _ = writeln!(
                s,
                "refill       : {} refills, {} pages, {} dropped untouched",
                c.refills, c.refill_pages, c.refill_unused
            );
        }
        if c.lease_renewals > 0 || c.lease_expiries > 0 || c.lease_kept > 0 {
            let _ = writeln!(
                s,
                "leases       : {} renewals, {} kept at SI, {} expired ({:.0}% kept)",
                c.lease_renewals,
                c.lease_kept,
                c.lease_expiries,
                100.0 * c.lease_keep_ratio()
            );
        }
        if c.mode_to_lease + c.mode_to_sisd + c.mode_lease_checks > 0 {
            let _ = writeln!(
                s,
                "modes        : {} →lease, {} →si/sd switches, {} reconciles ({:.0}% lease-governed)",
                c.mode_to_lease,
                c.mode_to_sisd,
                c.mode_reconciles,
                100.0 * c.lease_mode_occupancy()
            );
        }
        if c.verb_retries > 0 || c.verb_exhaustions > 0 {
            let _ = writeln!(
                s,
                "resilience   : {} verb retries, {} budgets exhausted",
                c.verb_retries, c.verb_exhaustions
            );
        }
        let rec = &self.recorder;
        let _ = writeln!(
            s,
            "recorder     : {} records kept / {} submitted, {} dropped",
            rec.kept, rec.submitted, rec.dropped
        );
        s
    }

    /// The full report as a JSON document: timing, every coherence and
    /// network counter, the merged latency histograms per site, and one
    /// entry per registered lock. Parsable by `obs::JsonValue` (and any
    /// real JSON parser).
    pub fn to_json(&self) -> String {
        let n = &self.net;
        let mut s = String::with_capacity(2048);
        s.push('{');
        let _ = write!(
            s,
            "\"cycles\":{},\"seconds\":{:.9},\"wall_seconds\":{:.6},\"threads\":{},\"policy\":\"{}\"",
            self.cycles,
            self.seconds,
            self.wall_seconds,
            self.results.len(),
            self.policy
        );
        // Every counter of the table, then the derived ratios.
        s.push_str(",\"coherence\":{");
        for (name, value) in self.coherence.fields() {
            let _ = write!(s, "\"{name}\":{value},");
        }
        for (name, value) in self.coherence.ratios() {
            let _ = write!(s, "\"{name}\":{value:.4},");
        }
        s.pop(); // the trailing comma
        s.push('}');
        let _ = write!(
            s,
            ",\"network\":{{\"rdma_reads\":{},\"rdma_writes\":{},\"rdma_atomics\":{},\
             \"bytes_read\":{},\"bytes_written\":{},\"messages\":{},\"msg_bytes\":{},\
             \"handler_invocations\":{}}}",
            n.rdma_reads,
            n.rdma_writes,
            n.rdma_atomics,
            n.bytes_read,
            n.bytes_written,
            n.messages,
            n.msg_bytes,
            n.handler_invocations
        );
        s.push_str(",\"profile\":{");
        for (i, site) in obs::Site::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", site.name(), hist_json(self.profile.get(*site)));
        }
        s.push_str("},\"time\":{");
        for site in obs::Site::ALL {
            let _ = write!(s, "\"{}\":{},", site.name(), self.profile.exclusive(site));
        }
        let _ = write!(s, "\"outside\":{}}}", self.profile.outside);
        let rec = &self.recorder;
        let _ = write!(
            s,
            ",\"recorder\":{{\"submitted\":{},\"kept\":{},\"dropped\":{},\
             \"capacity_per_lane\":{}}}",
            rec.submitted, rec.kept, rec.dropped, rec.capacity_per_lane
        );
        s.push_str(",\"locks\":[");
        for (i, l) in self.locks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"delegations\":{},\"executed_local\":{},\
                 \"executed_remote\":{},\"batches\":{},\"handovers\":{},\
                 \"mean_batch\":{:.3},\"queue_wait\":{},\"batch_size\":{},\"acquire\":{}}}",
                obs::json::escape(&l.name),
                l.delegations,
                l.executed_local,
                l.executed_remote,
                l.batches,
                l.handovers,
                l.mean_batch(),
                hist_json(&l.queue_wait),
                hist_json(&l.batch_size),
                hist_json(&l.acquire)
            );
        }
        s.push_str("]}");
        s
    }

    /// One-line headline: time plus the dominant coherence costs.
    pub fn headline(&self) -> String {
        format!(
            "{:.3} ms virtual, {} misses, {} writebacks, {} handler invocations",
            self.seconds * 1e3,
            self.coherence.read_misses,
            self.coherence.writebacks,
            self.net.handler_invocations
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::{ArgoConfig, ArgoMachine};
    use crate::types::GlobalU64Array;

    #[test]
    fn summary_mentions_the_traffic() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 2));
        let arr = GlobalU64Array::alloc(m.dsm(), 2048);
        let report = m.run(move |ctx| {
            for i in ctx.my_chunk(2048) {
                arr.set(ctx, i, i as u64);
            }
            ctx.barrier();
            arr.get(ctx, 0)
        });
        let s = report.summary();
        assert!(s.contains("virtual time"));
        assert!(s.contains("read misses"));
        assert!(s.contains("write-backs posted"));
        assert!(s.contains("handlers"));
        // The recorder line is always present.
        assert!(s.contains("recorder     :"));
        assert!(report.headline().contains("ms virtual"));
    }

    #[test]
    fn summary_reports_refills() {
        // Thread 0 rewrites eight pages every round; thread 1, on the other
        // node, re-reads them: from the third round its first miss refills.
        let m = ArgoMachine::new(ArgoConfig::small(2, 1));
        let arr = GlobalU64Array::alloc(m.dsm(), 8 * 512);
        let report = m.run(move |ctx| {
            for round in 0..4 {
                if ctx.tid() == 0 {
                    (0..8).for_each(|p| arr.set(ctx, p * 512, round));
                }
                ctx.barrier();
                if ctx.tid() == 1 {
                    (0..8).for_each(|p| assert_eq!(arr.get(ctx, p * 512), round));
                }
                ctx.barrier();
            }
        });
        assert!(report.coherence.refills > 0);
        assert!(report.summary().contains("refill       :"));
    }

    #[test]
    fn to_json_round_trips_the_counters() {
        let m = ArgoMachine::new(ArgoConfig::small(2, 2));
        let arr = GlobalU64Array::alloc(m.dsm(), 1024);
        let report = m.run(move |ctx| {
            for i in ctx.my_chunk(1024) {
                arr.set(ctx, i, 1);
            }
            ctx.barrier();
            arr.get(ctx, 0)
        });
        let doc = obs::JsonValue::parse(&report.to_json()).expect("report JSON must parse");
        let coh = doc.get("coherence").unwrap();
        assert_eq!(
            coh.get("read_misses").unwrap().as_u64(),
            Some(report.coherence.read_misses)
        );
        // Healthy fabric: retry counters are present and zero.
        assert_eq!(coh.get("verb_retries").unwrap().as_u64(), Some(0));
        assert_eq!(coh.get("verb_exhaustions").unwrap().as_u64(), Some(0));
        assert_eq!(
            doc.get("network").unwrap().get("rdma_reads").unwrap().as_u64(),
            Some(report.net.rdma_reads)
        );
        assert_eq!(doc.get("threads").unwrap().as_u64(), Some(4));
        // The time section is the threads' time tables: on the simulator
        // they add up to the cycles of the measured sections.
        let time = doc.get("time").unwrap();
        let total: u64 = obs::Site::ALL
            .iter()
            .map(|site| time.get(site.name()).unwrap().as_u64().unwrap())
            .sum::<u64>()
            + time.get("outside").unwrap().as_u64().unwrap();
        assert_eq!(total, report.profile.total_cycles());
        assert!(total >= report.cycles, "four threads, each measured from 0");
        // The barrier ran, so its site has samples in the profile section.
        let bw = doc.get("profile").unwrap().get("barrier_wait").unwrap();
        assert_eq!(
            bw.get("count").unwrap().as_u64(),
            Some(report.profile.get(obs::Site::BarrierWait).count())
        );
        assert!(bw.get("count").unwrap().as_u64().unwrap() >= 4);
        // No locks registered: empty but present array.
        assert!(doc.get("locks").unwrap().as_arr().unwrap().is_empty());
        // Flight recorder ran alongside (always on) and lost nothing here.
        let rec = doc.get("recorder").unwrap();
        assert_eq!(rec.get("submitted").unwrap().as_u64(), Some(report.recorder.submitted));
        assert!(report.recorder.submitted > 0, "fences/misses must submit records");
        assert_eq!(
            rec.get("kept").unwrap().as_u64().unwrap()
                + rec.get("dropped").unwrap().as_u64().unwrap(),
            report.recorder.submitted
        );
    }
}
