//! The counter table (`carina::stats`) is exhaustive: every
//! `CoherenceSnapshot::fields()` name reaches the JSON report and the
//! Prometheus exposition with its own value, and `reset()` zeroes them all.

use argo::{ArgoConfig, ArgoMachine};
use std::sync::atomic::Ordering;

#[test]
fn every_counter_reaches_every_view() {
    let m = ArgoMachine::new(ArgoConfig::small(2, 1));
    let mut report = m.run(|_| ());
    let stats = m.dsm().stats();
    for (i, (_, counter)) in stats.shard(1).counters().enumerate() {
        counter.store(1000 + i as u64, Ordering::Relaxed);
    }
    report.coherence = stats.snapshot();

    let doc = obs::JsonValue::parse(&report.to_json()).expect("report JSON must parse");
    let coh = doc.get("coherence").unwrap();
    let prom = m.dsm().metrics_snapshot().to_prometheus();
    let names: Vec<&str> = report.coherence.fields().map(|(name, _)| name).collect();
    assert_eq!(names.len(), 32);
    assert!(names.ends_with(&["refills", "refill_pages", "refill_unused"]));
    for (i, name) in names.iter().enumerate() {
        let want = 1000 + i as u64;
        assert_eq!(coh.get(name).and_then(|v| v.as_u64()), Some(want), "JSON {name}");
        let line = format!("carina_{name}{{policy=\"sisd\"}} {want}\n");
        assert!(prom.contains(&line), "Prometheus {name}:\n{prom}");
    }
    for (name, _) in report.coherence.ratios() {
        assert!(coh.get(name).is_some(), "JSON ratio {name}");
    }

    stats.reset();
    assert!(stats.snapshot().fields().all(|(_, v)| v == 0));
}
