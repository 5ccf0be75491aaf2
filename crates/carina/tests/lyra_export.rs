//! Golden tests for the Lyra flight-recorder export: the chrome trace must
//! parse, carry honest drop accounting, link every multi-hop span with a
//! well-formed flow-arrow chain (`s` → `t`* → `f`), and draw cross-node
//! requester→home arrows for remote verbs. The whole export must also be
//! byte-identical across identical simulated runs — the trace is itself an
//! artifact the determinism probes may diff.

use carina::{CarinaConfig, Dsm};
use mem::{GlobalAddr, PAGE_BYTES};
use obs::JsonValue;
use rma::{ClusterTopology, CostModel, NodeId, SimTransport, Transport};
use std::collections::BTreeMap;
use std::sync::Arc;

fn small_cluster() -> (Arc<SimTransport>, Arc<Dsm>) {
    let topo = ClusterTopology::tiny(2);
    let net = SimTransport::new(topo, CostModel::paper_2011());
    let dsm = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
    (net, dsm)
}

/// Producer/consumer rounds: write faults and read misses against pages
/// homed on the *other* node, so every round issues remote verbs.
fn run_workload(net: &Arc<SimTransport>, dsm: &Dsm) {
    let topo = *net.topology();
    let mut a = <SimTransport as Transport>::endpoint(net, topo.loc(NodeId(0), 0));
    let mut b = <SimTransport as Transport>::endpoint(net, topo.loc(NodeId(1), 0));
    let base = dsm.total_bytes() / 2; // homed on node 1
    for round in 0..3u64 {
        for p in 0..4u64 {
            let addr = GlobalAddr(base + p * PAGE_BYTES);
            dsm.write_u64(&mut a, addr, round * 100 + p);
        }
        dsm.sd_fence(&mut a);
        dsm.si_fence(&mut b);
        for p in 0..4u64 {
            let addr = GlobalAddr(base + p * PAGE_BYTES);
            assert_eq!(dsm.read_u64(&mut b, addr), round * 100 + p);
        }
        dsm.sd_fence(&mut b);
        dsm.si_fence(&mut a);
    }
}

#[test]
fn flight_recorder_trace_links_spans_with_flow_arrows() {
    let (net, dsm) = small_cluster();
    run_workload(&net, &dsm);

    let json = dsm.lyra().to_chrome_trace();
    let doc = JsonValue::parse(&json).expect("lyra trace must be valid JSON");

    // Honest accounting in the header: nothing lost in this small run.
    let other = doc.get("otherData").expect("otherData metadata");
    let submitted = other.get("submitted").unwrap().as_u64().unwrap();
    let kept = other.get("kept").unwrap().as_u64().unwrap();
    let dropped = other.get("dropped").unwrap().as_u64().unwrap();
    assert!(submitted > 0, "workload must submit records");
    assert_eq!(kept + dropped, submitted);
    assert_eq!(dropped, 0, "ring sized to keep this whole run");

    let events = doc.get("traceEvents").expect("traceEvents array");
    let items = events.as_arr().unwrap();

    // Protocol sites appear as named slices carrying their span.
    for site in ["read_miss", "write_fault", "si_fence", "sd_fence"] {
        assert!(
            items.iter().any(|e| e.get("name").and_then(|n| n.as_str()) == Some(site)),
            "missing site slice {site}"
        );
    }

    // Group flow events by span id: each chain must open with exactly one
    // `s`, close with exactly one `f`, bind later hops with `bp:e`, and
    // run in non-decreasing ts order.
    let mut chains: BTreeMap<String, Vec<&JsonValue>> = BTreeMap::new();
    for ev in items {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        if matches!(ph, "s" | "t" | "f") {
            let id = ev.get("id").unwrap().as_str().unwrap().to_string();
            chains.entry(id).or_default().push(ev);
        }
    }
    assert!(!chains.is_empty(), "expected flow-arrow chains");
    for (id, evs) in &chains {
        assert!(evs.len() >= 2, "chain {id} must have 2+ hops");
        let phases: Vec<&str> =
            evs.iter().map(|e| e.get("ph").unwrap().as_str().unwrap()).collect();
        assert_eq!(phases.iter().filter(|p| **p == "s").count(), 1, "chain {id}: one start");
        assert_eq!(phases.iter().filter(|p| **p == "f").count(), 1, "chain {id}: one finish");
        let min_ts =
            evs.iter().map(|e| e.get("ts").unwrap().as_u64().unwrap()).min().unwrap();
        for ev in evs {
            let ts = ev.get("ts").unwrap().as_u64().unwrap();
            match ev.get("ph").unwrap().as_str().unwrap() {
                "s" => {
                    assert!(ev.get("bp").is_none(), "chain {id}: start has no bp");
                    assert_eq!(ts, min_ts, "chain {id}: start must be the earliest hop");
                }
                _ => assert_eq!(
                    ev.get("bp").unwrap().as_str(),
                    Some("e"),
                    "chain {id}: non-start hops bind to enclosing"
                ),
            }
        }
    }

    // Cross-node arrows: a remote read miss from node 1 against node 0's
    // directory (and vice versa) lands an `arrive` instant on the home
    // track, chained under the requester's span.
    let arrive: Vec<&JsonValue> = items
        .iter()
        .filter(|e| {
            e.get("name").and_then(|n| n.as_str()).is_some_and(|n| n.starts_with("arrive "))
        })
        .collect();
    assert!(!arrive.is_empty(), "remote verbs must mark arrival on the home track");
    for ev in &arrive {
        let span = ev.get("args").unwrap().get("span").unwrap().as_str().unwrap();
        let home = ev.get("tid").unwrap().as_u64().unwrap();
        let chain = chains.get(span).unwrap_or_else(|| panic!("arrive span {span} unchained"));
        assert!(
            chain.iter().any(|e| e.get("tid").unwrap().as_u64() == Some(home)),
            "chain {span} must hop through home track {home}"
        );
        // The issuing VerbIssue slice carries the same span on another
        // track: the arrow is genuinely cross-node.
        assert!(
            items.iter().any(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some("verb_issue")
                    && e.get("args").and_then(|a| a.get("span")).and_then(|s| s.as_str())
                        == Some(span)
                    && e.get("tid").unwrap().as_u64() != Some(home)
            }),
            "span {span} needs a verb_issue slice on the requester track"
        );
    }
}

#[test]
fn flight_recorder_trace_is_deterministic_across_runs() {
    let export = || {
        let (net, dsm) = small_cluster();
        run_workload(&net, &dsm);
        dsm.lyra().to_chrome_trace()
    };
    let a = export();
    let b = export();
    assert_eq!(a, b, "identical simulated runs must export identical traces");
    assert!(a.len() > 512, "trace should be substantial, got {} bytes", a.len());
}
