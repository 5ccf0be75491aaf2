//! Golden tests for the observability layer's export path, all read off the
//! Lyra flight recorder (the engine's only event source): the chrome trace
//! must be valid JSON with per-track monotonic timestamps and honest drop
//! accounting, the per-page detail kinds must appear exactly when
//! `set_detail` is on, and the read/write-hit fast paths must never record
//! anything anywhere.

use carina::config::{PAGE_COPY_CYCLES, PROTECT_CYCLES};
use carina::{CarinaConfig, Dsm};
use mem::{GlobalAddr, PAGE_BYTES};
use obs::{JsonValue, RecordKind, Site, VerbRecord};
use rma::{ClusterTopology, CostModel, Endpoint, NativeTransport, NodeId, SimTransport, Transport};
use std::sync::Arc;

type SimEndpoint = <SimTransport as Transport>::Endpoint;

/// An `nodes`-node simulated cluster with one endpoint per node.
fn cluster(nodes: usize) -> (Arc<Dsm>, Vec<SimEndpoint>) {
    cluster_on(SimTransport::new(ClusterTopology::tiny(nodes), CostModel::paper_2011()))
}

/// A DSM over `net` with one endpoint per node.
fn cluster_on<T: Transport>(net: Arc<T>) -> (Arc<Dsm<T>>, Vec<T::Endpoint>) {
    let topo = *net.topology();
    let dsm = Dsm::new(net.clone(), 4 << 20, CarinaConfig::default());
    let ts = (0..topo.nodes as u16).map(|n| T::endpoint(&net, topo.loc(NodeId(n), 0))).collect();
    (dsm, ts)
}

/// `rounds` producer/consumer exchanges over four pages homed on node 1, so
/// the trace holds misses, faults, downgrades, transitions, and fences on
/// both node tracks.
fn exchange(dsm: &Dsm, ts: &mut [SimEndpoint], rounds: u64) {
    let (a, b) = ts.split_at_mut(1);
    let (a, b) = (&mut a[0], &mut b[0]);
    let base = dsm.total_bytes() / 2; // homed on node 1
    for round in 0..rounds {
        for p in 0..4u64 {
            dsm.write_u64(a, GlobalAddr(base + p * PAGE_BYTES), round * 100 + p);
        }
        dsm.sd_fence(a);
        dsm.si_fence(b);
        for p in 0..4u64 {
            assert_eq!(dsm.read_u64(b, GlobalAddr(base + p * PAGE_BYTES)), round * 100 + p);
        }
        dsm.sd_fence(b);
        dsm.si_fence(a);
    }
}

/// The `protocol_tour` example's scenario: three nodes walk one page homed
/// on node 2 through P → S, NW → SW → MW and the fences in between.
fn protocol_tour<T: Transport>(dsm: &Dsm<T>, t: &mut [T::Endpoint]) {
    let addr = GlobalAddr(5 * PAGE_BYTES);
    dsm.read_u64(&mut t[0], addr);
    dsm.read_u64(&mut t[1], addr);
    dsm.write_u64(&mut t[0], addr, 42);
    dsm.sd_fence(&mut t[0]);
    dsm.si_fence(&mut t[0]);
    dsm.si_fence(&mut t[1]);
    assert_eq!(dsm.read_u64(&mut t[1], addr), 42);
    dsm.write_u64(&mut t[1], addr.offset(8), 7);
    dsm.sd_fence(&mut t[1]);
    dsm.sd_fence(&mut t[0]);
}

/// Every resident record of the per-page detail kinds, all nodes.
fn detail_records<T: Transport>(dsm: &Dsm<T>) -> Vec<VerbRecord> {
    (0..dsm.lyra().nodes())
        .flat_map(|n| dsm.lyra().snapshot(n))
        .filter(|r| r.kind as u8 >= RecordKind::Downgrade as u8)
        .collect()
}

#[test]
fn chrome_trace_parses_with_monotonic_ts_per_track() {
    let (dsm, mut ts) = cluster(2);
    dsm.lyra().set_detail(true);
    // A newcomer's write: node 1 writes a page node 0 has read, so node 0's
    // SI answer flips and node 1 posts one notification; node 0's first SI
    // fence in the exchange drops the page.
    let page = (dsm.total_bytes() / 2 / PAGE_BYTES + 4..)
        .find(|&p| dsm.home_of(GlobalAddr(p * PAGE_BYTES)) == 1)
        .unwrap();
    dsm.read_u64(&mut ts[0], GlobalAddr(page * PAGE_BYTES));
    dsm.write_u64(&mut ts[1], GlobalAddr(page * PAGE_BYTES), 1);
    exchange(&dsm, &mut ts, 3);

    let json = dsm.lyra().to_chrome_trace();
    let doc = JsonValue::parse(&json).expect("trace must be valid JSON");

    let other = doc.get("otherData").expect("otherData metadata");
    assert_eq!(other.get("dropped").unwrap().as_u64(), Some(0));
    assert!(other.get("submitted").unwrap().as_u64().unwrap() > 0);

    let events = doc.get("traceEvents").expect("traceEvents array");
    let items = events.as_arr().unwrap();
    // Shape: every event has pid/tid/ph; sites are durations, detail kinds
    // instants, flow arrows s/t/f.
    for ev in items {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        assert!(matches!(ph, "M" | "X" | "i" | "s" | "t" | "f"), "unexpected phase {ph}");
        assert!(ev.get("tid").is_some());
        if ph == "X" {
            assert!(ev.get("dur").unwrap().as_u64().is_some());
        }
    }
    // (track, arg) of every event named `name` in phase `ph`.
    let named = |name: &str, ph: &str| -> Vec<(u64, u64)> {
        items
            .iter()
            .filter(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some(name)
                    && e.get("ph").unwrap().as_str() == Some(ph)
            })
            .map(|e| {
                let arg = e.get("args").and_then(|a| a.get("arg")).and_then(|a| a.as_u64());
                (e.get("tid").unwrap().as_u64().unwrap(), arg.unwrap())
            })
            .collect()
    };
    // Three rounds of one SD and one SI fence per node, as slices.
    assert_eq!(named("sd_fence", "X").len(), 6);
    assert_eq!(named("si_fence", "X").len(), 6);
    for kind in ["downgrade", "si_invalidate", "si_keep", "p_to_s", "notify"] {
        assert!(!named(kind, "i").is_empty(), "missing {kind} instants");
    }
    // The exchange's four P→S are node 1's first reads of pages node 0
    // wrote. Node 0 keeps and self-downgrades them as P and as S,SW alike,
    // so they are recorded but notify nobody. The newcomer's write is the one
    // notification, and node 0 drops that page.
    assert_eq!(named("p_to_s", "i").len(), 5);
    assert_eq!(named("notify", "i"), vec![(1, page)]);
    assert!(named("si_invalidate", "i").contains(&(0, page)));

    // Both node tracks present, and ts non-decreasing within each.
    let tracks = events.group_by_field("tid");
    assert!(tracks.len() >= 2, "expected a track per node");
    for (tid, evs) in &tracks {
        let mut last = 0.0f64;
        for ev in evs {
            if ev.get("ph").unwrap().as_str() == Some("M") {
                continue;
            }
            let ts = ev.get("ts").unwrap().as_f64().unwrap();
            assert!(ts >= last, "track {tid}: ts went backwards: {last} -> {ts}");
            last = ts;
        }
    }
}

#[test]
fn trace_drops_are_surfaced_not_hidden() {
    let (dsm, mut ts) = cluster(2);
    dsm.lyra().set_detail(true);
    // 1024-record rings: run enough rounds to lap them.
    exchange(&dsm, &mut ts, 600);
    let stats = dsm.lyra().stats();
    assert!(stats.dropped > 0, "workload sized to overflow the ring");
    assert_eq!(stats.kept + stats.dropped, stats.submitted);
    let doc = JsonValue::parse(&dsm.lyra().to_chrome_trace()).unwrap();
    let other = doc.get("otherData").unwrap();
    assert_eq!(other.get("dropped").unwrap().as_u64(), Some(stats.dropped));
    assert_eq!(other.get("submitted").unwrap().as_u64(), Some(stats.submitted));
}

/// The hit fast paths must not touch the lanes' time tables or the flight
/// recorder: misses and faults are the only recorded accesses, even with
/// detail on.
#[test]
fn hit_fast_paths_record_nothing() {
    let (dsm, mut ts) = cluster(2);
    dsm.lyra().set_detail(true);
    let a = &mut ts[0];
    let addr = GlobalAddr(PAGE_BYTES); // odd page: interleaved home = node 1
    dsm.read_u64(a, addr); // one miss
    dsm.write_u64(a, addr, 1); // one write fault

    let profile = dsm.lyra().profile();
    let submitted = dsm.lyra().stats().submitted;
    assert_eq!(profile.get(Site::ReadMiss).count(), 1);
    assert_eq!(profile.get(Site::WriteFault).count(), 1);
    assert!(submitted > 0);

    for i in 0..10_000 {
        dsm.read_u64(a, addr);
        dsm.write_u64(a, addr, i);
    }

    assert_eq!(dsm.lyra().profile(), profile);
    assert_eq!(dsm.lyra().stats().submitted, submitted);
    assert_eq!(dsm.stats().snapshot().read_hits, 10_000);
    assert_eq!(dsm.stats().snapshot().write_hits, 10_000);
}

/// A fence or a miss run under a caller's span (a barrier's, a lock
/// tenure's) times itself under a span of its own and hands the caller's
/// back when it returns.
#[test]
fn fences_and_misses_hand_their_callers_span_back() {
    let (dsm, mut ts) = cluster(2);
    let a = &mut ts[0];
    let span = a.lyra_lane().mint();
    assert!(!span.is_none());
    a.set_span(span);
    dsm.si_fence(a);
    assert_eq!(a.current_span(), span, "after the SI fence");
    dsm.sd_fence(a);
    assert_eq!(a.current_span(), span, "after the SD fence");
    let addr = GlobalAddr(PAGE_BYTES); // odd page: interleaved home = node 1
    assert_eq!(dsm.home_of(addr), 1);
    let misses = dsm.stats().snapshot().read_misses;
    dsm.read_u64(a, addr);
    assert_eq!(dsm.stats().snapshot().read_misses, misses + 1, "a real miss");
    assert_eq!(a.current_span(), span, "after the read miss");
}

/// What the always-on ring records of the tour with detail off: 16 site
/// records, plus the `VerbIssue`/`VerbPoll` pair of each of the two
/// write-backs its releases post.
const TOUR_RECORDS: u64 = 16 + 2 * 2;

/// With detail off (the default) the always-on ring sees exactly what it
/// saw before the detail kinds existed, none of it per-page.
#[test]
fn detail_off_records_no_per_page_kinds() {
    let (dsm, mut ts) = cluster(3);
    protocol_tour(&dsm, &mut ts);
    assert!(detail_records(&dsm).is_empty());
    assert_eq!(dsm.lyra().stats().submitted, TOUR_RECORDS);
    let posted = |kind| {
        let recs = dsm.lyra().snapshot(0).into_iter().chain(dsm.lyra().snapshot(1));
        recs.filter(|r| r.kind == kind && r.class == rma::VerbClass::Downgrade as u8).count()
    };
    assert_eq!((posted(RecordKind::VerbIssue), posted(RecordKind::VerbPoll)), (2, 2));
}

/// With detail on the tour's whole story is in the recorder, on either
/// backend, and every per-page fence event carries its fence's span.
#[test]
fn detail_on_records_the_tour_story() {
    tour_story(cluster(3));
    tour_story(cluster_on(NativeTransport::new(ClusterTopology::tiny(3))));
}

fn tour_story<T: Transport>((dsm, mut ts): (Arc<Dsm<T>>, Vec<T::Endpoint>)) {
    dsm.lyra().set_detail(true);
    protocol_tour(&dsm, &mut ts);
    let details = detail_records(&dsm);
    let has = |kind: RecordKind, node: u16, target: u32| {
        details.iter().any(|r| (r.kind, r.node, r.arg, r.target) == (kind, node, 5, target))
    };
    assert!(has(RecordKind::PToS, 1, 0), "node 1 joins node 0's private page");
    assert!(has(RecordKind::Notify, 1, 0));
    assert!(has(RecordKind::NwToSw, 0, obs::NO_TARGET));
    assert!(has(RecordKind::Notify, 0, 1));
    assert!(has(RecordKind::SwToMw, 1, 0), "node 1 joins single writer node 0");
    assert!(has(RecordKind::Downgrade, 0, 2), "diff travels to the home");
    assert!(has(RecordKind::SiKeep, 0, obs::NO_TARGET), "the single writer keeps its copy");
    assert!(has(RecordKind::SiInvalidate, 1, obs::NO_TARGET));
    assert_eq!(dsm.lyra().stats().submitted, TOUR_RECORDS + details.len() as u64);
    // The one-line rendering the tour prints names the kind and the peer.
    let p_to_s = details.iter().find(|r| r.kind == RecordKind::PToS).unwrap();
    let line = p_to_s.to_string();
    assert!(line.contains("n1 p_to_s") && line.contains("arg=5 ->n0"), "{line}");
    // Each downgrade and SI invalidation happened inside a fence on its
    // node, and is stamped with that fence's span.
    let sites: Vec<VerbRecord> = (0..dsm.lyra().nodes())
        .flat_map(|n| dsm.lyra().snapshot(n))
        .filter(|r| r.kind == RecordKind::Site)
        .collect();
    let fenced = [RecordKind::Downgrade, RecordKind::SiInvalidate];
    let events: Vec<&VerbRecord> = details.iter().filter(|r| fenced.contains(&r.kind)).collect();
    assert!(events.len() >= 2, "the tour downgrades and invalidates");
    for ev in events {
        let fence = sites.iter().find(|s| s.span == ev.span && !s.span.is_none());
        let fence = fence.unwrap_or_else(|| panic!("{ev} carries no site's span"));
        assert!(
            matches!(fence.site_enum(), Some(Site::SdFence | Site::SiFence)),
            "{ev} is under {fence}, not a fence"
        );
        assert_eq!(fence.node, ev.node);
        assert!((fence.start..=fence.start + fence.dur).contains(&ev.start), "{ev} outside {fence}");
    }
}

/// Every window run a fence posts is its own verb on the wire and in the
/// recorder: per run, one `VerbIssue` slice (its pages' bytes, its home)
/// and one `VerbPoll` instant — every poll at the end of the scan of all
/// pages. Eight adjacent pages on one home are two runs: seven, then one.
#[test]
fn fence_postings_are_flight_recorded() {
    let (dsm, mut ts) = cluster(2);
    let pages = 8;
    for p in 0..pages {
        // Odd pages: all homed on node 1 under interleaved placement.
        dsm.write_u64(&mut ts[0], GlobalAddr((2 * p + 1) * PAGE_BYTES), p);
    }
    let writes = dsm.net().stats().snapshot().rdma_writes;
    dsm.sd_fence(&mut ts[0]);
    let snap = dsm.stats().snapshot();
    assert_eq!((snap.writebacks, snap.writeback_bytes), (pages, pages * 42));
    assert_eq!(dsm.net().stats().snapshot().rdma_writes - writes, 2);
    let drained: Vec<VerbRecord> = dsm
        .lyra()
        .snapshot(0)
        .into_iter()
        .filter(|r| r.class == rma::VerbClass::Downgrade as u8)
        .collect();
    let (issues, polls): (Vec<&VerbRecord>, Vec<&VerbRecord>) =
        drained.iter().partition(|r| r.kind == RecordKind::VerbIssue);
    assert_eq!((issues.len(), polls.len()), (2, 2));
    assert!(polls.iter().all(|r| r.kind == RecordKind::VerbPoll));
    let scans = pages * (PAGE_COPY_CYCLES + PROTECT_CYCLES);
    for ((issue, poll), run) in issues.iter().zip(&polls).zip([7, 1]) {
        assert_eq!((issue.target, poll.target, issue.arg), (1, 1, run * 42));
        assert_eq!(poll.start, issue.start + scans, "polled once every page was scanned");
    }
}
