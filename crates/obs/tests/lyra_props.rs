//! Property tests for the Lyra flight-recorder lanes: with one writer per
//! lane and snapshots racing them, records are never torn and every
//! submission is accounted — `kept + dropped == submitted` at quiescence.

use obs::lyra::{Fate, FlightRecorder, RecordKind, VerbRecord};
use obs::span::SpanId;
use proptest::prelude::*;
use std::sync::Arc;

/// A record whose fields are all derived from `(writer, i)` so a reader
/// can verify the whole payload is internally consistent: any mix of two
/// writers' words would break at least one of the checks below.
fn stamped(writer: u64, i: u64) -> VerbRecord {
    let tag = writer * 1_000_003 + i;
    VerbRecord {
        span: SpanId::pack(writer as usize, i + 1),
        start: tag,
        dur: tag ^ 0x5555_5555_5555_5555,
        arg: tag.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        target: (writer % 7) as u32,
        node: 0,
        attempt: (i % 17) as u16,
        kind: RecordKind::VerbIssue,
        site: (i % 8) as u8,
        fate: Fate::from_u8((i % 8) as u8),
        class: (writer % 7) as u8,
    }
}

fn assert_untorn(r: &VerbRecord) {
    let writer = r.span.node() as u64;
    let i = r.span.seq() - 1;
    let expect = stamped(writer, i);
    assert_eq!(r, &expect, "torn record: fields from different submissions");
}

proptest! {
    /// Each thread owns its own lane (the endpoint model), a snapshotter
    /// races them, and at quiescence the merged per-node accounting
    /// identity must hold exactly.
    #[test]
    fn prop_lanes_never_tear_and_loss_is_counted(
        capacity in 8usize..128,
        writers in 2usize..6,
        per_writer in 1u64..400,
    ) {
        let fr = Arc::new(FlightRecorder::new(1, capacity));
        let handles: Vec<_> = (0..writers as u64)
            .map(|w| {
                let fr = Arc::clone(&fr);
                std::thread::spawn(move || {
                    let mut lane = FlightRecorder::lane(&fr, 0);
                    for i in 0..per_writer {
                        lane.record(|| stamped(w, i));
                    }
                    // Keep the lane alive until the writer is done; Drop
                    // recycles the ring for a later endpoint.
                })
            })
            .collect();
        for _ in 0..32 {
            for rec in fr.snapshot(0) {
                assert_untorn(&rec);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let cap = capacity.next_power_of_two().max(8) as u64;
        let stats = fr.stats();
        prop_assert_eq!(stats.submitted, writers as u64 * per_writer);
        prop_assert_eq!(stats.kept + stats.dropped, stats.submitted);
        prop_assert!(stats.kept <= writers as u64 * cap);
        let snap = fr.snapshot(0);
        prop_assert_eq!(snap.len() as u64, stats.kept);
        for rec in &snap {
            assert_untorn(rec);
        }
    }

    /// Readers racing lane writers: snapshots taken mid-hammer may miss
    /// in-flight slots but must never surface a torn record, even while a
    /// small lane laps itself under them.
    #[test]
    fn prop_snapshots_during_writes_are_consistent(
        capacity in 8usize..64,
        per_writer in 64u64..512,
    ) {
        let fr = Arc::new(FlightRecorder::new(1, capacity));
        let writers: Vec<_> = (0..3u64)
            .map(|w| {
                let fr = Arc::clone(&fr);
                std::thread::spawn(move || {
                    let mut lane = FlightRecorder::lane(&fr, 0);
                    for i in 0..per_writer {
                        lane.record(|| stamped(w, i));
                    }
                })
            })
            .collect();
        for _ in 0..64 {
            for rec in fr.snapshot(0) {
                assert_untorn(&rec);
            }
        }
        for h in writers {
            h.join().unwrap();
        }
        for rec in fr.snapshot(0) {
            assert_untorn(&rec);
        }
    }
}
