//! Property tests of the SD fence's drain (`protocol/drain.rs`): over any
//! mix of per-page diff sizes and run lengths on two or three homes, the
//! writes it posts carry exactly the pages' wire sizes, each write is one
//! home's pages adjacent in its window, no write of several pages outlasts
//! one round trip of wire, and a drain whose pages' wire fits in their
//! scans exposes only the last page's wire and flight.

use carina::config::{PAGE_COPY_CYCLES, PROTECT_CYCLES};
use carina::{CarinaConfig, Dsm, VerbClass};
use mem::{GlobalAddr, PAGE_BYTES};
use proptest::prelude::*;
use simnet::testkit::{thread, tiny_net};

/// A diff's wire size: a 32-byte header and 10 bytes per word, priced as
/// the page once that is smaller.
fn diff_bytes(words: u64) -> u64 {
    (32 + 10 * words).min(PAGE_BYTES)
}

proptest! {
    /// Node 0 stores `words[h][i]` words (scaled to at most `top`) into
    /// the `i`th page of home `h + 1`'s window, then fences.
    #[test]
    fn a_drain_cuts_adjacent_runs_within_one_round_trip(
        words in proptest::collection::vec(proptest::collection::vec(1u64..513, 1..13), 2..4),
        top in 1u64..513,
    ) {
        let nodes = words.len() + 1;
        let net = tiny_net(nodes);
        let cost = *net.cost();
        let dsm: std::sync::Arc<Dsm> = Dsm::new(net.clone(), 4 << 20, CarinaConfig::default());
        let mut t = thread(&net, 0, 0);
        let page_of = |h: usize, i: usize| (h + 1 + nodes * (i + 1)) as u64;
        let mut bytes: Vec<Vec<u64>> = Vec::new();
        for (h, home) in words.iter().enumerate() {
            bytes.push(Vec::new());
            for (i, &w) in home.iter().enumerate() {
                let w = 1 + (w - 1) % top;
                let page = GlobalAddr(page_of(h, i) * PAGE_BYTES);
                for word in 0..w {
                    dsm.write_u64(&mut t, page.offset(8 * word), word + 1);
                }
                bytes[h].push(diff_bytes(w));
            }
        }
        t.compute(1_000_000);
        let (before, written) = (t.now(), dsm.net().stats().snapshot().bytes_written);
        dsm.sd_fence(&mut t);
        let fence = t.now() - before;

        // Each write is the next pages of its home's window, exactly.
        let mut next = vec![0; words.len()];
        let snapshot = dsm.lyra().snapshot(0);
        let downgrade = |r: &&obs::VerbRecord| r.class == VerbClass::Downgrade as u8;
        let issued = snapshot.iter().filter(|r| r.kind == obs::RecordKind::VerbIssue);
        for r in issued.filter(downgrade) {
            let h = r.target as usize - 1;
            let (start, mut sum) = (next[h], 0);
            while sum < r.arg && next[h] < bytes[h].len() {
                sum += bytes[h][next[h]];
                next[h] += 1;
            }
            prop_assert_eq!(sum, r.arg);
            let pages = next[h] - start;
            prop_assert!(
                pages == 1 || cost.transfer_cycles(r.arg) <= 2 * cost.network_latency,
                "{pages} pages of {} B outlast a round trip", r.arg
            );
        }
        let lens: Vec<usize> = bytes.iter().map(Vec::len).collect();
        prop_assert_eq!(next, lens);
        let total: u64 = bytes.iter().flatten().sum();
        let s = dsm.stats().snapshot();
        prop_assert_eq!(s.writeback_bytes, total);
        prop_assert_eq!(dsm.net().stats().snapshot().bytes_written - written, total);

        // Where every page's wire fits in its re-protect — the margin of
        // its scan over the diff scan the cut rule counts on — the earlier
        // writes are off the NIC when the last page posts alone.
        if bytes.iter().flatten().all(|&b| cost.transfer_cycles(b) <= PROTECT_CYCLES) {
            let scans = s.writebacks * (PAGE_COPY_CYCLES + PROTECT_CYCLES);
            let last = cost.transfer_cycles(*bytes.last().and_then(|b| b.last()).unwrap());
            prop_assert!(
                fence <= scans + last + cost.network_latency,
                "tail {} past the last page's wire {last} and flight", fence - scans
            );
        }
    }
}
