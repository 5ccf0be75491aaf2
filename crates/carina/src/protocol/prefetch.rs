//! The read-miss stride prefetcher — an extension beyond the paper's
//! fixed-size line fills (§3.6.2): per-core stride predictors and a side
//! ring of speculatively fetched lines that only a demand miss can claim.

use super::*;
use crate::config::PREFETCH_STREAK;
use mem::PageData;
use rma::VerbToken;
use std::collections::VecDeque;

/// One core's stride predictor: the last line it missed on, the stride of
/// that miss relative to the one before, and how many consecutive misses
/// have repeated the stride.
#[derive(Debug, Default, Clone, Copy)]
struct StridePredictor {
    last_line: u64,
    stride: i64,
    streak: u32,
    /// False until the core's first miss seeds `last_line`.
    primed: bool,
}

/// A speculatively fetched line parked outside the page cache until a
/// demand miss claims it.
#[derive(Debug)]
pub(super) struct PrefetchedLine {
    line: u64,
    /// Virtual time the speculative reads complete. Never merged into the
    /// *issuing* thread's clock — only a consuming demand miss pays it.
    ready_at: u64,
    /// Remote pages of the line with their home contents as snapshotted at
    /// prefetch time.
    pub(super) pages: Vec<(PageNum, PageData)>,
}

/// Per-node speculation state: per-core stride predictors plus the ring of
/// prefetched lines. Lives entirely outside the page cache (and therefore
/// outside every coherence invariant); SI fences, section resets, and
/// classification decays flush it, which is what makes consuming a stale
/// snapshot sound under the DSM's acquire semantics.
#[derive(Debug, Default)]
pub(super) struct Prefetcher {
    cores: Vec<StridePredictor>,
    ring: VecDeque<PrefetchedLine>,
}

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Pull the ring entry for `line` (if any) out of the node's prefetch
    /// ring so the in-progress demand fill can consume it.
    pub(super) fn take_prefetched(&self, me: u16, line: u64) -> Option<PrefetchedLine> {
        if self.config.prefetch_lines == 0 {
            return None;
        }
        let mut pf = self.nodes[me as usize].prefetch.lock().unwrap();
        let pos = pf.ring.iter().position(|e| e.line == line)?;
        pf.ring.remove(pos)
    }

    /// Fold a claimed ring entry into the slot being filled: every page the
    /// slot still misses is satisfied from the speculative snapshot (a hit,
    /// paying the speculative read's completion time instead of a fresh
    /// round trip); anything else in the entry is wasted.
    pub(super) fn consume_prefetched(
        &self,
        st: &mut SlotGuard<'_>,
        pf: PrefetchedLine,
        mut done: u64,
        me: u16,
    ) -> u64 {
        let ns = &self.nodes[me as usize];
        let shard = self.stats.shard(me);
        for (p, data) in pf.pages {
            let idx = ns.cache.index_in_line(p);
            if st.pages[idx].valid {
                CoherenceStats::bump(&shard.prefetch_wasted);
                continue;
            }
            st.data(idx).copy_from(&data);
            st.pages[idx].fill();
            CoherenceStats::bump(&shard.prefetch_hits);
            done = done.max(pf.ready_at);
        }
        done
    }

    /// Advance `t`'s core's stride predictor past a demand miss on `line`
    /// and, once a stride has repeated [`PREFETCH_STREAK`] times, issue a
    /// speculative fetch of the predicted next line into the ring.
    pub(super) fn maybe_prefetch(&self, t: &mut T::Endpoint, line: u64, me: u16) {
        if self.config.prefetch_lines == 0 {
            return;
        }
        let ns = &self.nodes[me as usize];
        let core = t.loc().core as usize;
        let next = {
            let mut pf = ns.prefetch.lock().unwrap();
            if pf.cores.len() <= core {
                pf.cores.resize(core + 1, StridePredictor::default());
            }
            let p = &mut pf.cores[core];
            let stride = if p.primed {
                line.wrapping_sub(p.last_line) as i64
            } else {
                0
            };
            if p.primed && stride != 0 && stride == p.stride {
                p.streak += 1;
            } else {
                p.streak = u32::from(p.primed && stride != 0);
            }
            p.stride = stride;
            p.last_line = line;
            p.primed = true;
            let (streak, stride) = (p.streak, p.stride);
            if streak < PREFETCH_STREAK {
                None
            } else {
                let next = line.wrapping_add(stride as u64);
                if next == line || pf.ring.iter().any(|e| e.line == next) {
                    None
                } else {
                    Some(next)
                }
            }
        };
        if let Some(next) = next {
            self.prefetch_line(t, next, me);
        }
    }

    /// Speculatively fetch every remote page of `line`. Fire-and-forget:
    /// the issued reads are polled immediately but their completion time is
    /// parked in the ring entry, never merged into the issuing thread's
    /// clock; a verb failure silently drops the line (speculation never
    /// retries and never surfaces errors). Takes no slot locks, so it is
    /// safe to call while a demand fill still holds its slot — pages the
    /// cache already holds are simply fetched redundantly and counted
    /// wasted when the entry is claimed or flushed.
    fn prefetch_line(&self, t: &mut T::Endpoint, line: u64, me: u16) {
        let ns = &self.nodes[me as usize];
        let base = ns.cache.line_base(line);
        let total_pages = self.global.total_pages();
        let mut group: Vec<(u16, Vec<PageNum>)> = Vec::new();
        for i in 0..self.config.cache.pages_per_line as u64 {
            let p = PageNum(base.0 + i);
            if p.0 >= total_pages {
                continue;
            }
            let home = self.global.home_of(p);
            if home != me {
                push_grouped(&mut group, home, p);
            }
        }
        if group.is_empty() {
            return;
        }
        let shard = self.stats.shard(me);
        let pages_total: u64 = group.iter().map(|(_, ps)| ps.len() as u64).sum();
        CoherenceStats::add(&shard.prefetch_issued, pages_total);
        let now = t.now();
        let tokens: Vec<VerbToken> = group
            .iter()
            .map(|(home, ps)| {
                let bytes = ps.len() as u64 * PAGE_BYTES;
                t.issue(NodeId(*home), &Verb::Read { bytes }, now)
            })
            .collect();
        let mut ready_at = now;
        let mut ok = true;
        for tok in tokens {
            match t.poll(tok) {
                Some(Ok(c)) => ready_at = ready_at.max(c.initiator_done),
                // Failed or still in flight: drop the whole line.
                Some(Err(_)) | None => ok = false,
            }
        }
        if !ok {
            CoherenceStats::add(&shard.prefetch_wasted, pages_total);
            return;
        }
        // Snapshot and park under the ring lock, so a concurrent write-back
        // from this node either lands before the snapshot or finds the
        // entry to retire (`retire_prefetched`).
        let mut pf = ns.prefetch.lock().unwrap();
        let pages: Vec<(PageNum, PageData)> = group
            .iter()
            .flat_map(|(_, ps)| ps.iter().map(|&p| (p, self.global.home_page(p).snapshot())))
            .collect();
        pf.ring.push_back(PrefetchedLine { line, ready_at, pages });
        while pf.ring.len() > self.config.prefetch_lines {
            if let Some(old) = pf.ring.pop_front() {
                CoherenceStats::add(&shard.prefetch_wasted, old.pages.len() as u64);
            }
        }
    }

    /// Drop every speculative line (and all predictor history) `node`
    /// holds, counting unconsumed pages as wasted. Acquire-side fences and
    /// phase resets call this: consuming a snapshot taken before the
    /// acquire would hand the program values it already synchronized away.
    pub(super) fn flush_prefetch(&self, node: u16) {
        if self.config.prefetch_lines == 0 {
            return;
        }
        let mut pf = self.nodes[node as usize].prefetch.lock().unwrap();
        let shard = self.stats.shard(node);
        while let Some(e) = pf.ring.pop_front() {
            CoherenceStats::add(&shard.prefetch_wasted, e.pages.len() as u64);
        }
        pf.cores.clear();
    }

    /// `node` just wrote `page` home: a parked snapshot of its line
    /// predates the node's own write and must not satisfy a later miss.
    /// Called after the home copy, with the page's slot still locked, so no
    /// miss on the page can slip in between.
    pub(super) fn retire_prefetched(&self, node: u16, page: PageNum) {
        let line = self.nodes[node as usize].cache.line_of(page);
        if let Some(old) = self.take_prefetched(node, line) {
            CoherenceStats::add(&self.stats.shard(node).prefetch_wasted, old.pages.len() as u64);
        }
    }
}
