//! The Carina protocol engine.
//!
//! [`Dsm`] ties together the global memory, a pluggable [`Coherence`]
//! policy, page caches and write buffers, and implements the access path of
//! the paper's §3:
//!
//! - **Read miss** (§3.3): fetch a whole cache line of pages from their
//!   homes, depositing our registration in each page's directory entry with
//!   a remote fetch-or. What the registration *means* — reader full-map
//!   bits and P→S detection under [`CarinaSiSd`], a timestamp lease under
//!   [`crate::coherence::Tardis`] — is the policy's decision; the engine
//!   posts whatever notification or fetch verbs the policy's
//!   [`RegisterOutcome`] asks for (no handler runs anywhere).
//! - **Write fault** (§3.5): first write to a page registers us as a
//!   writer; the policy classifies the fault (possibly asking the engine to
//!   notify sharers) and decides buffering
//!   ([`Coherence::write_buffered`]); every store marks its words in the
//!   page's write mask, and the page enters the FIFO write buffer (§3.6.1)
//!   whose overflow downgrades the oldest dirty page.
//! - **SI fence** (§3.1): sweep the page cache and invalidate exactly the
//!   pages the policy's predicate names (Table 1 under SI/SD; expired
//!   leases under Tardis).
//! - **SD fence** (§3.1): drain the write buffer, posting each dirty page's
//!   masked words — its diff, under DRF — to its home, one write per round
//!   trip of wire; wait for all posted writes to settle, then the policy's
//!   release hook.
//!
//! The split is mechanism vs decision: the engine owns transport verbs,
//! retry/fault plumbing, issue/poll overlap, line fills and the refill, and
//! the write buffer; the policy owns every *what-to-do* question. Both axes
//! dispatch statically: `Dsm<T, C>` defaults to `SimTransport` +
//! `CarinaSiSd`.
//!
//! Pages whose home is the accessing node are read and written directly in
//! home memory (they are local); they still register with the policy so
//! remote sharers classify them correctly.
//!
//! This module owns [`Dsm`] itself — the struct, construction, getters.
//! The protocol is further `impl Dsm` blocks in the child modules below
//! (children see the private fields; `pub(super)` methods are the seams
//! between them). Each child's header says what it owns and which paper
//! section it implements; DESIGN.md §12 has the map.

mod access;
mod debug;
mod drain;
mod fence;
mod miss;
mod refill;
mod register;
mod verbs;

pub use fence::Published;

// The children share this module's imports (`use super::*`), as they share
// its private fields: one engine, cut into files.
use crate::coherence::{CarinaSiSd, Coherence, PageMode};
use crate::config::CarinaConfig;
use crate::error::DsmError;
use crate::stats::CoherenceStats;
use crate::write_buffer::WriteBuffer;
use mem::{
    Event, GlobalAddr, GlobalAllocator, GlobalMemory, PageCache, PageNum, SlotGuard, Standing,
    PAGE_BYTES,
};
use rma::{Completion, Endpoint, SimTransport, Transport, Verb, VerbClass, VerbToken};
use simnet::NodeId;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sort `pages` by home, then page, and cut them into `runs`: pages of one
/// home with no page of that home between two of them — adjacent in the
/// home's window (`p` and `p + N` under interleaving) — at most `most` long,
/// in the order of their first page. One read carries a refill's run; the
/// SD drain cuts its uncapped groups by bytes. (Not generic: one copy.)
fn window_runs(g: &GlobalMemory, most: u64, pages: &mut [PageNum], runs: &mut Vec<Range<usize>>) {
    let home_of = |p: u64| g.home_of(PageNum(p));
    pages.sort_unstable_by_key(|page| (home_of(page.0), page.0));
    runs.clear();
    let mut start = 0;
    for end in 1..=pages.len() {
        let (prev, home) = (pages[end - 1].0, home_of(pages[end - 1].0));
        let next = pages
            .get(end)
            .filter(|p| home_of(p.0) == home && !(prev + 1..p.0).any(|q| home_of(q) == home));
        if next.is_none() || (end - start) as u64 == most {
            runs.push(start..end);
            start = end;
        }
    }
    runs.sort_unstable_by_key(|run| pages[run.start]);
}

/// Per-node engine state (registration fast paths live in the policy).
#[derive(Debug)]
struct NodeState {
    cache: PageCache,
    wbuf: WriteBuffer,
    /// Held across an SD fence's drain, which takes pages out of `wbuf`
    /// while they are still dirty (host-side only; see `sd_drain`); guards
    /// the drain's buffers.
    draining: Mutex<drain::Drain>,
    /// Max settle time of writes this node has posted but not yet fenced.
    pending_settle: AtomicU64,
    /// The consumer pages SI fences dropped since the node's last demand
    /// miss, until a refill takes them (`refill.rs`).
    refill: Mutex<Vec<PageNum>>,
    /// A demand miss happened since the last SI fence.
    missed: AtomicBool,
}

/// The distributed shared memory: data plane plus a pluggable coherence
/// protocol.
///
/// Generic over the RMA [`Transport`] backend and the [`Coherence`] policy;
/// defaults to the virtual-time [`SimTransport`] running the paper's
/// [`CarinaSiSd`]. All dispatch is static — instantiating with
/// `rma::NativeTransport` runs the identical protocol at wall-clock speed,
/// and instantiating with [`crate::coherence::Tardis`] runs timestamp
/// leases on the identical engine.
///
/// ```
/// use carina::{CarinaConfig, Dsm};
/// use mem::{GlobalAddr, PAGE_BYTES};
/// use rma::{ClusterTopology, CostModel, NodeId, SimTransport, Transport};
///
/// let topo = ClusterTopology::tiny(2);
/// let net = SimTransport::new(topo, CostModel::paper_2011());
/// let dsm = Dsm::new(net.clone(), 1 << 20, CarinaConfig::default());
/// let mut producer = SimTransport::endpoint(&net, topo.loc(NodeId(0), 0));
/// let mut consumer = SimTransport::endpoint(&net, topo.loc(NodeId(1), 0));
///
/// let addr = GlobalAddr(3 * PAGE_BYTES);
/// dsm.write_u64(&mut producer, addr, 7);
/// dsm.sd_fence(&mut producer); // release
/// dsm.si_fence(&mut consumer); // acquire
/// assert_eq!(dsm.read_u64(&mut consumer, addr), 7);
/// ```
#[derive(Debug)]
pub struct Dsm<T: Transport = SimTransport, C: Coherence = CarinaSiSd> {
    global: GlobalMemory,
    coherence: C,
    allocator: GlobalAllocator,
    net: Arc<T>,
    config: CarinaConfig,
    stats: CoherenceStats,
    /// Per-lock HQDL statistics; Vela locks register themselves here.
    lock_obs: obs::LockRegistry,
    /// The Lyra flight recorder `net` owns: every endpoint's lane of the
    /// last N verb records. Always on; purely passive (it reads the
    /// observability clock and writes side tables nothing on the protocol
    /// path reads back), so determinism probes pin bit-identical output
    /// with it recording.
    lyra: Arc<obs::FlightRecorder>,
    nodes: Vec<NodeState>,
}

impl<T: Transport> Dsm<T> {
    /// Build a DSM over `net`'s topology with `bytes_per_node` of global
    /// memory contributed by each node, running the paper's SI/SD protocol.
    pub fn new(net: Arc<T>, bytes_per_node: u64, config: CarinaConfig) -> Arc<Self> {
        Dsm::with_policy(net, bytes_per_node, config)
    }
}

impl<T: Transport, C: Coherence> Dsm<T, C> {
    /// Build a DSM over `net`'s topology with `bytes_per_node` of global
    /// memory contributed by each node, running coherence policy `C`.
    pub fn with_policy(net: Arc<T>, bytes_per_node: u64, config: CarinaConfig) -> Arc<Self> {
        let n = net.topology().nodes;
        assert!(n <= 128, "directory metadata supports up to 128 nodes");
        let global = GlobalMemory::new(n, bytes_per_node);
        let total_pages = global.total_pages();
        let lyra = net.recorder().clone();
        Arc::new(Dsm {
            coherence: C::new(n, total_pages, &config),
            allocator: GlobalAllocator::new(global.total_bytes()),
            global,
            net,
            config,
            stats: CoherenceStats::new(n),
            lock_obs: obs::LockRegistry::new(),
            lyra,
            nodes: (0..n)
                .map(|_| NodeState {
                    cache: PageCache::new(config.cache),
                    wbuf: WriteBuffer::new(config.write_buffer_pages, total_pages),
                    draining: Mutex::default(),
                    pending_settle: AtomicU64::new(0),
                    refill: Mutex::new(Vec::new()),
                    missed: AtomicBool::new(false),
                })
                .collect(),
        })
    }

    /// The coherence policy's short name (report labels, bench ids).
    #[inline]
    pub fn policy_name(&self) -> &'static str {
        C::NAME
    }

    #[inline]
    pub fn config(&self) -> &CarinaConfig {
        &self.config
    }

    #[inline]
    pub fn net(&self) -> &Arc<T> {
        &self.net
    }

    #[inline]
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// The coherence policy, whose answers tests compare.
    #[inline]
    pub fn policy(&self) -> &C {
        &self.coherence
    }

    /// Registry of per-lock HQDL statistics. Vela locks register here at
    /// construction; run reports collect the snapshots.
    #[inline]
    pub fn lock_registry(&self) -> &obs::LockRegistry {
        &self.lock_obs
    }

    /// The Lyra flight recorder — the engine's only event path: the lanes
    /// of every endpoint on `net`. The per-page detail kinds are off until
    /// [`obs::FlightRecorder::set_detail`].
    #[inline]
    pub fn lyra(&self) -> &obs::FlightRecorder {
        &self.lyra
    }

    #[inline]
    pub fn allocator(&self) -> &GlobalAllocator {
        &self.allocator
    }

    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.global.total_bytes()
    }

    /// Home node of the page containing `addr`.
    #[inline]
    pub fn home_of(&self, addr: GlobalAddr) -> u16 {
        self.global.home_of(addr.page())
    }

    /// Allocate page-aligned storage whose pages are **block-distributed**
    /// across the cluster: the allocation's page range is split into equal
    /// contiguous runs, one per node — so chunked access patterns touch
    /// mostly-local homes. This is the per-allocation distribution hint the
    /// paper leaves as future work (§3). Must be called before any access
    /// to the range.
    pub fn alloc_blocked(&self, bytes: u64) -> Result<GlobalAddr, mem::alloc::OutOfGlobalMemory> {
        let pages = bytes.div_ceil(PAGE_BYTES);
        let base = self.allocator.alloc(pages * PAGE_BYTES, PAGE_BYTES)?;
        let nodes = self.nodes.len() as u64;
        let first = base.page().0;
        let per = pages.div_ceil(nodes);
        for i in 0..pages {
            let node = (i / per).min(nodes - 1) as u16;
            self.global.set_home(PageNum(first + i), node);
        }
        Ok(base)
    }
}
