//! # mem — global address space substrate
//!
//! Data-plane structures for the Argo DSM: the paper's globally shared
//! virtual address space (§3), realized inside one process.
//!
//! - `page`: 4 KiB pages, each exactly its 512 atomic 64-bit words. The
//!   simulated machine is *word-atomic DRAM*: all data accesses are
//!   `Relaxed` word atomics, so the host program is data-race-free even
//!   though the *simulated* program's correctness rests on DRF + SI/SD,
//!   exactly as in the paper.
//! - [`addr`]: global byte addresses and their page/word decomposition.
//! - `global`: home storage, one zero-mapped arena of pages indexed by page
//!   number. Pages are interleaved across nodes — for N nodes, node 0
//!   serves the lowest addresses, node N−1 the highest, page by page
//!   (paper §3) — and re-homing a page moves no bytes.
//! - `cache`: each node's direct-mapped page cache of multi-page lines
//!   (§3.6.2); a cached page's history is one [`Standing`] with one table.
//! - [`alloc`]: the collective bump allocator backing `argo`'s typed
//!   allocation API.
//! - `word`: the sealed `u64`/`f64` codec under every typed accessor.
//! - `zeroed`: [`zeroed_slice`], the one allocator of zero-initialised
//!   shared state — the home store, the cache arenas and every
//!   page-indexed table — which the OS backs only where a run stores.
//!
//! This crate holds *state*; the coherence protocol that manipulates it
//! (misses, classification, fences) lives in `carina`.
//!
//! The data plane is **backend-neutral**: pages, caches, and the directory
//! live in host shared memory regardless of which `rma::Transport` the
//! protocol runs over. The simulator backend moves no bytes — it only
//! charges virtual time for the transfers these structures imply — and the
//! native backend uses the very same storage at wall-clock speed.

pub mod addr;
pub mod alloc;
mod cache;
mod global;
mod page;
mod word;
mod zeroed;

pub use addr::{GlobalAddr, PageNum, PAGE_BYTES, WORDS_PER_PAGE};
pub use alloc::GlobalAllocator;
pub use cache::{CacheConfig, Event, PageCache, SlotGuard, Standing};
pub use global::GlobalMemory;
pub use page::{PageData, WriteMask};
pub use word::Word;
pub use zeroed::{all_zero, clear_nonzero, zeroed_slice, Arena, Zeroed};
