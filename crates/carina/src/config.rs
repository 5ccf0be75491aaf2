//! Carina configuration knobs.

use crate::classification::ClassificationMode;
use mem::CacheConfig;
use rma::RetryPolicy;

/// Cycles for a page-cache hit (TLB + local cache access).
pub const HIT_CYCLES: u64 = 4;
/// Per-word compute charge of bulk (streaming) slice access, on top of the
/// one [`HIT_CYCLES`] a page run pays: a loop whose per-element cost is
/// hidden by hardware caches. Scalar accesses pay none.
pub const STREAM_WORD_CYCLES: u64 = 1;
/// Cycles to copy one 4 KiB page that is hot in the CPU cache: ~170 DRAM +
/// 4096 B at 16 B/cycle. Charged where the paper copies or scans a page —
/// the twin at a write fault (the faulting access just touched it) and the
/// diff scan of a downgrade, which also re-twins a kept page — although
/// the host, which takes the diff from the write mask, makes no copy.
pub const PAGE_COPY_CYCLES: u64 = 430;
/// Cycles to copy one *cold* 4 KiB page during a sync-point checkpoint
/// sweep (naïve P/S only): every line misses on the way in and out (2×64
/// cache lines of cold DRAM traffic), so this is an order of magnitude
/// more than a hot copy — the cost that makes the paper's naïve P/S "no
/// better than S" (§5.1).
pub(crate) const CHECKPOINT_CYCLES: u64 = 4200;
/// Cycles to examine one cached page during a fence sweep.
pub(crate) const FENCE_SCAN_CYCLES: u64 = 6;
/// Cycles to flip protection on one page (the mprotect analogue).
pub const PROTECT_CYCLES: u64 = 150;

/// All tunables of the coherence layer. Defaults match the paper's shipped
/// configuration (P/S3, passive directory, one-page cache lines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarinaConfig {
    /// Classification scheme (the Figure 8 sweep).
    pub mode: ClassificationMode,
    /// Page-cache geometry (lines × pages per line).
    pub cache: CacheConfig,
    /// Write-buffer capacity in pages (the Figure 9/10 sweep). When the
    /// buffer exceeds this, the oldest dirty page is downgraded.
    pub write_buffer_pages: usize,
    /// Ablation: charge a software message-handler invocation at the home
    /// node for every directory operation and notification, as a
    /// traditional *active* directory would. Argo's contribution is that
    /// this is `false`.
    pub active_directory: bool,
    /// How failed verbs are reissued (backoff, jitter, per-class budgets).
    /// Irrelevant on a healthy fabric — no verb ever fails there.
    pub retry: RetryPolicy,
}

impl Default for CarinaConfig {
    fn default() -> Self {
        CarinaConfig {
            mode: ClassificationMode::Ps3,
            cache: CacheConfig::default(),
            write_buffer_pages: 8192,
            active_directory: false,
            retry: RetryPolicy::default(),
        }
    }
}

impl CarinaConfig {
    /// Convenience: default config with a specific classification mode.
    pub fn with_mode(mode: ClassificationMode) -> Self {
        CarinaConfig {
            mode,
            ..Default::default()
        }
    }

    /// Convenience: default config with a specific write-buffer size.
    pub fn with_write_buffer(pages: usize) -> Self {
        CarinaConfig {
            write_buffer_pages: pages,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ps3_passive() {
        let c = CarinaConfig::default();
        assert_eq!(c.mode, ClassificationMode::Ps3);
        assert!(!c.active_directory);
    }

    #[test]
    fn builders_override_one_field() {
        assert_eq!(
            CarinaConfig::with_mode(ClassificationMode::AllShared).mode,
            ClassificationMode::AllShared
        );
        assert_eq!(CarinaConfig::with_write_buffer(32).write_buffer_pages, 32);
    }
}
