//! The adaptive lease rule shared by every lease-granting policy.
//!
//! A fixed lease length suffers amplification: each write bumps a page's
//! `wts` past the max granted `rts`, so one global clock jump expires every
//! same-round lease at once and read-only pages thrash like AllShared. The
//! fix (Tardis §5, adapted) is per-page lease adaptation:
//!
//! - renewing a lease on an *unchanged* page (it expired only because
//!   unrelated writers moved the clock) **doubles** the page's lease, up to
//!   [`LEASE_MAX`];
//! - writing the page **halves** it, down to [`LEASE_MIN`] — long
//!   promises on a write-active page only inflate future `wts` bumps.
//!
//! The three bounds are protocol constants, as in the Tardis paper: no
//! workload, test or benchmark ever ran with other values. A page's lease
//! lives in a zero-mapped column, so a cell of 0 — never written, or reset
//! — reads as [`LEASE_INIT`]; every stored length is at least
//! [`LEASE_MIN`], never 0.
//!
//! [`Tardis`](super::Tardis) uses this for every page;
//! [`Pyxis`](super::Pyxis) reuses the identical clock for the pages it runs
//! in lease mode, so the hybrid's lease half adapts exactly like the pure
//! policy it borrows from.

use std::sync::atomic::{AtomicU64, Ordering};

/// Logical-clock ticks a page's first read grant stays valid.
pub(crate) const LEASE_INIT: u64 = 64;
/// Adaptive-lease floor: writes halve a page's lease no lower than this.
pub(crate) const LEASE_MIN: u64 = 8;
/// Adaptive-lease ceiling: renewals of an unchanged page double its lease
/// no higher than this.
pub(crate) const LEASE_MAX: u64 = 4096;

const _: () = assert!(1 <= LEASE_MIN && LEASE_MIN <= LEASE_INIT && LEASE_INIT <= LEASE_MAX);

/// The lease length `cell` holds.
#[inline]
pub(crate) fn length(cell: &AtomicU64) -> u64 {
    match cell.load(Ordering::Relaxed) {
        0 => LEASE_INIT,
        lease => lease,
    }
}

/// Renewal of an unchanged page: double `cell`'s lease up to the ceiling;
/// returns the grown length.
#[inline]
pub(crate) fn grow(cell: &AtomicU64) -> u64 {
    let grown = (length(cell) * 2).min(LEASE_MAX);
    cell.store(grown, Ordering::Relaxed);
    grown
}

/// Write to the page: halve `cell`'s lease down to the floor; returns the
/// shrunk length.
#[inline]
pub(crate) fn shrink(cell: &AtomicU64) -> u64 {
    let shrunk = (length(cell) / 2).max(LEASE_MIN);
    cell.store(shrunk, Ordering::Relaxed);
    shrunk
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_zero_cell_is_the_initial_lease() {
        assert_eq!(length(&AtomicU64::new(0)), LEASE_INIT);
        assert_eq!(grow(&AtomicU64::new(0)), LEASE_INIT * 2);
        assert_eq!(shrink(&AtomicU64::new(0)), LEASE_INIT / 2);
    }

    #[test]
    fn grows_by_doubling_up_to_max() {
        let cell = AtomicU64::new(LEASE_INIT);
        assert_eq!(grow(&cell), LEASE_INIT * 2);
        for _ in 0..20 {
            grow(&cell);
        }
        assert_eq!(cell.load(Ordering::Relaxed), LEASE_MAX);
    }

    #[test]
    fn shrinks_by_halving_down_to_min() {
        let cell = AtomicU64::new(LEASE_INIT);
        assert_eq!(shrink(&cell), LEASE_INIT / 2);
        for _ in 0..20 {
            shrink(&cell);
        }
        assert_eq!(cell.load(Ordering::Relaxed), LEASE_MIN);
    }
}
