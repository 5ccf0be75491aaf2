//! Virtual-time cost model, calibrated from the paper's Figure 1.
//!
//! The paper's motivating trend data (2011 column): CPU 3.4 GHz, DRAM minimum
//! latency ≈ 170 cycles, network minimum latency ≈ 1700 cycles, network peak
//! bandwidth ≈ 111 cycles per KB transferred. All constants here are in CPU
//! cycles of that reference machine and are freely configurable.

use crate::topology::ThreadLoc;

/// Cost constants (CPU cycles) for every simulated hardware event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Local DRAM access (page-cache hit that misses CPU caches).
    pub dram_latency: u64,
    /// Extra hop between NUMA domains inside one machine.
    pub intersocket_latency: u64,
    /// One-way network propagation latency between machines.
    pub network_latency: u64,
    /// Bandwidth term: cycles to push 1 KiB onto the wire.
    pub cycles_per_kb: u64,
    /// Cost of running a software message handler (the overhead Argo's
    /// passive directory avoids; paid by MPI-style sends and by the
    /// active-directory ablation).
    pub handler_cycles: u64,
    /// Cost of taking a page-fault trap into the DSM runtime (models the
    /// SIGSEGV + mprotect path of the real implementation).
    pub fault_trap_cycles: u64,
    /// Wire footprint of a remote atomic (fetch-and-add on a directory word).
    pub atomic_op_bytes: u64,
    /// CPU frequency used to convert cycles to seconds for reporting.
    pub cpu_ghz: f64,
}

impl CostModel {
    /// Constants from the paper's Figure 1, 2011 column.
    pub fn paper_2011() -> Self {
        CostModel {
            dram_latency: 170,
            intersocket_latency: 300,
            network_latency: 1700,
            cycles_per_kb: 111,
            handler_cycles: 2500,
            fault_trap_cycles: 3000,
            atomic_op_bytes: 64,
            cpu_ghz: 3.4,
        }
    }

    /// A model with zero network costs; useful for isolating protocol logic
    /// in unit tests.
    pub fn free() -> Self {
        CostModel {
            dram_latency: 0,
            intersocket_latency: 0,
            network_latency: 0,
            cycles_per_kb: 0,
            handler_cycles: 0,
            fault_trap_cycles: 0,
            atomic_op_bytes: 64,
            cpu_ghz: 1.0,
        }
    }

    /// Cycles for the bandwidth (serialization) term of a `bytes`-sized
    /// transfer. Rounds up so a 1-byte transfer is not free.
    #[inline]
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        (bytes * self.cycles_per_kb).div_ceil(1024)
    }

    /// How many `bytes`-sized transfers one link carries back to back in a
    /// network round trip, at least one (unbounded on a free wire): the
    /// longest burst whose wire time one round trip covers.
    pub fn transfers_per_round_trip(&self, bytes: u64) -> u64 {
        (2 * self.network_latency)
            .checked_div(self.transfer_cycles(bytes))
            .map_or(u64::MAX, |n| n.max(1))
    }

    /// One-way propagation latency between two placements: zero within a
    /// socket (cache-to-cache), one inter-socket hop within a machine, full
    /// network latency between machines.
    #[inline]
    pub fn propagation(&self, a: ThreadLoc, b: ThreadLoc) -> u64 {
        if a.node != b.node {
            self.network_latency
        } else if a.socket != b.socket {
            self.intersocket_latency
        } else {
            0
        }
    }

    /// Convert a cycle count to seconds at the model's CPU frequency.
    #[inline]
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.cpu_ghz * 1e9)
    }

    /// Convert seconds to cycles at the model's CPU frequency.
    #[inline]
    pub fn secs_to_cycles(&self, secs: f64) -> u64 {
        (secs * self.cpu_ghz * 1e9) as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_2011()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ClusterTopology, NodeId};

    #[test]
    fn transfer_rounds_up() {
        let c = CostModel::paper_2011();
        assert_eq!(c.transfer_cycles(0), 0);
        assert!(c.transfer_cycles(1) >= 1);
        assert_eq!(c.transfer_cycles(1024), 111);
        assert_eq!(c.transfer_cycles(4096), 444);
    }

    #[test]
    fn a_round_trip_carries_at_least_one_transfer() {
        let c = CostModel::paper_2011();
        assert_eq!(c.transfers_per_round_trip(4096), 7); // 3 400 / 444
        assert_eq!(c.transfers_per_round_trip(1 << 20), 1, "a transfer outlasting the trip");
        assert_eq!(CostModel::free().transfers_per_round_trip(4096), u64::MAX);
    }

    #[test]
    fn propagation_respects_hierarchy() {
        let t = ClusterTopology::paper(2);
        let c = CostModel::paper_2011();
        let a = t.loc(NodeId(0), 0);
        let b = t.loc(NodeId(0), 1); // same socket
        let s = t.loc(NodeId(0), 5); // other socket
        let r = t.loc(NodeId(1), 0); // other node
        assert_eq!(c.propagation(a, b), 0);
        assert_eq!(c.propagation(a, s), 300);
        assert_eq!(c.propagation(a, r), 1700);
        assert_eq!(c.propagation(a, a), 0);
    }

    #[test]
    fn cycle_second_round_trip() {
        let c = CostModel::paper_2011();
        let cycles = 3_400_000_000;
        let secs = c.cycles_to_secs(cycles);
        assert!((secs - 1.0).abs() < 1e-9);
        assert_eq!(c.secs_to_cycles(secs), cycles);
    }
}
