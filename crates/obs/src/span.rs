//! [`SpanId`]: the causal handle Lyra threads through the verb layer.
//!
//! A span names one *protocol operation* — a read-miss service, a write
//! fault, a fence drain, a lock acquire — and every verb issued on its
//! behalf (including retries and injected fault fates) carries it. Ids are
//! minted by the issuing endpoint's single-writer [`crate::Lane`] with a
//! plain increment and never synchronize anything: span ids flow only into
//! observability records, never back into protocol or timing decisions,
//! which is what keeps the simulator's determinism pin safe with tracing
//! on.
//!
//! Layout: the top 16 bits are the minting node and the low 48 bits its
//! sequence — for a lane-minted span, the lane's per-node registration
//! index in bits 32..48 and the lane's own count (from 1) below, so sibling
//! lanes never collide. `SpanId::NONE` (all zeros) means "no enclosing
//! operation" and is what unattributed verbs carry.

const NODE_SHIFT: u32 = 48;
const SEQ_MASK: u64 = (1 << NODE_SHIFT) - 1;

/// Compact identifier of one protocol operation. `Copy`, 8 bytes, and
/// ordered within the lane that minted it (mint order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: no enclosing operation.
    pub const NONE: SpanId = SpanId(0);

    /// Pack a (node, sequence) pair. `seq` must be nonzero for a real span.
    pub fn pack(node: usize, seq: u64) -> SpanId {
        SpanId(((node as u64) << NODE_SHIFT) | (seq & SEQ_MASK))
    }

    /// The node that minted this span.
    pub fn node(self) -> usize {
        (self.0 >> NODE_SHIFT) as usize
    }

    /// The node-local sequence (lane index and count; nonzero for every
    /// real span).
    pub fn seq(self) -> u64 {
        self.0 & SEQ_MASK
    }

    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_node_and_seq() {
        let s = SpanId::pack(5, 1234);
        assert_eq!(s.node(), 5);
        assert_eq!(s.seq(), 1234);
        assert!(!s.is_none());
        assert!(SpanId::NONE.is_none());
    }
}
