//! Shared test scaffolding.
//!
//! Nearly every test module across simnet/carina/vela used to copy-paste
//! the same three lines — build a tiny topology, price it with the paper's
//! 2011 cost column, spawn a `SimThread` on some core. These helpers are
//! that setup, once. They are plain `pub` (not `cfg(test)`) so downstream
//! crates' tests and benches can use them too.

use crate::{ClusterTopology, CostModel, Interconnect, NodeId, SimThread};
use std::sync::Arc;

/// The standard test fabric: `nodes` machines of [`ClusterTopology::tiny`]
/// shape, priced with [`CostModel::paper_2011`].
pub fn tiny_net(nodes: usize) -> Arc<Interconnect> {
    Interconnect::new(ClusterTopology::tiny(nodes), CostModel::paper_2011())
}

/// A simulated thread on local core `core` of node `node` of `net`.
pub fn thread(net: &Arc<Interconnect>, node: u16, core: usize) -> SimThread {
    SimThread::new(net.topology().loc(NodeId(node), core), net.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_consistent_fixtures() {
        let net = tiny_net(3);
        assert_eq!(net.topology().nodes, 3);
        assert_eq!(net.cost().network_latency, CostModel::paper_2011().network_latency);
        let t = thread(&net, 2, 1);
        assert_eq!(t.node(), NodeId(2));
        assert_eq!(t.now(), 0);
    }
}
