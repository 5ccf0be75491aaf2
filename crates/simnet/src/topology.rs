//! Cluster topology: nodes, sockets (NUMA domains), and cores.
//!
//! The paper's machines have two Opteron 6220 packages, each containing two
//! quad-core dies on a shared interconnect — i.e. **4 NUMA domains of 4 cores
//! per node** (16 cores, of which Argo uses 15). The default topology mirrors
//! this; all dimensions are configurable.


/// Identifier of a cluster node (one machine in the paper's cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index usable for array addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Placement of a simulated hardware thread: which node, which NUMA socket
/// within the node, and which core within the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadLoc {
    pub node: NodeId,
    pub socket: u16,
    pub core: u16,
}

/// Shape of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Number of machines in the cluster.
    pub nodes: usize,
    /// NUMA domains per machine.
    pub sockets_per_node: usize,
    /// Cores per NUMA domain.
    pub cores_per_socket: usize,
}

impl ClusterTopology {
    /// Topology of the paper's evaluation cluster nodes: 4 NUMA domains × 4
    /// cores (two dual-die Opteron 6220 packages).
    pub fn paper(nodes: usize) -> Self {
        ClusterTopology {
            nodes,
            sockets_per_node: 4,
            cores_per_socket: 4,
        }
    }

    /// A small topology convenient for unit tests.
    pub fn tiny(nodes: usize) -> Self {
        ClusterTopology {
            nodes,
            sockets_per_node: 1,
            cores_per_socket: 2,
        }
    }

    #[inline]
    pub fn cores_per_node(&self) -> usize {
        self.sockets_per_node * self.cores_per_socket
    }

    /// Check that every dimension is nonzero (a shape with no cores cannot
    /// place any thread).
    pub fn validate(&self) -> Result<(), crate::ConfigError> {
        if self.nodes == 0 || self.sockets_per_node == 0 || self.cores_per_socket == 0 {
            return Err(crate::ConfigError::EmptyTopology {
                nodes: self.nodes,
                sockets_per_node: self.sockets_per_node,
                cores_per_socket: self.cores_per_socket,
            });
        }
        Ok(())
    }

    /// Placement of local core index `core` (0-based within the node).
    ///
    /// # Panics
    /// Panics if `node` or `core` is out of range; [`Self::try_loc`]
    /// reports the same conditions as a typed error instead.
    pub fn loc(&self, node: NodeId, core: usize) -> ThreadLoc {
        self.try_loc(node, core)
            .unwrap_or_else(|e| panic!("invalid placement: {e}"))
    }

    /// Fallible flavor of [`Self::loc`].
    pub fn try_loc(&self, node: NodeId, core: usize) -> Result<ThreadLoc, crate::ConfigError> {
        if node.idx() >= self.nodes {
            return Err(crate::ConfigError::NodeOutOfRange {
                node,
                nodes: self.nodes,
            });
        }
        if core >= self.cores_per_node() {
            return Err(crate::ConfigError::CoreOutOfRange {
                core,
                cores_per_node: self.cores_per_node(),
            });
        }
        Ok(ThreadLoc {
            node,
            socket: (core / self.cores_per_socket) as u16,
            core: (core % self.cores_per_socket) as u16,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_has_16_cores_per_node() {
        let t = ClusterTopology::paper(4);
        assert_eq!(t.cores_per_node(), 16);
    }

    #[test]
    fn loc_maps_cores_to_sockets() {
        let t = ClusterTopology::paper(2);
        let a = t.loc(NodeId(0), 0);
        let b = t.loc(NodeId(0), 3);
        let c = t.loc(NodeId(0), 4);
        let d = t.loc(NodeId(1), 4);
        assert_eq!((a.node, a.socket), (b.node, b.socket));
        assert_eq!((a.node, a.socket + 1), (c.node, c.socket));
        assert_ne!(c.node, d.node);
        assert_eq!(c.socket, 1);
        assert_eq!(c.core, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn loc_panics_on_bad_core() {
        ClusterTopology::tiny(1).loc(NodeId(0), 99);
    }

    #[test]
    fn try_loc_reports_bad_placements_as_typed_errors() {
        let t = ClusterTopology::tiny(2);
        assert_eq!(t.try_loc(NodeId(0), 1).unwrap(), t.loc(NodeId(0), 1));
        assert_eq!(
            t.try_loc(NodeId(5), 0),
            Err(crate::ConfigError::NodeOutOfRange { node: NodeId(5), nodes: 2 })
        );
        assert_eq!(
            t.try_loc(NodeId(0), 2),
            Err(crate::ConfigError::CoreOutOfRange { core: 2, cores_per_node: 2 })
        );
    }

    #[test]
    fn validate_rejects_empty_dimensions() {
        assert!(ClusterTopology::tiny(1).validate().is_ok());
        let z = ClusterTopology { nodes: 0, sockets_per_node: 1, cores_per_socket: 1 };
        assert!(matches!(z.validate(), Err(crate::ConfigError::EmptyTopology { .. })));
    }
}
