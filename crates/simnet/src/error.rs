//! Typed configuration errors for cluster construction.
//!
//! Malformed shapes (zero-node clusters, cores that don't exist) are
//! *reportable* conditions: [`ClusterTopology::validate`] and
//! [`ClusterTopology::try_loc`] return a [`ConfigError`], and the panicking
//! constructors name it in their message.
//!
//! [`ClusterTopology::validate`]: crate::ClusterTopology::validate
//! [`ClusterTopology::try_loc`]: crate::ClusterTopology::try_loc

use crate::topology::NodeId;
use std::fmt;

/// A cluster shape that cannot be built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A topology dimension (nodes, sockets, cores) is zero.
    EmptyTopology { nodes: usize, sockets_per_node: usize, cores_per_socket: usize },
    /// A node id addressed past the end of the cluster.
    NodeOutOfRange { node: NodeId, nodes: usize },
    /// A local core index addressed past the node's core count.
    CoreOutOfRange { core: usize, cores_per_node: usize },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyTopology {
                nodes,
                sockets_per_node,
                cores_per_socket,
            } => write!(
                f,
                "topology dimensions must be nonzero: {nodes} nodes x \
                 {sockets_per_node} sockets x {cores_per_socket} cores"
            ),
            ConfigError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for a {nodes}-node cluster")
            }
            ConfigError::CoreOutOfRange { core, cores_per_node } => {
                write!(f, "core {core} out of range for {cores_per_node} cores/node")
            }
        }
    }
}

impl std::error::Error for ConfigError {}
