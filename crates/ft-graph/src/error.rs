//! Error type for fallible graph construction and queries.

use std::fmt;

/// Errors produced by the fallible [`Graph`](crate::Graph) constructors.
///
/// The infallible counterparts (`node`, `add_edge`) assert the same
/// conditions; callers that build graphs from untrusted or computed sizes
/// should prefer `try_node` / `try_add_edge` and propagate this error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A node id referenced a node that does not exist.
    NodeOutOfBounds {
        /// The offending node index.
        index: usize,
        /// Number of nodes in the graph at the time of the call.
        node_count: usize,
    },
    /// A dense index no longer fits the `u32` id space.
    IdSpaceExhausted {
        /// The index that overflowed `u32`.
        index: usize,
    },
    /// A hop count does not fit the `u16` distance tables: a pair 65 535 or
    /// more hops apart would read as the [`UNREACHABLE16`](crate::UNREACHABLE16)
    /// sentinel. The bitset kernel of [`DistMatrix`](crate::DistMatrix)
    /// reports it only when a BFS level reaches the sentinel; the scalar
    /// table and ECMP's rows refuse every graph of `node_count ≥ u16::MAX`
    /// up front, the only graphs that can hold such a pair.
    DistanceOverflow {
        /// Number of nodes in the offending graph.
        node_count: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphError::NodeOutOfBounds { index, node_count } => {
                write!(
                    f,
                    "node index {index} out of bounds (graph has {node_count} nodes)"
                )
            }
            GraphError::IdSpaceExhausted { index } => {
                write!(f, "index {index} exceeds the u32 id space")
            }
            GraphError::DistanceOverflow { node_count } => {
                write!(
                    f,
                    "graph with {node_count} nodes can hold a hop count past the \
                     u16 distance range (max {} hops)",
                    u16::MAX - 1
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}
