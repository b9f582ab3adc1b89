//! Node and edge identifiers, and the directed-graph contract of a
//! [`Cdfg`](crate::Cdfg).
//!
//! The ids are the graph's vocabulary: every pass names nodes by
//! [`NodeId`] and the control edges it adds by [`EdgeId`].  The tests here
//! pin what the rest of the flow may rely on about a `Cdfg` as a directed
//! graph: adjacency queries, parallel edges, edge removal, the topological
//! order, cycle refusal, reachability and the longest path.

use std::fmt;

/// Identifier of a node inside a [`Cdfg`](crate::Cdfg).
///
/// Node ids are dense indices in creation order and stay valid for the
/// life of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Mostly useful in tests; normal code receives ids from the
    /// [`Cdfg`](crate::Cdfg) constructors.
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a control edge inside a [`Cdfg`](crate::Cdfg).
///
/// Control edges are numbered in insertion order; a removed edge's id is
/// never handed out again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    pub fn new(index: u32) -> Self {
        EdgeId(index)
    }

    /// Returns the raw index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::cdfg::Cdfg;
    use crate::cone::{transitive_fanin, transitive_fanout};
    use crate::error::CdfgError;
    use crate::op::Op;

    /// `a -> b`, `a -> c`, `b -> d`, `c -> d` as data edges: an input
    /// feeding two unary operations that an addition joins.
    fn diamond() -> (Cdfg, [NodeId; 4]) {
        let mut g = Cdfg::new("diamond");
        let a = g.add_input("a");
        let b = g.add_op(Op::Neg, &[a]).unwrap();
        let c = g.add_op(Op::Not, &[a]).unwrap();
        let d = g.add_op(Op::Add, &[b, c]).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn add_and_query_nodes() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.node(a).map(|n| n.name.as_str()), Some("a"));
        assert_eq!(g.node(NodeId::new(4)), None);
        assert_eq!(g.node_ids().collect::<Vec<_>>(), vec![a, b, c, d]);
        assert_eq!(g.succs(a), &[b, c]);
        assert_eq!(g.preds(d), &[b, c]);
        assert_eq!(g.operands(d), &[b, c]);
        assert_eq!(g.preds(d).len(), 2);
        assert_eq!(g.succs(a).len(), 2);
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.slices().topo();
        assert_eq!(order.len(), g.node_count());
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
    }

    #[test]
    fn cycle_detection() {
        let mut g = Cdfg::new("pair");
        let a = g.add_input("a");
        let b = g.add_op(Op::Neg, &[a]).unwrap();
        assert_eq!(g.slices().topo(), &[a, b]);
        // Operands name older nodes, so only a control edge could close a
        // cycle; the graph refuses it and stays as it was.
        assert_eq!(g.add_control_edge(b, a), Err(CdfgError::CyclicGraph));
        assert_eq!(g.add_control_edge(a, a), Err(CdfgError::CyclicGraph));
        assert!(g.control_edges().is_empty());
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.slices().topo(), &[a, b]);
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let mut g = Cdfg::new("pair");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let e = g.add_control_edge(a, b).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.succs(a), &[b]);
        assert!(g.remove_control_edge(e));
        assert_eq!(g.edge_count(), 0);
        assert!(g.succs(a).is_empty());
        assert!(g.preds(b).is_empty());
        assert!(!g.remove_control_edge(e), "already removed");
    }

    #[test]
    fn reachability_forward_and_backward() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(transitive_fanout(&g, a), BTreeSet::from([b, c, d]));
        assert_eq!(transitive_fanin(&g, d), BTreeSet::from([a, b, c]));
        assert!(transitive_fanout(&g, d).is_empty());
        assert!(transitive_fanin(&g, a).is_empty());
    }

    #[test]
    fn longest_path_unit_weights() {
        // Every operation takes one control step; the input takes none.
        let (mut g, [a, b, _, d]) = diamond();
        assert_eq!(g.critical_path_length(), 2);
        let e = g.add_op(Op::Neg, &[d]).unwrap();
        assert_eq!(g.critical_path_length(), 3);
        // The edge that would close e -> b -> d -> e is refused, so the
        // length stays defined and unchanged.
        assert_eq!(g.add_control_edge(e, b), Err(CdfgError::CyclicGraph));
        assert_eq!(g.critical_path_length(), 3);
        assert_eq!(g.add_control_edge(a, a), Err(CdfgError::CyclicGraph));
        assert_eq!(g.critical_path_length(), 3);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Cdfg::new("sq");
        let a = g.add_input("a");
        let sq = g.add_op(Op::Mul, &[a, a]).unwrap();
        assert_eq!(g.edge_count(), 2, "one data edge per operand port");
        assert_eq!(g.operands(sq), &[a, a]);
        // A control edge parallel to a data edge is accepted and counted.
        g.add_control_edge(a, sq).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.succs(a), &[sq], "the view lists each neighbour once");
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId::new(5).to_string(), "n5");
        assert_eq!(EdgeId::new(7).to_string(), "e7");
    }
}
