//! A small, dependency-free directed graph container.
//!
//! [`DiGraph`] stores node and edge payloads in slot vectors with free lists,
//! so ids stay stable across removals.  It provides exactly the primitives the
//! rest of the synthesis flow needs: adjacency queries, removal, topological
//! sort, cycle detection and reachability.

use std::fmt;

/// Identifier of a node inside a [`DiGraph`].
///
/// Node ids are small integers that remain valid until the node is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Mostly useful in tests; normal code receives ids from
    /// [`DiGraph::add_node`].
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

/// Identifier of an edge inside a [`DiGraph`].
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

#[derive(Debug, Clone)]
struct NodeSlot<N> {
    payload: N,
    out_edges: Vec<EdgeId>,
    in_edges: Vec<EdgeId>,
}

#[derive(Debug, Clone)]
struct EdgeSlot<E> {
    payload: E,
    src: NodeId,
    dst: NodeId,
}

/// A directed graph with stable ids and slot-based storage.
///
/// `N` is the node payload type and `E` the edge payload type.  The graph is
/// a multigraph: parallel edges between the same pair of nodes are allowed
/// (the CDFG uses this for operations whose two operands are the same value,
/// e.g. `a * a`).
#[derive(Debug, Clone)]
pub struct DiGraph<N, E> {
    nodes: Vec<Option<NodeSlot<N>>>,
    edges: Vec<Option<EdgeSlot<E>>>,
    free_nodes: Vec<u32>,
    free_edges: Vec<u32>,
    node_count: usize,
    edge_count: usize,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        DiGraph::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            free_nodes: Vec::new(),
            free_edges: Vec::new(),
            node_count: 0,
            edge_count: 0,
        }
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            ..DiGraph::new()
        }
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Adds a node with the given payload and returns its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        self.node_count += 1;
        let slot = NodeSlot { payload, out_edges: Vec::new(), in_edges: Vec::new() };
        if let Some(idx) = self.free_nodes.pop() {
            self.nodes[idx as usize] = Some(slot);
            NodeId(idx)
        } else {
            self.nodes.push(Some(slot));
            NodeId((self.nodes.len() - 1) as u32)
        }
    }

    /// Returns `true` if `id` refers to a live node.
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(Option::is_some)
    }

    /// Borrows the payload of node `id`, if it exists.
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.nodes.get(id.index())?.as_ref().map(|s| &s.payload)
    }

    /// Mutably borrows the payload of node `id`, if it exists.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut N> {
        self.nodes.get_mut(id.index())?.as_mut().map(|s| &mut s.payload)
    }

    /// Borrows the payload of edge `id`, if it exists.
    pub fn edge(&self, id: EdgeId) -> Option<&E> {
        self.edges.get(id.index())?.as_ref().map(|s| &s.payload)
    }

    /// Returns the `(source, destination)` endpoints of edge `id`.
    pub fn edge_endpoints(&self, id: EdgeId) -> Option<(NodeId, NodeId)> {
        self.edges.get(id.index())?.as_ref().map(|s| (s.src, s.dst))
    }

    /// Adds a directed edge `src -> dst` carrying `payload`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a live node.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, payload: E) -> EdgeId {
        assert!(self.contains_node(src), "add_edge: source {src} not in graph");
        assert!(self.contains_node(dst), "add_edge: destination {dst} not in graph");
        self.edge_count += 1;
        let slot = EdgeSlot { payload, src, dst };
        let id = if let Some(idx) = self.free_edges.pop() {
            self.edges[idx as usize] = Some(slot);
            EdgeId(idx)
        } else {
            self.edges.push(Some(slot));
            EdgeId((self.edges.len() - 1) as u32)
        };
        self.nodes[src.index()].as_mut().expect("live src").out_edges.push(id);
        self.nodes[dst.index()].as_mut().expect("live dst").in_edges.push(id);
        id
    }

    /// Removes edge `id`, returning its payload if it existed.
    pub fn remove_edge(&mut self, id: EdgeId) -> Option<E> {
        let slot = self.edges.get_mut(id.index())?.take()?;
        self.edge_count -= 1;
        self.free_edges.push(id.index() as u32);
        if let Some(Some(src)) = self.nodes.get_mut(slot.src.index()) {
            src.out_edges.retain(|&e| e != id);
        }
        if let Some(Some(dst)) = self.nodes.get_mut(slot.dst.index()) {
            dst.in_edges.retain(|&e| e != id);
        }
        Some(slot.payload)
    }

    /// Removes node `id` and all incident edges, returning its payload.
    pub fn remove_node(&mut self, id: NodeId) -> Option<N> {
        if !self.contains_node(id) {
            return None;
        }
        let incident: Vec<EdgeId> = self.nodes[id.index()]
            .as_ref()
            .map(|s| s.in_edges.iter().chain(s.out_edges.iter()).copied().collect())
            .unwrap_or_default();
        for e in incident {
            self.remove_edge(e);
        }
        let slot = self.nodes[id.index()].take()?;
        self.node_count -= 1;
        self.free_nodes.push(id.index() as u32);
        Some(slot.payload)
    }

    /// Iterates over the ids of all live nodes in ascending id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|_| NodeId(i as u32)))
    }

    /// Iterates over `(id, payload)` pairs of all live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|slot| (NodeId(i as u32), &slot.payload)))
    }

    /// Iterates over `(id, src, dst, payload)` tuples of all live edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> + '_ {
        self.edges.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref().map(|slot| (EdgeId(i as u32), slot.src, slot.dst, &slot.payload))
        })
    }

    /// Ids of edges leaving `id`.
    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        self.nodes
            .get(id.index())
            .and_then(Option::as_ref)
            .map(|s| s.out_edges.as_slice())
            .unwrap_or(&[])
    }

    /// Ids of edges entering `id`.
    pub fn in_edges(&self, id: NodeId) -> &[EdgeId] {
        self.nodes
            .get(id.index())
            .and_then(Option::as_ref)
            .map(|s| s.in_edges.as_slice())
            .unwrap_or(&[])
    }

    /// Successor node ids of `id` (duplicates possible for parallel edges).
    pub fn successors(&self, id: NodeId) -> Vec<NodeId> {
        self.out_edges(id).iter().filter_map(|&e| self.edge_endpoints(e).map(|(_, d)| d)).collect()
    }

    /// Predecessor node ids of `id` (duplicates possible for parallel edges).
    pub fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        self.in_edges(id).iter().filter_map(|&e| self.edge_endpoints(e).map(|(s, _)| s)).collect()
    }

    /// In-degree of `id` (number of incoming edges).
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_edges(id).len()
    }

    /// Out-degree of `id` (number of outgoing edges).
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.out_edges(id).len()
    }

    /// Returns a topological ordering of the live nodes, or `None` if the
    /// graph contains a cycle.
    ///
    /// Kahn's algorithm with a FIFO ready queue: the sources first in
    /// ascending id order, then the nodes each pop releases, one batch per
    /// pop, each batch in ascending id order — so the result is
    /// deterministic.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let mut indegree = vec![0usize; self.nodes.len()];
        for (_, _, dst, _) in self.edges() {
            indegree[dst.index()] += 1;
        }
        // `order` doubles as the ready queue: `order[head..]` is what is
        // still waiting, so the whole sort allocates two vectors.
        let mut order = Vec::with_capacity(self.node_count);
        order.extend(self.node_ids().filter(|n| indegree[n.index()] == 0));
        let mut head = 0;
        while let Some(&n) = order.get(head) {
            head += 1;
            let batch = order.len();
            for &e in self.out_edges(n) {
                let (_, dst) = self.edge_endpoints(e).expect("live edge");
                indegree[dst.index()] -= 1;
                if indegree[dst.index()] == 0 {
                    order.push(dst);
                }
            }
            // A node is released exactly once, so the batch has no ties.
            order[batch..].sort_unstable();
        }
        if order.len() == self.node_count {
            Some(order)
        } else {
            None
        }
    }

    /// Returns `true` if the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Set of nodes reachable from `start` by following edges forwards,
    /// excluding `start` itself.
    pub fn reachable_from(&self, start: NodeId) -> Vec<NodeId> {
        self.reach(start, true)
    }

    /// Set of nodes that can reach `start` by following edges forwards
    /// (i.e. reachable backwards from `start`), excluding `start` itself.
    pub fn reaching(&self, start: NodeId) -> Vec<NodeId> {
        self.reach(start, false)
    }

    fn reach(&self, start: NodeId, forward: bool) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        let mut out = Vec::new();
        seen[start.index()] = true;
        while let Some(n) = stack.pop() {
            let next = if forward { self.successors(n) } else { self.predecessors(n) };
            for m in next {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    out.push(m);
                    stack.push(m);
                }
            }
        }
        out.sort();
        out
    }

    /// Length (in edges) of the longest path in the graph, or `None` if the
    /// graph is cyclic.  Node weights are supplied by `node_weight` (the
    /// length of a path is the sum of its node weights).
    pub fn longest_path_weight<F>(&self, node_weight: F) -> Option<u64>
    where
        F: Fn(NodeId) -> u64,
    {
        let order = self.topological_order()?;
        let mut dist = vec![0u64; self.nodes.len()];
        let mut best = 0;
        for &n in &order {
            let w = dist[n.index()] + node_weight(n);
            best = best.max(w);
            for m in self.successors(n) {
                dist[m.index()] = dist[m.index()].max(w);
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, ()>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, d, ());
        g.add_edge(c, d, ());
        (g, [a, b, c, d])
    }

    #[test]
    fn add_and_query_nodes() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.node(a), Some(&"a"));
        assert_eq!(g.successors(a), vec![b, c]);
        assert_eq!(g.predecessors(d), vec![b, c]);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.out_degree(a), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topological_order().expect("acyclic");
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
    }

    /// Kahn's algorithm as first written: a `VecDeque` ready queue fed one
    /// freshly collected, sorted batch per pop.
    fn batched_kahn<N, E>(g: &DiGraph<N, E>) -> Option<Vec<NodeId>> {
        let mut indegree = vec![0usize; g.nodes.len()];
        for (_, _, dst, _) in g.edges() {
            indegree[dst.index()] += 1;
        }
        let mut ready: std::collections::VecDeque<NodeId> =
            g.node_ids().filter(|n| indegree[n.index()] == 0).collect();
        let mut order = Vec::new();
        while let Some(n) = ready.pop_front() {
            order.push(n);
            let mut next = Vec::new();
            for m in g.successors(n) {
                indegree[m.index()] -= 1;
                if indegree[m.index()] == 0 {
                    next.push(m);
                }
            }
            next.sort();
            ready.extend(next);
        }
        (order.len() == g.node_count()).then_some(order)
    }

    #[test]
    fn topological_order_matches_batched_kahn() {
        // Edges added out of id order, parallel edges, a removed node (a
        // hole in the slots) and several batches per pop.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<NodeId> = (0..9).map(|_| g.add_node(())).collect();
        for (s, d) in [(8, 3), (8, 1), (0, 5), (0, 2), (2, 7), (5, 7), (5, 7), (3, 6), (1, 6)] {
            g.add_edge(n[s], n[d], ());
        }
        g.remove_node(n[4]);
        assert_eq!(g.topological_order(), batched_kahn(&g));
        let (diamond, _) = diamond();
        assert_eq!(diamond.topological_order(), batched_kahn(&diamond));
        g.add_edge(n[7], n[0], ());
        assert_eq!(g.topological_order(), None);
        assert_eq!(batched_kahn(&g), None);
    }

    #[test]
    fn cycle_detection() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        assert!(g.is_acyclic());
        g.add_edge(b, a, ());
        assert!(!g.is_acyclic());
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut g, [_, b, _, d]) = diamond();
        assert_eq!(g.remove_node(b), Some("b"));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.predecessors(d).len(), 1);
        assert!(!g.contains_node(b));
    }

    #[test]
    fn removed_ids_are_reused() {
        let mut g: DiGraph<u32, ()> = DiGraph::new();
        let a = g.add_node(1);
        g.remove_node(a);
        let b = g.add_node(2);
        assert_eq!(a, b, "slot is reused");
        assert_eq!(g.node(b), Some(&2));
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e = g.add_edge(a, b, 7);
        assert_eq!(g.remove_edge(e), Some(7));
        assert_eq!(g.edge_count(), 0);
        assert!(g.successors(a).is_empty());
        assert!(g.predecessors(b).is_empty());
        assert_eq!(g.remove_edge(e), None);
    }

    #[test]
    fn reachability_forward_and_backward() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.reachable_from(a), vec![b, c, d]);
        assert_eq!(g.reaching(d), vec![a, b, c]);
        assert!(g.reachable_from(d).is_empty());
        assert!(g.reaching(a).is_empty());
    }

    #[test]
    fn longest_path_unit_weights() {
        let (g, _) = diamond();
        assert_eq!(g.longest_path_weight(|_| 1), Some(3));
        let mut cyclic: DiGraph<(), ()> = DiGraph::new();
        let a = cyclic.add_node(());
        cyclic.add_edge(a, a, ());
        assert_eq!(cyclic.longest_path_weight(|_| 1), None);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(a, b, 1);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(a), vec![b, b]);
    }

    #[test]
    #[should_panic(expected = "add_edge")]
    fn add_edge_to_missing_node_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId::new(42), ());
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId::new(5).to_string(), "n5");
        assert_eq!(EdgeId::new(7).to_string(), "e7");
    }
}
