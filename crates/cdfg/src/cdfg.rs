//! The Control Data Flow Graph itself.
//!
//! A [`Cdfg`] holds one edge store.  Data edges are each node's operands,
//! fixed in port order when the node is created; since an operand must
//! already exist, every data edge points from an older node to a newer
//! one.  Control edges are a separate list indexed by [`EdgeId`], the only
//! edges a pass may add or remove.  Nothing removes a node, so node ids are
//! dense and never reused.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::error::CdfgError;
pub use crate::graph::{EdgeId, NodeId};
use crate::op::Op;
use crate::slices::Slices;
use crate::stats::OpCounts;

/// Input port index of a multiplexor's select (control) operand.
pub const MUX_SELECT_PORT: u16 = 0;
/// Input port index of the value chosen when the select is 0.
pub const MUX_FALSE_PORT: u16 = 1;
/// Input port index of the value chosen when the select is 1.
pub const MUX_TRUE_PORT: u16 = 2;

/// Payload stored at each CDFG node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeData {
    /// The operation performed by the node.
    pub op: Op,
    /// Human-readable name (input/output port name or an auto-generated
    /// operation label).
    pub name: String,
    /// Word width of the operation result in bits.
    pub bitwidth: u32,
}

impl NodeData {
    /// Creates node data with the given operation, name and bitwidth.
    pub fn new(op: Op, name: impl Into<String>, bitwidth: u32) -> Self {
        NodeData { op, name: name.into(), bitwidth }
    }
}

/// One node: its payload and its data operands, of which the first
/// `op.arity()` entries are live (no operation takes more than three).
#[derive(Debug, Clone)]
struct Node {
    data: NodeData,
    operands: [NodeId; 3],
}

impl Node {
    fn operands(&self) -> &[NodeId] {
        &self.operands[..self.data.op.arity()]
    }
}

/// Default datapath bitwidth; the paper assumes an 8-bit datapath for all
/// examples.
pub const DEFAULT_BITWIDTH: u32 = 8;

/// A Control Data Flow Graph: operations connected by data and control
/// dependences, with named primary inputs and outputs.
///
/// The graph is acyclic by construction: operands name older nodes, and a
/// control edge that would close a cycle is refused.  Conditionals are
/// represented structurally with [`Op::Mux`] nodes whose select operand is
/// the condition.
#[derive(Debug, Clone, Default)]
pub struct Cdfg {
    name: String,
    nodes: Vec<Node>,
    /// Control edges by [`EdgeId`]; a removed edge leaves a hole.
    control: Vec<Option<(NodeId, NodeId)>>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    default_bitwidth: u32,
    next_label: u32,
    /// Lazily built compact adjacency view; patched by control-edge
    /// insertion and dropped on every other mutation, so it can never go
    /// stale.
    slices: OnceLock<Slices>,
}

impl Cdfg {
    /// Creates an empty CDFG with the given design name and the paper's
    /// default 8-bit datapath.
    pub fn new(name: impl Into<String>) -> Self {
        Cdfg { name: name.into(), default_bitwidth: DEFAULT_BITWIDTH, ..Cdfg::default() }
    }

    /// Invalidates the cached adjacency view; called by every structural
    /// mutation except control-edge insertion, which patches the view.
    fn touch(&mut self) {
        self.slices = OnceLock::new();
    }

    /// The compact slice adjacency view (CSR arrays, cached topological
    /// order, functional-node list), built lazily, patched in place by
    /// [`Cdfg::add_control_edge`] and rebuilt after any other mutation.
    pub fn slices(&self) -> &Slices {
        self.slices.get_or_init(|| Slices::build(self))
    }

    /// Immediate predecessors via data or control edges as a borrowed slice
    /// (deduplicated, ascending).
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        self.slices().preds(id)
    }

    /// Immediate successors via data or control edges as a borrowed slice
    /// (deduplicated, ascending).
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        self.slices().succs(id)
    }

    /// Creates an empty CDFG with an explicit default bitwidth.
    pub fn with_bitwidth(name: impl Into<String>, bitwidth: u32) -> Self {
        let mut g = Cdfg::new(name);
        g.default_bitwidth = bitwidth;
        g
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The default datapath bitwidth applied to new nodes.
    pub fn default_bitwidth(&self) -> u32 {
        self.default_bitwidth
    }

    /// Number of nodes (including inputs, constants and outputs).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (data and control).
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.operands().len()).sum::<usize>() + self.control_pairs().count()
    }

    /// Primary input nodes in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary output nodes in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Appends a node fed by `operands` (in port order, already checked).
    fn push(&mut self, op: Op, name: String, operands: &[NodeId]) -> NodeId {
        self.touch();
        let id = NodeId::new(self.nodes.len() as u32);
        let mut slots = [NodeId::new(u32::MAX); 3];
        slots[..operands.len()].copy_from_slice(operands);
        self.nodes
            .push(Node { data: NodeData::new(op, name, self.default_bitwidth), operands: slots });
        id
    }

    fn fresh_label(&mut self, op: Op) -> String {
        let label = format!("{}_{}", op.mnemonic(), self.next_label);
        self.next_label += 1;
        label
    }

    /// Adds a primary input with the given name and returns its node id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.push(Op::Input, name.into(), &[]);
        self.inputs.push(id);
        id
    }

    /// Adds a constant node with the given value.
    pub fn add_const(&mut self, value: i64) -> NodeId {
        self.push(Op::Const(value), format!("c{value}"), &[])
    }

    /// Adds a functional operation node fed by `operands` (in port order).
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError::ArityMismatch`] if the operand count does not
    /// match [`Op::arity`], [`CdfgError::UnknownNode`] if an operand id is
    /// stale, and [`CdfgError::InvalidNodeRole`] if the operation is an
    /// input, constant or output (use the dedicated methods for those) or if
    /// an operand is an output node.
    pub fn add_op(&mut self, op: Op, operands: &[NodeId]) -> Result<NodeId, CdfgError> {
        if !op.is_functional() {
            return Err(CdfgError::InvalidNodeRole {
                node: NodeId::new(u32::MAX),
                reason: "add_op only accepts functional operations",
            });
        }
        if operands.len() != op.arity() {
            return Err(CdfgError::ArityMismatch {
                op: op.mnemonic(),
                expected: op.arity(),
                found: operands.len(),
            });
        }
        for &src in operands {
            if self.node(src).ok_or(CdfgError::UnknownNode(src))?.op.is_output() {
                return Err(CdfgError::InvalidNodeRole {
                    node: src,
                    reason: "output nodes cannot feed operations",
                });
            }
        }
        let name = self.fresh_label(op);
        Ok(self.push(op, name, operands))
    }

    /// Adds a multiplexor node: `select` chooses between `when_false`
    /// (select = 0) and `when_true` (select = 1).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cdfg::add_op`].
    pub fn add_mux(
        &mut self,
        select: NodeId,
        when_false: NodeId,
        when_true: NodeId,
    ) -> Result<NodeId, CdfgError> {
        self.add_op(Op::Mux, &[select, when_false, when_true])
    }

    /// Adds a primary output named `name` driven by `src`.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError::UnknownNode`] if `src` is stale,
    /// [`CdfgError::DuplicateName`] if an output with the same name exists,
    /// and [`CdfgError::InvalidNodeRole`] if `src` is itself an output.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        src: NodeId,
    ) -> Result<NodeId, CdfgError> {
        let name = name.into();
        if self.node(src).ok_or(CdfgError::UnknownNode(src))?.op.is_output() {
            return Err(CdfgError::InvalidNodeRole {
                node: src,
                reason: "outputs cannot drive outputs",
            });
        }
        if self.outputs.iter().any(|&o| self.nodes[o.index()].data.name == name) {
            return Err(CdfgError::DuplicateName(name));
        }
        let id = self.push(Op::Output, name, &[src]);
        self.outputs.push(id);
        Ok(id)
    }

    /// Adds a pure precedence (control) edge `before -> after`.
    ///
    /// The edge is patched into the cached adjacency view (built first if
    /// missing) rather than invalidating it: a sorted insert into the two
    /// endpoints' rows plus a Pearce–Kelly repair of the topological order,
    /// which is also the cycle check.  An edge that already points forward
    /// in that order costs `O(1)` besides the row inserts; otherwise the
    /// search is bounded by the nodes positioned between the two endpoints.
    /// Parallel edges (to an existing data or control edge) are accepted
    /// and leave the adjacency rows unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError::UnknownNode`] if either endpoint is stale,
    /// [`CdfgError::InvalidNodeRole`] if `before` is an output (outputs
    /// have no successors) and [`CdfgError::CyclicGraph`] if the edge would
    /// create a cycle (a self-loop included).  A rejected edge leaves the
    /// graph and its view exactly as they were.
    pub fn add_control_edge(&mut self, before: NodeId, after: NodeId) -> Result<EdgeId, CdfgError> {
        let before_op = self.node(before).ok_or(CdfgError::UnknownNode(before))?.op;
        self.node(after).ok_or(CdfgError::UnknownNode(after))?;
        if before_op.is_output() {
            return Err(CdfgError::InvalidNodeRole {
                node: before,
                reason: "outputs cannot have successors",
            });
        }
        self.slices();
        let slices = self.slices.get_mut().expect("view built just above");
        if !slices.insert_edge(before, after) {
            return Err(CdfgError::CyclicGraph);
        }
        self.control.push(Some((before, after)));
        Ok(EdgeId::new(self.control.len() as u32 - 1))
    }

    /// Removes a previously added control edge.  Data edges are fixed at
    /// node creation and have no [`EdgeId`].
    ///
    /// Returns `true` if the edge existed.
    pub fn remove_control_edge(&mut self, edge: EdgeId) -> bool {
        let removed = self.control.get_mut(edge.index()).and_then(Option::take).is_some();
        if removed {
            self.touch();
        }
        removed
    }

    /// Ids of all control edges currently present, in insertion order.
    pub fn control_edges(&self) -> Vec<EdgeId> {
        (0..self.control.len() as u32)
            .map(EdgeId::new)
            .filter(|e| self.control[e.index()].is_some())
            .collect()
    }

    /// `(before, after)` of every live control edge, in insertion order.
    pub(crate) fn control_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.control.iter().flatten().copied()
    }

    /// Node payload accessor.
    pub fn node(&self, id: NodeId) -> Option<&NodeData> {
        self.nodes.get(id.index()).map(|n| &n.data)
    }

    /// The operation at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live node.
    pub fn op(&self, id: NodeId) -> Op {
        self.node(id).expect("live node").op
    }

    /// Iterates over `(id, data)` for every node.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &NodeData)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId::new(i as u32), &n.data))
    }

    /// Iterates over ids of every node.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// Ids of all multiplexor nodes.
    pub fn mux_nodes(&self) -> Vec<NodeId> {
        self.iter_nodes().filter(|(_, d)| d.op.is_mux()).map(|(id, _)| id).collect()
    }

    /// The data operand feeding input port `port` of node `id`, if any.
    pub fn operand(&self, id: NodeId, port: u16) -> Option<NodeId> {
        self.operands(id).get(usize::from(port)).copied()
    }

    /// All data operands of node `id` in port order (empty for unknown
    /// ids).
    pub fn operands(&self, id: NodeId) -> &[NodeId] {
        self.nodes.get(id.index()).map_or(&[], Node::operands)
    }

    /// Successors of `id` reached through *data* edges only.
    pub fn data_successors(&self, id: NodeId) -> Vec<NodeId> {
        self.succs(id).iter().copied().filter(|&s| self.operands(s).contains(&id)).collect()
    }

    /// Operation statistics over the whole design (Table I columns).
    pub fn op_counts(&self) -> OpCounts {
        OpCounts::from_cdfg(self)
    }

    /// Length of the critical path measured in control steps (the minimum
    /// number of control steps in which the design can execute, column 2 of
    /// Table I), control edges included: a longest-path walk over the
    /// cached view.
    pub fn critical_path_length(&self) -> u32 {
        let slices = self.slices();
        let mut finish = vec![0u32; slices.slot_count()];
        let mut longest = 0;
        for &n in slices.topo() {
            let end = finish[n.index()] + self.op(n).delay();
            longest = longest.max(end);
            for &s in slices.succs(n) {
                finish[s.index()] = finish[s.index()].max(end);
            }
        }
        longest
    }

    /// Structural validation.  Every mutator keeps the graph acyclic, its
    /// ports complete and its outputs sink-only, so what is left to check is
    /// that the design observes something: it has at least one output.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError::NoOutputs`] for a design without outputs.
    pub fn validate(&self) -> Result<(), CdfgError> {
        if self.outputs.is_empty() {
            return Err(CdfgError::NoOutputs);
        }
        Ok(())
    }

    /// Evaluates the design on a set of primary input values, returning the
    /// value of each primary output by name.
    ///
    /// This is the *functional* (untimed) semantics used as a golden
    /// reference for the RTL simulator.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is missing a value for a primary input.
    pub fn evaluate(&self, inputs: &BTreeMap<String, i64>) -> BTreeMap<String, i64> {
        let mut values = vec![0i64; self.nodes.len()];
        let mut args = Vec::with_capacity(3);
        for &id in self.slices().topo() {
            let node = &self.nodes[id.index()];
            values[id.index()] = match node.data.op {
                Op::Input => *inputs
                    .get(&node.data.name)
                    .unwrap_or_else(|| panic!("missing value for input `{}`", node.data.name)),
                Op::Const(c) => c,
                op => {
                    args.clear();
                    args.extend(node.operands().iter().map(|o| values[o.index()]));
                    op.eval(&args)
                }
            };
        }
        self.outputs
            .iter()
            .map(|&o| (self.nodes[o.index()].data.name.clone(), values[o.index()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abs_diff() -> (Cdfg, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Cdfg::new("abs_diff");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let gt = g.add_op(Op::Gt, &[a, b]).unwrap();
        let amb = g.add_op(Op::Sub, &[a, b]).unwrap();
        let bma = g.add_op(Op::Sub, &[b, a]).unwrap();
        let m = g.add_mux(gt, bma, amb).unwrap();
        g.add_output("abs", m).unwrap();
        (g, gt, amb, bma, m)
    }

    #[test]
    fn build_and_validate_abs_diff() {
        let (g, gt, amb, bma, m) = abs_diff();
        g.validate().unwrap();
        assert_eq!(g.inputs().len(), 2);
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 10);
        // The comparison (or a subtraction) and the multiplexor chain: two
        // control steps minimum, matching Figure 1 of the paper.
        assert_eq!(g.critical_path_length(), 2);
        assert_eq!(g.preds(m), &[gt, amb, bma]);
        assert_eq!(g.succs(g.inputs()[0]), &[gt, amb, bma]);
        assert_eq!(g.succs(m), g.outputs());
    }

    #[test]
    fn evaluate_abs_diff() {
        let (g, ..) = abs_diff();
        let mut inputs = BTreeMap::new();
        inputs.insert("a".to_owned(), 9);
        inputs.insert("b".to_owned(), 4);
        assert_eq!(g.evaluate(&inputs)["abs"], 5);
        inputs.insert("a".to_owned(), 2);
        inputs.insert("b".to_owned(), 11);
        assert_eq!(g.evaluate(&inputs)["abs"], 9);
    }

    #[test]
    fn operand_ports_are_ordered() {
        let (g, gt, amb, bma, m) = abs_diff();
        assert_eq!(g.operands(m), &[gt, bma, amb]);
        assert_eq!(g.operand(m, MUX_SELECT_PORT), Some(gt));
        assert_eq!(g.operand(m, MUX_FALSE_PORT), Some(bma));
        assert_eq!(g.operand(m, MUX_TRUE_PORT), Some(amb));
        assert_eq!(g.operand(m, 5), None);
    }

    #[test]
    fn arity_is_enforced() {
        let mut g = Cdfg::new("t");
        let a = g.add_input("a");
        let err = g.add_op(Op::Add, &[a]).unwrap_err();
        assert!(matches!(err, CdfgError::ArityMismatch { expected: 2, found: 1, .. }));
    }

    #[test]
    fn stale_operand_rejected() {
        let mut g = Cdfg::new("t");
        let a = g.add_input("a");
        let err = g.add_op(Op::Add, &[a, NodeId::new(99)]).unwrap_err();
        assert_eq!(err, CdfgError::UnknownNode(NodeId::new(99)));
    }

    #[test]
    fn outputs_cannot_feed_ops() {
        let mut g = Cdfg::new("t");
        let a = g.add_input("a");
        let o = g.add_output("o", a).unwrap();
        let err = g.add_op(Op::Neg, &[o]).unwrap_err();
        assert!(matches!(err, CdfgError::InvalidNodeRole { .. }));
    }

    #[test]
    fn duplicate_output_names_rejected() {
        let mut g = Cdfg::new("t");
        let a = g.add_input("a");
        g.add_output("o", a).unwrap();
        let err = g.add_output("o", a).unwrap_err();
        assert_eq!(err, CdfgError::DuplicateName("o".to_owned()));
    }

    #[test]
    fn validate_rejects_empty_design() {
        let g = Cdfg::new("empty");
        assert_eq!(g.validate().unwrap_err(), CdfgError::NoOutputs);
    }

    #[test]
    fn control_edges_reject_cycles() {
        let (mut g, gt, amb, _, m) = abs_diff();
        // gt -> amb is fine (gt is already an ancestor-side node).
        g.add_control_edge(gt, amb).unwrap();
        // m -> gt would create a cycle: gt feeds m through data edges.
        let err = g.add_control_edge(m, gt).unwrap_err();
        assert_eq!(err, CdfgError::CyclicGraph);
        // Graph is still valid because the offending edge was rolled back.
        g.validate().unwrap();
    }

    #[test]
    fn control_edges_can_be_removed() {
        let (mut g, gt, amb, ..) = abs_diff();
        let e = g.add_control_edge(gt, amb).unwrap();
        assert_eq!(g.control_edges(), vec![e]);
        assert!(g.remove_control_edge(e));
        assert!(g.control_edges().is_empty());
        assert!(!g.remove_control_edge(e), "already removed");
        let f = g.add_control_edge(gt, amb).unwrap();
        assert_ne!(f, e, "a removed edge's id is not handed out again");
        assert_eq!(g.control_edges(), vec![f]);
    }

    #[test]
    fn control_edges_out_of_outputs_are_refused() {
        let (mut g, gt, amb, ..) = abs_diff();
        let spare = g.add_input("spare");
        let kept = g.add_control_edge(gt, amb).unwrap();
        let out = g.outputs()[0];
        let view = format!("{:?}", g.slices());
        let edges = g.edge_count();
        let err = g.add_control_edge(out, spare).unwrap_err();
        assert_eq!(
            err,
            CdfgError::InvalidNodeRole { node: out, reason: "outputs cannot have successors" }
        );
        assert_eq!(g.control_edges(), vec![kept]);
        assert_eq!(g.edge_count(), edges);
        assert_eq!(format!("{:?}", g.slices()), view, "the view is untouched");
        g.validate().unwrap();
    }

    #[test]
    fn critical_path_walks_the_cached_view() {
        let (mut g, gt, amb, bma, _) = abs_diff();
        assert_eq!(g.critical_path_length(), 2);
        // Control edges chain the three operations ahead of the mux.
        g.add_control_edge(gt, amb).unwrap();
        assert_eq!(g.critical_path_length(), 3);
        g.add_control_edge(amb, bma).unwrap();
        assert_eq!(g.critical_path_length(), 4);
        for e in g.control_edges() {
            g.remove_control_edge(e);
        }
        assert_eq!(g.critical_path_length(), 2);
        assert_eq!(Cdfg::new("empty").critical_path_length(), 0);
    }

    #[test]
    fn data_successors_exclude_control_edges() {
        let (mut g, gt, amb, _, m) = abs_diff();
        g.add_control_edge(gt, amb).unwrap();
        assert_eq!(g.data_successors(gt), vec![m]);
        assert!(g.succs(gt).contains(&amb));
    }

    #[test]
    fn mux_and_functional_node_queries() {
        let (g, _, _, _, m) = abs_diff();
        assert_eq!(g.mux_nodes(), vec![m]);
        assert_eq!(g.slices().functional().len(), 4);
        let counts = g.op_counts();
        assert_eq!(counts.mux, 1);
        assert_eq!(counts.comp, 1);
        assert_eq!(counts.sub, 2);
        assert_eq!(counts.add, 0);
    }

    #[test]
    fn default_bitwidth_is_eight() {
        let (g, _, _, _, m) = abs_diff();
        assert_eq!(g.default_bitwidth(), 8);
        assert_eq!(g.node(m).unwrap().bitwidth, 8);
        let w = Cdfg::with_bitwidth("wide", 16);
        assert_eq!(w.default_bitwidth(), 16);
    }
}
