//! The Control Data Flow Graph itself.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::error::CdfgError;
use crate::graph::{DiGraph, EdgeId, NodeId};
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

/// Kind of dependence carried by a CDFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A value flows from the source to input port `port` of the destination.
    Data {
        /// Destination input port index (see the `MUX_*_PORT` constants for
        /// multiplexors; binary operations use ports 0 and 1).
        port: u16,
    },
    /// A pure precedence constraint with no value flow.  Power-management
    /// scheduling adds these between the last control-cone node and the top
    /// data-cone nodes of each managed multiplexor (step 10 of the paper's
    /// algorithm).
    Control,
}

impl EdgeKind {
    /// Returns the destination port if this is a data edge.
    pub fn port(self) -> Option<u16> {
        match self {
            EdgeKind::Data { port } => Some(port),
            EdgeKind::Control => None,
        }
    }

    /// Returns `true` for data edges.
    pub fn is_data(self) -> bool {
        matches!(self, EdgeKind::Data { .. })
    }

    /// Returns `true` for control (precedence-only) edges.
    pub fn is_control(self) -> bool {
        matches!(self, EdgeKind::Control)
    }
}

/// Payload stored at each CDFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeData {
    /// Dependence kind.
    pub kind: EdgeKind,
}

impl EdgeData {
    /// Creates a data edge payload targeting `port`.
    pub fn data(port: u16) -> Self {
        EdgeData { kind: EdgeKind::Data { port } }
    }

    /// Creates a control (precedence-only) edge payload.
    pub fn control() -> Self {
        EdgeData { kind: EdgeKind::Control }
    }
}

/// Default datapath bitwidth; the paper assumes an 8-bit datapath for all
/// examples.
pub const DEFAULT_BITWIDTH: u32 = 8;

/// A Control Data Flow Graph: operations connected by data and control
/// dependences, with named primary inputs and outputs.
///
/// The graph must be acyclic.  Conditionals are represented structurally with
/// [`Op::Mux`] nodes whose select operand is the condition.
#[derive(Debug, Clone, Default)]
pub struct Cdfg {
    name: String,
    graph: DiGraph<NodeData, EdgeData>,
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
        Cdfg {
            name: name.into(),
            graph: DiGraph::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            default_bitwidth: DEFAULT_BITWIDTH,
            next_label: 0,
            slices: OnceLock::new(),
        }
    }

    /// Invalidates the cached adjacency view; called by every structural
    /// mutation except control-edge insertion, which patches the view.
    fn touch(&mut self) {
        self.slices = OnceLock::new();
    }

    /// The compact slice adjacency view (CSR arrays, cached topological
    /// order, functional-node list), built lazily, patched in place by
    /// [`Cdfg::add_control_edge`] and rebuilt after any other mutation.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic (only possible mid-construction; the
    /// public mutators never leave a cycle behind).
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

    /// Read access to the underlying graph container.
    pub fn graph(&self) -> &DiGraph<NodeData, EdgeData> {
        &self.graph
    }

    /// Number of nodes (including inputs, constants and outputs).
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of edges (data and control).
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Primary input nodes in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary output nodes in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    fn fresh_label(&mut self, op: Op) -> String {
        let label = format!("{}_{}", op.mnemonic(), self.next_label);
        self.next_label += 1;
        label
    }

    /// Adds a primary input with the given name and returns its node id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        self.touch();
        let data = NodeData::new(Op::Input, name, self.default_bitwidth);
        let id = self.graph.add_node(data);
        self.inputs.push(id);
        id
    }

    /// Adds a constant node with the given value.
    pub fn add_const(&mut self, value: i64) -> NodeId {
        self.touch();
        let name = format!("c{value}");
        self.graph.add_node(NodeData::new(Op::Const(value), name, self.default_bitwidth))
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
            if !self.graph.contains_node(src) {
                return Err(CdfgError::UnknownNode(src));
            }
            if self.graph.node(src).expect("checked").op.is_output() {
                return Err(CdfgError::InvalidNodeRole {
                    node: src,
                    reason: "output nodes cannot feed operations",
                });
            }
        }
        self.touch();
        let name = self.fresh_label(op);
        let id = self.graph.add_node(NodeData::new(op, name, self.default_bitwidth));
        for (port, &src) in operands.iter().enumerate() {
            self.graph.add_edge(src, id, EdgeData::data(port as u16));
        }
        Ok(id)
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
        if !self.graph.contains_node(src) {
            return Err(CdfgError::UnknownNode(src));
        }
        if self.graph.node(src).expect("checked").op.is_output() {
            return Err(CdfgError::InvalidNodeRole {
                node: src,
                reason: "outputs cannot drive outputs",
            });
        }
        if self
            .outputs
            .iter()
            .any(|&o| self.graph.node(o).map(|d| d.name.as_str()) == Some(name.as_str()))
        {
            return Err(CdfgError::DuplicateName(name));
        }
        self.touch();
        let id = self.graph.add_node(NodeData::new(Op::Output, name, self.default_bitwidth));
        self.graph.add_edge(src, id, EdgeData::data(0));
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
    /// Returns [`CdfgError::UnknownNode`] if either endpoint is stale and
    /// [`CdfgError::CyclicGraph`] if the edge would create a cycle (a
    /// self-loop included).  A rejected edge leaves the graph and its view
    /// exactly as they were.
    pub fn add_control_edge(&mut self, before: NodeId, after: NodeId) -> Result<EdgeId, CdfgError> {
        if !self.graph.contains_node(before) {
            return Err(CdfgError::UnknownNode(before));
        }
        if !self.graph.contains_node(after) {
            return Err(CdfgError::UnknownNode(after));
        }
        self.slices();
        let slices = self.slices.get_mut().expect("view built just above");
        if !slices.insert_edge(before, after) {
            return Err(CdfgError::CyclicGraph);
        }
        Ok(self.graph.add_edge(before, after, EdgeData::control()))
    }

    /// Removes a previously added control edge.  Data edges cannot be removed
    /// through this method.
    ///
    /// Returns `true` if the edge existed and was a control edge.
    pub fn remove_control_edge(&mut self, edge: EdgeId) -> bool {
        match self.graph.edge(edge) {
            Some(data) if data.kind.is_control() => {
                self.touch();
                self.graph.remove_edge(edge);
                true
            }
            _ => false,
        }
    }

    /// Ids of all control edges currently present.
    pub fn control_edges(&self) -> Vec<EdgeId> {
        self.graph
            .edges()
            .filter(|(_, _, _, d)| d.kind.is_control())
            .map(|(e, _, _, _)| e)
            .collect()
    }

    /// Node payload accessor.
    pub fn node(&self, id: NodeId) -> Option<&NodeData> {
        self.graph.node(id)
    }

    /// Mutable node payload accessor.
    ///
    /// Invalidates the cached adjacency view: the payload's `op` determines
    /// the functional-node list and mask the view carries.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut NodeData> {
        self.touch();
        self.graph.node_mut(id)
    }

    /// The operation at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live node.
    pub fn op(&self, id: NodeId) -> Op {
        self.graph.node(id).expect("live node").op
    }

    /// Iterates over `(id, data)` for every node.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &NodeData)> + '_ {
        self.graph.nodes()
    }

    /// Iterates over ids of every node.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.node_ids()
    }

    /// Ids of all multiplexor nodes.
    pub fn mux_nodes(&self) -> Vec<NodeId> {
        self.graph.nodes().filter(|(_, d)| d.op.is_mux()).map(|(id, _)| id).collect()
    }

    /// The data operand feeding input port `port` of node `id`, if any.
    pub fn operand(&self, id: NodeId, port: u16) -> Option<NodeId> {
        self.graph.in_edges(id).iter().find_map(|&e| {
            let data = self.graph.edge(e)?;
            if data.kind.port() == Some(port) {
                self.graph.edge_endpoints(e).map(|(src, _)| src)
            } else {
                None
            }
        })
    }

    /// All data operands of node `id` in port order.
    pub fn operands(&self, id: NodeId) -> Vec<NodeId> {
        let mut by_port: BTreeMap<u16, NodeId> = BTreeMap::new();
        for &e in self.graph.in_edges(id) {
            if let (Some(data), Some((src, _))) = (self.graph.edge(e), self.graph.edge_endpoints(e))
            {
                if let Some(port) = data.kind.port() {
                    by_port.insert(port, src);
                }
            }
        }
        by_port.into_values().collect()
    }

    /// Successors of `id` reached through *data* edges only.
    pub fn data_successors(&self, id: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .graph
            .out_edges(id)
            .iter()
            .filter_map(|&e| {
                let data = self.graph.edge(e)?;
                if data.kind.is_data() {
                    self.graph.edge_endpoints(e).map(|(_, dst)| dst)
                } else {
                    None
                }
            })
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Operation statistics over the whole design (Table I columns).
    pub fn op_counts(&self) -> OpCounts {
        OpCounts::from_cdfg(self)
    }

    /// Length of the critical path measured in control steps (the minimum
    /// number of control steps in which the design can execute, column 2 of
    /// Table I).
    pub fn critical_path_length(&self) -> u32 {
        self.graph
            .longest_path_weight(|n| {
                u64::from(self.graph.node(n).map(|d| d.op.delay()).unwrap_or(0))
            })
            .expect("CDFG must be acyclic") as u32
    }

    /// Structural validation: arity/port completeness, acyclicity, port
    /// uniqueness, output sanity.
    ///
    /// # Errors
    ///
    /// Returns the first violation found; see [`CdfgError`] for the cases.
    pub fn validate(&self) -> Result<(), CdfgError> {
        if self.outputs.is_empty() {
            return Err(CdfgError::NoOutputs);
        }
        if !self.graph.is_acyclic() {
            return Err(CdfgError::CyclicGraph);
        }
        for (id, data) in self.graph.nodes() {
            let arity = data.op.arity();
            let mut seen_ports: Vec<u16> = Vec::new();
            for &e in self.graph.in_edges(id) {
                let edge = self.graph.edge(e).expect("live edge");
                if let Some(port) = edge.kind.port() {
                    if seen_ports.contains(&port) {
                        return Err(CdfgError::DuplicatePort { node: id, port });
                    }
                    seen_ports.push(port);
                }
            }
            let expected_ports: usize = if data.op.is_output() { 1 } else { arity };
            for port in 0..expected_ports as u16 {
                if !seen_ports.contains(&port) {
                    return Err(CdfgError::MissingPort { node: id, port });
                }
            }
            if seen_ports.len() > expected_ports {
                return Err(CdfgError::ArityMismatch {
                    op: data.op.mnemonic(),
                    expected: expected_ports,
                    found: seen_ports.len(),
                });
            }
            if data.op.is_output() && self.graph.out_degree(id) != 0 {
                return Err(CdfgError::InvalidNodeRole {
                    node: id,
                    reason: "output has successors",
                });
            }
            if data.op.is_source() && !seen_ports.is_empty() {
                return Err(CdfgError::InvalidNodeRole {
                    node: id,
                    reason: "source node has data operands",
                });
            }
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
    /// Panics if `inputs` is missing a value for a primary input or if the
    /// graph fails validation assumptions (undriven ports).
    pub fn evaluate(&self, inputs: &BTreeMap<String, i64>) -> BTreeMap<String, i64> {
        let mut values: BTreeMap<NodeId, i64> = BTreeMap::new();
        for &id in self.slices().topo() {
            let data = self.graph.node(id).expect("live node");
            let value = match data.op {
                Op::Input => *inputs
                    .get(&data.name)
                    .unwrap_or_else(|| panic!("missing value for input `{}`", data.name)),
                Op::Const(c) => c,
                _ => {
                    let args: Vec<i64> = self
                        .operands(id)
                        .iter()
                        .map(|src| *values.get(src).expect("operand evaluated before use"))
                        .collect();
                    data.op.eval(&args)
                }
            };
            values.insert(id, value);
        }
        self.outputs
            .iter()
            .map(|&o| {
                let name = self.graph.node(o).expect("live output").name.clone();
                (name, *values.get(&o).expect("output evaluated"))
            })
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
        let (g, ..) = abs_diff();
        g.validate().unwrap();
        assert_eq!(g.inputs().len(), 2);
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.node_count(), 7);
        // The comparison (or a subtraction) and the multiplexor chain: two
        // control steps minimum, matching Figure 1 of the paper.
        assert_eq!(g.critical_path_length(), 2);
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
        assert_eq!(g.operands(m), vec![gt, bma, amb]);
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
