//! Transitive fanin / fanout ("cone") queries.
//!
//! The power-management algorithm (step 3 of Figure 3 in the paper) needs,
//! for every multiplexor, the transitive fanin cone of each of its three
//! inputs, restricted to functional nodes and stopping at primary inputs and
//! constants.  These helpers are generic over the CDFG and are also used by
//! the binding and RTL stages.

use std::collections::BTreeSet;

use crate::cdfg::{Cdfg, NodeId};

/// Transitive fanin of `node` following *data* edges backwards, excluding
/// `node` itself.  Inputs and constants are included; the caller filters if
/// only functional nodes are wanted.
pub fn transitive_fanin(cdfg: &Cdfg, node: NodeId) -> BTreeSet<NodeId> {
    let mut seen = BTreeSet::new();
    let mut stack: Vec<NodeId> = cdfg.operands(node).to_vec();
    while let Some(n) = stack.pop() {
        if seen.insert(n) {
            stack.extend(cdfg.operands(n));
        }
    }
    seen
}

/// Transitive fanin of a specific input *port* of `node`: the driver of that
/// port plus its own transitive fanin.
pub fn port_fanin(cdfg: &Cdfg, node: NodeId, port: u16) -> BTreeSet<NodeId> {
    let mut set = BTreeSet::new();
    if let Some(driver) = cdfg.operand(node, port) {
        set.insert(driver);
        set.extend(transitive_fanin(cdfg, driver));
    }
    set
}

/// Transitive fanout of `node` following *data* edges forwards, excluding
/// `node` itself.  Output nodes are included.
pub fn transitive_fanout(cdfg: &Cdfg, node: NodeId) -> BTreeSet<NodeId> {
    let mut seen = BTreeSet::new();
    let mut stack: Vec<NodeId> = cdfg.data_successors(node);
    while let Some(n) = stack.pop() {
        if seen.insert(n) {
            stack.extend(cdfg.data_successors(n));
        }
    }
    seen
}

/// Only the functional members of a node set (drops inputs, constants and
/// outputs).
pub fn functional_only(cdfg: &Cdfg, set: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
    set.iter()
        .copied()
        .filter(|&n| cdfg.node(n).map(|d| d.op.is_functional()).unwrap_or(false))
        .collect()
}

/// Distance (in data edges) from `node` to the nearest primary output, or
/// `None` if no output is reachable.  The paper processes multiplexors
/// "closer to the outputs" first; this is the metric used for that ordering.
pub fn distance_to_output(cdfg: &Cdfg, node: NodeId) -> Option<u32> {
    // Breadth-first search forwards over data edges.
    let mut frontier = vec![node];
    let mut seen = BTreeSet::new();
    seen.insert(node);
    let mut depth = 0u32;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for n in frontier {
            if cdfg.node(n).map(|d| d.op.is_output()).unwrap_or(false) {
                return Some(depth);
            }
            for s in cdfg.data_successors(n) {
                if seen.insert(s) {
                    next.push(s);
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    None
}

/// Distance (in data edges) from *every* node to its nearest primary output
/// in one pass: a multi-source reverse breadth-first search from all outputs
/// over data predecessors.  Slot `i` holds the distance of `NodeId(i)`, or
/// `None` when no output is reachable from that node (dead code) or the slot
/// is not a live node.
///
/// Per node, the value equals [`distance_to_output`]; computing all of them
/// at once turns the mux-ordering passes from one forward BFS per
/// multiplexor into a single sweep over the graph.
pub fn distances_to_outputs(cdfg: &Cdfg) -> Vec<Option<u32>> {
    let slices = cdfg.slices();
    let mut dist: Vec<Option<u32>> = vec![None; slices.slot_count()];
    let mut frontier: Vec<NodeId> = Vec::new();
    for &o in cdfg.outputs() {
        if dist[o.index()].is_none() {
            dist[o.index()] = Some(0);
            frontier.push(o);
        }
    }
    let mut depth = 0u32;
    let mut next: Vec<NodeId> = Vec::new();
    while !frontier.is_empty() {
        depth += 1;
        next.clear();
        for &n in &frontier {
            for &p in slices.data_preds(n) {
                if dist[p.index()].is_none() {
                    dist[p.index()] = Some(depth);
                    next.push(p);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    /// Two nested conditionals:
    /// `out = (a > b) ? ((c > d) ? c + d : c - d) : a + b`
    fn nested() -> (Cdfg, [NodeId; 10]) {
        let mut g = Cdfg::new("nested");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let outer_cmp = g.add_op(Op::Gt, &[a, b]).unwrap();
        let inner_cmp = g.add_op(Op::Gt, &[c, d]).unwrap();
        let cd_add = g.add_op(Op::Add, &[c, d]).unwrap();
        let cd_sub = g.add_op(Op::Sub, &[c, d]).unwrap();
        let inner_mux = g.add_mux(inner_cmp, cd_sub, cd_add).unwrap();
        let ab_add = g.add_op(Op::Add, &[a, b]).unwrap();
        let outer_mux = g.add_mux(outer_cmp, ab_add, inner_mux).unwrap();
        g.add_output("out", outer_mux).unwrap();
        (g, [a, b, c, d, outer_cmp, inner_cmp, cd_add, cd_sub, inner_mux, outer_mux])
    }

    #[test]
    fn fanin_of_mux_ports() {
        let (g, [a, b, c, d, outer_cmp, inner_cmp, cd_add, cd_sub, inner_mux, outer_mux]) =
            nested();
        let sel = port_fanin(&g, outer_mux, crate::MUX_SELECT_PORT);
        assert!(sel.contains(&outer_cmp));
        assert!(sel.contains(&a) && sel.contains(&b));
        assert!(!sel.contains(&inner_mux));

        let true_cone = port_fanin(&g, outer_mux, crate::MUX_TRUE_PORT);
        assert!(true_cone.contains(&inner_mux));
        assert!(true_cone.contains(&inner_cmp));
        assert!(true_cone.contains(&cd_add) && true_cone.contains(&cd_sub));
        assert!(true_cone.contains(&c) && true_cone.contains(&d));
        assert!(!true_cone.contains(&outer_cmp));
    }

    #[test]
    fn fanout_reaches_outputs() {
        let (g, [_, _, _, _, _, inner_cmp, ..]) = nested();
        let fanout = transitive_fanout(&g, inner_cmp);
        let has_output = fanout.iter().any(|&n| g.node(n).unwrap().op.is_output());
        assert!(has_output);
    }

    #[test]
    fn functional_only_drops_io() {
        let (g, [_, _, _, _, _, _, _, _, _, outer_mux]) = nested();
        let cone = port_fanin(&g, outer_mux, crate::MUX_TRUE_PORT);
        let fns = functional_only(&g, &cone);
        assert!(fns.iter().all(|&n| g.node(n).unwrap().op.is_functional()));
        assert!(fns.len() < cone.len(), "inputs were dropped");
    }

    #[test]
    fn distance_to_output_orders_muxes() {
        let (g, [.., inner_mux, outer_mux]) = nested();
        let d_outer = distance_to_output(&g, outer_mux).unwrap();
        let d_inner = distance_to_output(&g, inner_mux).unwrap();
        assert!(d_outer < d_inner, "outer mux is closer to the output");
        // An input that only feeds dead logic would return None; here every
        // node reaches the output.
        for n in g.node_ids() {
            assert!(distance_to_output(&g, n).is_some());
        }
    }

    #[test]
    fn distances_to_outputs_match_per_node_queries() {
        let (mut g, _) = nested();
        // Add dead code so the one-pass sweep has unreachable nodes to agree
        // on as well.
        let a = g.inputs()[0];
        let b = g.inputs()[1];
        let dead = g.add_op(Op::Mul, &[a, b]).unwrap();
        let deader = g.add_op(Op::Neg, &[dead]).unwrap();
        let all = distances_to_outputs(&g);
        for n in g.node_ids() {
            assert_eq!(all[n.index()], distance_to_output(&g, n), "distance of {n}");
        }
        assert_eq!(all[dead.index()], None);
        assert_eq!(all[deader.index()], None);
    }

    #[test]
    fn fanin_excludes_self_and_is_transitive() {
        let (g, [a, b, _, _, outer_cmp, ..]) = nested();
        let cone = transitive_fanin(&g, outer_cmp);
        assert!(!cone.contains(&outer_cmp));
        assert_eq!(cone, [a, b].into_iter().collect());
    }
}
