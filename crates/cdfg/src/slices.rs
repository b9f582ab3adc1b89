//! Compact slice adjacency: CSR-style flat arrays over a [`Cdfg`].
//!
//! The scheduling kernels ask for predecessors and successors millions of
//! times per sweep; answering each query with a fresh, sorted, deduplicated
//! `Vec` would cost an allocation plus an `O(d log d)` sort per call.
//! [`Slices`] flattens the whole adjacency into four arrays built once per
//! graph:
//!
//! ```text
//! pred_index: [0, 0, 2, 5, ...]      (slot_count + 1 offsets)
//! pred_data:  [n0, n3, n1, n2, ...]  (deduplicated, ascending per node)
//! ```
//!
//! so `preds(n)` is two index reads and a borrow — `O(1)`, allocation-free.
//! The view also caches a topological order with its inverse, the list of
//! functional nodes and a per-slot functional mask, all of which the
//! schedulers previously recomputed (with allocations) on every call.
//!
//! A `Slices` is built lazily on first use and cached inside the [`Cdfg`].
//! Adding a control edge — the power-management selection loop does it
//! once per edge of every accepted multiplexor — *patches* the view in
//! place instead of dropping it:
//!
//! * the edge goes into the two endpoints' `preds`/`succs` rows by a
//!   sorted, deduplicated insert, so both stay exactly what a fresh build
//!   would produce;
//! * the topological order is repaired with the Pearce–Kelly bounded
//!   reorder, which doubles as the cycle check.  An edge that already
//!   points forward in the order costs `O(1)`; otherwise only the nodes
//!   whose position lies between the two endpoints are searched and
//!   shuffled.
//!
//! A patched order is a valid topological order of the current graph, but
//! not necessarily the one a fresh build would compute: the order is fixed
//! by the graph's mutation history (see [`Slices::topo`]).  Every other
//! mutation — adding nodes or data edges, removing control edges, rewriting
//! a node payload — drops the cache, and the next query rebuilds it.

use crate::cdfg::Cdfg;
use crate::graph::NodeId;

/// Flat CSR adjacency view plus cached node orderings for one [`Cdfg`].
///
/// Obtain one with [`Cdfg::slices`]; the `Cdfg` keeps it current across
/// every mutation (patching it for control edges, dropping and rebuilding
/// it otherwise).
#[derive(Debug, Clone, Default)]
pub struct Slices {
    slot_count: usize,
    pred_index: Vec<u32>,
    pred_data: Vec<NodeId>,
    succ_index: Vec<u32>,
    succ_data: Vec<NodeId>,
    data_pred_index: Vec<u32>,
    data_pred_data: Vec<NodeId>,
    topo: Vec<NodeId>,
    topo_pos: Vec<u32>,
    functional: Vec<NodeId>,
    functional_mask: Vec<bool>,
}

impl Slices {
    /// Builds the view by a single scan over the graph.
    pub(crate) fn build(cdfg: &Cdfg) -> Self {
        let graph = cdfg.graph();
        let slot_count = graph.node_ids().map(|n| n.index() + 1).max().unwrap_or(0);

        let mut pred_index = Vec::with_capacity(slot_count + 1);
        let mut pred_data = Vec::with_capacity(graph.edge_count());
        let mut succ_index = Vec::with_capacity(slot_count + 1);
        let mut succ_data = Vec::with_capacity(graph.edge_count());
        let mut data_pred_index = Vec::with_capacity(slot_count + 1);
        let mut data_pred_data = Vec::with_capacity(graph.edge_count());
        let mut scratch: Vec<NodeId> = Vec::new();

        pred_index.push(0);
        succ_index.push(0);
        data_pred_index.push(0);
        for slot in 0..slot_count {
            let id = NodeId::new(slot as u32);
            if graph.contains_node(id) {
                scratch.clear();
                scratch.extend(
                    graph
                        .in_edges(id)
                        .iter()
                        .filter_map(|&e| graph.edge_endpoints(e).map(|(s, _)| s)),
                );
                scratch.sort();
                scratch.dedup();
                pred_data.extend_from_slice(&scratch);

                scratch.clear();
                scratch.extend(graph.in_edges(id).iter().filter_map(|&e| {
                    let payload = graph.edge(e)?;
                    if payload.kind.is_data() {
                        graph.edge_endpoints(e).map(|(s, _)| s)
                    } else {
                        None
                    }
                }));
                scratch.sort();
                scratch.dedup();
                data_pred_data.extend_from_slice(&scratch);

                scratch.clear();
                scratch.extend(
                    graph
                        .out_edges(id)
                        .iter()
                        .filter_map(|&e| graph.edge_endpoints(e).map(|(_, d)| d)),
                );
                scratch.sort();
                scratch.dedup();
                succ_data.extend_from_slice(&scratch);
            }
            pred_index.push(pred_data.len() as u32);
            succ_index.push(succ_data.len() as u32);
            data_pred_index.push(data_pred_data.len() as u32);
        }

        let topo = graph.topological_order().expect("CDFG must be acyclic");
        let mut topo_pos = vec![0u32; slot_count];
        for (pos, &n) in topo.iter().enumerate() {
            topo_pos[n.index()] = pos as u32;
        }

        let mut functional = Vec::new();
        let mut functional_mask = vec![false; slot_count];
        for (id, data) in graph.nodes() {
            if data.op.is_functional() {
                functional.push(id);
                functional_mask[id.index()] = true;
            }
        }

        Slices {
            slot_count,
            pred_index,
            pred_data,
            succ_index,
            succ_data,
            data_pred_index,
            data_pred_data,
            topo,
            topo_pos,
            functional,
            functional_mask,
        }
    }

    /// Patches a new edge `before -> after` between two live nodes into the
    /// view, or returns `false` — leaving the view untouched — when the
    /// edge would close a cycle (a self-loop included).
    ///
    /// The topological order is repaired first, by the Pearce–Kelly
    /// bounded reorder, because its forward search is the cycle check.
    /// Then `after` joins `before`'s successors and `before` joins
    /// `after`'s predecessors unless the pair is already adjacent (a
    /// parallel data or control edge).
    pub(crate) fn insert_edge(&mut self, before: NodeId, after: NodeId) -> bool {
        if !self.reorder(before, after) {
            return false;
        }
        csr_insert(&mut self.succ_index, &mut self.succ_data, before, after);
        csr_insert(&mut self.pred_index, &mut self.pred_data, after, before);
        true
    }

    /// Pearce–Kelly order repair for a new edge `x -> y`.
    ///
    /// Nothing moves when `x` already precedes `y`.  Otherwise the only
    /// nodes that can be out of order lie in the position interval
    /// `[pos(y), pos(x)]`: those reachable from `y` inside it (the forward
    /// set, which contains `x` exactly when the edge closes a cycle) and
    /// those reaching `x` inside it (the backward set).  The two sets are
    /// disjoint once the forward search has ruled out a cycle; the repair
    /// hands their combined positions, in ascending order, first to the
    /// backward set and then to the forward set, each kept in its current
    /// relative order.
    fn reorder(&mut self, x: NodeId, y: NodeId) -> bool {
        let lower = self.topo_pos[y.index()];
        let upper = self.topo_pos[x.index()];
        if lower > upper {
            return true;
        }
        if lower == upper {
            return false; // x == y
        }
        // Visited flags indexed by position offset: both searches stay
        // inside the interval, and the sets they mark are disjoint.
        let mut seen = vec![false; (upper - lower + 1) as usize];
        let mut stack = vec![y];
        let mut forward = Vec::new();
        seen[0] = true;
        while let Some(n) = stack.pop() {
            forward.push(n);
            for &s in self.succs(n) {
                let pos = self.topo_pos[s.index()];
                if pos == upper {
                    return false; // reached x: y already reaches x
                }
                if pos < upper && !seen[(pos - lower) as usize] {
                    seen[(pos - lower) as usize] = true;
                    stack.push(s);
                }
            }
        }
        let mut backward = Vec::new();
        stack.push(x);
        seen[(upper - lower) as usize] = true;
        while let Some(n) = stack.pop() {
            backward.push(n);
            for &p in self.preds(n) {
                let pos = self.topo_pos[p.index()];
                if pos > lower && !seen[(pos - lower) as usize] {
                    seen[(pos - lower) as usize] = true;
                    stack.push(p);
                }
            }
        }
        backward.sort_unstable_by_key(|n| self.topo_pos[n.index()]);
        forward.sort_unstable_by_key(|n| self.topo_pos[n.index()]);
        let mut slots: Vec<u32> =
            backward.iter().chain(&forward).map(|n| self.topo_pos[n.index()]).collect();
        slots.sort_unstable();
        for (&n, &pos) in backward.iter().chain(&forward).zip(&slots) {
            self.topo[pos as usize] = n;
            self.topo_pos[n.index()] = pos;
        }
        true
    }

    /// One past the highest live node index; dense per-node arrays in the
    /// schedulers are sized by this.
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Immediate predecessors of `id` via data or control edges,
    /// deduplicated and ascending (empty for unknown ids).
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        if i >= self.slot_count {
            return &[];
        }
        &self.pred_data[self.pred_index[i] as usize..self.pred_index[i + 1] as usize]
    }

    /// Immediate successors of `id` via data or control edges, deduplicated
    /// and ascending (empty for unknown ids).
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        if i >= self.slot_count {
            return &[];
        }
        &self.succ_data[self.succ_index[i] as usize..self.succ_index[i + 1] as usize]
    }

    /// Immediate predecessors of `id` via *data* edges only, deduplicated
    /// and ascending (empty for unknown ids).  This is the adjacency cone
    /// queries walk: fanin cones follow value flow, never precedence edges.
    pub fn data_preds(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        if i >= self.slot_count {
            return &[];
        }
        &self.data_pred_data[self.data_pred_index[i] as usize..self.data_pred_index[i + 1] as usize]
    }

    /// A topological order of the current graph, fixed by its mutation
    /// history.
    ///
    /// A fresh build yields [`crate::DiGraph::topological_order`] (Kahn,
    /// ascending ids per batch); each [`Cdfg::add_control_edge`] since then
    /// has repaired that order in place, so two structurally equal graphs
    /// with different histories may list their nodes differently.  Every
    /// consumer therefore relies only on "each edge points forward", never
    /// on which valid order it gets — audited for the ASAP/ALAP passes of
    /// `sched::Timing`, the earliest/latest-start passes and the exact
    /// reference of `sched::dvs`, the frame propagation of `sched::naive`
    /// (iterated to its unique fixed point), the reverse "needed" sweep of
    /// the `pmsched` cone analysis (whose output is a set) and
    /// [`Cdfg::evaluate`].
    pub fn topo(&self) -> &[NodeId] {
        &self.topo
    }

    /// Position of `id` in [`Slices::topo`] (its inverse); lets callers
    /// order an arbitrary node subset topologically with a sort instead of a
    /// full-graph scan.
    ///
    /// Unknown ids return 0 — only pass live node ids.
    pub fn topo_pos(&self, id: NodeId) -> u32 {
        self.topo_pos.get(id.index()).copied().unwrap_or(0)
    }

    /// Ids of all functional nodes, ascending.
    pub fn functional(&self) -> &[NodeId] {
        &self.functional
    }

    /// Whether `id` is a live functional node.
    pub fn is_functional(&self, id: NodeId) -> bool {
        self.functional_mask.get(id.index()).copied().unwrap_or(false)
    }
}

/// Inserts `value` into `row` of a CSR pair, keeping the row ascending and
/// duplicate-free; a value already present changes nothing.
fn csr_insert(index: &mut [u32], data: &mut Vec<NodeId>, row: NodeId, value: NodeId) {
    let (start, end) = (index[row.index()] as usize, index[row.index() + 1] as usize);
    if let Err(offset) = data[start..end].binary_search(&value) {
        data.insert(start + offset, value);
        for next in &mut index[row.index() + 1..] {
            *next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Slices;
    use crate::cdfg::{Cdfg, EdgeData};
    use crate::error::CdfgError;
    use crate::graph::NodeId;
    use crate::op::Op;

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
    fn parallel_edges_are_deduplicated() {
        let mut g = Cdfg::new("sq");
        let a = g.add_input("a");
        let sq = g.add_op(Op::Mul, &[a, a]).unwrap();
        g.add_output("o", sq).unwrap();
        assert_eq!(g.slices().preds(sq), &[a]);
        assert_eq!(g.slices().succs(a), &[sq]);
    }

    #[test]
    fn data_preds_exclude_control_edges() {
        let (mut g, gt, amb, ..) = abs_diff();
        g.add_control_edge(gt, amb).unwrap();
        let sl = g.slices();
        assert!(sl.preds(amb).contains(&gt), "combined adjacency sees the control edge");
        assert!(!sl.data_preds(amb).contains(&gt), "data adjacency does not");
        for id in g.node_ids() {
            let mut expected: Vec<NodeId> = g.operands(id);
            expected.sort();
            expected.dedup();
            assert_eq!(sl.data_preds(id), expected.as_slice(), "data preds of {id}");
        }
        assert!(sl.data_preds(NodeId::new(999)).is_empty());
    }

    #[test]
    fn topo_pos_matches_topo_order() {
        let (g, ..) = abs_diff();
        let sl = g.slices();
        for (pos, &n) in sl.topo().iter().enumerate() {
            assert_eq!(sl.topo_pos(n), pos as u32);
        }
        assert_eq!(sl.topo_pos(NodeId::new(999)), 0, "unknown ids report 0");
    }

    #[test]
    fn mutation_invalidates_the_cache() {
        let (mut g, gt, amb, ..) = abs_diff();
        assert!(!g.slices().succs(gt).contains(&amb));
        g.add_control_edge(gt, amb).unwrap();
        assert!(g.slices().succs(gt).contains(&amb), "patched by the insertion");
        let e = g.control_edges()[0];
        g.remove_control_edge(e);
        assert!(!g.slices().succs(gt).contains(&amb), "rebuilt after removal");
    }

    #[test]
    fn node_mut_invalidates_the_cache() {
        // node_mut can rewrite a payload's `op`, which feeds the cached
        // functional list/mask — the accessor must drop the cache.
        let (mut g, gt, ..) = abs_diff();
        assert!(g.slices().is_functional(gt));
        assert_eq!(g.slices().functional().len(), 4);
        g.node_mut(gt).unwrap().op = Op::Const(1);
        assert!(!g.slices().is_functional(gt), "rebuilt after payload mutation");
        assert_eq!(g.slices().functional().len(), 3);
    }

    #[test]
    fn functional_mask_matches_ops() {
        let (g, gt, ..) = abs_diff();
        let sl = g.slices();
        assert!(sl.is_functional(gt));
        for &i in g.inputs() {
            assert!(!sl.is_functional(i));
        }
        assert!(!sl.is_functional(NodeId::new(999)), "out of range is not functional");
        assert_eq!(sl.slot_count(), 7);
    }

    #[test]
    fn unknown_ids_have_empty_adjacency() {
        let (g, ..) = abs_diff();
        assert!(g.slices().preds(NodeId::new(999)).is_empty());
        assert!(g.slices().succs(NodeId::new(999)).is_empty());
    }

    #[test]
    fn clone_preserves_and_then_diverges() {
        let (g, gt, amb, ..) = abs_diff();
        let _ = g.slices();
        let mut h = g.clone();
        h.add_control_edge(gt, amb).unwrap();
        assert!(h.slices().succs(gt).contains(&amb));
        assert!(!g.slices().succs(gt).contains(&amb), "original untouched");
    }

    /// Everything in a view except its order: what a patched view must share
    /// with a fresh build of the same graph.
    #[allow(clippy::type_complexity)]
    fn adjacency(sl: &Slices) -> (usize, [Vec<u32>; 3], [Vec<NodeId>; 4], Vec<bool>) {
        (
            sl.slot_count,
            [sl.pred_index.clone(), sl.succ_index.clone(), sl.data_pred_index.clone()],
            [
                sl.pred_data.clone(),
                sl.succ_data.clone(),
                sl.data_pred_data.clone(),
                sl.functional.clone(),
            ],
            sl.functional_mask.clone(),
        )
    }

    /// A random valid CDFG over every operand shape: binary operations,
    /// comparisons, multiplexors, constants and several outputs.
    fn random_recipe(rng: &mut proptest::TestRng) -> Cdfg {
        let mut g = Cdfg::new("recipe");
        let mut values: Vec<NodeId> =
            (0..2 + rng.below(3)).map(|i| g.add_input(format!("in{i}"))).collect();
        for _ in 0..1 + rng.below(40) {
            let mut pick = || values[rng.below(values.len() as u64) as usize];
            let (a, b, c) = (pick(), pick(), pick());
            let node = match rng.below(7) {
                0 => g.add_op(Op::Add, &[a, b]).unwrap(),
                1 => g.add_op(Op::Sub, &[a, b]).unwrap(),
                2 => g.add_op(Op::Mul, &[a, a]).unwrap(),
                3 => g.add_op(Op::Gt, &[a, b]).unwrap(),
                4 => g.add_const(rng.below(9) as i64),
                _ => {
                    let sel = g.add_op(Op::Lt, &[a, b]).unwrap();
                    g.add_mux(sel, b, c).unwrap()
                }
            };
            values.push(node);
        }
        for (i, &v) in values.iter().rev().take(1 + rng.below(3) as usize).enumerate() {
            g.add_output(format!("out{i}"), v).unwrap();
        }
        g
    }

    /// Rebuilds a generated circuit in this crate's types, node by node in
    /// id order, so every id (and every edge's insertion order) matches.
    fn mirror_family(family: &str, seed: u64) -> Vec<Cdfg> {
        let functional = [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Neg,
            Op::Shl,
            Op::Shr,
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Not,
            Op::Gt,
            Op::Lt,
            Op::Ge,
            Op::Le,
            Op::Eq,
            Op::Ne,
            Op::Mux,
        ];
        let spec = gen::GenSpec::parse(&format!("family={family},seed={seed},count=2")).unwrap();
        let mut mirrored = Vec::new();
        for bench in gen::generate(&spec).unwrap() {
            let source = &bench.cdfg;
            let mut g = Cdfg::new(source.name());
            for (id, data) in source.iter_nodes() {
                let operands: Vec<NodeId> =
                    source.operands(id).iter().map(|o| NodeId::new(o.index() as u32)).collect();
                let op = data.op.to_string();
                let node = match op.as_str() {
                    "in" => g.add_input(data.name.clone()),
                    "out" => g.add_output(data.name.clone(), operands[0]).unwrap(),
                    _ => match op.strip_prefix("const(").and_then(|v| v.strip_suffix(')')) {
                        Some(value) => g.add_const(value.parse().unwrap()),
                        None => {
                            let op = functional.into_iter().find(|f| f.to_string() == op).unwrap();
                            g.add_op(op, &operands).unwrap()
                        }
                    },
                };
                assert_eq!(node.index(), id.index(), "{}: ids are dense", source.name());
            }
            assert_eq!(g.edge_count(), source.edge_count(), "{}", source.name());
            mirrored.push(g);
        }
        mirrored
    }

    /// Applies a seeded sequence of control-edge insertions — random pairs
    /// (forward and backward in the order), self-loops, parallel
    /// duplicates, edges parallel to data edges and cycle-closing reversals
    /// — checking the patched view against a fresh build after every one.
    fn check_insertions(mut g: Cdfg, rng: &mut proptest::TestRng, count: usize) {
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let pick = |rng: &mut proptest::TestRng| nodes[rng.below(nodes.len() as u64) as usize];
        g.slices();
        for _ in 0..count {
            let edges: Vec<(NodeId, NodeId)> =
                g.graph().edges().map(|(_, src, dst, _)| (src, dst)).collect();
            let control = g.control_edges();
            let (before, after) = match rng.below(8) {
                0 => {
                    let n = pick(rng);
                    (n, n)
                }
                1 if !control.is_empty() => g
                    .graph()
                    .edge_endpoints(control[rng.below(control.len() as u64) as usize])
                    .unwrap(),
                2 => edges[rng.below(edges.len() as u64) as usize],
                3 => {
                    let (src, dst) = edges[rng.below(edges.len() as u64) as usize];
                    (dst, src)
                }
                _ => (pick(rng), pick(rng)),
            };

            let mut probe = g.graph().clone();
            probe.add_edge(before, after, EdgeData::control());
            let acyclic = probe.is_acyclic();
            let reachable = g.graph().reachable_from(after).contains(&before);
            assert_eq!(acyclic, before != after && !reachable, "reachability oracle");

            let view = g.slices().clone();
            let (edge_count, control_before) = (g.edge_count(), g.control_edges());
            match g.add_control_edge(before, after) {
                Ok(edge) => {
                    assert!(acyclic, "{before} -> {after} accepted but closes a cycle");
                    assert!(g.graph().edge(edge).unwrap().kind.is_control());
                    assert_eq!(g.edge_count(), edge_count + 1);
                }
                Err(err) => {
                    assert!(!acyclic, "{before} -> {after} rejected but acyclic");
                    assert_eq!(err, CdfgError::CyclicGraph);
                    assert_eq!(g.edge_count(), edge_count);
                    assert_eq!(g.control_edges(), control_before);
                    let sl = g.slices();
                    assert_eq!(adjacency(sl), adjacency(&view), "rejected edge moved the view");
                    assert_eq!((&sl.topo, &sl.topo_pos), (&view.topo, &view.topo_pos));
                }
            }

            let sl = g.slices();
            assert_eq!(adjacency(sl), adjacency(&Slices::build(&g)), "patched != fresh");
            let mut sorted = sl.topo.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, nodes, "topo is a permutation of the live nodes");
            for (pos, &n) in sl.topo.iter().enumerate() {
                assert_eq!(sl.topo_pos[n.index()], pos as u32, "topo_pos inverts topo");
            }
            for (_, src, dst, _) in g.graph().edges() {
                assert!(sl.topo_pos(src) < sl.topo_pos(dst), "{src} -> {dst} points backward");
            }
        }
        assert!(g.graph().is_acyclic());
    }

    #[test]
    fn patched_view_matches_fresh_build_on_random_recipes() {
        for case in 0..48 {
            let mut rng = proptest::TestRng::new(case);
            let g = random_recipe(&mut rng);
            check_insertions(g, &mut rng, 40);
        }
    }

    #[test]
    fn patched_view_matches_fresh_build_on_generated_families() {
        for family in ["random-dag", "mux-tree", "dsp-chain", "cordic"] {
            for seed in [3, 17] {
                for (i, g) in mirror_family(family, seed).into_iter().enumerate() {
                    let mut rng = proptest::TestRng::new(seed * 31 + i as u64);
                    check_insertions(g, &mut rng, 60);
                }
            }
        }
    }
}
