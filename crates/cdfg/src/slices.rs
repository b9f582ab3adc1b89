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
//! A `Slices` is built lazily on first use, from the graph's port-ordered
//! operands and its live control edges, and cached inside the [`Cdfg`].
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
//! mutation — adding a node, removing a control edge — drops the cache,
//! and the next query rebuilds it.

use crate::cdfg::{Cdfg, NodeId};

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
    /// Builds the view from the graph's operands and live control edges.
    ///
    /// The topological order is Kahn's: the sources in ascending id order,
    /// then the nodes each pop releases, one batch per pop, each batch in
    /// ascending id order.  A node's successor row is ascending, so its
    /// batch comes out sorted with no extra work.
    pub(crate) fn build(cdfg: &Cdfg) -> Self {
        let slot_count = cdfg.node_count();
        // Control edges by destination, so each predecessor row merges the
        // node's operands with its control sources in one pass.
        let mut control: Vec<(NodeId, NodeId)> =
            cdfg.control_pairs().map(|(src, dst)| (dst, src)).collect();
        control.sort_unstable();
        let mut control = control.into_iter().peekable();

        let mut pred_index = Vec::with_capacity(slot_count + 1);
        let mut pred_data = Vec::new();
        let mut data_pred_index = Vec::with_capacity(slot_count + 1);
        let mut data_pred_data = Vec::new();
        let mut functional = Vec::new();
        let mut functional_mask = vec![false; slot_count];
        let mut row: Vec<NodeId> = Vec::new();
        pred_index.push(0);
        data_pred_index.push(0);
        for id in cdfg.node_ids() {
            row.clear();
            row.extend_from_slice(cdfg.operands(id));
            row.sort_unstable();
            row.dedup();
            data_pred_data.extend_from_slice(&row);
            data_pred_index.push(data_pred_data.len() as u32);
            while let Some((_, src)) = control.next_if(|&(dst, _)| dst == id) {
                row.push(src);
            }
            row.sort_unstable();
            row.dedup();
            pred_data.extend_from_slice(&row);
            pred_index.push(pred_data.len() as u32);
            if cdfg.op(id).is_functional() {
                functional.push(id);
                functional_mask[id.index()] = true;
            }
        }

        // Successor rows are the transpose, filled in ascending destination
        // order, so each row comes out ascending and duplicate-free.
        let mut succ_index = vec![0u32; slot_count + 1];
        for p in &pred_data {
            succ_index[p.index() + 1] += 1;
        }
        for i in 0..slot_count {
            succ_index[i + 1] += succ_index[i];
        }
        let mut fill = succ_index.clone();
        let mut succ_data = vec![NodeId::new(0); pred_data.len()];
        for (id, row) in cdfg.node_ids().zip(pred_index.windows(2)) {
            for p in &pred_data[row[0] as usize..row[1] as usize] {
                succ_data[fill[p.index()] as usize] = id;
                fill[p.index()] += 1;
            }
        }

        let mut slices = Slices {
            slot_count,
            pred_index,
            pred_data,
            succ_index,
            succ_data,
            data_pred_index,
            data_pred_data,
            topo: Vec::new(),
            topo_pos: vec![0; slot_count],
            functional,
            functional_mask,
        };
        // Kahn's algorithm with `topo` as its own FIFO queue; `fill` is
        // reused as the remaining in-degrees.
        let mut topo = Vec::with_capacity(slot_count);
        for id in cdfg.node_ids() {
            fill[id.index()] = slices.preds(id).len() as u32;
            if fill[id.index()] == 0 {
                topo.push(id);
            }
        }
        let mut head = 0;
        while let Some(&n) = topo.get(head) {
            head += 1;
            for &s in slices.succs(n) {
                fill[s.index()] -= 1;
                if fill[s.index()] == 0 {
                    topo.push(s);
                }
            }
        }
        debug_assert_eq!(topo.len(), slot_count, "operands point back, control edges are checked");
        for (pos, &n) in topo.iter().enumerate() {
            slices.topo_pos[n.index()] = pos as u32;
        }
        slices.topo = topo;
        slices
    }

    /// Patches a new edge `before -> after` between two nodes into the
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

    /// The number of nodes, which is one past the highest node index;
    /// dense per-node arrays in the schedulers are sized by this.
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
    /// A fresh build yields Kahn's order: the sources in ascending id
    /// order, then the nodes each pop releases, one batch per pop, each
    /// batch in ascending id order.  Each [`Cdfg::add_control_edge`] since
    /// then has repaired that order in place, so two structurally equal
    /// graphs with different histories may list their nodes differently.  Every
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
    /// Unknown ids return 0 — only pass ids of this graph.
    pub fn topo_pos(&self, id: NodeId) -> u32 {
        self.topo_pos.get(id.index()).copied().unwrap_or(0)
    }

    /// Ids of all functional nodes, ascending.
    pub fn functional(&self) -> &[NodeId] {
        &self.functional
    }

    /// Whether `id` is a functional node.
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
    use std::collections::VecDeque;

    use super::Slices;
    use crate::cdfg::{Cdfg, NodeId};
    use crate::error::CdfgError;
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
            let mut expected: Vec<NodeId> = g.operands(id).to_vec();
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

    /// Every edge of `g` as successor lists, parallel edges included: the
    /// operand edges by node and port, then the live control edges in
    /// insertion order.
    fn raw_successors(g: &Cdfg) -> Vec<Vec<NodeId>> {
        let mut succs = vec![Vec::new(); g.node_count()];
        for n in g.node_ids() {
            for &o in g.operands(n) {
                succs[o.index()].push(n);
            }
        }
        for (src, dst) in g.control_pairs() {
            succs[src.index()].push(dst);
        }
        succs
    }

    /// Kahn's algorithm as first written, over raw successor lists: a
    /// `VecDeque` ready queue fed one freshly collected, sorted batch per
    /// pop.  `None` when the edges close a cycle.
    fn batched_kahn(succs: &[Vec<NodeId>]) -> Option<Vec<NodeId>> {
        let mut indegree = vec![0usize; succs.len()];
        for dst in succs.iter().flatten() {
            indegree[dst.index()] += 1;
        }
        let mut ready: VecDeque<NodeId> =
            (0..succs.len() as u32).map(NodeId::new).filter(|n| indegree[n.index()] == 0).collect();
        let mut order = Vec::new();
        while let Some(n) = ready.pop_front() {
            order.push(n);
            let mut next = Vec::new();
            for &m in &succs[n.index()] {
                indegree[m.index()] -= 1;
                if indegree[m.index()] == 0 {
                    next.push(m);
                }
            }
            next.sort();
            ready.extend(next);
        }
        (order.len() == succs.len()).then_some(order)
    }

    /// Whether `to` is reachable from `from` (itself included) along raw
    /// successor lists, by depth-first search.
    fn reaches(succs: &[Vec<NodeId>], from: NodeId, to: NodeId) -> bool {
        let mut seen = vec![false; succs.len()];
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            for &m in &succs[n.index()] {
                if !std::mem::replace(&mut seen[m.index()], true) {
                    stack.push(m);
                }
            }
        }
        false
    }

    #[test]
    fn topological_order_matches_batched_kahn() {
        // Control edges among nine inputs, out of id order, with a parallel
        // pair, a removed edge (a hole in the edge list) and several
        // batches per pop.
        let mut g = Cdfg::new("kahn");
        let n: Vec<NodeId> = (0..9).map(|i| g.add_input(format!("i{i}"))).collect();
        let hole = g.add_control_edge(n[4], n[0]).unwrap();
        for (s, d) in [(8, 3), (8, 1), (0, 5), (0, 2), (2, 7), (5, 7), (5, 7), (3, 6), (1, 6)] {
            g.add_control_edge(n[s], n[d]).unwrap();
        }
        assert!(g.remove_control_edge(hole));
        let fresh = Slices::build(&g);
        assert_eq!(Some(fresh.topo.clone()), batched_kahn(&raw_successors(&g)));
        assert_eq!(g.slices().topo(), fresh.topo.as_slice(), "the removal rebuilt the view");
        assert_eq!(g.add_control_edge(n[7], n[0]), Err(CdfgError::CyclicGraph));
        let (abs, ..) = abs_diff();
        assert_eq!(Some(Slices::build(&abs).topo), batched_kahn(&raw_successors(&abs)));
    }

    /// Applies a seeded sequence of control-edge mutations — insertions of
    /// random pairs (forward and backward in the order), self-loops,
    /// parallel duplicates, edges parallel to data edges, cycle-closing
    /// reversals and edges out of outputs, plus removals — and checks the
    /// view after every one: the patched view against a fresh build, and
    /// the fresh build's order against the batched Kahn sort.
    fn check_mutations(mut g: Cdfg, rng: &mut proptest::TestRng, count: usize) {
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let pick = |rng: &mut proptest::TestRng| nodes[rng.below(nodes.len() as u64) as usize];
        g.slices();
        for _ in 0..count {
            let succs = raw_successors(&g);
            let edges: Vec<(NodeId, NodeId)> = g
                .node_ids()
                .flat_map(|src| succs[src.index()].iter().map(move |&dst| (src, dst)))
                .collect();
            let control = g.control_edges();
            let control_pairs: Vec<(NodeId, NodeId)> = g.control_pairs().collect();
            let view = g.slices().clone();
            let edge_count = g.edge_count();
            if !control.is_empty() && rng.below(10) == 0 {
                let edge = control[rng.below(control.len() as u64) as usize];
                assert!(g.remove_control_edge(edge));
                assert!(!g.remove_control_edge(edge), "already removed");
                assert_eq!(g.edge_count(), edge_count - 1);
            } else {
                let (before, after) = match rng.below(8) {
                    0 => {
                        let n = pick(rng);
                        (n, n)
                    }
                    1 if !control.is_empty() => {
                        control_pairs[rng.below(control_pairs.len() as u64) as usize]
                    }
                    2 => edges[rng.below(edges.len() as u64) as usize],
                    3 => {
                        let (src, dst) = edges[rng.below(edges.len() as u64) as usize];
                        (dst, src)
                    }
                    _ => (pick(rng), pick(rng)),
                };
                let expected = if g.op(before).is_output() {
                    Err(CdfgError::InvalidNodeRole {
                        node: before,
                        reason: "outputs cannot have successors",
                    })
                } else if reaches(&succs, after, before) {
                    Err(CdfgError::CyclicGraph)
                } else {
                    Ok(())
                };
                match g.add_control_edge(before, after) {
                    Ok(edge) => {
                        assert_eq!(expected, Ok(()), "{before} -> {after} accepted");
                        assert_eq!(g.control_edges().last(), Some(&edge));
                        assert_eq!(g.control_pairs().last(), Some((before, after)));
                        assert_eq!(g.edge_count(), edge_count + 1);
                    }
                    Err(err) => {
                        assert_eq!(expected, Err(err), "{before} -> {after} refused");
                        assert_eq!(g.edge_count(), edge_count);
                        assert_eq!(g.control_edges(), control);
                        let sl = g.slices();
                        assert_eq!(adjacency(sl), adjacency(&view), "refused edge moved the view");
                        assert_eq!((&sl.topo, &sl.topo_pos), (&view.topo, &view.topo_pos));
                    }
                }
            }

            let fresh = Slices::build(&g);
            let succs = raw_successors(&g);
            assert_eq!(Some(&fresh.topo), batched_kahn(&succs).as_ref(), "fresh order != Kahn");
            let sl = g.slices();
            assert_eq!(adjacency(sl), adjacency(&fresh), "patched != fresh");
            let mut sorted = sl.topo.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, nodes, "topo is a permutation of the nodes");
            for (pos, &n) in sl.topo.iter().enumerate() {
                assert_eq!(sl.topo_pos[n.index()], pos as u32, "topo_pos inverts topo");
            }
            for src in g.node_ids() {
                for &dst in &succs[src.index()] {
                    assert!(sl.topo_pos(src) < sl.topo_pos(dst), "{src} -> {dst} points backward");
                }
            }
        }
    }

    #[test]
    fn patched_view_matches_fresh_build_on_random_recipes() {
        for case in 0..48 {
            let mut rng = proptest::TestRng::new(case);
            let g = random_recipe(&mut rng);
            check_mutations(g, &mut rng, 40);
        }
    }

    #[test]
    fn patched_view_matches_fresh_build_on_generated_families() {
        for family in ["random-dag", "mux-tree", "dsp-chain", "cordic"] {
            for seed in [3, 17] {
                for (i, g) in mirror_family(family, seed).into_iter().enumerate() {
                    let mut rng = proptest::TestRng::new(seed * 31 + i as u64);
                    check_mutations(g, &mut rng, 60);
                }
            }
        }
    }
}
