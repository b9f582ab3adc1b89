//! Multiplexor fanin-cone analysis (steps 2–3 of the paper's algorithm).
//!
//! For every multiplexor we need to know three things:
//!
//! 1. which operation drives its *control* (select) input — once it has
//!    executed the branch decision is known, so the shut-down operations
//!    are scheduled after it,
//! 2. which operations feed only its 0-input — these can be shut down
//!    whenever the select evaluates to 1,
//! 3. which operations feed only its 1-input — these can be shut down
//!    whenever the select evaluates to 0.
//!
//! The paper excludes from shut-down any operation that is in both data
//! cones, or whose result "fans out to other nodes besides the current
//! multiplexor".  Both exclusions are captured here by a single, stronger
//! criterion: an operation is shut-down eligible for a branch only if every
//! path from it to a primary output passes through that branch's data input
//! of the multiplexor.  If any other path exists the value is needed
//! regardless of the branch outcome.
//!
//! # Implementation
//!
//! The analysis runs on dense bitsets over node indices through a reusable
//! [`ConeWorkspace`]: each data port's cone membership is a BFS over the CSR
//! [`cdfg::Slices`] data adjacency, and the shut-down criterion is evaluated
//! by one reverse-topological "needed" sweep over the cone members instead
//! of a whole-graph reverse reachability per branch.  Per working graph, the
//! data-reachability-to-outputs set (whose complement is the dead-end set)
//! is computed once by [`ConeWorkspace::prepare`] and shared by every
//! multiplexor — control edges never change it, so the per-mux loop in
//! [`crate::algorithm`] prepares once and analyzes hundreds of muxes against
//! the same set.  [`MuxCones`] keeps only what the selection loop and the
//! mux ordering read: the select driver and the two shut-down sets.  Those
//! sets stay `BTreeSet`, so reports and orderings are byte-identical to the
//! original implementation (the retained [`crate::naive`] reference, which
//! still walks the whole fanin cones, pins this equality in the
//! cone-identity property tests).  The fanin cones themselves are
//! [`cdfg::cone::port_fanin`] away.

use std::collections::BTreeSet;

use cdfg::{Cdfg, DenseBitSet, NodeId, Slices, MUX_FALSE_PORT, MUX_SELECT_PORT, MUX_TRUE_PORT};

/// Reusable scratch state for mux-cone analysis: dense bitsets and node
/// buffers sized to the graph once per [`ConeWorkspace::prepare`] call and
/// recycled across every multiplexor of the design.
#[derive(Debug, Clone, Default)]
pub struct ConeWorkspace {
    /// Slot count the workspace was prepared for (sanity-checked on use).
    slots: usize,
    /// Nodes with a *data* path to a primary output; the complement over
    /// functional nodes is the dead-end set.  Valid as long as the data
    /// edges of the prepared graph are unchanged — control-edge insertion
    /// and removal never invalidate it.
    reaches_output: DenseBitSet,
    /// Membership of the port cone currently being analysed.
    cone: DenseBitSet,
    /// Cone members proven "needed" (observable besides the branch input)
    /// during the reverse sweep of the current branch.
    needed: DenseBitSet,
    /// Scratch set for ancestor queries (the selection loop's cycle check).
    scratch: DenseBitSet,
    stack: Vec<NodeId>,
    cone_nodes: Vec<NodeId>,
    branch_nodes: Vec<NodeId>,
}

impl ConeWorkspace {
    /// A fresh workspace; call [`ConeWorkspace::prepare`] before analysing.
    pub fn new() -> Self {
        ConeWorkspace::default()
    }

    /// Sizes the buffers for `cdfg` and computes the data-only
    /// reachability-to-outputs set.
    ///
    /// Must be called again whenever the *data* edges or node set of the
    /// graph change; adding or removing control edges does not require
    /// re-preparation (precedence edges carry no value flow, so neither cone
    /// membership inputs nor dead-end detection see them).
    pub fn prepare(&mut self, cdfg: &Cdfg) {
        let slices = cdfg.slices();
        let slots = slices.slot_count();
        self.slots = slots;
        self.reaches_output.resize_cleared(slots);
        self.cone.resize_cleared(slots);
        self.needed.resize_cleared(slots);
        self.scratch.resize_cleared(slots);
        self.stack.clear();
        for &o in cdfg.outputs() {
            if self.reaches_output.insert(o.index()) {
                self.stack.push(o);
            }
        }
        while let Some(n) = self.stack.pop() {
            for &p in slices.data_preds(n) {
                if self.reaches_output.insert(p.index()) {
                    self.stack.push(p);
                }
            }
        }
    }

    /// `node` plus every ancestor of `node` via data *and* control edges, as
    /// a borrowed bitset.  This is the selection loop's mutation-free cycle
    /// check: a control edge `select_driver -> top` would close a cycle iff
    /// `top` is an ancestor of the select driver.
    ///
    /// # Panics
    ///
    /// Panics if the workspace was not prepared for a graph of this size.
    pub fn ancestors_of(&mut self, cdfg: &Cdfg, node: NodeId) -> &DenseBitSet {
        let slices = cdfg.slices();
        self.assert_prepared(slices);
        self.scratch.clear();
        self.stack.clear();
        self.scratch.insert(node.index());
        self.stack.push(node);
        while let Some(n) = self.stack.pop() {
            for &p in slices.preds(n) {
                if self.scratch.insert(p.index()) {
                    self.stack.push(p);
                }
            }
        }
        &self.scratch
    }

    fn assert_prepared(&self, slices: &Slices) {
        assert_eq!(
            self.slots,
            slices.slot_count(),
            "ConeWorkspace::prepare was not called for this graph"
        );
    }

    /// BFS over data predecessors from `driver`, filling `cone` /
    /// `cone_nodes` with the driver and its transitive data fanin.
    fn collect_port_cone(&mut self, slices: &Slices, driver: NodeId) {
        self.cone.clear();
        self.cone_nodes.clear();
        self.stack.clear();
        self.cone.insert(driver.index());
        self.cone_nodes.push(driver);
        self.stack.push(driver);
        while let Some(n) = self.stack.pop() {
            for &p in slices.data_preds(n) {
                if self.cone.insert(p.index()) {
                    self.cone_nodes.push(p);
                    self.stack.push(p);
                }
            }
        }
    }

    /// Computes the shut-down-eligible subset of the collected cone for one
    /// branch: one reverse-topological sweep over the cone members.
    ///
    /// A member is "needed" — and therefore not eligible — iff it is a
    /// functional dead end (it must execute unconditionally) or any of its
    /// successors observes it besides the branch input under consideration:
    /// the multiplexor itself through another port, any node outside the
    /// cone, or a cone member that is itself needed.  Every node outside the
    /// cone is always needed (it either reaches an output without the branch
    /// edge or is a dead end), so the sweep never has to leave the cone —
    /// this is what replaces the original whole-graph reverse reachability
    /// per branch.
    fn shutdown_set(
        &mut self,
        cdfg: &Cdfg,
        slices: &Slices,
        mux: NodeId,
        driver: NodeId,
        port: u16,
    ) -> BTreeSet<NodeId> {
        self.branch_nodes.clear();
        self.branch_nodes.extend_from_slice(&self.cone_nodes);
        self.branch_nodes.sort_unstable_by_key(|&n| std::cmp::Reverse(slices.topo_pos(n)));
        self.needed.clear();
        let mut out = BTreeSet::new();
        for i in 0..self.branch_nodes.len() {
            let n = self.branch_nodes[i];
            let functional = slices.is_functional(n);
            // Functional dead ends still execute, so their inputs must stay
            // available; structural members (inputs, constants) are never
            // observation points on their own.
            let mut needed = functional && !self.reaches_output.contains(n.index());
            if !needed {
                for &s in slices.succs(n) {
                    let needed_via_s = if s == mux {
                        // Value flowing into the mux through `port` does not
                        // make its producer needed — unless the producer
                        // also feeds another port of the same mux.
                        n != driver || feeds_other_port(cdfg, mux, port, n)
                    } else {
                        // Successors processed earlier in the reverse sweep;
                        // everything outside the cone is always needed.
                        !self.cone.contains(s.index()) || self.needed.contains(s.index())
                    };
                    if needed_via_s {
                        needed = true;
                        break;
                    }
                }
            }
            if needed {
                self.needed.insert(n.index());
            } else if functional {
                out.insert(n);
            }
        }
        out
    }
}

/// Does `n` drive an input port of `mux` other than `port`?
fn feeds_other_port(cdfg: &Cdfg, mux: NodeId, port: u16, n: NodeId) -> bool {
    (0..3u16).filter(|&p| p != port).any(|p| cdfg.operand(mux, p) == Some(n))
}

/// The cone structure of one multiplexor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxCones {
    /// The multiplexor node.
    pub mux: NodeId,
    /// Driver of the select (control) input.  This is the "last node in the
    /// control input fanin": once it has executed, the branch decision is
    /// known.
    pub select_driver: NodeId,
    /// `true` when the select driver is a functional operation (a comparison
    /// computed at run time); `false` when the select comes straight from a
    /// primary input or constant, in which case the decision is available
    /// from step 1 and no control edge is needed.
    pub select_driver_is_functional: bool,
    /// Functional operations of the 0-input's fanin cone (its driver
    /// included) that may be shut down when the select is 1: their only
    /// use is the discarded 0-branch value.
    pub shutdown_false: BTreeSet<NodeId>,
    /// Functional operations of the 1-input's fanin cone that may be shut
    /// down when the select is 0.
    pub shutdown_true: BTreeSet<NodeId>,
}

impl MuxCones {
    /// Analyses one multiplexor of `cdfg`.
    ///
    /// Convenience wrapper that prepares a fresh [`ConeWorkspace`]; callers
    /// analysing many multiplexors of the same graph should prepare one
    /// workspace and use [`MuxCones::analyze_with`].
    ///
    /// # Panics
    ///
    /// Panics if `mux` is not a multiplexor node of a structurally valid
    /// CDFG (every mux input driven).
    pub fn analyze(cdfg: &Cdfg, mux: NodeId) -> Self {
        let mut ws = ConeWorkspace::new();
        ws.prepare(cdfg);
        MuxCones::analyze_with(cdfg, mux, &mut ws)
    }

    /// Analyses one multiplexor against a prepared workspace.
    ///
    /// # Panics
    ///
    /// Panics if `mux` is not a multiplexor node of a structurally valid
    /// CDFG, or if `ws` was not [prepared](ConeWorkspace::prepare) for this
    /// graph.
    pub fn analyze_with(cdfg: &Cdfg, mux: NodeId, ws: &mut ConeWorkspace) -> Self {
        assert!(
            cdfg.node(mux).map(|d| d.op.is_mux()).unwrap_or(false),
            "MuxCones::analyze called on a non-mux node"
        );
        let slices = cdfg.slices();
        ws.assert_prepared(slices);
        let select_driver = cdfg.operand(mux, MUX_SELECT_PORT).expect("mux select driven");
        let false_driver = cdfg.operand(mux, MUX_FALSE_PORT).expect("mux 0-input driven");
        let true_driver = cdfg.operand(mux, MUX_TRUE_PORT).expect("mux 1-input driven");

        let select_driver_is_functional =
            cdfg.node(select_driver).map(|d| d.op.is_functional()).unwrap_or(false);

        ws.collect_port_cone(slices, false_driver);
        let shutdown_false = ws.shutdown_set(cdfg, slices, mux, false_driver, MUX_FALSE_PORT);

        ws.collect_port_cone(slices, true_driver);
        let shutdown_true = ws.shutdown_set(cdfg, slices, mux, true_driver, MUX_TRUE_PORT);

        MuxCones { mux, select_driver, select_driver_is_functional, shutdown_false, shutdown_true }
    }

    /// Analyses every multiplexor of the design through one shared
    /// workspace.
    pub fn analyze_all(cdfg: &Cdfg) -> Vec<MuxCones> {
        let mut ws = ConeWorkspace::new();
        ws.prepare(cdfg);
        cdfg.mux_nodes().into_iter().map(|m| MuxCones::analyze_with(cdfg, m, &mut ws)).collect()
    }

    /// Returns `true` when at least one operation can be shut down through
    /// this multiplexor, i.e. power management is worth attempting.
    pub fn has_shutdown_candidates(&self) -> bool {
        !self.shutdown_false.is_empty() || !self.shutdown_true.is_empty()
    }

    /// Nodes of a shut-down set with no predecessor inside the same set —
    /// the "top nodes in the 0 and 1 fanin" that receive the new control
    /// edges in step 10 of the paper's algorithm.
    pub fn top_nodes(&self, cdfg: &Cdfg, set: &BTreeSet<NodeId>) -> Vec<NodeId> {
        set.iter().copied().filter(|&n| cdfg.preds(n).iter().all(|p| !set.contains(p))).collect()
    }

    /// Number of operations (across both branches) that can be shut down.
    pub fn shutdown_candidate_count(&self) -> usize {
        self.shutdown_false.len() + self.shutdown_true.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::{cone, Op};

    /// The functional members of `mux`'s fanin cone through `port`.
    fn port_cone(g: &Cdfg, mux: NodeId, port: u16) -> BTreeSet<NodeId> {
        cone::functional_only(g, &cone::port_fanin(g, mux, port))
    }

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
    fn abs_diff_cones() {
        let (g, gt, amb, bma, m) = abs_diff();
        let cones = MuxCones::analyze(&g, m);
        assert_eq!(cones.select_driver, gt);
        assert!(cones.select_driver_is_functional);
        assert_eq!(port_cone(&g, m, MUX_SELECT_PORT), [gt].into_iter().collect());
        assert_eq!(port_cone(&g, m, MUX_FALSE_PORT), [bma].into_iter().collect());
        assert_eq!(port_cone(&g, m, MUX_TRUE_PORT), [amb].into_iter().collect());
        // Both subtractions are exclusively used by their own branch, so both
        // can be shut down.
        assert_eq!(cones.shutdown_false, [bma].into_iter().collect());
        assert_eq!(cones.shutdown_true, [amb].into_iter().collect());
        assert!(cones.has_shutdown_candidates());
        assert_eq!(cones.shutdown_candidate_count(), 2);
        assert_eq!(cones.top_nodes(&g, &cones.shutdown_false), vec![bma]);
    }

    #[test]
    fn shared_operation_is_not_shut_down() {
        // out = (a > b) ? (a + b) : ((a + b) - b) — the addition feeds both
        // branches so it must always execute.
        let mut g = Cdfg::new("shared");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let cmp = g.add_op(Op::Gt, &[a, b]).unwrap();
        let sum = g.add_op(Op::Add, &[a, b]).unwrap();
        let diff = g.add_op(Op::Sub, &[sum, b]).unwrap();
        let m = g.add_mux(cmp, diff, sum).unwrap();
        g.add_output("o", m).unwrap();

        let cones = MuxCones::analyze(&g, m);
        assert!(port_cone(&g, m, MUX_FALSE_PORT).contains(&sum));
        assert!(port_cone(&g, m, MUX_TRUE_PORT).contains(&sum));
        assert!(!cones.shutdown_false.contains(&sum), "shared op stays on");
        assert!(!cones.shutdown_true.contains(&sum), "shared op stays on");
        // The subtraction is exclusive to the false branch.
        assert_eq!(cones.shutdown_false, [diff].into_iter().collect());
        assert!(cones.shutdown_true.is_empty());
    }

    #[test]
    fn fanout_past_the_mux_is_not_shut_down() {
        // The false-branch value also drives a second primary output, so it
        // is needed no matter what the select says.
        let mut g = Cdfg::new("fanout");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let cmp = g.add_op(Op::Gt, &[a, b]).unwrap();
        let diff = g.add_op(Op::Sub, &[a, b]).unwrap();
        let sum = g.add_op(Op::Add, &[a, b]).unwrap();
        let m = g.add_mux(cmp, diff, sum).unwrap();
        g.add_output("o", m).unwrap();
        g.add_output("also_diff", diff).unwrap();

        let cones = MuxCones::analyze(&g, m);
        assert!(port_cone(&g, m, MUX_FALSE_PORT).contains(&diff));
        assert!(!cones.shutdown_false.contains(&diff), "value escapes through another output");
        assert_eq!(cones.shutdown_true, [sum].into_iter().collect());
    }

    #[test]
    fn select_from_primary_input_is_not_functional() {
        let mut g = Cdfg::new("ext_sel");
        let sel = g.add_input("sel");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let sum = g.add_op(Op::Add, &[a, b]).unwrap();
        let diff = g.add_op(Op::Sub, &[a, b]).unwrap();
        let m = g.add_mux(sel, sum, diff).unwrap();
        g.add_output("o", m).unwrap();

        let cones = MuxCones::analyze(&g, m);
        assert_eq!(cones.select_driver, sel);
        assert!(!cones.select_driver_is_functional);
        assert!(port_cone(&g, m, MUX_SELECT_PORT).is_empty());
        assert_eq!(cones.shutdown_false, [sum].into_iter().collect());
        assert_eq!(cones.shutdown_true, [diff].into_iter().collect());
    }

    #[test]
    fn nested_muxes_report_nested_cones() {
        // out = c1 ? (c2 ? x*y : x+y) : x-y
        let mut g = Cdfg::new("nested");
        let x = g.add_input("x");
        let y = g.add_input("y");
        let c1 = g.add_op(Op::Gt, &[x, y]).unwrap();
        let c2 = g.add_op(Op::Lt, &[x, y]).unwrap();
        let prod = g.add_op(Op::Mul, &[x, y]).unwrap();
        let sum = g.add_op(Op::Add, &[x, y]).unwrap();
        let inner = g.add_mux(c2, sum, prod).unwrap();
        let diff = g.add_op(Op::Sub, &[x, y]).unwrap();
        let outer = g.add_mux(c1, diff, inner).unwrap();
        g.add_output("o", outer).unwrap();

        let all = MuxCones::analyze_all(&g);
        assert_eq!(all.len(), 2);
        let outer_cones = all.iter().find(|c| c.mux == outer).unwrap();
        let inner_cones = all.iter().find(|c| c.mux == inner).unwrap();
        // The whole inner computation (mux, comparison, mul, add) is
        // exclusive to the outer true branch.
        assert!(outer_cones.shutdown_true.contains(&inner));
        assert!(outer_cones.shutdown_true.contains(&c2));
        assert!(outer_cones.shutdown_true.contains(&prod));
        assert!(outer_cones.shutdown_true.contains(&sum));
        assert_eq!(outer_cones.shutdown_false, [diff].into_iter().collect());
        // The inner mux shuts down exactly one of mul/add per branch.
        assert_eq!(inner_cones.shutdown_false, [sum].into_iter().collect());
        assert_eq!(inner_cones.shutdown_true, [prod].into_iter().collect());
    }

    #[test]
    fn values_read_by_dead_code_are_not_shut_down() {
        // `diff` feeds the mux's 1-input *and* a comparison whose result is
        // never used (dead code).  The dead comparison still executes, so
        // `diff` must not be shut down even though no primary output depends
        // on it outside the mux branch.
        let mut g = Cdfg::new("dead");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let cmp = g.add_op(Op::Gt, &[a, b]).unwrap();
        let diff = g.add_op(Op::Sub, &[a, b]).unwrap();
        let sum = g.add_op(Op::Add, &[a, b]).unwrap();
        let _dead = g.add_op(Op::Lt, &[diff, a]).unwrap();
        let m = g.add_mux(cmp, sum, diff).unwrap();
        g.add_output("o", m).unwrap();

        let cones = MuxCones::analyze(&g, m);
        assert!(!cones.shutdown_true.contains(&diff), "dead reader keeps diff alive");
        assert_eq!(cones.shutdown_false, [sum].into_iter().collect());
    }

    #[test]
    #[should_panic(expected = "non-mux")]
    fn analyze_rejects_non_mux_nodes() {
        let (g, gt, ..) = abs_diff();
        let _ = MuxCones::analyze(&g, gt);
    }

    #[test]
    #[should_panic(expected = "prepare was not called")]
    fn analyze_with_rejects_unprepared_workspace() {
        let (g, _, _, _, m) = abs_diff();
        let mut ws = ConeWorkspace::new();
        let _ = MuxCones::analyze_with(&g, m, &mut ws);
    }

    /// Builds a three-mux circuit with dead code hanging off shared and
    /// branch-exclusive values:
    ///
    /// ```text
    /// m1 = (a > b) ? (a - b) : (a + b)
    /// m2 = (a < b) ? (m1 * b) : m1
    /// m3 = (a > b) ? (b - a) : m2
    /// dead  = Lt(a - b, a)        (reads the m1 true-branch value)
    /// dead2 = Neg(dead)           (second-level dead code)
    /// ```
    fn three_mux_with_dead_code() -> (Cdfg, [NodeId; 3]) {
        let mut g = Cdfg::new("three_mux_dead");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c1 = g.add_op(Op::Gt, &[a, b]).unwrap();
        let c2 = g.add_op(Op::Lt, &[a, b]).unwrap();
        let diff = g.add_op(Op::Sub, &[a, b]).unwrap();
        let sum = g.add_op(Op::Add, &[a, b]).unwrap();
        let m1 = g.add_mux(c1, sum, diff).unwrap();
        let prod = g.add_op(Op::Mul, &[m1, b]).unwrap();
        let m2 = g.add_mux(c2, m1, prod).unwrap();
        let bma = g.add_op(Op::Sub, &[b, a]).unwrap();
        let m3 = g.add_mux(c1, m2, bma).unwrap();
        g.add_output("o", m3).unwrap();
        // Dead code: reads the m1 true-branch value, result never used.
        let dead = g.add_op(Op::Lt, &[diff, a]).unwrap();
        let _dead2 = g.add_op(Op::Neg, &[dead]).unwrap();
        (g, [m1, m2, m3])
    }

    #[test]
    fn dead_code_on_three_mux_circuit_matches_naive_reference() {
        // The satellite regression for the O(n²) dead-end fix: the one-sweep
        // shutdown sets must equal the original whole-graph traversal on a
        // circuit where dead code keeps branch values alive.
        let (g, muxes) = three_mux_with_dead_code();
        g.validate().unwrap();
        for mux in muxes {
            let fast = MuxCones::analyze(&g, mux);
            let slow = crate::naive::analyze(&g, mux);
            assert_eq!(fast, slow, "cones diverged on mux {mux}");
        }
        // Spot-check the semantics, not just the identity: `diff` is read by
        // the dead comparison, so m1's true branch must keep it alive...
        let m1 = MuxCones::analyze(&g, muxes[0]);
        assert!(!m1.shutdown_true.iter().any(|n| g.node(*n).unwrap().op == Op::Sub));
        assert!(!m1.shutdown_false.is_empty(), "the addition is still eligible");
        // ...and the dead operations themselves are needed (they execute
        // unconditionally), so they never appear in any shutdown set.
        let m2 = MuxCones::analyze(&g, muxes[1]);
        for n in m2.shutdown_true.iter().chain(&m2.shutdown_false) {
            assert!(
                cdfg::cone::distance_to_output(&g, *n).is_some(),
                "dead-end op {n} must not be shut down"
            );
        }
    }

    #[test]
    fn one_prepared_workspace_serves_every_mux() {
        let (g, muxes) = three_mux_with_dead_code();
        let mut ws = ConeWorkspace::new();
        ws.prepare(&g);
        for mux in muxes {
            assert_eq!(
                MuxCones::analyze_with(&g, mux, &mut ws),
                MuxCones::analyze(&g, mux),
                "workspace reuse changed the analysis of {mux}"
            );
        }
        // Reuse across graphs after re-preparation.
        let (g2, _, _, _, m) = abs_diff();
        ws.prepare(&g2);
        assert_eq!(MuxCones::analyze_with(&g2, m, &mut ws), MuxCones::analyze(&g2, m));
    }

    #[test]
    fn ancestors_of_matches_reachability() {
        let (mut g, gt, amb, bma, m) = abs_diff();
        g.add_control_edge(gt, bma).unwrap();
        let mut ws = ConeWorkspace::new();
        ws.prepare(&g);
        let anc = ws.ancestors_of(&g, bma);
        assert!(anc.contains(bma.index()), "a node is its own ancestor here");
        assert!(anc.contains(gt.index()), "control edges count as ancestry");
        assert!(!anc.contains(m.index()));
        assert!(!anc.contains(amb.index()));
        let anc = ws.ancestors_of(&g, m);
        for n in [gt, amb, bma, m] {
            assert!(anc.contains(n.index()), "{n} is an ancestor of the mux");
        }
    }
}
