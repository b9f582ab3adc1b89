//! ASAP / ALAP timing analysis and mobility (slack).
//!
//! These are the quantities the power-management algorithm reshapes: steps
//! 4–8 of the paper recompute ASAP values of data-cone nodes and ALAP values
//! of control-cone nodes and declare a multiplexor unmanageable when any node
//! ends up with ASAP > ALAP.
//!
//! Control steps are numbered from 1; structural nodes (inputs, constants,
//! outputs) are not scheduled and carry an ASAP of 0 and an ALAP of
//! `latency + 1` for convenience.
//!
//! # Representation
//!
//! ASAP and ALAP live in two dense `Vec<u32>` indexed by
//! [`NodeId::index`] — not in ordered maps.  The per-mux retiming loop in
//! the core algorithm recomputes timing once per multiplexor, and the
//! schedulers consult it for every node; dense arrays make each lookup one
//! bounds-checked load, and [`Timing::compute_into`] lets callers reuse the
//! two buffers across recomputations instead of reallocating.

use cdfg::{Cdfg, NodeId, Slices};

/// Reusable scratch state for [`Timing::tighten`]: the undo log that lets a
/// failed tightening restore the previous fixed point, and the relaxation
/// worklist.  Create one with `TimingDelta::default()` and reuse it across
/// calls — the buffers grow once and are then recycled.
#[derive(Debug, Clone, Default)]
pub struct TimingDelta {
    asap_log: Vec<(u32, u32)>,
    alap_log: Vec<(u32, u32)>,
    worklist: Vec<NodeId>,
}

/// ASAP and ALAP step assignments for every functional node of a CDFG under
/// a given latency (number of control steps).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timing {
    latency: u32,
    asap: Vec<u32>,
    alap: Vec<u32>,
}

impl Timing {
    /// An empty analysis holding no nodes; useful as a reusable buffer for
    /// [`Timing::compute_into`].  Querying it panics.
    pub fn empty() -> Self {
        Timing::default()
    }

    /// Computes ASAP and ALAP values for all functional nodes of `cdfg`
    /// assuming `latency` control steps are available.
    ///
    /// Both data and control (precedence) edges constrain the result.  The
    /// computation always succeeds; use [`Timing::is_feasible`] to find out
    /// whether the latency can actually be met.
    ///
    /// # Panics
    ///
    /// Panics if the CDFG is cyclic or `latency` is zero.
    pub fn compute(cdfg: &Cdfg, latency: u32) -> Self {
        let mut timing = Timing::empty();
        timing.compute_into(cdfg, latency);
        timing
    }

    /// Recomputes the analysis in place, reusing the existing buffers.
    ///
    /// Semantically identical to `*self = Timing::compute(cdfg, latency)`
    /// but allocation-free once the buffers have grown to the graph's size —
    /// the shape the core algorithm's per-multiplexor retiming loop needs.
    ///
    /// # Panics
    ///
    /// Panics if the CDFG is cyclic or `latency` is zero.
    pub fn compute_into(&mut self, cdfg: &Cdfg, latency: u32) {
        assert!(latency > 0, "latency must be at least one control step");
        let slices = cdfg.slices();
        let slots = slices.slot_count();

        self.latency = latency;
        self.asap.clear();
        self.asap.resize(slots, 0);
        self.alap.clear();
        self.alap.resize(slots, latency + 1);

        for &n in slices.topo() {
            if !slices.is_functional(n) {
                continue; // structural nodes keep ASAP 0
            }
            let mut earliest = 0;
            for &p in slices.preds(n) {
                earliest = earliest.max(self.asap[p.index()]);
            }
            self.asap[n.index()] = earliest + 1;
        }

        for &n in slices.topo().iter().rev() {
            if !slices.is_functional(n) {
                continue; // structural nodes keep ALAP latency + 1
            }
            let mut latest = latency;
            for &s in slices.succs(n) {
                if slices.is_functional(s) {
                    latest = latest.min(self.alap[s.index()].saturating_sub(1));
                }
            }
            self.alap[n.index()] = latest;
        }
    }

    /// The latency (number of control steps) this analysis was computed for.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Incrementally tightens a *feasible fixed-point* analysis with extra
    /// precedence edges that are about to be added to the graph, without
    /// recomputing from scratch.
    ///
    /// `self` must hold the result of [`Timing::compute_into`] for `cdfg` as
    /// it currently is (the edges of `extra` not yet inserted), and that
    /// state must be feasible.  Each `(before, after)` pair of `extra` must
    /// connect functional nodes and must not close a cycle — in particular no
    /// `before` may be reachable from any `after`.  Under those conditions a
    /// seeded worklist relaxation from the edge endpoints converges to
    /// exactly the values a full recomputation over the extended graph would
    /// produce: ASAP increases propagate forward from the destinations, ALAP
    /// decreases propagate backward from the sources, and no other node can
    /// change.
    ///
    /// Returns `true` when the tightened analysis is still feasible; the
    /// buffers then hold the new fixed point.  Returns `false` when some
    /// node's ASAP would exceed its ALAP; the analysis is restored to its
    /// state before the call (the relaxation stops at the first violation —
    /// violations only ever appear at nodes the new edges actually moved).
    ///
    /// `delta` is caller-provided scratch (undo log and worklist) so repeated
    /// calls are allocation-free once its buffers have grown.
    pub fn tighten(
        &mut self,
        cdfg: &Cdfg,
        extra: &[(NodeId, NodeId)],
        delta: &mut TimingDelta,
    ) -> bool {
        let slices = cdfg.slices();
        debug_assert_eq!(self.asap.len(), slices.slot_count(), "analysis matches this graph");
        delta.asap_log.clear();
        delta.alap_log.clear();
        delta.worklist.clear();

        let ok = self.raise_asap(slices, extra, delta) && self.lower_alap(slices, extra, delta);
        if !ok {
            // Replay the undo logs in reverse so a slot recorded twice ends
            // on its original value.
            for &(slot, old) in delta.asap_log.iter().rev() {
                self.asap[slot as usize] = old;
            }
            for &(slot, old) in delta.alap_log.iter().rev() {
                self.alap[slot as usize] = old;
            }
            delta.worklist.clear();
        }
        ok
    }

    /// Forward half of [`Timing::tighten`]: ASAP increases from the new edge
    /// destinations.  Returns `false` at the first node whose raised ASAP
    /// exceeds its (current) ALAP — that violation survives to the final
    /// fixed point because ASAP only rises and ALAP only falls.
    fn raise_asap(
        &mut self,
        slices: &Slices,
        extra: &[(NodeId, NodeId)],
        delta: &mut TimingDelta,
    ) -> bool {
        for &(before, after) in extra {
            let cand = self.asap[before.index()] + 1;
            if cand > self.asap[after.index()] {
                delta.asap_log.push((after.index() as u32, self.asap[after.index()]));
                self.asap[after.index()] = cand;
                if cand > self.alap[after.index()] {
                    return false;
                }
                delta.worklist.push(after);
            }
        }
        while let Some(n) = delta.worklist.pop() {
            let cand = self.asap[n.index()] + 1;
            for &s in slices.succs(n) {
                if slices.is_functional(s) && cand > self.asap[s.index()] {
                    delta.asap_log.push((s.index() as u32, self.asap[s.index()]));
                    self.asap[s.index()] = cand;
                    if cand > self.alap[s.index()] {
                        return false;
                    }
                    delta.worklist.push(s);
                }
            }
        }
        true
    }

    /// Backward half of [`Timing::tighten`]: ALAP decreases from the new
    /// edge sources.
    fn lower_alap(
        &mut self,
        slices: &Slices,
        extra: &[(NodeId, NodeId)],
        delta: &mut TimingDelta,
    ) -> bool {
        for &(before, after) in extra {
            let cand = self.alap[after.index()].saturating_sub(1);
            if cand < self.alap[before.index()] {
                delta.alap_log.push((before.index() as u32, self.alap[before.index()]));
                self.alap[before.index()] = cand;
                if self.asap[before.index()] > cand {
                    return false;
                }
                delta.worklist.push(before);
            }
        }
        while let Some(n) = delta.worklist.pop() {
            let cand = self.alap[n.index()].saturating_sub(1);
            for &p in slices.preds(n) {
                if slices.is_functional(p) && cand < self.alap[p.index()] {
                    delta.alap_log.push((p.index() as u32, self.alap[p.index()]));
                    self.alap[p.index()] = cand;
                    if self.asap[p.index()] > cand {
                        return false;
                    }
                    delta.worklist.push(p);
                }
            }
        }
        true
    }

    /// ASAP step of `node` (0 for structural nodes).
    ///
    /// # Panics
    ///
    /// Panics if `node`'s index lies outside the analysed CDFG's node
    /// range.  An id minted for a *different* graph whose index happens to
    /// be in range reads that slot's value — pass only ids from the
    /// analysed CDFG.
    pub fn asap(&self, node: NodeId) -> u32 {
        self.asap[node.index()]
    }

    /// ALAP step of `node` (`latency + 1` for structural nodes).
    ///
    /// # Panics
    ///
    /// Panics if `node`'s index lies outside the analysed CDFG's node
    /// range.  An id minted for a *different* graph whose index happens to
    /// be in range reads that slot's value — pass only ids from the
    /// analysed CDFG.
    pub fn alap(&self, node: NodeId) -> u32 {
        self.alap[node.index()]
    }

    /// Mobility (slack) of a functional node: `ALAP - ASAP`.  Zero mobility
    /// means the node is on the critical path for this latency.  Returns
    /// `None` when ASAP exceeds ALAP (infeasible node).
    pub fn mobility(&self, node: NodeId) -> Option<u32> {
        self.alap(node).checked_sub(self.asap(node))
    }

    /// Nodes whose ASAP exceeds their ALAP, i.e. nodes that cannot be
    /// scheduled within the latency.
    pub fn infeasible_nodes(&self) -> Vec<NodeId> {
        self.asap
            .iter()
            .enumerate()
            .filter(|&(i, &a)| a > 0 && a > self.alap[i])
            .map(|(i, _)| NodeId::new(i as u32))
            .collect()
    }

    /// Returns `true` when every functional node satisfies ASAP ≤ ALAP.
    pub fn is_feasible(&self) -> bool {
        self.asap.iter().enumerate().all(|(i, &a)| a == 0 || a <= self.alap[i])
    }

    /// Iterates over `(node, asap, alap)` triples for functional nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32, u32)> + '_ {
        self.asap
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a > 0)
            .map(|(i, &a)| (NodeId::new(i as u32), a, self.alap[i]))
    }

    /// The minimum latency for which this CDFG is feasible: the maximum ASAP
    /// over all functional nodes (equals the critical-path length).
    pub fn min_latency(&self) -> u32 {
        self.asap.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::Op;

    /// Figure 1 / 2 of the paper: |a - b|.
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
    fn asap_alap_with_two_steps_matches_figure_1() {
        let (g, gt, amb, bma, m) = abs_diff();
        let t = Timing::compute(&g, 2);
        // All three first-level operations are forced into step 1, the mux
        // into step 2 — the unique schedule of Figure 1.
        assert_eq!(t.asap(gt), 1);
        assert_eq!(t.alap(gt), 1);
        assert_eq!(t.asap(amb), 1);
        assert_eq!(t.alap(amb), 1);
        assert_eq!(t.asap(bma), 1);
        assert_eq!(t.alap(bma), 1);
        assert_eq!(t.asap(m), 2);
        assert_eq!(t.alap(m), 2);
        assert!(t.is_feasible());
        assert_eq!(t.mobility(gt), Some(0));
    }

    #[test]
    fn asap_alap_with_three_steps_has_slack() {
        let (g, gt, amb, bma, m) = abs_diff();
        let t = Timing::compute(&g, 3);
        assert_eq!(t.asap(gt), 1);
        assert_eq!(t.alap(gt), 2, "comparator may move to step 2");
        assert_eq!(t.mobility(amb), Some(1));
        assert_eq!(t.mobility(bma), Some(1));
        assert_eq!(t.asap(m), 2);
        assert_eq!(t.alap(m), 3);
        assert!(t.is_feasible());
        assert_eq!(t.min_latency(), 2);
    }

    #[test]
    fn control_edges_tighten_timing() {
        let (mut g, gt, amb, bma, _) = abs_diff();
        // Force both subtractions after the comparator (what the power
        // management pass does for Figure 2(b)).
        g.add_control_edge(gt, amb).unwrap();
        g.add_control_edge(gt, bma).unwrap();
        let t = Timing::compute(&g, 3);
        assert_eq!(t.asap(amb), 2);
        assert_eq!(t.asap(bma), 2);
        assert_eq!(t.alap(gt), 1, "comparator must now finish in step 1");
        assert!(t.is_feasible());

        // With only two steps the same constraints are infeasible: the chain
        // comparator -> subtraction -> mux needs three steps.
        let t2 = Timing::compute(&g, 2);
        assert!(!t2.is_feasible());
        assert!(!t2.infeasible_nodes().is_empty());
    }

    #[test]
    fn structural_nodes_are_not_scheduled() {
        let (g, ..) = abs_diff();
        let t = Timing::compute(&g, 3);
        for &input in g.inputs() {
            assert_eq!(t.asap(input), 0);
            assert_eq!(t.alap(input), 4);
        }
        let functional: Vec<NodeId> = t.iter().map(|(n, _, _)| n).collect();
        assert_eq!(functional.len(), 4);
    }

    #[test]
    #[should_panic(expected = "latency must be at least one")]
    fn zero_latency_panics() {
        let (g, ..) = abs_diff();
        let _ = Timing::compute(&g, 0);
    }

    #[test]
    fn min_latency_equals_critical_path() {
        let (g, ..) = abs_diff();
        let t = Timing::compute(&g, 10);
        assert_eq!(t.min_latency(), g.critical_path_length());
    }

    #[test]
    fn tighten_matches_full_recomputation_when_feasible() {
        let (mut g, gt, amb, bma, _) = abs_diff();
        for latency in 3..6 {
            let mut t = Timing::compute(&g, latency);
            let mut delta = TimingDelta::default();
            // The edges the power manager would tentatively add for the mux.
            let extra = [(gt, amb), (gt, bma)];
            assert!(t.tighten(&g, &extra, &mut delta), "latency {latency} stays feasible");
            let mut h = g.clone();
            h.add_control_edge(gt, amb).unwrap();
            h.add_control_edge(gt, bma).unwrap();
            assert_eq!(t, Timing::compute(&h, latency), "fixed point at latency {latency}");
        }
        // Re-tightening an already-tightened analysis (edges now physically
        // present) is a no-op that stays at the same fixed point.
        g.add_control_edge(gt, amb).unwrap();
        g.add_control_edge(gt, bma).unwrap();
        let mut t = Timing::compute(&g, 3);
        let before = t.clone();
        let mut delta = TimingDelta::default();
        assert!(t.tighten(&g, &[(gt, amb)], &mut delta));
        assert_eq!(t, before);
    }

    #[test]
    fn tighten_restores_state_on_infeasibility() {
        let (g, gt, amb, bma, _) = abs_diff();
        // Two steps cannot hold the comparator -> subtraction -> mux chain.
        let mut t = Timing::compute(&g, 2);
        assert!(t.is_feasible());
        let before = t.clone();
        let mut delta = TimingDelta::default();
        assert!(!t.tighten(&g, &[(gt, amb), (gt, bma)], &mut delta));
        assert_eq!(t, before, "failed tightening leaves the analysis untouched");
        // The same delta buffer is reusable for a successful call afterwards.
        let mut t3 = Timing::compute(&g, 3);
        assert!(t3.tighten(&g, &[(gt, amb), (gt, bma)], &mut delta));
    }

    #[test]
    fn tighten_chains_across_accepted_edges() {
        // Accepting edges one batch at a time keeps the analysis at the fixed
        // point of the growing graph: the shape of the per-mux loop.
        let mut g = Cdfg::new("chain");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c1 = g.add_op(Op::Gt, &[a, b]).unwrap();
        let c2 = g.add_op(Op::Lt, &[a, b]).unwrap();
        let s1 = g.add_op(Op::Sub, &[a, b]).unwrap();
        let s2 = g.add_op(Op::Add, &[a, b]).unwrap();
        let m1 = g.add_mux(c1, s1, s2).unwrap();
        let s3 = g.add_op(Op::Mul, &[m1, b]).unwrap();
        let m2 = g.add_mux(c2, s3, m1).unwrap();
        g.add_output("o", m2).unwrap();

        let latency = 6;
        let mut t = Timing::compute(&g, latency);
        let mut delta = TimingDelta::default();
        assert!(t.tighten(&g, &[(c1, s1), (c1, s2)], &mut delta));
        g.add_control_edge(c1, s1).unwrap();
        g.add_control_edge(c1, s2).unwrap();
        assert_eq!(t, Timing::compute(&g, latency), "fixed point after first batch");
        assert!(t.tighten(&g, &[(c2, s3)], &mut delta));
        g.add_control_edge(c2, s3).unwrap();
        assert_eq!(t, Timing::compute(&g, latency), "fixed point after second batch");
    }

    #[test]
    fn compute_into_reuses_buffers_and_matches_compute() {
        let (g, ..) = abs_diff();
        let mut reused = Timing::empty();
        for latency in 2..6 {
            reused.compute_into(&g, latency);
            assert_eq!(reused, Timing::compute(&g, latency), "latency {latency}");
        }
        // Shrinking graphs (or a different graph) must fully overwrite.
        let mut small = Cdfg::new("one_add");
        let a = small.add_input("a");
        let b = small.add_input("b");
        let s = small.add_op(Op::Add, &[a, b]).unwrap();
        small.add_output("o", s).unwrap();
        reused.compute_into(&small, 3);
        assert_eq!(reused, Timing::compute(&small, 3));
        assert_eq!(reused.iter().count(), 1);
    }
}
