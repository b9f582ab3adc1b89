//! Activation analysis: which operations execute, with what probability,
//! under a power-managed schedule.
//!
//! The paper's Table II reports "the average number of times that each of
//! the operations is executed in one computation", assuming "each
//! multiplexor has equal probability of selecting any of its inputs".  This
//! module computes exactly that quantity, but against the *final* schedule:
//! an operation in a shut-down cone is only gated if its controlling
//! condition is computed in a strictly earlier control step (otherwise the
//! controller cannot know whether to disable the input registers — the
//! single-subtractor discussion at the end of Section II-B).
//!
//! An [`Activation`] is stored by node index, so a probability lookup is
//! one array read and a build is one pass over the node slots plus a sort
//! of the gatings.  Scoring one explored point builds three of them
//! (the DVS weights, the voltage estimate and the managed-mux count); the
//! results multiply gating factors in managed-mux order and sum classes
//! in ascending node order, so every figure is bit-identical to the
//! original map-based analysis (`crates/gen/tests/scoring_identity.rs`
//! keeps that implementation as its oracle).

use std::collections::BTreeMap;

use cdfg::{Cdfg, NodeId, OpClass};
use sched::Schedule;

use crate::report::ManagedMux;

/// Per-multiplexor probability that the select input evaluates to 1.
///
/// Unlisted multiplexors use the fair default of 0.5, matching the paper's
/// equal-probability assumption.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectProbabilities {
    probabilities: BTreeMap<NodeId, f64>,
}

impl SelectProbabilities {
    /// Fair probabilities (0.5 everywhere).
    pub fn fair() -> Self {
        SelectProbabilities::default()
    }

    /// Builds probabilities from `(mux, p_select_is_one)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    pub fn from_pairs<I: IntoIterator<Item = (NodeId, f64)>>(pairs: I) -> Self {
        let probabilities: BTreeMap<NodeId, f64> = pairs.into_iter().collect();
        for (&mux, &p) in &probabilities {
            assert!(
                (0.0..=1.0).contains(&p),
                "probability for {mux} must be within [0, 1], got {p}"
            );
        }
        SelectProbabilities { probabilities }
    }

    /// Sets the probability that `mux`'s select evaluates to 1.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set(&mut self, mux: NodeId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability must be within [0, 1], got {p}");
        self.probabilities.insert(mux, p);
    }

    /// Probability that `mux` selects its 1-input (0.5 by default).
    pub fn select_one(&self, mux: NodeId) -> f64 {
        self.probabilities.get(&mux).copied().unwrap_or(0.5)
    }

    /// Probability that `mux` selects its 0-input.
    pub fn select_zero(&self, mux: NodeId) -> f64 {
        1.0 - self.select_one(mux)
    }
}

/// The result of activation analysis: an execution probability per
/// functional node.
///
/// The probabilities and classes are arrays indexed by [`NodeId::index`]:
/// a probability per node slot (1.0 for every node no multiplexor gates,
/// structural nodes included) and a class per slot ([`OpClass::Structural`]
/// marks the slots that are not functional).  The gatings are two parallel
/// arrays sorted by node: `gating[i]` gates `gated[i]`, and each node's
/// multiplexors keep the order they gated it in.
#[derive(Debug, Clone, PartialEq)]
pub struct Activation {
    probabilities: Vec<f64>,
    classes: Vec<OpClass>,
    gated: Vec<NodeId>,
    gating: Vec<NodeId>,
}

impl Activation {
    /// Computes activation probabilities for every functional node of `cdfg`
    /// under `schedule`, considering the shut-down opportunities described by
    /// `managed` and the branch probabilities `probs`.
    ///
    /// An operation `n` in the shut-down set of multiplexor `m` contributes a
    /// factor of `P(branch of n is taken)` — but only if the select of `m` is
    /// known before `n` executes: either the select comes straight from a
    /// primary input, or its driver is scheduled in a strictly earlier
    /// control step than `n`.  The factors multiply in `managed` order.
    pub fn compute(
        cdfg: &Cdfg,
        schedule: &Schedule,
        managed: &[ManagedMux],
        probs: &SelectProbabilities,
    ) -> Self {
        let slices = cdfg.slices();
        let slots = slices.slot_count();
        let mut probabilities = vec![1.0; slots];
        let mut classes = vec![OpClass::Structural; slots];
        for &node in slices.functional() {
            classes[node.index()] = cdfg.op(node).class();
        }

        // `(node, mux)` for every gating, in managed-mux order.
        let mut gated: Vec<(NodeId, NodeId)> = Vec::new();
        for mm in managed {
            let condition_step = if mm.select_functional {
                // A functional select driver must be in the schedule; the
                // `u32::MAX` fallback keeps release builds safe (the mux is
                // simply treated as never-gating), but an absent driver means
                // the ManagedMux list and the schedule disagree about which
                // graph they describe — catch that instead of silently
                // reporting zero savings for the mux.
                debug_assert!(
                    schedule.step_of(mm.select_driver).is_some(),
                    "select driver {} of managed mux {} is missing from the schedule",
                    mm.select_driver,
                    mm.mux
                );
                schedule.step_of(mm.select_driver).unwrap_or(u32::MAX)
            } else {
                0
            };
            let p_one = probs.select_one(mm.mux);
            for (set, p_exec) in [(&mm.shutdown_true, p_one), (&mm.shutdown_false, 1.0 - p_one)] {
                for &node in set {
                    let node_step = match schedule.step_of(node) {
                        Some(step) => step,
                        None => continue,
                    };
                    if condition_step < node_step {
                        if slices.is_functional(node) {
                            probabilities[node.index()] *= p_exec;
                        }
                        gated.push((node, mm.mux));
                    }
                }
            }
        }

        // The sort is stable, so each node keeps its gating order.
        gated.sort_by_key(|&(node, _)| node);
        let (gated, gating) = gated.into_iter().unzip();
        Activation { probabilities, classes, gated, gating }
    }

    /// Execution probability of `node` (1.0 for nodes that always run).
    pub fn probability(&self, node: NodeId) -> f64 {
        self.probabilities.get(node.index()).copied().unwrap_or(1.0)
    }

    /// Nodes whose execution probability is strictly below 1 — the
    /// operations the controller actually shuts down for some samples.
    pub fn gated_nodes(&self) -> Vec<NodeId> {
        self.iter().filter(|&(_, p)| p < 1.0).map(|(n, _)| n).collect()
    }

    /// The multiplexors gating `node` (empty for always-on operations).
    pub fn gating_muxes(&self, node: NodeId) -> &[NodeId] {
        let start = self.gated.partition_point(|&n| n < node);
        let end = self.gated.partition_point(|&n| n <= node);
        &self.gating[start..end]
    }

    /// Multiplexors that gate at least one operation — the number the paper
    /// reports in the "P.Man. Muxs" column of Table II.
    pub fn effective_muxes(&self) -> Vec<NodeId> {
        let mut muxes = self.gating.clone();
        muxes.sort();
        muxes.dedup();
        muxes
    }

    /// Expected number of executions per operation class in one computation
    /// (the "Number of Operations" columns of Table II), each class summed
    /// in ascending node order.
    pub fn expected_counts(&self) -> BTreeMap<OpClass, f64> {
        let mut totals: [Option<f64>; OpClass::FUNCTIONAL.len()] = Default::default();
        for (class, &p) in self.classes.iter().zip(&self.probabilities) {
            if *class != OpClass::Structural {
                *totals[class.dense_index()].get_or_insert(0.0) += p;
            }
        }
        OpClass::FUNCTIONAL.into_iter().zip(totals).filter_map(|(c, t)| Some((c, t?))).collect()
    }

    /// Iterates over `(node, probability)` pairs of the functional nodes,
    /// in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.classes
            .iter()
            .zip(&self.probabilities)
            .enumerate()
            .filter(|(_, (class, _))| **class != OpClass::Structural)
            .map(|(i, (_, &p))| (NodeId::new(i as u32), p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{power_manage, PowerManagementOptions};
    use cdfg::Op;

    fn abs_diff() -> Cdfg {
        let mut g = Cdfg::new("abs_diff");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let gt = g.add_op(Op::Gt, &[a, b]).unwrap();
        let amb = g.add_op(Op::Sub, &[a, b]).unwrap();
        let bma = g.add_op(Op::Sub, &[b, a]).unwrap();
        let m = g.add_mux(gt, bma, amb).unwrap();
        g.add_output("abs", m).unwrap();
        g
    }

    #[test]
    fn fair_probabilities_default_to_half() {
        let probs = SelectProbabilities::fair();
        assert_eq!(probs.select_one(NodeId::new(3)), 0.5);
        assert_eq!(probs.select_zero(NodeId::new(3)), 0.5);
        let mut probs = probs;
        probs.set(NodeId::new(3), 0.75);
        assert_eq!(probs.select_one(NodeId::new(3)), 0.75);
        assert!((probs.select_zero(NodeId::new(3)) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn probabilities_outside_unit_interval_panic() {
        let mut probs = SelectProbabilities::fair();
        probs.set(NodeId::new(0), 1.5);
    }

    #[test]
    fn abs_diff_three_steps_gates_both_subtractions() {
        let g = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        let activation = result.activation(&SelectProbabilities::fair());
        let expected = activation.expected_counts();
        // Each subtraction runs with probability 0.5, so on average exactly
        // one of the two executes per sample.
        assert!((expected[&OpClass::Sub] - 1.0).abs() < 1e-9);
        assert!((expected[&OpClass::Comp] - 1.0).abs() < 1e-9);
        assert!((expected[&OpClass::Mux] - 1.0).abs() < 1e-9);
        assert_eq!(activation.gated_nodes().len(), 2);
        assert_eq!(activation.effective_muxes().len(), 1);
    }

    #[test]
    fn two_step_schedule_gates_nothing() {
        // With only two control steps (Figure 1) the comparison and both
        // subtractions share step 1, so nothing can be gated.
        let g = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(2)).unwrap();
        let activation = result.activation(&SelectProbabilities::fair());
        assert!(activation.gated_nodes().is_empty());
        let expected = activation.expected_counts();
        assert!((expected[&OpClass::Sub] - 2.0).abs() < 1e-9);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "missing from the schedule")]
    fn inconsistent_managed_mux_is_caught() {
        // Hand-build a ManagedMux whose (functional) select driver is not in
        // the schedule at all — e.g. stale analysis paired with a schedule of
        // a different graph.  The debug assertion must catch the mismatch
        // instead of silently treating the mux as never-gating.
        let g = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        let bogus_driver = NodeId::new(9_999);
        let real = &result.managed_muxes()[0];
        let broken = crate::report::ManagedMux {
            mux: real.mux,
            select_driver: bogus_driver,
            select_functional: true,
            shutdown_false: real.shutdown_false.clone(),
            shutdown_true: real.shutdown_true.clone(),
            accepted: true,
            control_edges: Vec::new(),
        };
        let _ = Activation::compute(
            result.cdfg(),
            result.schedule(),
            &[broken],
            &SelectProbabilities::fair(),
        );
    }

    #[test]
    fn skewed_probabilities_shift_expected_counts() {
        let g = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        let mux = result.cdfg().mux_nodes()[0];
        let mut probs = SelectProbabilities::fair();
        probs.set(mux, 0.9); // a > b almost always
        let activation = result.activation(&probs);
        let expected = activation.expected_counts();
        // Still exactly one subtraction on average (0.9 + 0.1), but the
        // individual probabilities are skewed.
        assert!((expected[&OpClass::Sub] - 1.0).abs() < 1e-9);
        let gated = activation.gated_nodes();
        let probs_seen: Vec<f64> = gated.iter().map(|&n| activation.probability(n)).collect();
        assert!(probs_seen.iter().any(|p| (*p - 0.9).abs() < 1e-9));
        assert!(probs_seen.iter().any(|p| (*p - 0.1).abs() < 1e-9));
    }
}
