//! Controller (finite state machine) generation.
//!
//! The controller has one state per control step.  In each state it asserts
//! the execute/load-enable signals of the operations scheduled in that step.
//! For a power-managed design, the enable of an operation inside a shut-down
//! cone is *conditional*: it is only asserted when the condition value,
//! computed in an earlier step and held in a register, selects that
//! operation's branch.  This is exactly the mechanism by which the idle
//! execution unit sees no new operand values and therefore dissipates no
//! switching power.

use std::collections::BTreeMap;
use std::fmt;

use cdfg::NodeId;
use pmsched::PowerManagementResult;

/// One gating term: the operation may only execute when the recorded value
/// of `condition` matches `active_when_one`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateCondition {
    /// The multiplexor whose branch decision gates the operation.
    pub mux: NodeId,
    /// The node computing the condition (the mux's select driver).  For
    /// selects driven by primary inputs this is the input node itself.
    pub condition: NodeId,
    /// `true` if the operation executes when the condition evaluates to a
    /// non-zero value (it feeds the 1-input of the mux), `false` if it
    /// executes when the condition is zero.
    pub active_when_one: bool,
}

/// The enable of one operation in its control step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationEnable {
    /// The operation.
    pub node: NodeId,
    /// The control step (state) in which it executes.
    pub step: u32,
    /// Conjunctive gating terms; empty means the operation always executes
    /// in its step (no power management for it).
    pub conditions: Vec<GateCondition>,
}

impl OperationEnable {
    /// Whether this enable is gated at all.
    pub fn is_gated(&self) -> bool {
        !self.conditions.is_empty()
    }
}

/// The generated controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Controller {
    num_steps: u32,
    enables: BTreeMap<NodeId, OperationEnable>,
}

impl Controller {
    /// Generates the controller for a power-management scheduling result.
    ///
    /// Every functional operation of the design gets an [`OperationEnable`];
    /// operations inside an accepted shut-down cone whose condition is
    /// available in an earlier step get gating terms.
    pub fn generate(result: &PowerManagementResult) -> Self {
        let cdfg = result.cdfg();
        let schedule = result.schedule();
        let mut enables: BTreeMap<NodeId, OperationEnable> = BTreeMap::new();

        for &node in cdfg.slices().functional() {
            let step = schedule.step_of(node).unwrap_or(0);
            enables.insert(node, OperationEnable { node, step, conditions: Vec::new() });
        }

        for mm in result.managed_muxes() {
            let condition_step = if mm.select_functional {
                schedule.step_of(mm.select_driver).unwrap_or(u32::MAX)
            } else {
                0
            };
            for (set, active_when_one) in [(&mm.shutdown_true, true), (&mm.shutdown_false, false)] {
                for &node in set {
                    let Some(node_step) = schedule.step_of(node) else { continue };
                    if condition_step < node_step {
                        if let Some(enable) = enables.get_mut(&node) {
                            enable.conditions.push(GateCondition {
                                mux: mm.mux,
                                condition: mm.select_driver,
                                active_when_one,
                            });
                        }
                    }
                }
            }
        }

        Controller { num_steps: schedule.num_steps(), enables }
    }

    /// Generates a traditional (ungated) controller for an arbitrary
    /// schedule: every operation simply executes in its control step.  This
    /// is the controller of the paper's baseline ("Orig") designs in
    /// Table III.
    pub fn ungated(cdfg: &cdfg::Cdfg, schedule: &sched::Schedule) -> Self {
        let mut enables: BTreeMap<NodeId, OperationEnable> = BTreeMap::new();
        for &node in cdfg.slices().functional() {
            let step = schedule.step_of(node).unwrap_or(0);
            enables.insert(node, OperationEnable { node, step, conditions: Vec::new() });
        }
        Controller { num_steps: schedule.num_steps(), enables }
    }

    /// Number of controller states (= control steps).
    pub fn num_steps(&self) -> u32 {
        self.num_steps
    }

    /// The enable record of `node`, if it is a functional operation.
    pub fn enable(&self, node: NodeId) -> Option<&OperationEnable> {
        self.enables.get(&node)
    }

    /// All enables, ordered by node id.
    pub fn enables(&self) -> impl Iterator<Item = &OperationEnable> + '_ {
        self.enables.values()
    }

    /// Enables asserted (possibly conditionally) in `step`.
    pub fn enables_in_step(&self, step: u32) -> Vec<&OperationEnable> {
        self.enables.values().filter(|e| e.step == step).collect()
    }

    /// Number of gated enables — a measure of the extra controller
    /// complexity the paper mentions ("the controller is somewhat more
    /// complex").
    pub fn gated_enable_count(&self) -> usize {
        self.enables.values().filter(|e| e.is_gated()).count()
    }

    /// Total number of gating terms across all enables.
    pub fn gating_term_count(&self) -> usize {
        self.enables.values().map(|e| e.conditions.len()).sum()
    }

    /// Distinct condition nodes the controller must store and route —
    /// each needs a 1-bit status register inside the controller.
    pub fn condition_signals(&self) -> Vec<NodeId> {
        let mut signals: Vec<NodeId> =
            self.enables.values().flat_map(|e| e.conditions.iter().map(|c| c.condition)).collect();
        signals.sort();
        signals.dedup();
        signals
    }
}

impl fmt::Display for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "controller with {} states, {} enables ({} gated)",
            self.num_steps,
            self.enables.len(),
            self.gated_enable_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::{Cdfg, Op};
    use pmsched::{power_manage, PowerManagementOptions};

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
    fn managed_design_has_gated_enables() {
        let (g, gt, amb, bma, m) = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        let ctrl = Controller::generate(&result);
        assert_eq!(ctrl.num_steps(), 3);
        assert_eq!(ctrl.gated_enable_count(), 2);
        assert_eq!(ctrl.condition_signals(), vec![gt]);

        let amb_enable = ctrl.enable(amb).unwrap();
        assert!(amb_enable.is_gated());
        assert!(amb_enable.conditions[0].active_when_one, "a-b runs when a>b");
        let bma_enable = ctrl.enable(bma).unwrap();
        assert!(!bma_enable.conditions[0].active_when_one, "b-a runs when a<=b");
        assert!(!ctrl.enable(m).unwrap().is_gated(), "the mux itself always runs");
        assert!(!ctrl.enable(gt).unwrap().is_gated());
    }

    #[test]
    fn unmanaged_design_has_no_gating() {
        let (g, ..) = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(2)).unwrap();
        let ctrl = Controller::generate(&result);
        assert_eq!(ctrl.gated_enable_count(), 0);
        assert_eq!(ctrl.gating_term_count(), 0);
        assert!(ctrl.condition_signals().is_empty());
        assert!(ctrl.to_string().contains("0 gated"));
    }

    #[test]
    fn enables_per_step_cover_the_schedule() {
        let (g, ..) = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        let ctrl = Controller::generate(&result);
        let total: usize = (1..=3).map(|s| ctrl.enables_in_step(s).len()).sum();
        assert_eq!(total, g.slices().functional().len());
    }
}
