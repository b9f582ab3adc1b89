//! Result types of the power-management scheduling flow.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

use cdfg::{Cdfg, EdgeId, NodeId, OpCounts};
use sched::hyper::{self, HyperOptions};
use sched::{ResourceSet, Schedule};

use crate::activation::{Activation, SelectProbabilities};
use crate::savings::{OpWeights, SavingsReport};

/// One multiplexor considered for power management, together with the
/// operations it can shut down and the precedence edges that were added for
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManagedMux {
    /// The multiplexor node.
    pub mux: NodeId,
    /// The "last node in the control input fanin": the driver of the select
    /// input.
    pub select_driver: NodeId,
    /// Whether the select driver is a functional operation (computed at run
    /// time) or a primary input/constant (known from step 1).
    pub select_functional: bool,
    /// Operations that may be shut down when the select evaluates to 1
    /// (their value is only consumed by the 0-branch).
    pub shutdown_false: BTreeSet<NodeId>,
    /// Operations that may be shut down when the select evaluates to 0.
    pub shutdown_true: BTreeSet<NodeId>,
    /// Whether the selection loop accepted this multiplexor (the throughput
    /// still had enough slack for the control edges).
    pub accepted: bool,
    /// The control edges inserted for this multiplexor (empty when the
    /// select comes straight from a primary input, or when the multiplexor
    /// was rejected or later relaxed to meet a resource constraint).
    pub control_edges: Vec<EdgeId>,
}

impl ManagedMux {
    /// Number of operations that could potentially be shut down through this
    /// multiplexor.
    pub fn shutdown_candidate_count(&self) -> usize {
        self.shutdown_false.len() + self.shutdown_true.len()
    }
}

/// The complete result of [`crate::power_manage`].
#[derive(Debug, Clone)]
pub struct PowerManagementResult {
    pub(crate) cdfg: Cdfg,
    pub(crate) schedule: Schedule,
    /// Set by the producer under a resource limit; without one, filled by
    /// the first [`PowerManagementResult::baseline_schedule`] call.
    pub(crate) baseline_schedule: OnceLock<Schedule>,
    pub(crate) managed: Vec<ManagedMux>,
    pub(crate) latency: u32,
}

impl PowerManagementResult {
    /// The CDFG after power management, including the inserted control
    /// edges.
    pub fn cdfg(&self) -> &Cdfg {
        &self.cdfg
    }

    /// The power-managed schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The schedule a traditional (non-power-aware) run of the same
    /// scheduler produces for the same constraints — the comparison baseline
    /// of Tables II and III.
    ///
    /// Under a resource limit it was scheduled eagerly, because its failure
    /// is [`crate::power_manage`]'s error.  Without one it is computed on
    /// the first call and kept, so callers that never read it (the Pareto
    /// explorer) never pay for it, and results shared between threads
    /// compute it once: `hyper::schedule` on a copy of [`Self::cdfg`] with
    /// the control edges listed in [`ManagedMux::control_edges`] removed —
    /// the input graph.
    pub fn baseline_schedule(&self) -> &Schedule {
        self.baseline_schedule.get_or_init(|| {
            let mut unmanaged = self.cdfg.clone();
            for &edge in self.managed.iter().flat_map(|m| &m.control_edges) {
                unmanaged.remove_control_edge(edge);
            }
            hyper::schedule(&unmanaged, &HyperOptions::with_latency(self.latency))
                .expect("power_manage checked the latency against the unmanaged critical path")
        })
    }

    /// The latency (control steps) both schedules were produced for.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Every multiplexor that was examined and has at least one shut-down
    /// candidate, in the order they were processed.
    pub fn managed_muxes(&self) -> &[ManagedMux] {
        &self.managed
    }

    /// Multiplexors accepted by the selection loop (control-edge insertion
    /// was feasible for the throughput).
    pub fn accepted_muxes(&self) -> Vec<&ManagedMux> {
        self.managed.iter().filter(|m| m.accepted).collect()
    }

    /// Number of multiplexors that actually gate at least one operation in
    /// the final schedule — the "P.Man. Muxs" column of Table II.
    pub fn managed_mux_count(&self) -> usize {
        self.activation(&SelectProbabilities::fair()).effective_muxes().len()
    }

    /// Activation analysis of the final schedule under the given branch
    /// probabilities.
    pub fn activation(&self, probs: &SelectProbabilities) -> Activation {
        Activation::compute(&self.cdfg, &self.schedule, &self.managed, probs)
    }

    /// Datapath power savings report under fair branch probabilities and the
    /// paper's relative power weights.
    pub fn savings(&self) -> SavingsReport {
        self.savings_with(&SelectProbabilities::fair(), &OpWeights::paper_power())
    }

    /// Datapath power savings report under explicit probabilities and
    /// weights.
    pub fn savings_with(&self, probs: &SelectProbabilities, weights: &OpWeights) -> SavingsReport {
        let activation = self.activation(probs);
        SavingsReport::compute(self.op_counts(), &activation, weights)
    }

    /// Static operation counts of the design (Table I columns).
    pub fn op_counts(&self) -> OpCounts {
        self.cdfg.op_counts()
    }

    /// Execution units required by the power-managed schedule.
    pub fn resource_usage(&self) -> ResourceSet {
        self.schedule.resource_usage(&self.cdfg)
    }

    /// Execution units required by the baseline schedule.
    pub fn baseline_resource_usage(&self) -> ResourceSet {
        self.baseline_schedule().resource_usage(&self.cdfg)
    }

    /// Execution-unit area ratio of the power-managed allocation relative to
    /// the baseline allocation (the "Area Incr." column of Table II), using
    /// the given relative area weights.
    ///
    /// The baseline is taken as the *cheaper* of the two allocations: a
    /// traditional scheduler could always adopt the power-managed operation
    /// placement (ignoring the gating), so the true minimum-resource
    /// baseline never costs more than either schedule.  This keeps the ratio
    /// at 1.0 or above even when the heuristic baseline scheduler happens to
    /// pick a slightly larger allocation.
    pub fn area_increase(&self, area_weights: &OpWeights) -> f64 {
        let weigh = |set: &ResourceSet| -> f64 {
            set.iter().map(|(class, count)| area_weights.weight(class) * count as f64).sum()
        };
        let managed = weigh(&self.resource_usage());
        let baseline = weigh(&self.baseline_resource_usage()).min(managed);
        if baseline > 0.0 {
            managed / baseline
        } else {
            1.0
        }
    }

    /// Control edges inserted across all accepted multiplexors.
    pub fn control_edge_count(&self) -> usize {
        self.managed.iter().map(|m| m.control_edges.len()).sum()
    }
}

impl fmt::Display for PowerManagementResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "power-managed schedule for `{}`: {} control steps, {} managed multiplexors, {:.1}% datapath power reduction",
            self.cdfg.name(),
            self.latency,
            self.managed_mux_count(),
            self.savings().reduction_percent
        )
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
    fn report_accessors_are_consistent() {
        let g = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        assert_eq!(result.latency(), 3);
        assert_eq!(result.managed_muxes().len(), 1);
        assert_eq!(result.accepted_muxes().len(), 1);
        assert_eq!(result.managed_mux_count(), 1);
        assert!(result.control_edge_count() >= 1);
        assert_eq!(result.op_counts().sub, 2);
        assert!(result.schedule().validate(result.cdfg()).is_ok());
        let display = result.to_string();
        assert!(display.contains("abs_diff"));
        assert!(display.contains("managed multiplexors"));
    }

    #[test]
    fn area_increase_is_one_when_allocations_match() {
        let g = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        let ratio = result.area_increase(&OpWeights::paper_area());
        assert!(ratio > 0.5 && ratio < 3.0, "sane area ratio, got {ratio}");
    }

    #[test]
    fn shutdown_candidate_count_sums_branches() {
        let g = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        let mm = &result.managed_muxes()[0];
        assert_eq!(mm.shutdown_candidate_count(), 2);
        assert!(mm.select_functional);
        assert!(mm.accepted);
    }
}
