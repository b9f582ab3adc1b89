//! DVS-style scaled-delay energy model: attributing per-step schedule slack
//! to per-operation energy.
//!
//! The paper's savings come from *shutting down* operations whose result is
//! known to be discarded.  The multi-objective DVS literature (fine-grained
//! voltage scaling per operator) exploits the *other* thing a stretched
//! control-step budget buys: operations whose result is not consumed for
//! several steps can run slower at a lower voltage.  This module models
//! that second mechanism and composes it with the first:
//!
//! * every functional operation gets an **allotted delay** — the number of
//!   control steps between its own step and the first step any functional
//!   successor executes (operations feeding only primary outputs may
//!   stretch to the sample boundary),
//! * a [`DelayScaling`] law converts allotted delay into an energy factor
//!   (`1/d` for an idealised linear law, `1/d²` for the classic
//!   voltage-scaling square law),
//! * the expected energy of the design is then
//!   `Σ P(op executes) · weight(op) · scale(delay(op))` — the shut-down
//!   probability and the slowdown factor are independent per-op factors, so
//!   the two relative reductions compose multiplicatively
//!   ([`pmsched::compose_reductions`]).  [`crate::voltage`] computes it,
//!   with the curve re-expressed as a degenerate voltage table
//!   ([`crate::voltage::VoltageTable::from_scaling`]).
//!
//! The model is deliberately behavioural: each operator is assumed to have
//! its own supply (fine-grained DVS), so slowing one op never blocks a
//! shared unit.  That makes the estimate an upper bound on what a real
//! multi-voltage binding could achieve, mirroring how Table II's datapath
//! estimate upper-bounds the gate-level Table III numbers.

use std::fmt;

use cdfg::Cdfg;
use sched::Schedule;

/// How an operation's energy scales with the delay allotted to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DelayScaling {
    /// No scaling: every execution costs its nominal energy regardless of
    /// slack (the paper's model).
    #[default]
    None,
    /// Energy inversely proportional to allotted delay (`1/d`) — an
    /// idealised linear energy–delay trade-off.
    Linear,
    /// Energy inversely proportional to the squared delay (`1/d²`) — the
    /// classic `E ∝ V²`, `delay ∝ 1/V` voltage-scaling law.
    Quadratic,
}

impl DelayScaling {
    /// Every scaling law, in increasing aggressiveness.
    pub const ALL: [DelayScaling; 3] =
        [DelayScaling::None, DelayScaling::Linear, DelayScaling::Quadratic];

    /// Energy factor for an operation allotted `steps` control steps
    /// (1 = nominal, no slack).  `steps` is floored at one — a valid
    /// schedule never allots less.
    pub fn factor(self, steps: u32) -> f64 {
        let d = f64::from(steps.max(1));
        match self {
            DelayScaling::None => 1.0,
            DelayScaling::Linear => 1.0 / d,
            DelayScaling::Quadratic => 1.0 / (d * d),
        }
    }

    /// Short stable label used in reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            DelayScaling::None => "none",
            DelayScaling::Linear => "linear",
            DelayScaling::Quadratic => "quadratic",
        }
    }
}

impl fmt::Display for DelayScaling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The allotted delay of every functional node of `cdfg` under `schedule`,
/// in ascending node-id order: the gap (in control steps) between the
/// node's step and the first step a functional successor — data or control
/// — executes.  Nodes feeding only primary outputs may stretch to the
/// sample boundary (`latency + 1`).
pub fn allotted_delays(cdfg: &Cdfg, schedule: &Schedule, latency: u32) -> Vec<(cdfg::NodeId, u32)> {
    let mut out = Vec::new();
    allotted_delays_into(cdfg, schedule, latency, &mut out);
    out
}

/// Buffer-reusing variant of [`allotted_delays`]: clears `out` and fills it
/// with the same pairs in the same order, without allocating when the
/// buffer's capacity already covers the graph.  The online session's
/// metric recomputation calls this with a long-lived buffer.
pub fn allotted_delays_into(
    cdfg: &Cdfg,
    schedule: &Schedule,
    latency: u32,
    out: &mut Vec<(cdfg::NodeId, u32)>,
) {
    let slices = cdfg.slices();
    out.clear();
    for &node in slices.functional() {
        let Some(step) = schedule.step_of(node) else { continue };
        let mut first_use = latency + 1;
        for &s in slices.succs(node) {
            if slices.is_functional(s) {
                if let Some(succ_step) = schedule.step_of(s) {
                    first_use = first_use.min(succ_step);
                }
            }
        }
        // A validated schedule always leaves at least one step of gap.
        out.push((node, first_use.saturating_sub(step).max(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::Op;
    use pmsched::{
        compose_reductions, power_manage, OpWeights, PowerManagementOptions, PowerManagementResult,
        SelectProbabilities,
    };

    use crate::estimate::EstimateError;
    use crate::voltage::{
        voltage_scaled_estimate, VoltageAssignment, VoltageEstimate, VoltageTable,
    };

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

    /// The global-curve estimate under fair branches: the curve as a
    /// degenerate table, each operation at the level its allotted delay
    /// picks.
    fn global_estimate(
        result: &PowerManagementResult,
        weights: &OpWeights,
        scaling: DelayScaling,
    ) -> Result<VoltageEstimate, EstimateError> {
        let delays = allotted_delays(result.cdfg(), result.schedule(), result.latency());
        let table = VoltageTable::from_scaling(scaling, result.latency().max(1));
        let slots = result.cdfg().slices().slot_count();
        let assignment = VoltageAssignment::from_delays(&table, &delays, slots);
        voltage_scaled_estimate(result, &SelectProbabilities::fair(), weights, &table, &assignment)
    }

    #[test]
    fn scaling_factors_follow_their_laws() {
        assert_eq!(DelayScaling::None.factor(7), 1.0);
        assert_eq!(DelayScaling::Linear.factor(2), 0.5);
        assert_eq!(DelayScaling::Quadratic.factor(2), 0.25);
        // Zero steps is floored to nominal, never ∞.
        assert_eq!(DelayScaling::Linear.factor(0), 1.0);
    }

    #[test]
    fn allotted_delays_measure_the_gap_to_the_first_use() {
        // A two-op chain with a slack step: x -> neg -> neg -> out at
        // latency 4.  The first negation's consumer is pinned by force
        // scheduling; the last one may stretch to the sample boundary.
        let mut g = Cdfg::new("chain");
        let x = g.add_input("x");
        let a = g.add_op(Op::Neg, &[x]).unwrap();
        let b = g.add_op(Op::Neg, &[a]).unwrap();
        g.add_output("o", b).unwrap();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(4)).unwrap();
        let delays: std::collections::BTreeMap<_, _> =
            allotted_delays(result.cdfg(), result.schedule(), 4).into_iter().collect();
        let step_a = result.schedule().step_of(a).unwrap();
        let step_b = result.schedule().step_of(b).unwrap();
        assert_eq!(delays[&a], step_b - step_a, "gap to the consuming negation");
        assert_eq!(delays[&b], 4 + 1 - step_b, "stretches to the sample boundary");
        assert!(delays.values().all(|&d| d >= 1));
    }

    #[test]
    fn combined_reduction_is_the_composition_of_the_two_mechanisms() {
        let g = abs_diff();
        for latency in 3..7 {
            let result = power_manage(&g, &PowerManagementOptions::with_latency(latency)).unwrap();
            let report =
                global_estimate(&result, &OpWeights::paper_power(), DelayScaling::Quadratic)
                    .unwrap();
            assert!(
                (report.combined_reduction_percent
                    - compose_reductions(
                        report.shutdown_reduction_percent,
                        report.slowdown_reduction_percent
                    ))
                .abs()
                    < 1e-9,
                "composition identity at latency {latency}: {report:?}"
            );
            // Shutdown part agrees with the Table II estimate.
            assert!(
                (report.shutdown_reduction_percent - result.savings().reduction_percent).abs()
                    < 1e-9,
                "latency {latency}"
            );
        }
    }

    #[test]
    fn more_aggressive_scaling_never_saves_less() {
        let g = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(5)).unwrap();
        let get = |scaling| {
            global_estimate(&result, &OpWeights::paper_power(), scaling)
                .unwrap()
                .combined_reduction_percent
        };
        let none = get(DelayScaling::None);
        let linear = get(DelayScaling::Linear);
        let quadratic = get(DelayScaling::Quadratic);
        assert!(none <= linear && linear <= quadratic, "{none} <= {linear} <= {quadratic}");
        // With slack in the schedule, the scaled laws actually bite.
        assert!(linear > none, "latency 5 leaves real slack to attribute");
    }

    #[test]
    fn slack_grows_combined_savings_with_the_budget() {
        // The tentpole claim: stretching the budget buys both more shutdown
        // and more slowdown, so the combined estimate is monotone here.
        let g = abs_diff();
        let mut last = -1.0;
        for latency in 2..7 {
            let result = power_manage(&g, &PowerManagementOptions::with_latency(latency)).unwrap();
            let report =
                global_estimate(&result, &OpWeights::paper_power(), DelayScaling::Quadratic)
                    .unwrap();
            assert!(
                report.combined_reduction_percent >= last - 1e-9,
                "latency {latency}: {} < {last}",
                report.combined_reduction_percent
            );
            last = report.combined_reduction_percent;
        }
    }

    #[test]
    fn weightless_designs_are_a_typed_degenerate_baseline() {
        let g = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        let err =
            global_estimate(&result, &OpWeights::from_pairs([]), DelayScaling::Linear).unwrap_err();
        assert!(matches!(err, EstimateError::DegenerateBaseline { .. }), "{err}");
    }
}
