//! The HYPER-style scheduling entry point.
//!
//! The paper hands its constrained CDFG (with control edges inserted) to
//! HYPER's scheduler, "targeting minimum hardware resources for the desired
//! throughput".  [`schedule`] reproduces that contract: given a latency it
//! produces a resource-minimising schedule (force-directed), and given an
//! explicit execution-unit allocation it produces a list schedule that
//! respects it, failing when the throughput cannot be met.

use cdfg::Cdfg;

use crate::error::ScheduleError;
use crate::force;
use crate::list;
use crate::resource::{ResourceConstraint, ResourceSet};
use crate::schedule::Schedule;
use crate::timing::Timing;

/// Options controlling the HYPER-style scheduling run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperOptions {
    /// Number of control steps the computation may take (the throughput
    /// constraint).
    pub latency: u32,
    /// Execution-unit constraint.  [`ResourceConstraint::Unlimited`] asks the
    /// scheduler to minimise units by itself.
    pub resources: ResourceConstraint,
}

impl HyperOptions {
    /// Options for a latency-constrained, resource-minimising run.
    pub fn with_latency(latency: u32) -> Self {
        HyperOptions { latency, resources: ResourceConstraint::Unlimited }
    }

    /// Options for a run constrained both in latency and in execution units.
    pub fn with_resources(latency: u32, resources: ResourceConstraint) -> Self {
        HyperOptions { latency, resources }
    }
}

/// Schedules `cdfg` according to `options`.
///
/// # Errors
///
/// * [`ScheduleError::LatencyTooSmall`] when the latency is zero or below
///   the critical path (including control edges),
/// * [`ScheduleError::LatencyExceeded`] / [`ScheduleError::InsufficientResources`]
///   when an explicit resource constraint cannot meet the latency.
pub fn schedule(cdfg: &Cdfg, options: &HyperOptions) -> Result<Schedule, ScheduleError> {
    if options.latency == 0 {
        return Err(ScheduleError::zero_latency(cdfg));
    }
    let timing = Timing::compute(cdfg, options.latency);
    if !timing.is_feasible() {
        return Err(ScheduleError::LatencyTooSmall {
            requested: options.latency,
            critical_path: timing.min_latency(),
        });
    }
    match &options.resources {
        // The timing analysis above is already feasible; hand it to the
        // force-directed kernel instead of recomputing it.
        ResourceConstraint::Unlimited => {
            force::schedule_with_timing_into(cdfg, &timing, &mut force::Workspace::default())
        }
        constraint @ ResourceConstraint::Limited(set) => {
            match list::schedule_with_latency(cdfg, constraint, options.latency) {
                Ok(s) => Ok(s),
                Err(err) => {
                    // Greedy list scheduling is not optimal: it can exceed
                    // the latency even when a feasible schedule exists.  Try
                    // the resource-minimising schedule as a fallback — if it
                    // happens to fit inside the allocation, it is a valid
                    // answer.
                    let fallback = force::schedule_with_timing_into(
                        cdfg,
                        &timing,
                        &mut force::Workspace::default(),
                    )?;
                    if fallback.resource_usage(cdfg).fits_within(set) {
                        Ok(fallback)
                    } else {
                        Err(err)
                    }
                }
            }
        }
    }
}

/// The smallest execution-unit allocation that meets `latency`, i.e. the
/// resource usage of the resource-minimising schedule.
///
/// # Errors
///
/// Returns [`ScheduleError::LatencyTooSmall`] when the latency is below the
/// critical path.
pub fn minimum_resources(cdfg: &Cdfg, latency: u32) -> Result<ResourceSet, ScheduleError> {
    let s = schedule(cdfg, &HyperOptions::with_latency(latency))?;
    Ok(s.resource_usage(cdfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::{NodeId, Op, OpClass};

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
    fn unlimited_resources_use_force_directed() {
        let (g, ..) = abs_diff();
        let s = schedule(&g, &HyperOptions::with_latency(3)).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.resource_usage(&g).count(OpClass::Sub), 1);
    }

    #[test]
    fn explicit_resources_use_list_scheduling() {
        let (g, ..) = abs_diff();
        let constraint =
            ResourceConstraint::limited([(OpClass::Sub, 2), (OpClass::Comp, 1), (OpClass::Mux, 1)]);
        let s = schedule(&g, &HyperOptions::with_resources(2, constraint.clone())).unwrap();
        s.validate_with(&g, &constraint).unwrap();
        assert_eq!(s.num_steps(), 2);
    }

    #[test]
    fn infeasible_latency_is_reported() {
        let (g, ..) = abs_diff();
        let err = schedule(&g, &HyperOptions::with_latency(1)).unwrap_err();
        assert!(matches!(err, ScheduleError::LatencyTooSmall { .. }));
    }

    #[test]
    fn zero_latency_is_a_typed_error_not_a_panic() {
        let (g, ..) = abs_diff();
        let err = schedule(&g, &HyperOptions::with_latency(0)).unwrap_err();
        assert_eq!(err, ScheduleError::LatencyTooSmall { requested: 0, critical_path: 2 });
    }

    #[test]
    fn infeasible_latency_with_control_edges_is_reported() {
        let (mut g, gt, amb, bma, _) = abs_diff();
        g.add_control_edge(gt, amb).unwrap();
        g.add_control_edge(gt, bma).unwrap();
        let err = schedule(&g, &HyperOptions::with_latency(2)).unwrap_err();
        assert!(matches!(err, ScheduleError::LatencyTooSmall { requested: 2, critical_path: 3 }));
    }

    #[test]
    fn sub_critical_latency_with_resources_reports_latency_not_clamped_priorities() {
        // The feasibility gate must fire before list scheduling ever sees
        // the clamped ALAP priorities of an infeasible latency.
        let (mut g, gt, amb, bma, _) = abs_diff();
        g.add_control_edge(gt, amb).unwrap();
        g.add_control_edge(gt, bma).unwrap();
        let constraint =
            ResourceConstraint::limited([(OpClass::Sub, 2), (OpClass::Comp, 1), (OpClass::Mux, 1)]);
        let err = schedule(&g, &HyperOptions::with_resources(2, constraint)).unwrap_err();
        assert!(matches!(err, ScheduleError::LatencyTooSmall { requested: 2, critical_path: 3 }));
    }

    #[test]
    fn minimum_resources_shrink_with_more_steps() {
        let (g, ..) = abs_diff();
        let two_steps = minimum_resources(&g, 2).unwrap();
        let three_steps = minimum_resources(&g, 3).unwrap();
        assert_eq!(two_steps.count(OpClass::Sub), 2);
        assert_eq!(three_steps.count(OpClass::Sub), 1);
        assert!(three_steps.total_units() <= two_steps.total_units());
    }
}
