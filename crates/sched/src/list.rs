//! Resource-constrained list scheduling.
//!
//! The classic priority-list algorithm: operations become *ready* once all
//! their functional predecessors have completed; at each control step the
//! ready operations are placed in priority order (most urgent first, measured
//! by ALAP) until the per-class execution-unit limits are exhausted, then the
//! step advances.
//!
//! The inner loop runs on the CDFG's cached slice adjacency and dense,
//! slot-indexed arrays (pending-predecessor counts, step assignments), so a
//! scheduling run performs no per-query allocation; only the per-step ready
//! list is (re)used across steps.

use cdfg::{Cdfg, NodeId, OpClass};

use crate::error::ScheduleError;
use crate::resource::ResourceConstraint;
use crate::schedule::Schedule;
use crate::timing::Timing;

/// Schedules `cdfg` under `constraint`, using as many control steps as
/// needed.  `priority_latency` is the latency used to compute ALAP-based
/// priorities; it must be at least the critical-path length (a reasonable
/// choice is the critical path itself or the target latency of the design).
///
/// The returned schedule's `num_steps` is the number of steps actually used.
///
/// # Errors
///
/// * [`ScheduleError::InsufficientResources`] if a class with a zero limit
///   is needed by the design (the schedule could never finish),
/// * [`ScheduleError::LatencyTooSmall`] for a zero `priority_latency`,
/// * [`ScheduleError::InfeasiblePropagation`] when `priority_latency` is
///   below the critical path.  The ALAP pass then drives some node's ALAP
///   below its ASAP (`Timing` floors the successor bound with a saturating
///   subtraction), and before PR 5 the scheduler silently consumed those
///   clamped values as priorities — the same class of masked infeasibility
///   as the old step-1 clamp in `sched::force`'s backward pass.
pub fn schedule(
    cdfg: &Cdfg,
    constraint: &ResourceConstraint,
    priority_latency: u32,
) -> Result<Schedule, ScheduleError> {
    // A class limited to zero units that the design needs can never finish.
    if let ResourceConstraint::Limited(set) = constraint {
        let counts = cdfg.op_counts();
        for (class, needed) in counts.iter() {
            if needed > 0 && set.count(class) == 0 {
                return Err(ScheduleError::InsufficientResources { latency: 0 });
            }
        }
    }

    // Surface degenerate priority latencies instead of flooring them: the
    // old `priority_latency.max(1)` clamp quietly scheduled against a
    // meaningless one-step ALAP analysis.
    if priority_latency == 0 {
        return Err(ScheduleError::zero_latency(cdfg));
    }
    let timing = Timing::compute(cdfg, priority_latency);
    if let Some(&node) = timing.infeasible_nodes().first() {
        // ASAP > ALAP for some node: the clamped ALAPs are not priorities,
        // they are an infeasibility report.
        return Err(ScheduleError::InfeasiblePropagation { node });
    }
    let slices = cdfg.slices();
    let functional = slices.functional();
    let total = functional.len();
    let slots = slices.slot_count();

    // Remaining unscheduled functional predecessors per node, slot-indexed.
    let mut pending_preds: Vec<u32> = vec![0; slots];
    for &n in functional {
        pending_preds[n.index()] =
            slices.preds(n).iter().filter(|&&p| slices.is_functional(p)).count() as u32;
    }

    // Assigned step per node; 0 means not scheduled yet.
    let mut steps: Vec<u32> = vec![0; slots];
    let mut scheduled = 0usize;
    let mut step = 0u32;
    // Hard cap to guarantee termination even on adversarial inputs: every
    // step schedules at least one ready op when any unit is available, so
    // `total + latency` steps is far more than enough.
    let max_steps = (total as u32 + priority_latency + 2).max(4) * 2;

    let mut ready: Vec<NodeId> = Vec::with_capacity(total);
    let mut placed_this_step: Vec<NodeId> = Vec::with_capacity(total);
    while scheduled < total {
        step += 1;
        if step > max_steps {
            return Err(ScheduleError::InsufficientResources { latency: priority_latency });
        }

        // Ready operations: all functional predecessors scheduled in a
        // *previous* step.
        ready.clear();
        ready.extend(
            functional
                .iter()
                .copied()
                .filter(|n| steps[n.index()] == 0 && pending_preds[n.index()] == 0),
        );
        // Priority: smaller ALAP (more urgent) first, then smaller mobility,
        // then node id for determinism.  The infeasibility check above
        // guarantees mobility is defined for every functional node.
        ready.sort_by_key(|&n| (timing.alap(n), timing.mobility(n).unwrap_or(0), n));

        let mut used = [0usize; OpClass::FUNCTIONAL.len()];
        placed_this_step.clear();
        for &n in &ready {
            let class = cdfg.node(n).expect("live node").op.class();
            let slot = class.dense_index();
            if constraint.allows(class, used[slot] + 1) {
                used[slot] += 1;
                steps[n.index()] = step;
                scheduled += 1;
                placed_this_step.push(n);
            }
        }

        // Only after the step closes do successors of the placed operations
        // become ready (results are available at the step boundary).
        for &n in &placed_this_step {
            for &s in slices.succs(n) {
                if slices.is_functional(s) {
                    pending_preds[s.index()] = pending_preds[s.index()].saturating_sub(1);
                }
            }
        }
    }

    let num_steps = functional.iter().map(|&n| steps[n.index()]).max().unwrap_or(0).max(1);
    let mut schedule = Schedule::with_slots(num_steps, steps.len());
    for &n in functional {
        schedule.assign(n, steps[n.index()]);
    }
    Ok(schedule)
}

/// Schedules `cdfg` under `constraint` and fails if more than `latency`
/// control steps are needed.
///
/// # Errors
///
/// Returns [`ScheduleError::LatencyExceeded`] when the constrained schedule
/// does not fit, or any error from [`schedule`].
pub fn schedule_with_latency(
    cdfg: &Cdfg,
    constraint: &ResourceConstraint,
    latency: u32,
) -> Result<Schedule, ScheduleError> {
    let s = schedule(cdfg, constraint, latency)?;
    if s.last_used_step() > latency {
        return Err(ScheduleError::LatencyExceeded { allowed: latency, used: s.last_used_step() });
    }
    // Re-span the schedule over the full latency so idle tail steps are kept
    // (the controller still has `latency` states).
    let mut spanned = Schedule::with_slots(latency, cdfg.slices().slot_count());
    for (n, step) in s.iter() {
        spanned.assign(n, step);
    }
    Ok(spanned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::{Op, OpClass};

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
    fn unconstrained_schedule_is_asap_like() {
        let (g, gt, amb, bma, m) = abs_diff();
        let s = schedule(&g, &ResourceConstraint::Unlimited, 2).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.step_of(gt), Some(1));
        assert_eq!(s.step_of(amb), Some(1));
        assert_eq!(s.step_of(bma), Some(1));
        assert_eq!(s.step_of(m), Some(2));
        assert_eq!(s.num_steps(), 2);
    }

    #[test]
    fn one_subtractor_stretches_to_three_steps() {
        // Figure 2(a) of the paper: with one subtractor the two subtractions
        // are serialised and the design needs three control steps.
        let (g, _gt, amb, bma, m) = abs_diff();
        let constraint =
            ResourceConstraint::limited([(OpClass::Sub, 1), (OpClass::Comp, 1), (OpClass::Mux, 1)]);
        let s = schedule(&g, &constraint, 3).unwrap();
        s.validate_with(&g, &constraint).unwrap();
        assert_eq!(s.num_steps(), 3);
        assert_ne!(s.step_of(amb), s.step_of(bma), "subtractions serialised");
        assert_eq!(s.step_of(m), Some(3));
    }

    #[test]
    fn control_edges_are_respected() {
        let (mut g, gt, amb, bma, m) = abs_diff();
        g.add_control_edge(gt, amb).unwrap();
        g.add_control_edge(gt, bma).unwrap();
        let s = schedule(&g, &ResourceConstraint::Unlimited, 3).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.step_of(gt), Some(1));
        assert_eq!(s.step_of(amb), Some(2));
        assert_eq!(s.step_of(bma), Some(2));
        assert_eq!(s.step_of(m), Some(3));
    }

    #[test]
    fn latency_bound_is_enforced() {
        let (g, ..) = abs_diff();
        let one_of_each =
            ResourceConstraint::limited([(OpClass::Sub, 1), (OpClass::Comp, 1), (OpClass::Mux, 1)]);
        // Needs 3 steps with one subtractor; 2 is not enough.
        let err = schedule_with_latency(&g, &one_of_each, 2).unwrap_err();
        assert!(matches!(err, ScheduleError::LatencyExceeded { allowed: 2, used: 3 }));
        // 4 steps is fine and the schedule is spanned over all 4.
        let s = schedule_with_latency(&g, &one_of_each, 4).unwrap();
        assert_eq!(s.num_steps(), 4);
        assert!(s.last_used_step() <= 4);
    }

    #[test]
    fn zero_unit_constraint_is_rejected() {
        let (g, ..) = abs_diff();
        let no_mux = ResourceConstraint::limited([(OpClass::Sub, 1), (OpClass::Comp, 1)]);
        let err = schedule(&g, &no_mux, 3).unwrap_err();
        assert!(matches!(err, ScheduleError::InsufficientResources { .. }));
    }

    /// A five-deep negation chain, the propagate-regression shape shared
    /// with `force::tests` and `naive::tests`.
    fn neg_chain() -> Cdfg {
        let mut g = Cdfg::new("chain");
        let x = g.add_input("x");
        let mut prev = g.add_op(Op::Neg, &[x]).unwrap();
        for _ in 0..4 {
            prev = g.add_op(Op::Neg, &[prev]).unwrap();
        }
        g.add_output("o", prev).unwrap();
        g
    }

    #[test]
    fn sub_critical_priority_latency_surfaces_instead_of_clamping() {
        // Regression mirroring the force/naive propagate suite: a priority
        // latency below the chain's critical path used to floor the clamped
        // ALAPs into bogus priorities; it must now surface the infeasible
        // node instead.
        let g = neg_chain();
        assert_eq!(g.critical_path_length(), 5);
        let err = schedule(&g, &ResourceConstraint::Unlimited, 3).unwrap_err();
        assert!(matches!(err, ScheduleError::InfeasiblePropagation { .. }), "{err:?}");
        let err = schedule_with_latency(&g, &ResourceConstraint::Unlimited, 4).unwrap_err();
        assert!(matches!(err, ScheduleError::InfeasiblePropagation { .. }), "{err:?}");
        // At the critical path the same chain schedules fine.
        let s = schedule(&g, &ResourceConstraint::Unlimited, 5).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.num_steps(), 5);
    }

    #[test]
    fn zero_priority_latency_is_rejected_not_floored() {
        let g = neg_chain();
        let err = schedule(&g, &ResourceConstraint::Unlimited, 0).unwrap_err();
        assert!(
            matches!(err, ScheduleError::LatencyTooSmall { requested: 0, critical_path: 5 }),
            "{err:?}"
        );
    }

    #[test]
    fn larger_chain_schedules_completely() {
        // A small accumulation chain: ((a+b)+c)+d with one adder.
        let mut g = Cdfg::new("chain");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let s1 = g.add_op(Op::Add, &[a, b]).unwrap();
        let s2 = g.add_op(Op::Add, &[s1, c]).unwrap();
        let s3 = g.add_op(Op::Add, &[s2, d]).unwrap();
        g.add_output("sum", s3).unwrap();
        let constraint = ResourceConstraint::limited([(OpClass::Add, 1)]);
        let s = schedule(&g, &constraint, 3).unwrap();
        s.validate_with(&g, &constraint).unwrap();
        assert_eq!(s.num_steps(), 3);
    }
}
