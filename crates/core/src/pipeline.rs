//! The register cost of pipelining (Section IV-B of the paper).
//!
//! Tight throughput constraints leave no slack for reordering operations, so
//! nothing can be shut down.  Pipelining processes `k` input samples
//! concurrently: each sample may now take `k ×` as many control steps
//! without reducing throughput, and that extra slack is exactly what the
//! power-management pass needs to schedule the controlling operations first.
//! The sweep engine runs that transformation (a scenario's pipeline depth
//! schedules at `latency × depth` steps); this module prices its cost in
//! pipeline registers on values that cross stage boundaries.

use crate::report::PowerManagementResult;

/// Counts data values produced in one pipeline stage and consumed in a later
/// one — each needs a pipeline register per stage boundary it crosses.
///
/// `result` must have been scheduled with `base_latency × stages` control
/// steps; stage `s` holds steps `s × base_latency + 1 ..= (s + 1) ×
/// base_latency`.  One schedule may be priced under several `(base latency,
/// stages)` factorings of the same effective latency.
pub fn pipeline_register_estimate(
    result: &PowerManagementResult,
    base_latency: u32,
    stages: u32,
) -> usize {
    if stages <= 1 {
        return 0;
    }
    let stage_of = |step: u32| -> u32 { (step - 1) / base_latency.max(1) };
    let cdfg = result.cdfg();
    let schedule = result.schedule();
    let mut crossings = 0usize;
    for &node in cdfg.slices().functional() {
        let Some(src_step) = schedule.step_of(node) else { continue };
        for consumer in cdfg.data_successors(node) {
            if let Some(dst_step) = schedule.step_of(consumer) {
                let delta = stage_of(dst_step).saturating_sub(stage_of(src_step));
                crossings += delta as usize;
            }
        }
    }
    crossings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{power_manage, PowerManageError, PowerManagementOptions};
    use cdfg::{Cdfg, Op};
    use sched::ScheduleError;

    /// A design whose critical path equals the throughput constraint, so the
    /// unpipelined run has zero slack and cannot manage anything.
    fn tight_design() -> Cdfg {
        let mut g = Cdfg::new("tight");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let cmp = g.add_op(Op::Gt, &[a, b]).unwrap();
        let diff = g.add_op(Op::Sub, &[a, b]).unwrap();
        let sum = g.add_op(Op::Add, &[a, b]).unwrap();
        let m = g.add_mux(cmp, sum, diff).unwrap();
        g.add_output("o", m).unwrap();
        g
    }

    #[test]
    fn zero_stages_is_rejected() {
        // Zero stages give one sample `latency × 0 = 0` control steps, which
        // `power_manage` refuses as a typed error instead of scheduling.
        let g = tight_design();
        let (base_latency, stages) = (2, 0);
        let options = PowerManagementOptions::with_latency(base_latency * stages);
        let err = power_manage(&g, &options).unwrap_err();
        assert_eq!(
            err,
            PowerManageError::Scheduling(ScheduleError::LatencyTooSmall {
                requested: 0,
                critical_path: 2
            })
        );
    }

    #[test]
    fn single_stage_matches_plain_power_management() {
        // One stage schedules at `latency × 1` steps, the plain run, and has
        // no stage boundary to register.
        let g = tight_design();
        let plain = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        assert_eq!(pipeline_register_estimate(&plain, 3, 1), 0);
        // The zero comes from the single stage: the same schedule cut into
        // three one-step stages has values crossing boundaries.
        assert!(pipeline_register_estimate(&plain, 1, 3) > 0);
    }

    #[test]
    fn register_estimate_counts_stage_crossings() {
        // A six-add chain at its critical path has exactly one schedule:
        // add i at step i.  The last add also reads the first.
        let mut g = Cdfg::new("chain");
        let a = g.add_input("a");
        let first = g.add_op(Op::Add, &[a, a]).unwrap();
        let mut last = first;
        for _ in 0..4 {
            last = g.add_op(Op::Add, &[last, a]).unwrap();
        }
        let sixth = g.add_op(Op::Add, &[last, first]).unwrap();
        g.add_output("o", sixth).unwrap();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(6)).unwrap();
        let steps: Vec<u32> = g
            .slices()
            .functional()
            .iter()
            .map(|&n| result.schedule().step_of(n).unwrap())
            .collect();
        assert_eq!(steps, [1, 2, 3, 4, 5, 6]);

        assert_eq!(pipeline_register_estimate(&result, 6, 1), 0, "one stage, no boundary");
        // Stages {1,2,3} {4,5,6}: add 3 → add 4 and add 1 → add 6 cross.
        assert_eq!(pipeline_register_estimate(&result, 3, 2), 2);
        // Stages {1,2} {3,4} {5,6}: add 2 → 3 and add 4 → 5 cross one
        // boundary each, add 1 → add 6 crosses two.
        assert_eq!(pipeline_register_estimate(&result, 2, 3), 4);
    }
}
