//! Pipelining as a power-management enabler (Section IV-B of the paper).
//!
//! Tight throughput constraints leave no slack for reordering operations, so
//! nothing can be shut down.  Pipelining processes `k` input samples
//! concurrently: each sample may now take `k ×` as many control steps
//! without reducing throughput, and that extra slack is exactly what the
//! power-management pass needs to schedule the controlling operations first.
//! The costs are increased latency (in clock cycles per sample) and extra
//! pipeline registers on values that cross stage boundaries.

use cdfg::Cdfg;

use crate::algorithm::{power_manage, PowerManagementOptions};
use crate::error::PowerManageError;
use crate::report::PowerManagementResult;

/// The outcome of power-managing a pipelined version of a design.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Number of pipeline stages (1 = no pipelining).
    pub stages: u32,
    /// Control steps available to one sample after pipelining
    /// (`stages × base latency`).
    pub effective_latency: u32,
    /// Latency in clock cycles for one sample to traverse the pipeline; with
    /// this simple model it equals the effective latency.
    pub sample_latency: u32,
    /// Estimated number of extra pipeline registers: values produced in one
    /// stage and consumed in a later one.
    pub extra_registers: usize,
    /// The power-management result obtained with the enlarged latency.
    pub result: PowerManagementResult,
}

impl PipelineReport {
    /// Convenience accessor for the datapath power reduction of the
    /// pipelined, power-managed design.
    pub fn reduction_percent(&self) -> f64 {
        self.result.savings().reduction_percent
    }
}

/// Runs the power-management flow on a `stages`-deep pipelined version of
/// the design.
///
/// `options.latency` is interpreted as the *throughput* constraint (control
/// steps between consecutive samples); the scheduler is given
/// `options.latency × stages` steps for one sample.
///
/// # Errors
///
/// * [`PowerManageError::InvalidPipelineDepth`] when `stages` is zero,
/// * any error from [`power_manage`].
pub fn power_manage_pipelined(
    cdfg: &Cdfg,
    options: &PowerManagementOptions,
    stages: u32,
) -> Result<PipelineReport, PowerManageError> {
    if stages == 0 {
        return Err(PowerManageError::InvalidPipelineDepth);
    }
    let effective_latency = options.latency.saturating_mul(stages);
    let mut pipelined_options = options.clone();
    pipelined_options.latency = effective_latency;
    let result = power_manage(cdfg, &pipelined_options)?;
    let extra_registers = pipeline_register_estimate(&result, options.latency, stages);
    Ok(PipelineReport {
        stages,
        effective_latency,
        sample_latency: effective_latency,
        extra_registers,
        result,
    })
}

/// Counts data values produced in one pipeline stage and consumed in a later
/// one — each needs a pipeline register per stage boundary it crosses.
///
/// `result` must have been scheduled with `base_latency × stages` control
/// steps (as [`power_manage_pipelined`] does); callers that cache one
/// schedule and re-derive the register cost for several `(base latency,
/// stages)` factorings of the same effective latency can call this directly.
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
    use cdfg::Op;

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
    fn pipelining_creates_slack_for_power_management() {
        let g = tight_design();
        let options = PowerManagementOptions::with_latency(2);
        let unpipelined = power_manage(&g, &options).unwrap();
        assert_eq!(unpipelined.managed_mux_count(), 0, "no slack at latency 2");

        let pipelined = power_manage_pipelined(&g, &options, 2).unwrap();
        assert_eq!(pipelined.effective_latency, 4);
        assert_eq!(pipelined.result.managed_mux_count(), 1);
        assert!(pipelined.reduction_percent() > 0.0);
    }

    #[test]
    fn zero_stages_is_rejected() {
        let g = tight_design();
        let err =
            power_manage_pipelined(&g, &PowerManagementOptions::with_latency(2), 0).unwrap_err();
        assert_eq!(err, PowerManageError::InvalidPipelineDepth);
    }

    #[test]
    fn single_stage_matches_plain_power_management() {
        let g = tight_design();
        let options = PowerManagementOptions::with_latency(3);
        let plain = power_manage(&g, &options).unwrap();
        let piped = power_manage_pipelined(&g, &options, 1).unwrap();
        assert_eq!(piped.effective_latency, 3);
        assert_eq!(piped.extra_registers, 0);
        assert_eq!(piped.result.savings().reduction_percent, plain.savings().reduction_percent);
    }

    #[test]
    fn deeper_pipelines_cost_registers_and_latency() {
        let g = tight_design();
        let options = PowerManagementOptions::with_latency(2);
        let two = power_manage_pipelined(&g, &options, 2).unwrap();
        let three = power_manage_pipelined(&g, &options, 3).unwrap();
        assert!(three.sample_latency > two.sample_latency);
        // The disadvantage the paper lists: latency and registers grow.
        assert!(three.effective_latency == 6);
        assert!(two.extra_registers <= three.extra_registers + 2);
    }
}
