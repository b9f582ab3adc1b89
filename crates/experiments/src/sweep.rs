//! The full scenario matrix behind `cargo run -p experiments --bin sweep`.
//!
//! Where every other module reproduces one table of the paper, this one
//! maps out the whole trade-off family the paper samples: every Table I
//! circuit at every Table II control-step budget, crossed with both final
//! schedulers, pipelining, the Section IV-A reordering search and a few
//! branch-probability models.  The engine deduplicates the matrix, shares
//! scheduling prefixes through its memo cache and executes the rest in
//! parallel.  The binary turns the plan's scenarios into one
//! `service::plans::sweep_job` and runs it in-process or on a `sweepd`.

use circuits::all_benchmarks;
use engine::{BranchModel, SchedulerKind, SweepPlan};

use crate::ExperimentError;

/// The full sweep matrix over all Table I circuits.
///
/// With `small` set, the heavyweight `cordic` circuit, the pipelined
/// scenarios and the biased branch models are dropped — the configuration
/// the CI smoke step runs.
///
/// # Errors
///
/// Never fails in practice (the matrix is statically non-empty); kept
/// fallible so callers see plan validation.
pub fn full_matrix_plan(small: bool) -> Result<SweepPlan, ExperimentError> {
    let mut builder = SweepPlan::builder();
    for bench in all_benchmarks() {
        if small && bench.name == "cordic" {
            continue;
        }
        for &steps in &bench.control_steps {
            builder = builder.case(bench.name.as_str(), steps);
        }
    }
    builder = builder
        .schedulers([SchedulerKind::ForceDirected, SchedulerKind::List])
        .reorder([false, true]);
    if small {
        builder = builder.pipeline_depths([1]).branch_models([BranchModel::Fair]);
    } else {
        builder = builder.pipeline_depths([1, 2]).branch_models([
            BranchModel::Fair,
            BranchModel::biased(100),
            BranchModel::biased(900),
        ]);
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matrix_covers_every_dimension_but_stays_small() {
        let plan = full_matrix_plan(true).unwrap();
        // 8 (circuit, budget) cases × 2 schedulers × 2 reorder settings.
        assert_eq!(plan.len(), 32);
        assert!(plan.scenarios().iter().all(|s| s.circuit != "cordic"));
        assert!(plan.scenarios().iter().any(|s| s.scheduler == SchedulerKind::List));
        assert!(plan.scenarios().iter().any(|s| s.reorder));
    }

    #[test]
    fn full_matrix_includes_cordic_pipelining_and_biased_models() {
        let plan = full_matrix_plan(false).unwrap();
        // 10 cases × 2 schedulers × 2 depths × 2 reorder × 3 models.
        assert_eq!(plan.len(), 240);
        assert!(plan.scenarios().iter().any(|s| s.circuit == "cordic"));
        assert!(plan.scenarios().iter().any(|s| s.pipeline_depth == 2));
        assert!(plan.scenarios().iter().any(|s| s.branch_model == BranchModel::biased(900)));
    }

    #[test]
    fn small_matrix_runs_clean_and_reuses_prefixes() {
        let scenarios = full_matrix_plan(true).unwrap().scenarios().to_vec();
        let job = service::plans::sweep_job(Vec::new(), scenarios).unwrap();
        let (service::JobReport::Sweep(report), stats) = job.run(2).unwrap() else {
            panic!("a sweep job returns a sweep report");
        };
        assert_eq!(report.failure_count(), 0);
        assert_eq!(report.records.len(), 32);
        // Reorder on/off are distinct prefixes here, so 32 scenarios need
        // exactly 32 prefix computations — but a re-run would need zero.
        assert_eq!(stats.lookups(), 32);
        assert!(!report.summaries.is_empty());
        assert!(!report.pareto.is_empty());
    }
}
