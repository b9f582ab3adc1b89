//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Every tabular artifact is a declarative [`engine`] sweep plan executed on
//! the parallel scenario engine; the modules here only translate sweep
//! records into the paper's row layouts.
//!
//! | paper artifact | module | binary |
//! |----------------|--------|--------|
//! | Figure 1 (2-step \|a−b\| schedule) | [`figures::figure1`] | `cargo run -p experiments --bin figure1` |
//! | Figure 2 (3-step schedules, traditional vs power-managed) | [`figures::figure2`] | `--bin figure2` |
//! | Table I (circuit statistics) | [`mod@table1`] | `--bin table1` |
//! | Table II (expected operation executions & datapath power reduction) | [`mod@table2`] | `--bin table2` |
//! | Table III (gate-level area & power, Synopsys substitute) | [`mod@table3`] | `--bin table3` |
//! | Section IV-A (multiplexor reordering) | [`ablation`] | `--bin ablation_reorder` |
//! | Section IV-B (pipelining) | [`ablation`] | `--bin ablation_pipeline` |
//! | Branch-probability sensitivity (Section V's fairness assumption) | [`sensitivity`] | `--bin sensitivity` |
//! | Full scenario matrix (all of the above dimensions at once) | [`sweep`] | `--bin sweep` |
//! | Generated-workload distributions (beyond the paper) | [`genweep`] | `--bin genweep` |
//! | Latency–power Pareto fronts over the full budget range (beyond the paper) | [`pareto`] | `--bin pareto` |
//! | Online incremental-repair study (beyond the paper) | [`onlineweep`] | `--bin onlineweep` |
//! | Fine-grained DVS policies & kernel optimality gap (beyond the paper) | [`dvsweep`] | `--bin dvsweep` |
//!
//! The `table1`, `table2`, `table3` and `sensitivity` binaries accept a
//! `--json` flag that emits the engine's machine-readable report instead of
//! the pretty table; `sweep` additionally accepts `--csv`, `--threads N`
//! and `--small`.
//!
//! Absolute numbers differ from the paper (different benchmark
//! reconstructions, different power model), but every qualitative claim is
//! reproduced; see `EXPERIMENTS.md` at the repository root for the
//! side-by-side comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use engine::{EngineError, Scenario, ScenarioMetrics, SweepRecord, SweepReport};

pub mod ablation;
pub mod dvsweep;
pub mod figures;
pub mod genweep;
pub mod onlineweep;
pub mod pareto;
pub mod sensitivity;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;

pub use crate::table1::{table1, Table1Row};
pub use crate::table2::{table2, table2_for, Table2Row};
pub use crate::table3::{table3, table3_for, Table3Row};

/// Error from an engine-backed experiment: which scenario failed, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentError {
    /// The scenario (or plan) the failure belongs to.
    pub context: String,
    /// The underlying failure message.
    pub message: String,
}

impl ExperimentError {
    /// Builds the error for a failed (or missing) sweep record.
    pub fn for_record(context: impl fmt::Display, record: Option<&SweepRecord>) -> Self {
        ExperimentError {
            context: context.to_string(),
            message: match record.and_then(SweepRecord::error) {
                Some(error) => error.to_owned(),
                None => "scenario missing from sweep report".to_owned(),
            },
        }
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.message)
    }
}

impl std::error::Error for ExperimentError {}

impl From<EngineError> for ExperimentError {
    fn from(e: EngineError) -> Self {
        ExperimentError { context: "sweep plan".to_owned(), message: e.to_string() }
    }
}

impl From<gen::GenError> for ExperimentError {
    fn from(e: gen::GenError) -> Self {
        ExperimentError { context: "workload generator".to_owned(), message: e.to_string() }
    }
}

/// Looks up one scenario's metrics in a sweep report, converting a missing
/// or failed record into an [`ExperimentError`].
pub(crate) fn metrics_for<'r>(
    report: &'r SweepReport,
    scenario: &Scenario,
) -> Result<&'r ScenarioMetrics, ExperimentError> {
    let record = report.record_for(scenario);
    record.and_then(|r| r.metrics()).ok_or_else(|| ExperimentError::for_record(scenario, record))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_error_display_and_conversions() {
        let e: ExperimentError = EngineError::EmptyPlan.into();
        assert!(e.to_string().contains("sweep plan"));
        let e = ExperimentError::for_record("dealer@6", None);
        assert!(e.to_string().contains("missing from sweep report"));
    }
}
