//! Error type for sweep-plan construction.

use std::fmt;

use crate::pareto::BudgetPolicy;
use crate::MAX_LATENCY;

/// Errors produced while building a [`crate::SweepPlan`].
///
/// Scenario *execution* failures (an infeasible latency, an unknown circuit
/// name) are not errors at this level: they are recorded per scenario in the
/// [`crate::SweepReport`] so one bad matrix point cannot abort a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The plan expanded to zero scenarios.
    EmptyPlan,
    /// A latency bound of zero control steps was requested.
    InvalidLatency,
    /// A pipeline depth of zero stages was requested.
    InvalidPipelineDepth,
    /// A sweep was given a range budget policy.  A sweep runs exactly its
    /// scenarios; walking a budget range is the explorer's job
    /// ([`crate::Engine::explore`]).
    RangePolicyOnSweep(BudgetPolicy),
    /// A scenario's effective latency (`latency × pipeline_depth`) exceeds
    /// [`MAX_LATENCY`].
    LatencyTooLarge {
        /// The scenario's latency bound.
        latency: u32,
        /// The scenario's pipeline depth.
        pipeline_depth: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyPlan => f.write_str("sweep plan expands to zero scenarios"),
            EngineError::InvalidLatency => {
                f.write_str("latency bound must be at least one control step")
            }
            EngineError::InvalidPipelineDepth => {
                f.write_str("pipeline depth must be at least one stage")
            }
            EngineError::RangePolicyOnSweep(policy) => write!(
                f,
                "budget policy `{policy}` walks a budget range, which only an exploration does; \
                 a sweep runs exactly its scenarios (policy `fixed`)"
            ),
            EngineError::LatencyTooLarge { latency, pipeline_depth } => write!(
                f,
                "effective latency {latency} x {pipeline_depth} = {} exceeds MAX_LATENCY \
                 ({MAX_LATENCY} steps)",
                u64::from(*latency) * u64::from(*pipeline_depth)
            ),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        assert!(EngineError::EmptyPlan.to_string().contains("zero scenarios"));
        assert!(EngineError::InvalidLatency.to_string().contains("control step"));
        assert!(EngineError::InvalidPipelineDepth.to_string().contains("stage"));
        let range = EngineError::RangePolicyOnSweep(BudgetPolicy::FullRange).to_string();
        assert!(range.contains("`full-range`") && range.contains("exploration"), "{range}");
        let large = EngineError::LatencyTooLarge { latency: 1, pipeline_depth: u32::MAX };
        assert_eq!(
            large.to_string(),
            "effective latency 1 x 4294967295 = 4294967295 exceeds MAX_LATENCY (4096 steps)"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineError>();
    }
}
