//! Error type for sweep-plan construction.

use std::fmt;

use crate::pareto::BudgetPolicy;

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
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineError>();
    }
}
