//! Error type for the scheduling substrate.

use std::fmt;

use cdfg::{Cdfg, NodeId};

/// Errors produced while computing or validating a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The requested latency is smaller than the design's critical path, so
    /// no feasible schedule exists.
    LatencyTooSmall {
        /// Latency (control steps) that was requested.
        requested: u32,
        /// Minimum feasible latency (critical path length).
        critical_path: u32,
    },
    /// The resource constraints are too tight to finish within the latency.
    InsufficientResources {
        /// Latency in control steps that could not be met.
        latency: u32,
    },
    /// A node appears in the CDFG but not in the schedule (or vice versa).
    MissingNode(NodeId),
    /// A precedence constraint is violated: `before` is scheduled at or
    /// after `after`.
    PrecedenceViolation {
        /// The producing (earlier) node.
        before: NodeId,
        /// The consuming (later) node.
        after: NodeId,
    },
    /// More operations of one class are scheduled in a step than the
    /// resource constraint allows.
    ResourceOverflow {
        /// Control step where the overflow occurs.
        step: u32,
        /// Label of the over-subscribed operation class.
        class: &'static str,
        /// Number of units allowed.
        limit: usize,
        /// Number of operations scheduled in the step.
        used: usize,
    },
    /// The latency constraint was violated by the produced schedule.
    LatencyExceeded {
        /// Allowed number of control steps.
        allowed: u32,
        /// Number of control steps actually used.
        used: u32,
    },
    /// A scheduling pass found a node whose earliest feasible step lies
    /// past its latest one: frame propagation during force-directed
    /// scheduling collapsed a time frame, or list scheduling was handed a
    /// priority latency whose ALAP analysis is infeasible.  Unreachable
    /// when the initial timing analysis is feasible (fixing a node inside a
    /// consistent frame preserves consistency); surfacing it instead of
    /// clamping keeps a scheduler bug from silently producing an invalid
    /// schedule.
    InfeasiblePropagation {
        /// The node whose time frame collapsed.
        node: NodeId,
    },
}

impl ScheduleError {
    /// The error the schedulers return for a latency of zero, checked before
    /// any timing analysis (which needs at least one control step).
    pub(crate) fn zero_latency(cdfg: &Cdfg) -> Self {
        ScheduleError::LatencyTooSmall { requested: 0, critical_path: cdfg.critical_path_length() }
    }
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::LatencyTooSmall { requested, critical_path } => write!(
                f,
                "requested latency of {requested} control steps is below the critical path of {critical_path}"
            ),
            ScheduleError::InsufficientResources { latency } => {
                write!(f, "resource constraints cannot meet a latency of {latency} control steps")
            }
            ScheduleError::MissingNode(n) => write!(f, "node {n} is missing from the schedule"),
            ScheduleError::PrecedenceViolation { before, after } => {
                write!(f, "precedence violation: {before} must be scheduled strictly before {after}")
            }
            ScheduleError::ResourceOverflow { step, class, limit, used } => {
                write!(f, "step {step} uses {used} {class} units but only {limit} are available")
            }
            ScheduleError::LatencyExceeded { allowed, used } => {
                write!(f, "schedule uses {used} control steps but only {allowed} are allowed")
            }
            ScheduleError::InfeasiblePropagation { node } => {
                write!(
                    f,
                    "frame propagation made node {node} infeasible (earliest step past latest)"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(ScheduleError, &str)> = vec![
            (ScheduleError::LatencyTooSmall { requested: 2, critical_path: 3 }, "critical path"),
            (ScheduleError::InsufficientResources { latency: 4 }, "resource"),
            (ScheduleError::MissingNode(NodeId::new(1)), "missing"),
            (
                ScheduleError::PrecedenceViolation {
                    before: NodeId::new(1),
                    after: NodeId::new(2),
                },
                "precedence",
            ),
            (ScheduleError::ResourceOverflow { step: 2, class: "+", limit: 1, used: 2 }, "units"),
            (ScheduleError::LatencyExceeded { allowed: 3, used: 5 }, "control steps"),
            (ScheduleError::InfeasiblePropagation { node: NodeId::new(3) }, "infeasible"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScheduleError>();
    }
}
