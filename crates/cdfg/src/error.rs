//! Error type for CDFG construction and validation.

use std::fmt;

use crate::cdfg::NodeId;

/// Errors produced while building or validating a [`crate::Cdfg`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CdfgError {
    /// A node id referenced a node that does not exist.
    UnknownNode(NodeId),
    /// An operation was given the wrong number of operands.
    ArityMismatch {
        /// The operation that was being created.
        op: &'static str,
        /// Number of operands the operation requires.
        expected: usize,
        /// Number of operands actually supplied.
        found: usize,
    },
    /// A control edge would close a cycle (CDFGs must be acyclic).
    CyclicGraph,
    /// An `Input`, `Const` or `Output` node was used where a computational
    /// operation was required, or vice versa.
    InvalidNodeRole {
        /// Offending node.
        node: NodeId,
        /// Human-readable description of the violated expectation.
        reason: &'static str,
    },
    /// A name was reused for two different inputs or outputs.
    DuplicateName(String),
    /// The graph has no output node, so no computation is observable.
    NoOutputs,
}

impl fmt::Display for CdfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdfgError::UnknownNode(n) => write!(f, "unknown node id {n}"),
            CdfgError::ArityMismatch { op, expected, found } => {
                write!(f, "operation {op} expects {expected} operands, found {found}")
            }
            CdfgError::CyclicGraph => write!(f, "graph contains a cycle"),
            CdfgError::InvalidNodeRole { node, reason } => {
                write!(f, "node {node} used in an invalid role: {reason}")
            }
            CdfgError::DuplicateName(name) => write!(f, "duplicate port name `{name}`"),
            CdfgError::NoOutputs => write!(f, "graph has no output nodes"),
        }
    }
}

impl std::error::Error for CdfgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = vec![
            CdfgError::UnknownNode(NodeId::new(3)),
            CdfgError::ArityMismatch { op: "add", expected: 2, found: 1 },
            CdfgError::CyclicGraph,
            CdfgError::InvalidNodeRole { node: NodeId::new(9), reason: "output has successors" },
            CdfgError::DuplicateName("a".to_owned()),
            CdfgError::NoOutputs,
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CdfgError>();
    }
}
