//! Error type for the power-management scheduling flow.

use std::fmt;

use cdfg::CdfgError;
use sched::ScheduleError;

/// Errors produced by [`crate::power_manage`] and the supporting passes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PowerManageError {
    /// The input CDFG failed structural validation.
    InvalidCdfg(CdfgError),
    /// The final scheduling step failed (e.g. the latency is below the
    /// critical path even without any power-management constraint).
    Scheduling(ScheduleError),
}

impl fmt::Display for PowerManageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerManageError::InvalidCdfg(e) => write!(f, "invalid CDFG: {e}"),
            PowerManageError::Scheduling(e) => write!(f, "scheduling failed: {e}"),
        }
    }
}

impl std::error::Error for PowerManageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PowerManageError::InvalidCdfg(e) => Some(e),
            PowerManageError::Scheduling(e) => Some(e),
        }
    }
}

impl From<CdfgError> for PowerManageError {
    fn from(e: CdfgError) -> Self {
        PowerManageError::InvalidCdfg(e)
    }
}

impl From<ScheduleError> for PowerManageError {
    fn from(e: ScheduleError) -> Self {
        PowerManageError::Scheduling(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn conversions_and_sources() {
        let e: PowerManageError = CdfgError::NoOutputs.into();
        assert!(matches!(e, PowerManageError::InvalidCdfg(_)));
        assert!(e.source().is_some());
        let e: PowerManageError =
            ScheduleError::LatencyTooSmall { requested: 1, critical_path: 2 }.into();
        assert!(e.to_string().contains("scheduling failed"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PowerManageError>();
    }
}
