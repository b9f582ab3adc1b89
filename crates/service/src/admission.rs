//! The admission layer: typed rejection instead of unbounded growth.
//!
//! Every submission passes [`AdmissionLimits::admit`] before it touches the
//! queue.  A rejected submission gets a typed [`Rejection`] on the wire —
//! the client can distinguish "back off and retry" ([`RejectReason::QueueFull`])
//! from "this job will never fit" ([`RejectReason::JobTooLarge`]) — and the
//! daemon's memory stays bounded by `max_queued × max_job_items` no matter
//! how fast clients submit.  Before a request is even parsed, the daemon
//! bounds the line itself ([`RejectReason::LineTooLarge`]).

use std::fmt;

/// Queue-depth and job-size bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionLimits {
    /// Maximum number of jobs waiting in the queue (the running job does
    /// not count).  A submission arriving at a full queue is rejected.
    pub max_queued: usize,
    /// Maximum work items per job: scenarios for a sweep (exactly the
    /// scenarios it runs), explore requests for an exploration (counted
    /// *before* its budget walk; an exploration runs one task per budget
    /// point).
    pub max_job_items: usize,
}

impl Default for AdmissionLimits {
    fn default() -> Self {
        AdmissionLimits { max_queued: 16, max_job_items: 20_000 }
    }
}

impl AdmissionLimits {
    /// Admits or rejects a job of `items` work items given `queued` jobs
    /// already waiting.
    ///
    /// # Errors
    ///
    /// Returns the typed [`Rejection`] to put on the wire.
    pub fn admit(&self, items: usize, queued: usize, shutting_down: bool) -> Result<(), Rejection> {
        if shutting_down {
            return Err(Rejection {
                reason: RejectReason::ShuttingDown,
                detail: "daemon is shutting down".to_owned(),
            });
        }
        if items == 0 {
            return Err(Rejection {
                reason: RejectReason::EmptyJob,
                detail: "job contains no work items".to_owned(),
            });
        }
        if items > self.max_job_items {
            return Err(Rejection {
                reason: RejectReason::JobTooLarge,
                detail: format!("{items} work items exceed the {} limit", self.max_job_items),
            });
        }
        if queued >= self.max_queued {
            return Err(Rejection {
                reason: RejectReason::QueueFull,
                detail: format!("{queued} jobs queued (limit {})", self.max_queued),
            });
        }
        Ok(())
    }
}

/// Why a submission was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The wait queue is at `max_queued`; retry later.
    QueueFull,
    /// The job exceeds `max_job_items`; it will never be admitted.
    JobTooLarge,
    /// The job expands to zero work items.
    EmptyJob,
    /// The daemon is shutting down and accepts no new work.
    ShuttingDown,
    /// The request line is longer than the daemon reads before a newline
    /// (see [`crate::daemon::MAX_REQUEST_LINE`]); the connection is closed.
    LineTooLarge,
}

impl RejectReason {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::JobTooLarge => "job-too-large",
            RejectReason::EmptyJob => "empty-job",
            RejectReason::ShuttingDown => "shutting-down",
            RejectReason::LineTooLarge => "line-too-large",
        }
    }

    /// Parses a wire label.
    pub fn parse(text: &str) -> Option<Self> {
        [
            RejectReason::QueueFull,
            RejectReason::JobTooLarge,
            RejectReason::EmptyJob,
            RejectReason::ShuttingDown,
            RejectReason::LineTooLarge,
        ]
        .into_iter()
        .find(|r| r.label() == text)
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed rejection: the machine-readable reason plus a human-readable
/// detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Why.
    pub reason: RejectReason,
    /// Context for logs and error messages.
    pub detail: String,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.reason, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_within_every_limit() {
        let limits = AdmissionLimits { max_queued: 2, max_job_items: 10 };
        assert!(limits.admit(10, 1, false).is_ok());
        assert!(limits.admit(1, 0, false).is_ok());
    }

    #[test]
    fn each_limit_produces_its_own_reason() {
        let limits = AdmissionLimits { max_queued: 2, max_job_items: 10 };
        assert_eq!(limits.admit(11, 0, false).unwrap_err().reason, RejectReason::JobTooLarge);
        assert_eq!(limits.admit(5, 2, false).unwrap_err().reason, RejectReason::QueueFull);
        assert_eq!(limits.admit(0, 0, false).unwrap_err().reason, RejectReason::EmptyJob);
        assert_eq!(limits.admit(5, 0, true).unwrap_err().reason, RejectReason::ShuttingDown);
    }

    #[test]
    fn shutdown_outranks_everything_and_size_outranks_depth() {
        let limits = AdmissionLimits { max_queued: 0, max_job_items: 0 };
        assert_eq!(limits.admit(5, 9, true).unwrap_err().reason, RejectReason::ShuttingDown);
        assert_eq!(limits.admit(5, 9, false).unwrap_err().reason, RejectReason::JobTooLarge);
    }

    #[test]
    fn limits_are_inclusive_exactly_at_the_boundary() {
        let limits = AdmissionLimits { max_queued: 3, max_job_items: 7 };
        // items == max_job_items is the largest admissible job …
        assert!(limits.admit(7, 0, false).is_ok());
        // … and one more is the smallest rejected one.
        let rejection = limits.admit(8, 0, false).unwrap_err();
        assert_eq!(rejection.reason, RejectReason::JobTooLarge);
        assert!(rejection.detail.contains("8 work items exceed the 7 limit"), "{rejection}");
        // queued == max_queued - 1 still admits (the new job fills the
        // last slot); queued == max_queued is full.
        assert!(limits.admit(1, 2, false).is_ok());
        let rejection = limits.admit(1, 3, false).unwrap_err();
        assert_eq!(rejection.reason, RejectReason::QueueFull);
        assert!(rejection.detail.contains("3 jobs queued (limit 3)"), "{rejection}");
        // Over-full (a racing shrink of the limit) still reads as full.
        assert_eq!(limits.admit(1, 4, false).unwrap_err().reason, RejectReason::QueueFull);
        // A one-item job at a one-item limit is fine.
        let tight = AdmissionLimits { max_queued: 1, max_job_items: 1 };
        assert!(tight.admit(1, 0, false).is_ok());
    }

    #[test]
    fn shutdown_rejects_even_jobs_the_limits_would_admit() {
        // Mid-queue shutdown: the queue has room and the job fits, but
        // admission must still turn it away with the shutdown reason so
        // clients stop retrying instead of backing off.
        let limits = AdmissionLimits::default();
        assert!(limits.admit(5, 3, false).is_ok(), "sanity: admissible without shutdown");
        let rejection = limits.admit(5, 3, true).unwrap_err();
        assert_eq!(rejection.reason, RejectReason::ShuttingDown);
        assert_eq!(rejection.detail, "daemon is shutting down");
    }

    #[test]
    fn labels_roundtrip() {
        for reason in [
            RejectReason::QueueFull,
            RejectReason::JobTooLarge,
            RejectReason::EmptyJob,
            RejectReason::ShuttingDown,
            RejectReason::LineTooLarge,
        ] {
            assert_eq!(RejectReason::parse(reason.label()), Some(reason));
        }
        assert_eq!(RejectReason::parse("nope"), None);
        let rejection = AdmissionLimits::default().admit(0, 0, false).unwrap_err();
        assert!(rejection.to_string().starts_with("empty-job: "));
    }
}
