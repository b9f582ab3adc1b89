//! A long-running sweep service: job queue, admission control and streamed
//! deterministic results over a Unix socket.
//!
//! The engine sweeps this repository reproduces (scheduling for power
//! management, DAC 1996) are embarrassingly cacheable: the per-circuit
//! prefix computations that dominate a sweep recur across jobs.  Running
//! every sweep in a fresh process rebuilds that state from nothing.  This
//! crate keeps **one engine and its memo cache alive in a daemon**
//! (`sweepd`) and serves sweep and Pareto-exploration jobs over a
//! newline-delimited-JSON protocol (`sweepctl`, or the experiment binaries'
//! `--daemon` flag), so a warm job pays only cache lookups.
//!
//! The acceptance bar is **byte-determinism**: a job's final report is
//! byte-identical whether it runs in-process, against a cold daemon, as a
//! warm re-submission, interleaved with concurrent jobs, or after a
//! neighbouring job was cancelled.  Three design choices carry that bar:
//!
//! 1. jobs are *fully explicit* on the wire (every scenario spelled out),
//!    and one function, [`execute`], runs a job both in-process and in the
//!    daemon,
//! 2. a single executor thread runs jobs strictly in submission order, so
//!    the shared cache — keyed purely on scenario identity — only ever
//!    grows and never influences result *values*, and
//! 3. a sweep's or exploration's records reach the client once, inside the
//!    byte-exact report of the terminal `done` event; only an online
//!    session streams a record per event, in event order.
//!
//! # Module map
//!
//! * [`runner`] — [`execute`], the one `JobSpec` → engine mapping, and
//!   [`Job`], a job built once and run in-process or on a daemon,
//! * [`protocol`] — typed requests, responses and streamed events,
//! * [`jobs`] — ids, states, the FIFO queue, progress and cancel handles,
//! * [`admission`] — queue-depth and job-size bounds with typed rejections,
//! * [`daemon`] — the socket listener, executor thread and engine,
//! * [`client`] — a blocking client used by `sweepctl` and the experiment
//!   binaries,
//! * [`plans`] — client-side builders that expand generator specs into
//!   explicit jobs,
//! * [`json`] — the dependency-free JSON the wire format is built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod daemon;
pub mod jobs;
pub mod json;
pub mod plans;
pub mod protocol;
pub mod runner;

pub use crate::admission::{AdmissionLimits, RejectReason, Rejection};
pub use crate::client::{wait_for_socket, Client, JobOutcome, ServiceError};
pub use crate::daemon::{Daemon, DaemonConfig, DaemonHandle};
pub use crate::jobs::{JobKind, JobState};
pub use crate::protocol::{Event, JobSpec, JobStatus, Request, Response};
pub use crate::runner::{execute, Job, JobReport};
