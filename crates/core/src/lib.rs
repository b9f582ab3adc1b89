//! Power-management-aware scheduling for behavioral synthesis.
//!
//! This crate is a from-scratch implementation of the scheduling technique of
//! Monteiro, Devadas, Ashar and Mauskar, *"Scheduling Techniques to Enable
//! Power Management"*, DAC 1996.  The observation behind the paper: in a
//! conditional computation such as `|a - b|`, a traditional scheduler happily
//! executes both `a - b` and `b - a` even though only one result is ever
//! used.  If instead the *controlling* operation (`a > b`) is scheduled
//! before the two subtractions, the controller can refuse to load the input
//! registers of the subtractor whose result will be discarded — eliminating
//! its switching activity for that sample.
//!
//! The crate provides:
//!
//! * [`cones`] — per-multiplexor fanin-cone analysis deciding which
//!   operations may be shut down for each branch (steps 2–3 of the paper's
//!   algorithm),
//! * [`algorithm`] — the main selection loop: feasibility-checked ASAP/ALAP
//!   tightening, control-edge insertion and final HYPER-style scheduling
//!   (steps 4–11),
//! * [`activation`] — expected execution counts per operation under a fair
//!   (or user-supplied) branch-probability model, evaluated against the
//!   *final* schedule so partially-managed designs (e.g. one shared
//!   subtractor) are handled exactly as Section II-B describes,
//! * [`savings`] — the relative datapath power model of Table II
//!   (MUX:1, COMP:4, +:3, −:3, ×:20),
//! * [`mux_order`] — the multiplexor (re)ordering heuristics of Section IV-A,
//! * [`pipeline`] — the pipelining transformation of Section IV-B,
//! * [`report`] — the result types tying everything together.
//!
//! # Quick start
//!
//! ```
//! use cdfg::{Cdfg, Op};
//! use pmsched::{PowerManagementOptions, power_manage};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // |a - b| from Figures 1 and 2 of the paper.
//! let mut g = Cdfg::new("abs_diff");
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let gt = g.add_op(Op::Gt, &[a, b])?;
//! let amb = g.add_op(Op::Sub, &[a, b])?;
//! let bma = g.add_op(Op::Sub, &[b, a])?;
//! let m = g.add_mux(gt, bma, amb)?;
//! g.add_output("abs", m)?;
//!
//! // Three control steps leave enough slack to schedule the comparison
//! // first; one of the two subtractions is then shut down every sample.
//! let result = power_manage(&g, &PowerManagementOptions::with_latency(3))?;
//! assert_eq!(result.managed_mux_count(), 1);
//! assert!(result.savings().reduction_percent > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod algorithm;
pub mod cones;
pub mod error;
pub mod mux_order;
#[cfg(any(test, feature = "reference"))]
pub mod naive;
pub mod pipeline;
pub mod report;
pub mod savings;

pub use crate::activation::{Activation, SelectProbabilities};
pub use crate::algorithm::{power_manage, PowerManagementOptions};
pub use crate::cones::{ConeWorkspace, MuxCones};
pub use crate::error::PowerManageError;
pub use crate::mux_order::MuxOrder;
pub use crate::pipeline::{pipeline_register_estimate, PipelineReport};
pub use crate::report::{ManagedMux, PowerManagementResult};
pub use crate::savings::{compose_reductions, OpWeights, SavingsReport};
