//! Power and area estimation for the power-management synthesis flow.
//!
//! Two estimation paths mirror the paper's evaluation:
//!
//! * the *probabilistic* datapath estimate of Table II — expected operation
//!   executions under fair branch probabilities weighted by the relative op
//!   power weights ([`pmsched::PowerManagementResult::savings_with`], which
//!   returns a [`pmsched::SavingsReport`]),
//! * the *simulation-based* estimate of Table III — the generated RTL is
//!   executed on random input vectors with the cycle-accurate simulator of
//!   the `rtl` crate, switching activity is converted to energy, and the
//!   gate-level area is reported for both the original and the
//!   power-managed design ([`estimate::gate_level_comparison`]),
//! * the *scaled-delay* (DVS-style) model ([`dvs`]) — per-operation
//!   schedule slack ([`dvs::allotted_delays`]) converted into an energy
//!   factor by a [`dvs::DelayScaling`] curve that composes with the
//!   shut-down savings, the model behind the latency–power Pareto explorer,
//! * the *per-operation voltage* model ([`voltage`]) — discrete
//!   [`voltage::VoltageLevel`] tables assigned per op through a
//!   [`voltage::VoltageAssignment`] and priced by
//!   [`voltage::voltage_scaled_estimate`]; a global scaled-delay curve is
//!   its degenerate case ([`voltage::VoltageTable::from_scaling`] with
//!   [`voltage::VoltageAssignment::from_delays`]), and
//!   [`voltage::VoltagePolicy`] exposes both as one explore axis.
//!
//! # Example
//!
//! ```
//! use cdfg::{Cdfg, Op};
//! use power::estimate::{gate_level_comparison, GateLevelOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Cdfg::new("abs_diff");
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let gt = g.add_op(Op::Gt, &[a, b])?;
//! let amb = g.add_op(Op::Sub, &[a, b])?;
//! let bma = g.add_op(Op::Sub, &[b, a])?;
//! let m = g.add_mux(gt, bma, amb)?;
//! g.add_output("abs", m)?;
//!
//! let report = gate_level_comparison(&g, &GateLevelOptions::new(3).samples(200))?;
//! assert!(report.power_reduction_percent > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dvs;
pub mod estimate;
pub mod vectors;
pub mod voltage;

pub use crate::dvs::{allotted_delays, allotted_delays_into, DelayScaling};
/// Alias for the crate's error type under the name downstream code (and the
/// issue tracker) uses for it.
pub use crate::estimate::EstimateError as PowerError;
pub use crate::estimate::{
    gate_level_comparison, gate_level_with_result, EstimateError, GateLevelOptions, GateLevelReport,
};
pub use crate::vectors::RandomVectors;
pub use crate::voltage::{
    voltage_scaled_estimate, VoltageAssignment, VoltageEstimate, VoltageLevel, VoltagePolicy,
    VoltagePreset, VoltageTable,
};
