//! Hardware allocation for the power-management synthesis flow.
//!
//! After scheduling, every operation must be bound to a physical execution
//! unit, every value that crosses a control-step boundary must be stored in
//! a register, and the steering logic (interconnect multiplexors) that routes
//! registers to unit inputs must be derived.  This crate provides those
//! passes — the datapath half of step 12 of the paper's algorithm — plus a
//! simple area model used for the "Area" columns of Tables II and III.
//!
//! * [`fu`] — functional-unit binding (operations scheduled in the same step
//!   always go to different units, even mutually exclusive ones; operations
//!   in different steps may share a unit of their class unless a sharing
//!   partition, such as per-operation supply voltage, separates them),
//! * [`register`] — value lifetime analysis and left-edge register
//!   allocation,
//! * [`datapath`] — the assembled datapath model (units, registers,
//!   steering multiplexors),
//! * [`area`] — relative area estimation.
//!
//! Every pass stores its result by node index and produces exactly what
//! the original `BTreeMap` passes did (`crates/gen/tests/scoring_identity.rs`
//! keeps those as oracles).
//!
//! # Example
//!
//! ```
//! use cdfg::{Cdfg, Op};
//! use pmsched::{power_manage, PowerManagementOptions};
//! use binding::datapath::Datapath;
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
//! let result = power_manage(&g, &PowerManagementOptions::with_latency(3))?;
//! let datapath = Datapath::build(result.cdfg(), result.schedule())?;
//! assert!(datapath.units().len() >= 3);
//! assert!(datapath.registers().len() >= 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod datapath;
pub mod error;
pub mod fu;
pub mod register;

pub use crate::area::{AreaEstimate, AreaModel};
pub use crate::datapath::Datapath;
pub use crate::error::BindError;
pub use crate::fu::{FuBinding, FunctionalUnit, UnitId};
pub use crate::register::{Lifetime, Register, RegisterAllocation, RegisterId};
