//! Control Data Flow Graph (CDFG) intermediate representation for
//! behavioral synthesis.
//!
//! This crate is the IR substrate underneath the power-management-aware
//! scheduling flow of Monteiro et al. (DAC 1996).  A [`Cdfg`] is a directed
//! acyclic graph whose nodes are primitive operations ([`Op`]) — arithmetic,
//! comparisons, multiplexors, inputs, constants and outputs.  Each node
//! carries its data operands in port order, fixed when it is created; pure
//! precedence ("control") edges, which later passes add and remove, live in
//! one separate list.
//!
//! The crate provides:
//!
//! * the operation set and its evaluation semantics ([`Op`], [`OpClass`]),
//! * the CDFG itself with validation, critical-path analysis, cone
//!   (transitive fanin/fanout) queries and operation statistics ([`Cdfg`],
//!   [`OpCounts`]),
//! * a cached, allocation-free CSR adjacency view over the graph with its
//!   topological order ([`Slices`], the scheduling kernels' fast path),
//! * a fluent [`CdfgBuilder`] and Graphviz export ([`dot`]).
//!
//! # Example
//!
//! Building the `|a - b|` example from Figure 1 of the paper:
//!
//! ```
//! use cdfg::{Cdfg, Op};
//!
//! # fn main() -> Result<(), cdfg::CdfgError> {
//! let mut g = Cdfg::new("abs_diff");
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let gt = g.add_op(Op::Gt, &[a, b])?;
//! let amb = g.add_op(Op::Sub, &[a, b])?;
//! let bma = g.add_op(Op::Sub, &[b, a])?;
//! let m = g.add_mux(gt, bma, amb)?;
//! g.add_output("abs", m)?;
//! g.validate()?;
//! assert_eq!(g.op_counts().mux, 1);
//! assert_eq!(g.critical_path_length(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod builder;
pub mod cdfg;
pub mod cone;
pub mod dot;
pub mod error;
mod graph;
pub mod op;
pub mod slices;
pub mod stats;

pub use crate::bitset::DenseBitSet;
pub use crate::builder::CdfgBuilder;
pub use crate::cdfg::{
    Cdfg, EdgeId, NodeData, NodeId, MUX_FALSE_PORT, MUX_SELECT_PORT, MUX_TRUE_PORT,
};
pub use crate::error::CdfgError;
pub use crate::op::{CompareKind, Op, OpClass};
pub use crate::slices::Slices;
pub use crate::stats::OpCounts;
