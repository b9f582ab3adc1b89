//! A Silage-like behavioral description frontend.
//!
//! The paper's flow starts from Silage, the applicative single-assignment
//! language of the HYPER system.  This crate implements a small language in
//! the same spirit — single assignment, expression oriented, conditionals as
//! expressions — and compiles it in one pass into the [`cdfg::Cdfg`]
//! consumed by the scheduling passes: the parser adds each node as it
//! reduces an operator, with no syntax tree in between.  Conditional
//! expressions become multiplexor nodes, which is exactly the structure the
//! power-management algorithm looks for.
//!
//! # Syntax
//!
//! ```text
//! func abs_diff(a: num[8], b: num[8]) -> (abs: num[8]) {
//!     c   = a > b;
//!     abs = if c then a - b else b - a;
//! }
//! ```
//!
//! * one or more `func` definitions; [`compile`] checks them all and
//!   returns the one named `main`, or else the first,
//! * every statement assigns a fresh name (single assignment),
//! * every declared output must be assigned exactly once,
//! * expressions: integer literals, names, `+ - * /`, comparisons
//!   `< <= > >= == !=`, unary `-`, parentheses and
//!   `if <cond> then <a> else <b>`,
//! * parentheses and `if`s inside a condition, a `then` branch or an
//!   operand nest at most [`MAX_DEPTH`] levels deep.
//!
//! # Example
//!
//! ```
//! let source = r#"
//!     func abs_diff(a: num[8], b: num[8]) -> (abs: num[8]) {
//!         c   = a > b;
//!         abs = if c then a - b else b - a;
//!     }
//! "#;
//! let cdfg = silage::compile(source)?;
//! assert_eq!(cdfg.op_counts().mux, 1);
//! assert_eq!(cdfg.op_counts().sub, 2);
//! # Ok::<(), silage::SilageError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod lexer;
mod parser;
pub mod token;

pub use crate::error::SilageError;
pub use crate::parser::{compile, MAX_DEPTH};
