//! A Silage-like behavioral description frontend.
//!
//! The paper's flow starts from Silage, the applicative single-assignment
//! language of the HYPER system.  This crate implements a small language in
//! the same spirit — single assignment, expression oriented, conditionals as
//! expressions — and elaborates it into the [`cdfg::Cdfg`] consumed by the
//! scheduling passes.  Conditional expressions become multiplexor nodes,
//! which is exactly the structure the power-management algorithm looks for.
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
//! * one or more `func` definitions; [`compile`] elaborates the first one
//!   (or the one named `main` if present),
//! * every statement assigns a fresh name (single assignment),
//! * every declared output must be assigned exactly once,
//! * expressions: integer literals, names, `+ - * /`, comparisons
//!   `< <= > >= == !=`, unary `-`, parentheses and
//!   `if <cond> then <a> else <b>`.
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

pub mod ast;
pub mod elaborate;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod token;

pub use crate::ast::{BinaryOp, Expr, FuncDef, Param, Program, Stmt};
pub use crate::error::SilageError;

use cdfg::Cdfg;

/// Compiles a source program into a CDFG.
///
/// If the program defines several functions, the one named `main` is chosen;
/// otherwise the first definition is used.
///
/// # Errors
///
/// Returns a [`SilageError`] for lexical, syntactic or semantic problems
/// (undefined names, reassignment, unassigned outputs, ...).
pub fn compile(source: &str) -> Result<Cdfg, SilageError> {
    let program = parser::parse(source)?;
    let func = program
        .functions
        .iter()
        .find(|f| f.name == "main")
        .or_else(|| program.functions.first())
        .ok_or(SilageError::EmptyProgram)?;
    elaborate::elaborate(func)
}
