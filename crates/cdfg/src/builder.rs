//! A fluent, expression-oriented builder for CDFGs.
//!
//! [`CdfgBuilder`] keeps a symbol table of named values so that designs can
//! be written as straight-line single-assignment code.  The Silage frontend
//! compiles through it: its parser adds each node here as it reduces an
//! operator and resolves every name with [`CdfgBuilder::lookup`].
//!
//! ```
//! use cdfg::CdfgBuilder;
//!
//! # fn main() -> Result<(), cdfg::CdfgError> {
//! let mut b = CdfgBuilder::new("max");
//! let a = b.input("a");
//! let x = b.input("x");
//! let cond = b.gt(a, x)?;
//! let m = b.mux(cond, x, a)?;
//! b.output("max", m)?;
//! let cdfg = b.finish()?;
//! assert_eq!(cdfg.op_counts().mux, 1);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;

use crate::cdfg::{Cdfg, NodeId};
use crate::error::CdfgError;
use crate::op::Op;

/// Fluent builder over a [`Cdfg`].
#[derive(Debug, Clone)]
pub struct CdfgBuilder {
    cdfg: Cdfg,
    symbols: BTreeMap<String, NodeId>,
}

impl CdfgBuilder {
    /// Creates a builder for a design with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CdfgBuilder { cdfg: Cdfg::new(name), symbols: BTreeMap::new() }
    }

    /// Creates a builder with an explicit datapath bitwidth.
    pub fn with_bitwidth(name: impl Into<String>, bitwidth: u32) -> Self {
        CdfgBuilder { cdfg: Cdfg::with_bitwidth(name, bitwidth), symbols: BTreeMap::new() }
    }

    /// Adds a primary input and binds it to `name` in the symbol table.
    pub fn input(&mut self, name: &str) -> NodeId {
        let id = self.cdfg.add_input(name);
        self.symbols.insert(name.to_owned(), id);
        id
    }

    /// Adds a constant node.  Every call adds a fresh node, even for a
    /// value already present: constants are not shared.
    pub fn constant(&mut self, value: i64) -> NodeId {
        self.cdfg.add_const(value)
    }

    /// Binds `name` to an existing value, shadowing any previous binding.
    pub fn bind(&mut self, name: &str, value: NodeId) {
        self.symbols.insert(name.to_owned(), value);
    }

    /// Looks up a previously bound name.
    pub fn lookup(&self, name: &str) -> Option<NodeId> {
        self.symbols.get(name).copied()
    }

    /// Adds an arbitrary functional operation.
    ///
    /// # Errors
    ///
    /// Propagates the construction errors of [`Cdfg::add_op`].
    pub fn op(&mut self, op: Op, operands: &[NodeId]) -> Result<NodeId, CdfgError> {
        self.cdfg.add_op(op, operands)
    }

    /// Adds an addition node.
    ///
    /// # Errors
    ///
    /// Propagates the construction errors of [`Cdfg::add_op`].
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, CdfgError> {
        self.op(Op::Add, &[a, b])
    }

    /// Adds a subtraction node (`a - b`).
    ///
    /// # Errors
    ///
    /// Propagates the construction errors of [`Cdfg::add_op`].
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, CdfgError> {
        self.op(Op::Sub, &[a, b])
    }

    /// Adds a multiplication node.
    ///
    /// # Errors
    ///
    /// Propagates the construction errors of [`Cdfg::add_op`].
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, CdfgError> {
        self.op(Op::Mul, &[a, b])
    }

    /// Adds a greater-than comparator (`a > b`).
    ///
    /// # Errors
    ///
    /// Propagates the construction errors of [`Cdfg::add_op`].
    pub fn gt(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, CdfgError> {
        self.op(Op::Gt, &[a, b])
    }

    /// Adds a less-than comparator (`a < b`).
    ///
    /// # Errors
    ///
    /// Propagates the construction errors of [`Cdfg::add_op`].
    pub fn lt(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, CdfgError> {
        self.op(Op::Lt, &[a, b])
    }

    /// Adds an equality comparator (`a == b`).
    ///
    /// # Errors
    ///
    /// Propagates the construction errors of [`Cdfg::add_op`].
    pub fn eq(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, CdfgError> {
        self.op(Op::Eq, &[a, b])
    }

    /// Adds an inequality comparator (`a != b`).
    ///
    /// # Errors
    ///
    /// Propagates the construction errors of [`Cdfg::add_op`].
    pub fn ne(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, CdfgError> {
        self.op(Op::Ne, &[a, b])
    }

    /// Adds a greater-or-equal comparator (`a >= b`).
    ///
    /// # Errors
    ///
    /// Propagates the construction errors of [`Cdfg::add_op`].
    pub fn ge(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, CdfgError> {
        self.op(Op::Ge, &[a, b])
    }

    /// Adds a multiplexor: `select ? when_true : when_false`.
    ///
    /// # Errors
    ///
    /// Propagates the construction errors of [`Cdfg::add_mux`].
    pub fn mux(
        &mut self,
        select: NodeId,
        when_false: NodeId,
        when_true: NodeId,
    ) -> Result<NodeId, CdfgError> {
        self.cdfg.add_mux(select, when_false, when_true)
    }

    /// Adds a primary output.
    ///
    /// # Errors
    ///
    /// Propagates the construction errors of [`Cdfg::add_output`].
    pub fn output(&mut self, name: &str, src: NodeId) -> Result<NodeId, CdfgError> {
        self.cdfg.add_output(name, src)
    }

    /// Read access to the CDFG under construction.
    pub fn cdfg(&self) -> &Cdfg {
        &self.cdfg
    }

    /// Validates and returns the finished CDFG.
    ///
    /// # Errors
    ///
    /// Returns any structural violation found by [`Cdfg::validate`].
    pub fn finish(self) -> Result<Cdfg, CdfgError> {
        self.cdfg.validate()?;
        Ok(self.cdfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn builder_builds_valid_graph() {
        let mut b = CdfgBuilder::new("clamp");
        let x = b.input("x");
        let hi = b.constant(100);
        let over = b.gt(x, hi).unwrap();
        let clamped = b.mux(over, x, hi).unwrap();
        b.output("y", clamped).unwrap();
        let g = b.finish().unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert("x".to_owned(), 250);
        assert_eq!(g.evaluate(&inputs)["y"], 100);
        inputs.insert("x".to_owned(), 42);
        assert_eq!(g.evaluate(&inputs)["y"], 42);
    }

    #[test]
    fn symbol_table_binds_and_shadows() {
        let mut b = CdfgBuilder::new("t");
        let a = b.input("a");
        assert_eq!(b.lookup("a"), Some(a));
        let c = b.constant(1);
        b.bind("a", c);
        assert_eq!(b.lookup("a"), Some(c), "binding shadows the input");
        assert_eq!(b.lookup("missing"), None);
    }

    #[test]
    fn every_constant_call_adds_a_node() {
        let mut b = CdfgBuilder::new("t");
        let first = b.constant(1);
        let second = b.constant(1);
        assert_ne!(first, second);
        assert_eq!(b.cdfg().node_count(), 2);
    }

    #[test]
    fn finish_validates() {
        let b = CdfgBuilder::new("empty");
        assert!(b.finish().is_err(), "no outputs");
    }

    #[test]
    fn all_helper_ops_work() {
        let mut b = CdfgBuilder::with_bitwidth("ops", 16);
        let a = b.input("a");
        let c = b.input("b");
        let sum = b.add(a, c).unwrap();
        let diff = b.sub(a, c).unwrap();
        let prod = b.mul(sum, diff).unwrap();
        let lt = b.lt(a, c).unwrap();
        let ge = b.ge(a, c).unwrap();
        let eq = b.eq(a, c).unwrap();
        let ne = b.ne(a, c).unwrap();
        let sel1 = b.mux(lt, prod, sum).unwrap();
        let sel2 = b.mux(ge, sel1, diff).unwrap();
        let sel3 = b.mux(eq, sel2, prod).unwrap();
        let sel4 = b.mux(ne, sel3, sum).unwrap();
        b.output("o", sel4).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.default_bitwidth(), 16);
        assert_eq!(g.op_counts().mux, 4);
        assert_eq!(g.op_counts().comp, 4);
    }
}
