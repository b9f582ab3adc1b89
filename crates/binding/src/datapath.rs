//! The assembled datapath: execution units, registers and steering logic.
//!
//! The steering network comes from one list of `(unit, port, source)`
//! triples, one per operand read, sorted and deduplicated: each run of
//! equal `(unit, port)` is one [`PortRouting`].  The operand sources are
//! stored by node index, each node's ports contiguous.

use std::collections::BTreeSet;

use cdfg::{Cdfg, NodeId};
use sched::Schedule;

use crate::error::BindError;
use crate::fu::{FuBinding, UnitId};
use crate::register::{RegisterAllocation, RegisterId};

/// Where a unit input operand comes from in a given control step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OperandSource {
    /// A register of the datapath.
    Register(RegisterId),
    /// A constant hard-wired into the steering logic.
    Constant(i64),
    /// The operand is produced by a unit in the same control step (chaining
    /// is not used by this flow, but the representation allows it so the
    /// simulator can fall back to forwarding when a value is produced and
    /// consumed in the same step).
    Forward(NodeId),
}

/// One input port of one execution unit, together with every source that is
/// ever routed to it.  More than one source means a steering multiplexor is
/// needed in front of the port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortRouting {
    /// The unit the port belongs to.
    pub unit: UnitId,
    /// The port index (0-based operand position).
    pub port: u16,
    /// Every distinct source routed to this port across all control steps.
    pub sources: BTreeSet<OperandSource>,
}

impl PortRouting {
    /// Number of steering-multiplexor data inputs this port requires
    /// (0 when a single source is wired directly).
    pub fn steering_inputs(&self) -> usize {
        if self.sources.len() > 1 {
            self.sources.len()
        } else {
            0
        }
    }
}

/// The complete datapath model produced from a scheduled, bound design.
#[derive(Debug, Clone)]
pub struct Datapath {
    fu: FuBinding,
    registers: RegisterAllocation,
    routing: Vec<PortRouting>,
    /// `operand_sources[operand_index[n]..operand_index[n + 1]]` are the
    /// sources of node `n`'s operands in port order (empty unless `n` is
    /// functional).
    operand_index: Vec<u32>,
    operand_sources: Vec<OperandSource>,
    bitwidth: u32,
}

impl Datapath {
    /// Builds the datapath for a scheduled CDFG: binds operations to units,
    /// allocates registers and derives the steering network.
    ///
    /// # Errors
    ///
    /// Propagates binding errors (unscheduled or unknown nodes).
    pub fn build(cdfg: &Cdfg, schedule: &Schedule) -> Result<Self, BindError> {
        Datapath::build_partitioned(cdfg, schedule, &|_| 0)
    }

    /// Builds the datapath with a unit-sharing partition (see
    /// [`FuBinding::bind_partitioned`]): operations in different partitions
    /// — e.g. at different supply voltages — never share an execution
    /// unit, so the resulting area reflects the voltage-partitioned
    /// binding.  `build` is the single-partition case and produces an
    /// identical datapath.
    ///
    /// # Errors
    ///
    /// Propagates binding errors (unscheduled or unknown nodes).
    pub fn build_partitioned(
        cdfg: &Cdfg,
        schedule: &Schedule,
        partition: &dyn Fn(NodeId) -> u32,
    ) -> Result<Self, BindError> {
        let fu = FuBinding::bind_partitioned(cdfg, schedule, partition)?;
        let registers = RegisterAllocation::allocate(cdfg, schedule)?;

        let slices = cdfg.slices();
        let mut operand_index: Vec<u32> = Vec::with_capacity(slices.slot_count() + 1);
        let mut operand_sources: Vec<OperandSource> = Vec::new();
        let mut routed: Vec<(UnitId, u16, OperandSource)> = Vec::new();
        operand_index.push(0);
        for node in cdfg.node_ids() {
            if slices.is_functional(node) {
                let unit = fu.unit_of(node).ok_or(BindError::UnscheduledNode(node))?;
                for (port, &operand) in cdfg.operands(node).iter().enumerate() {
                    let source = source_of(cdfg, &registers, schedule, node, operand);
                    routed.push((unit, port as u16, source));
                    operand_sources.push(source);
                }
            }
            operand_index.push(operand_sources.len() as u32);
        }

        routed.sort_unstable();
        routed.dedup();
        let mut routing: Vec<PortRouting> = Vec::new();
        let mut rest = &routed[..];
        while let Some(&(unit, port, _)) = rest.first() {
            let len = rest.iter().take_while(|r| (r.0, r.1) == (unit, port)).count();
            let (run, tail) = rest.split_at(len);
            routing.push(PortRouting { unit, port, sources: run.iter().map(|r| r.2).collect() });
            rest = tail;
        }

        Ok(Datapath {
            fu,
            registers,
            routing,
            operand_index,
            operand_sources,
            bitwidth: cdfg.default_bitwidth(),
        })
    }

    /// The functional-unit binding.
    pub fn fu_binding(&self) -> &FuBinding {
        &self.fu
    }

    /// The physical execution units.
    pub fn units(&self) -> &[crate::fu::FunctionalUnit] {
        self.fu.units()
    }

    /// The physical registers.
    pub fn registers(&self) -> &[crate::register::Register] {
        self.registers.registers()
    }

    /// Per-port routing information (the steering network).
    pub fn routing(&self) -> &[PortRouting] {
        &self.routing
    }

    /// The datapath word width in bits.
    pub fn bitwidth(&self) -> u32 {
        self.bitwidth
    }

    /// The source feeding operand `port` of operation `node`.
    pub fn operand_source(&self, node: NodeId, port: u16) -> Option<OperandSource> {
        let start = *self.operand_index.get(node.index())? as usize;
        let end = *self.operand_index.get(node.index() + 1)? as usize;
        self.operand_sources[start..end].get(usize::from(port)).copied()
    }

    /// Total number of steering-multiplexor data inputs in the datapath (a
    /// proxy for interconnect complexity and area).
    pub fn steering_input_count(&self) -> usize {
        self.routing.iter().map(PortRouting::steering_inputs).sum()
    }
}

fn source_of(
    cdfg: &Cdfg,
    registers: &RegisterAllocation,
    schedule: &Schedule,
    consumer: NodeId,
    operand: NodeId,
) -> OperandSource {
    let data = cdfg.node(operand).expect("live operand");
    if let cdfg::Op::Const(c) = data.op {
        return OperandSource::Constant(c);
    }
    if let Some(reg) = registers.register_of(operand) {
        // Same-step production (chaining) still reads the forwarded value,
        // not the register, because the register is only loaded at the end
        // of the producing step.
        let produced = registers.lifetime(operand).map(|l| l.birth).unwrap_or(0);
        let consumed = schedule.step_of(consumer).unwrap_or(u32::MAX);
        if produced == consumed && data.op.is_functional() {
            return OperandSource::Forward(operand);
        }
        return OperandSource::Register(reg);
    }
    OperandSource::Forward(operand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::{Op, OpClass};
    use sched::hyper::{self, HyperOptions};

    fn abs_diff() -> Cdfg {
        let mut g = Cdfg::new("abs_diff");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let gt = g.add_op(Op::Gt, &[a, b]).unwrap();
        let amb = g.add_op(Op::Sub, &[a, b]).unwrap();
        let bma = g.add_op(Op::Sub, &[b, a]).unwrap();
        let m = g.add_mux(gt, bma, amb).unwrap();
        g.add_output("abs", m).unwrap();
        g
    }

    #[test]
    fn datapath_has_units_registers_and_routing() {
        let g = abs_diff();
        let s = hyper::schedule(&g, &HyperOptions::with_latency(3)).unwrap();
        let dp = Datapath::build(&g, &s).unwrap();
        assert_eq!(dp.fu_binding().unit_count(OpClass::Sub), 1);
        assert!(dp.registers().len() >= 3, "inputs plus intermediates need storage");
        assert!(!dp.routing().is_empty());
        assert_eq!(dp.bitwidth(), 8);
    }

    #[test]
    fn shared_subtractor_needs_steering() {
        // With one subtractor executing both a-b and b-a, its two input
        // ports each see two different sources, so steering muxes appear.
        let g = abs_diff();
        let s = hyper::schedule(&g, &HyperOptions::with_latency(3)).unwrap();
        let dp = Datapath::build(&g, &s).unwrap();
        assert!(dp.steering_input_count() >= 4);

        // With two subtractors (latency 2) each port has a single source.
        let s2 = hyper::schedule(&g, &HyperOptions::with_latency(2)).unwrap();
        let dp2 = Datapath::build(&g, &s2).unwrap();
        assert!(dp2.steering_input_count() < dp.steering_input_count());
    }

    #[test]
    fn constants_are_wired_not_registered() {
        let mut g = Cdfg::new("clamp");
        let x = g.add_input("x");
        let hi = g.add_const(100);
        let over = g.add_op(Op::Gt, &[x, hi]).unwrap();
        let m = g.add_mux(over, x, hi).unwrap();
        g.add_output("y", m).unwrap();
        let s = hyper::schedule(&g, &HyperOptions::with_latency(2)).unwrap();
        let dp = Datapath::build(&g, &s).unwrap();
        assert_eq!(dp.operand_source(over, 1), Some(OperandSource::Constant(100)));
    }

    #[test]
    fn every_operand_has_a_source() {
        let g = abs_diff();
        for latency in 2..=4 {
            let s = hyper::schedule(&g, &HyperOptions::with_latency(latency)).unwrap();
            let dp = Datapath::build(&g, &s).unwrap();
            for &node in g.slices().functional() {
                for port in 0..g.node(node).unwrap().op.arity() as u16 {
                    assert!(
                        dp.operand_source(node, port).is_some(),
                        "missing source for {node}:{port}"
                    );
                }
            }
        }
    }
}
