//! Cycle-accurate register-transfer simulation with switching-activity
//! accounting.
//!
//! This is the DesignPower substitute used for Table III: the design is
//! executed sample by sample, control step by control step, honouring the
//! controller's (possibly gated) enables.  For every execution unit the
//! simulator records how often it computed and how many input/output bits
//! toggled; an idle (shut-down) unit holds its previous operand values and
//! contributes no switching that cycle.
//!
//! The simulator also cross-checks every sample against the untimed
//! functional semantics of the CDFG ([`cdfg::Cdfg::evaluate`]) — if the
//! shut-down analysis ever disabled an operation whose value was actually
//! needed, the outputs would differ and the run would fail.

use std::collections::BTreeMap;
use std::fmt;

use binding::Datapath;
use cdfg::{Cdfg, NodeId, Op};
use sched::Schedule;

use crate::controller::Controller;

/// Errors produced by the RTL simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A primary input value is missing from the sample.
    MissingInput(String),
    /// An operation needed a value that was never computed — this indicates
    /// an unsound shut-down decision (or an invalid schedule).
    MissingValue {
        /// The operation that could not execute.
        node: NodeId,
        /// The operand whose value is missing.
        operand: NodeId,
    },
    /// The timed execution produced a different result than the untimed
    /// reference semantics.
    Mismatch {
        /// Output name where the difference was observed.
        output: String,
        /// Value produced by the RTL execution.
        rtl: i64,
        /// Value produced by the functional reference.
        reference: i64,
    },
    /// The datapath could not be constructed for this schedule.
    Binding(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingInput(name) => write!(f, "missing value for primary input `{name}`"),
            SimError::MissingValue { node, operand } => {
                write!(f, "operation {node} needs operand {operand} which was shut down or never computed")
            }
            SimError::Mismatch { output, rtl, reference } => {
                write!(
                    f,
                    "output `{output}` mismatch: rtl produced {rtl}, reference expects {reference}"
                )
            }
            SimError::Binding(msg) => write!(f, "datapath binding failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-unit activity accumulated over a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitActivity {
    /// Number of control steps in which the unit actually computed.
    pub active_cycles: u64,
    /// Number of control steps in which the unit was scheduled to compute
    /// but was shut down by the controller.
    pub gated_cycles: u64,
    /// Total number of input/output bits that toggled on the unit.
    pub toggled_bits: u64,
}

/// The result of simulating one input sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleResult {
    /// Primary output values.
    pub outputs: BTreeMap<String, i64>,
    /// Operations that executed this sample.
    pub executed: Vec<NodeId>,
    /// Operations that were shut down this sample.
    pub gated: Vec<NodeId>,
}

/// A cycle-accurate simulator for one scheduled, power-managed design.
#[derive(Debug, Clone)]
pub struct Simulator {
    cdfg: Cdfg,
    /// The scheduled nodes by step, then node id: the execution order.
    order: Vec<NodeId>,
    controller: Controller,
    datapath: Datapath,
    mask: i64,
    /// Last operand/result values seen by each *operation* (persists across
    /// samples, modelling the operand registers whose load enables the
    /// controller gates; a shut-down operation holds its previous values).
    op_state: BTreeMap<NodeId, Vec<i64>>,
    activity: BTreeMap<binding::UnitId, UnitActivity>,
    samples_run: u64,
}

impl Simulator {
    /// Builds a simulator for the given design, schedule and controller.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Binding`] when the datapath cannot be built (e.g.
    /// the schedule is incomplete).
    pub fn new(
        cdfg: &Cdfg,
        schedule: &Schedule,
        controller: &Controller,
    ) -> Result<Self, SimError> {
        let datapath =
            Datapath::build(cdfg, schedule).map_err(|e| SimError::Binding(e.to_string()))?;
        let mask =
            if cdfg.default_bitwidth() >= 64 { -1 } else { (1i64 << cdfg.default_bitwidth()) - 1 };
        Ok(Simulator {
            cdfg: cdfg.clone(),
            order: schedule.by_step().into_iter().flat_map(|(_, nodes)| nodes).collect(),
            controller: controller.clone(),
            datapath,
            mask,
            op_state: BTreeMap::new(),
            activity: BTreeMap::new(),
            samples_run: 0,
        })
    }

    /// The datapath the simulator executes on.
    pub fn datapath(&self) -> &Datapath {
        &self.datapath
    }

    /// Number of samples simulated so far.
    pub fn samples_run(&self) -> u64 {
        self.samples_run
    }

    /// Runs one input sample through the whole schedule and returns the
    /// outputs together with the executed/gated operation sets.
    ///
    /// # Errors
    ///
    /// See [`SimError`]; in particular a [`SimError::Mismatch`] or
    /// [`SimError::MissingValue`] indicates an unsound power-management
    /// decision.
    pub fn run_sample(&mut self, inputs: &BTreeMap<String, i64>) -> Result<SampleResult, SimError> {
        // Seed values: primary inputs and constants.  Values are kept at
        // full word precision so the timed execution matches the untimed
        // reference semantics exactly; the datapath bitwidth only affects
        // the switching-activity accounting below.
        let mut values: BTreeMap<NodeId, i64> = BTreeMap::new();
        for (node, data) in self.cdfg.iter_nodes() {
            match data.op {
                Op::Input => {
                    let v = *inputs
                        .get(&data.name)
                        .ok_or_else(|| SimError::MissingInput(data.name.clone()))?;
                    values.insert(node, v);
                }
                Op::Const(c) => {
                    values.insert(node, c);
                }
                _ => {}
            }
        }

        let mut executed = Vec::new();
        let mut gated = Vec::new();

        for &node in &self.order {
            let Some(enable) = self.controller.enable(node) else { continue };
            // Evaluate the gating conjunction using values recorded in
            // earlier steps.
            let mut active = true;
            for cond in &enable.conditions {
                let cond_value = values.get(&cond.condition).copied().unwrap_or(0) != 0;
                if cond_value != cond.active_when_one {
                    active = false;
                    break;
                }
            }
            if !active {
                gated.push(node);
                if let Some(unit) = self.datapath.fu_binding().unit_of(node) {
                    self.activity.entry(unit).or_default().gated_cycles += 1;
                }
                continue;
            }

            // Gather operand values.
            let operands = self.cdfg.operands(node);
            let mut args = Vec::with_capacity(operands.len());
            for operand in operands {
                match values.get(operand) {
                    Some(&v) => args.push(v),
                    None => {
                        // The mux is special: only the selected data
                        // input needs a value (the other one may have
                        // been shut down).
                        if self.cdfg.op(node) == Op::Mux {
                            args.push(0);
                        } else {
                            return Err(SimError::MissingValue { node, operand: *operand });
                        }
                    }
                }
            }
            let result = if self.cdfg.op(node) == Op::Mux {
                // Re-read the selected input explicitly so a missing
                // discarded input cannot corrupt the result.
                let select = args[0];
                let chosen = if select != 0 { operands[2] } else { operands[1] };
                match values.get(&chosen) {
                    Some(&v) => v,
                    None => return Err(SimError::MissingValue { node, operand: chosen }),
                }
            } else {
                self.cdfg.op(node).eval(&args)
            };
            values.insert(node, result);
            executed.push(node);

            // Switching accounting on the unit executing this node,
            // restricted to the datapath word width.
            if let Some(unit) = self.datapath.fu_binding().unit_of(node) {
                let mut snapshot: Vec<i64> = args.iter().map(|v| v & self.mask).collect();
                snapshot.push(result & self.mask);
                let entry = self.activity.entry(unit).or_default();
                entry.active_cycles += 1;
                let previous = self.op_state.entry(node).or_default();
                let toggles = hamming(previous, &snapshot);
                entry.toggled_bits += toggles;
                *previous = snapshot;
            }
        }

        // Collect and cross-check outputs.
        let reference = self.cdfg.evaluate(inputs);
        let mut outputs = BTreeMap::new();
        for &out in self.cdfg.outputs() {
            let name = self.cdfg.node(out).expect("live output").name.clone();
            let driver = self.cdfg.operands(out)[0];
            let value = values
                .get(&driver)
                .copied()
                .ok_or(SimError::MissingValue { node: out, operand: driver })?;
            let expect = reference[&name];
            if value != expect {
                return Err(SimError::Mismatch { output: name, rtl: value, reference: expect });
            }
            outputs.insert(name, value);
        }

        self.samples_run += 1;
        Ok(SampleResult { outputs, executed, gated })
    }

    /// Runs a batch of samples, returning the per-sample results.
    ///
    /// # Errors
    ///
    /// Stops at the first failing sample.
    pub fn run_samples(
        &mut self,
        samples: &[BTreeMap<String, i64>],
    ) -> Result<Vec<SampleResult>, SimError> {
        samples.iter().map(|s| self.run_sample(s)).collect()
    }

    /// Accumulated per-unit activity.
    pub fn activity(&self) -> &BTreeMap<binding::UnitId, UnitActivity> {
        &self.activity
    }

    /// Total toggled bits across all units (the raw switching count).
    pub fn total_toggled_bits(&self) -> u64 {
        self.activity.values().map(|a| a.toggled_bits).sum()
    }

    /// Total unit-cycles that were gated off.
    pub fn total_gated_cycles(&self) -> u64 {
        self.activity.values().map(|a| a.gated_cycles).sum()
    }
}

/// Bit-difference between two value snapshots (shorter snapshots are
/// zero-extended).
fn hamming(old: &[i64], new: &[i64]) -> u64 {
    let len = old.len().max(new.len());
    let mut toggles = 0u64;
    for i in 0..len {
        let a = old.get(i).copied().unwrap_or(0);
        let b = new.get(i).copied().unwrap_or(0);
        toggles += (a ^ b).count_ones() as u64;
    }
    toggles
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmsched::{power_manage, PowerManagementOptions};

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

    fn sample(a: i64, b: i64) -> BTreeMap<String, i64> {
        let mut s = BTreeMap::new();
        s.insert("a".to_owned(), a);
        s.insert("b".to_owned(), b);
        s
    }

    fn simulator(latency: u32) -> Simulator {
        let g = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(latency)).unwrap();
        let controller = Controller::generate(&result);
        Simulator::new(result.cdfg(), result.schedule(), &controller).unwrap()
    }

    #[test]
    fn outputs_match_reference_for_both_branches() {
        let mut sim = simulator(3);
        assert_eq!(sim.run_sample(&sample(9, 4)).unwrap().outputs["abs"], 5);
        assert_eq!(sim.run_sample(&sample(4, 9)).unwrap().outputs["abs"], 5);
        assert_eq!(sim.run_sample(&sample(7, 7)).unwrap().outputs["abs"], 0);
        assert_eq!(sim.samples_run(), 3);
    }

    #[test]
    fn managed_design_gates_one_subtraction_per_sample() {
        let mut sim = simulator(3);
        let r = sim.run_sample(&sample(9, 4)).unwrap();
        assert_eq!(r.gated.len(), 1, "exactly one subtraction is shut down");
        let r = sim.run_sample(&sample(4, 9)).unwrap();
        assert_eq!(r.gated.len(), 1);
        assert!(sim.total_gated_cycles() >= 2);
    }

    #[test]
    fn unmanaged_design_gates_nothing_and_toggles_more() {
        let mut managed = simulator(3);
        let mut unmanaged = simulator(2);
        for i in 0..50i64 {
            let s = sample((i * 37) % 256, (i * 91) % 256);
            managed.run_sample(&s).unwrap();
            unmanaged.run_sample(&s).unwrap();
        }
        assert_eq!(unmanaged.total_gated_cycles(), 0);
        assert!(managed.total_gated_cycles() >= 50);
        // The managed design executes fewer operations, so it toggles fewer
        // bits on its subtractor units overall.
        assert!(managed.total_toggled_bits() < unmanaged.total_toggled_bits() * 2);
    }

    #[test]
    fn missing_input_is_reported() {
        let mut sim = simulator(3);
        let err = sim.run_sample(&BTreeMap::new()).unwrap_err();
        assert!(matches!(err, SimError::MissingInput(_)));
    }

    #[test]
    fn wide_values_still_match_the_reference() {
        let mut sim = simulator(3);
        // Word-level values match the untimed reference exactly; only the
        // switching-activity accounting is restricted to the 8-bit width.
        let r = sim.run_sample(&sample(300, 10)).unwrap();
        assert_eq!(r.outputs["abs"], 290);
        assert!(sim.total_toggled_bits() > 0);
    }

    #[test]
    fn run_samples_batches() {
        let mut sim = simulator(3);
        let batch: Vec<_> = (0..10).map(|i| sample(i, 10 - i)).collect();
        let results = sim.run_samples(&batch).unwrap();
        assert_eq!(results.len(), 10);
    }
}
