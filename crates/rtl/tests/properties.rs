//! Property-based tests for the RTL stage: for random conditional designs,
//! random latencies and random input samples, the power-managed RTL must
//! always compute the same outputs as the untimed reference semantics, and
//! gating must only ever remove switching activity.

use std::collections::BTreeMap;

use cdfg::{Cdfg, NodeId, Op};
use pmsched::{power_manage, PowerManagementOptions};
use proptest::prelude::*;
use rtl::{Controller, Simulator};

#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    steps: Vec<(u8, usize, usize, usize)>,
    extra_latency: u32,
    stimuli: Vec<i64>,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (
        2usize..5,
        prop::collection::vec((0u8..8, 0usize..64, 0usize..64, 0usize..64), 1..20),
        0u32..4,
        prop::collection::vec(-300i64..300, 8..24),
    )
        .prop_map(|(num_inputs, steps, extra_latency, stimuli)| Recipe {
            num_inputs,
            steps,
            extra_latency,
            stimuli,
        })
}

fn build(recipe: &Recipe) -> Cdfg {
    let mut g = Cdfg::new("random");
    let mut values: Vec<NodeId> = Vec::new();
    for i in 0..recipe.num_inputs {
        values.push(g.add_input(format!("in{i}")));
    }
    for &(opcode, a, b, c) in &recipe.steps {
        let pick = |idx: usize| values[idx % values.len()];
        let node = match opcode {
            0 => g.add_op(Op::Add, &[pick(a), pick(b)]).unwrap(),
            1 => g.add_op(Op::Sub, &[pick(a), pick(b)]).unwrap(),
            2 => g.add_op(Op::Mul, &[pick(a), pick(b)]).unwrap(),
            3 => g.add_op(Op::Ge, &[pick(a), pick(b)]).unwrap(),
            _ => {
                let sel = g.add_op(Op::Gt, &[pick(a), pick(b)]).unwrap();
                g.add_mux(sel, pick(b), pick(c)).unwrap()
            }
        };
        values.push(node);
    }
    let last = *values.last().expect("nonempty");
    g.add_output("out", last).unwrap();
    g
}

fn samples(recipe: &Recipe, cdfg: &Cdfg) -> Vec<BTreeMap<String, i64>> {
    let names: Vec<String> =
        cdfg.inputs().iter().map(|&n| cdfg.node(n).unwrap().name.clone()).collect();
    recipe
        .stimuli
        .chunks(names.len().max(1))
        .filter(|chunk| chunk.len() == names.len())
        .map(|chunk| names.iter().cloned().zip(chunk.iter().copied()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The power-managed RTL always matches the reference semantics — the
    /// simulator's built-in cross-check would fail the run otherwise — and
    /// the controller's gating never touches operations outside the
    /// shut-down sets.
    #[test]
    fn managed_rtl_matches_reference(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let result = power_manage(&g, &PowerManagementOptions::with_latency(latency)).unwrap();
        let controller = Controller::generate(&result);
        let mut sim = Simulator::new(result.cdfg(), result.schedule(), &controller).unwrap();

        let all_shutdown: Vec<NodeId> = result
            .managed_muxes()
            .iter()
            .flat_map(|m| m.shutdown_false.iter().chain(m.shutdown_true.iter()).copied())
            .collect();

        for sample in samples(&recipe, &g) {
            let run = sim.run_sample(&sample).unwrap();
            for gated in &run.gated {
                prop_assert!(all_shutdown.contains(gated), "{gated} gated but never a candidate");
            }
            // Everything scheduled is either executed or gated.
            prop_assert_eq!(run.executed.len() + run.gated.len(), g.slices().functional().len());
        }
    }

    /// Over identical stimuli, the managed design never toggles more bits
    /// than the unmanaged baseline plus a small tolerance (held operand
    /// registers can only remove transitions).
    #[test]
    fn gating_only_removes_switching(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let result = power_manage(&g, &PowerManagementOptions::with_latency(latency)).unwrap();

        let managed_ctrl = Controller::generate(&result);
        let baseline_ctrl = Controller::ungated(&g, result.baseline_schedule());
        let mut managed = Simulator::new(result.cdfg(), result.schedule(), &managed_ctrl).unwrap();
        let mut baseline = Simulator::new(&g, result.baseline_schedule(), &baseline_ctrl).unwrap();

        for sample in samples(&recipe, &g) {
            managed.run_sample(&sample).unwrap();
            baseline.run_sample(&sample).unwrap();
        }
        prop_assert_eq!(baseline.total_gated_cycles(), 0);
        // Per-operation switching accounting: gating holds operand registers,
        // so the managed total can only be lower or equal.
        prop_assert!(
            managed.total_toggled_bits() <= baseline.total_toggled_bits(),
            "managed toggles {} > baseline {}",
            managed.total_toggled_bits(),
            baseline.total_toggled_bits()
        );
    }

    /// The generated VHDL contains one guarded assignment per gated enable
    /// and mentions every primary port.
    #[test]
    fn vhdl_structure_matches_controller(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let result = power_manage(&g, &PowerManagementOptions::with_latency(latency)).unwrap();
        let controller = Controller::generate(&result);
        let vhdl = rtl::vhdl::emit(&result, &controller);
        prop_assert_eq!(vhdl.matches("-- power managed").count(), controller.gated_enable_count());
        for &input in g.inputs() {
            let name = &g.node(input).unwrap().name;
            prop_assert!(vhdl.contains(name.as_str()));
        }
        prop_assert!(vhdl.contains("end architecture rtl;"));
    }
}
