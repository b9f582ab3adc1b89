//! End-to-end integration tests: Silage source → CDFG → power-managed
//! schedule → binding → controller → RTL simulation, cross-checked against
//! the untimed reference semantics.

use std::collections::BTreeMap;

use binding::Datapath;
use cdfg::OpClass;
use pmsched::{power_manage, PowerManagementOptions};
use power::RandomVectors;
use rtl::{Controller, Simulator};

/// Runs the complete flow for one design at one latency and checks
/// functional equivalence over random vectors.
fn full_flow(cdfg: &cdfg::Cdfg, latency: u32, samples: usize) {
    let result = power_manage(cdfg, &PowerManagementOptions::with_latency(latency))
        .expect("power management succeeds");
    result.schedule().validate(result.cdfg()).expect("valid schedule");
    result.baseline_schedule().validate(cdfg).expect("valid baseline schedule");

    let datapath = Datapath::build(result.cdfg(), result.schedule()).expect("datapath builds");
    assert!(!datapath.units().is_empty());
    assert!(!datapath.registers().is_empty());

    let controller = Controller::generate(&result);
    let mut sim =
        Simulator::new(result.cdfg(), result.schedule(), &controller).expect("simulator builds");

    let vectors = RandomVectors::new(cdfg, 0xE2E).samples(samples);
    for sample in &vectors {
        // run_sample internally cross-checks against Cdfg::evaluate and
        // fails on any mismatch, so simply completing is the assertion.
        sim.run_sample(sample).expect("timed execution matches reference semantics");
    }
    assert_eq!(sim.samples_run(), samples as u64);

    // The VHDL artifact mentions every primary port.
    let vhdl = rtl::vhdl::emit(&result, &controller);
    for &input in cdfg.inputs() {
        let name = &cdfg.node(input).unwrap().name;
        assert!(vhdl.contains(name.as_str()), "vhdl mentions input {name}");
    }
}

#[test]
fn abs_diff_flow_from_silage_source() {
    let cdfg = silage::compile(circuits::abs_diff_silage_source()).unwrap();
    full_flow(&cdfg, 3, 64);
}

#[test]
fn dealer_flow_at_all_paper_budgets() {
    let cdfg = circuits::dealer();
    for steps in [4, 5, 6] {
        full_flow(&cdfg, steps, 48);
    }
}

#[test]
fn gcd_flow_at_all_paper_budgets() {
    let cdfg = circuits::gcd();
    for steps in [5, 6, 7] {
        full_flow(&cdfg, steps, 48);
    }
}

#[test]
fn vender_flow_at_all_paper_budgets() {
    let cdfg = circuits::vender();
    for steps in [5, 6] {
        full_flow(&cdfg, steps, 48);
    }
}

#[test]
fn cordic_flow_at_paper_budgets() {
    // The full 16-iteration cordic is large; a modest number of samples
    // keeps the test quick while still exercising every iteration.
    let cdfg = circuits::cordic();
    for steps in [48, 52] {
        full_flow(&cdfg, steps, 8);
    }
}

#[test]
fn gated_operations_never_corrupt_outputs_under_resource_pressure() {
    // Constrain the vender design to its baseline allocation and simulate;
    // the simulator's internal cross-check guarantees that partially managed
    // schedules still compute correct results.
    let cdfg = circuits::vender();
    let unconstrained = power_manage(&cdfg, &PowerManagementOptions::with_latency(6)).unwrap();
    let allocation = unconstrained.baseline_resource_usage();
    let options =
        PowerManagementOptions::with_resources(6, sched::ResourceConstraint::Limited(allocation));
    let result = power_manage(&cdfg, &options).unwrap();
    let controller = Controller::generate(&result);
    let mut sim = Simulator::new(result.cdfg(), result.schedule(), &controller).unwrap();
    for sample in RandomVectors::new(&cdfg, 77).samples(128) {
        sim.run_sample(&sample).unwrap();
    }
    // The multipliers are the expensive units; at least one of them must be
    // idle for a noticeable fraction of the samples.
    let mul_gated: u64 = sim
        .activity()
        .iter()
        .filter(|(unit, _)| {
            sim.datapath()
                .fu_binding()
                .unit(**unit)
                .map(|u| u.class == OpClass::Mul)
                .unwrap_or(false)
        })
        .map(|(_, a)| a.gated_cycles)
        .sum();
    assert!(mul_gated > 0, "multipliers are shut down for some samples");
}

#[test]
fn simulation_energy_reflects_gating() {
    // The same design simulated with and without slack: the managed version
    // must toggle fewer bits on its gated units over identical inputs.
    let cdfg = circuits::vender();
    let vectors = RandomVectors::new(&cdfg, 1234).samples(200);

    let managed = power_manage(&cdfg, &PowerManagementOptions::with_latency(6)).unwrap();
    let managed_ctrl = Controller::generate(&managed);
    let mut managed_sim =
        Simulator::new(managed.cdfg(), managed.schedule(), &managed_ctrl).unwrap();

    let baseline_ctrl = Controller::ungated(&cdfg, managed.baseline_schedule());
    let mut baseline_sim =
        Simulator::new(&cdfg, managed.baseline_schedule(), &baseline_ctrl).unwrap();

    for sample in &vectors {
        managed_sim.run_sample(sample).unwrap();
        baseline_sim.run_sample(sample).unwrap();
    }
    assert!(managed_sim.total_gated_cycles() > 0);
    assert_eq!(baseline_sim.total_gated_cycles(), 0);
    assert!(
        managed_sim.total_toggled_bits() < baseline_sim.total_toggled_bits(),
        "gating must reduce switching: {} vs {}",
        managed_sim.total_toggled_bits(),
        baseline_sim.total_toggled_bits()
    );
}

#[test]
fn silage_programs_with_conditionals_flow_end_to_end() {
    let cdfg = silage::compile(include_str!("silage/filter.sil")).unwrap();
    assert_eq!(cdfg.op_counts().mux, 2);
    full_flow(&cdfg, cdfg.critical_path_length() + 1, 64);

    // Spot-check the functional semantics through the reference evaluator.
    let mut inputs = BTreeMap::new();
    inputs.insert("x".to_owned(), 10);
    inputs.insert("k".to_owned(), 5);
    inputs.insert("limit".to_owned(), 40);
    let out = cdfg.evaluate(&inputs);
    assert_eq!(out["y"], 40);
    assert_eq!(out["flag"], 1);
}
