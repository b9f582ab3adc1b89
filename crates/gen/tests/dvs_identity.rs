//! Identity tests for the fine-grained DVS kernel: the heap-driven
//! `sched::dvs::distribute_slack` must make exactly the choices of the
//! original flat-scan greedy (`sched::dvs::naive_distribute_slack`, the
//! `reference` feature) — the same level per node, the same energy bits and
//! the same promotion count.
//!
//! `dvs_gap` only checks that the greedy stays admissible against the exact
//! search; these tests are what catch a changed greedy pick.  Weights come
//! from the power-management pipeline exactly as the Pareto explorer builds
//! them; hand-built cases cover the tie, zero, NaN and one-level corners.

use cdfg::{Cdfg, NodeId, Op};
use gen::{Family, GenSpec};
use pmsched::{power_manage, OpWeights, PowerManagementOptions, SelectProbabilities};
use power::VoltagePreset;
use proptest::prelude::*;
use sched::dvs::{self, LevelAssignment, SlackLevel};

const PRESETS: [VoltagePreset; 3] =
    [VoltagePreset::TwoLevel, VoltagePreset::ThreeLevel, VoltagePreset::FiveLevel];

/// Mid-sized family specs: large enough for hundreds of promotions and
/// long slack-sharing chains, small enough for the reference's
/// rescan-everything loop in a debug build.
fn spec_for(family: Family, seed: u64, size: u8) -> GenSpec {
    let mut spec = GenSpec::new(family, seed, 1);
    match family {
        Family::RandomDag => {
            spec.width = 4 + u32::from(size % 3) * 4; // 4, 8 or 12
            spec.depth = 6 + u32::from(size / 3) * 4; // 6, 10 or 14
            spec.mux_permille = 250;
        }
        Family::MuxTree => spec.depth = 3 + u32::from(size % 3), // 3..=5
        Family::DspChain => spec.taps = 4 + u32::from(size % 3) * 4, // 4..=12
        Family::Cordic => spec.iters = 3 + u32::from(size % 4),  // 3..=6
    }
    spec
}

fn assert_same(fast: &LevelAssignment, slow: &LevelAssignment, context: &str) {
    assert_eq!(fast.levels(), slow.levels(), "{context}: levels differ");
    assert_eq!(fast.energy().to_bits(), slow.energy().to_bits(), "{context}: energy differs");
    assert_eq!(fast.promotions(), slow.promotions(), "{context}: promotion count differs");
}

/// Runs both kernels on `bench` at every budget from the critical path to
/// the critical path + 6, for every preset, with the explorer's weights
/// (paper power weight × activation probability on the managed graph).
/// One warm workspace serves the whole walk, as in the explorer.
fn check_budget_walk(bench: &circuits::Benchmark) {
    let cp = bench.cdfg.critical_path_length().max(1);
    let weights = OpWeights::paper_power();
    let mut ws = dvs::Workspace::new();
    for budget in cp..=cp + 6 {
        let result = power_manage(&bench.cdfg, &PowerManagementOptions::with_latency(budget))
            .expect("budget at or above the critical path is feasible");
        let activation = result.activation(&SelectProbabilities::fair());
        let pm = result.cdfg();
        let node_weight = |n: NodeId| {
            let class = pm.node(n).expect("live node").op.class();
            weights.weight(class) * activation.probability(n)
        };
        for preset in PRESETS {
            let levels = preset.table().slack_levels();
            let fast = dvs::distribute_slack(pm, result.latency(), &levels, &node_weight, &mut ws)
                .expect("nominal assignment is feasible at this budget");
            let slow = dvs::naive_distribute_slack(pm, result.latency(), &levels, &node_weight)
                .expect("nominal assignment is feasible at this budget");
            assert_same(&fast, &slow, &format!("{} budget {budget} {preset:?}", bench.name));
        }
    }
}

/// One circuit per family at each size, every preset, every budget in
/// cp..=cp+6.
#[test]
fn heap_kernel_equals_flat_scan_on_every_family() {
    for family in Family::ALL {
        for size in [2, 7] {
            let bench = gen::generate_one(&spec_for(family, 20261017, size), 0).expect("valid");
            check_budget_walk(&bench);
        }
    }
}

/// The paper's circuits, walked the same way.
#[test]
fn heap_kernel_equals_flat_scan_on_paper_circuits() {
    for bench in circuits::all_benchmarks() {
        check_budget_walk(&bench);
    }
}

fn family_strategy() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::RandomDag),
        Just(Family::MuxTree),
        Just(Family::DspChain),
        Just(Family::Cordic),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised seeds and sizes across the families.
    #[test]
    fn heap_kernel_equals_flat_scan_on_random_circuits(
        family in family_strategy(),
        seed in 0u64..1000,
        size in 0u8..9,
    ) {
        let bench = gen::generate_one(&spec_for(family, seed, size), 0).expect("valid");
        check_budget_walk(&bench);
    }
}

/// A wide random DAG with plain structural timing (no power management),
/// for the hand-built weight cases below.
fn wide_dag() -> Cdfg {
    let mut spec = GenSpec::new(Family::RandomDag, 7, 1);
    spec.width = 10;
    spec.depth = 8;
    spec.mux_permille = 200;
    gen::generate_one(&spec, 0).expect("valid").cdfg
}

/// A small diamond: two parallel chains of different length between one
/// source op and one sink op, so the short chain's slack is shared.
fn diamond() -> Cdfg {
    let mut g = Cdfg::new("diamond");
    let x = g.add_input("x");
    let y = g.add_input("y");
    let top = g.add_op(Op::Add, &[x, y]).unwrap();
    let mut long = top;
    for _ in 0..3 {
        long = g.add_op(Op::Neg, &[long]).unwrap();
    }
    let short = g.add_op(Op::Mul, &[top, y]).unwrap();
    let bottom = g.add_op(Op::Sub, &[long, short]).unwrap();
    g.add_output("o", bottom).unwrap();
    g
}

fn check_weights(g: &Cdfg, levels: &[SlackLevel], weight: &dyn Fn(NodeId) -> f64, what: &str) {
    let cp = g.critical_path_length().max(1);
    let mut ws = dvs::Workspace::new();
    for latency in cp..=cp + 8 {
        let fast = dvs::distribute_slack(g, latency, levels, weight, &mut ws).unwrap();
        let slow = dvs::naive_distribute_slack(g, latency, levels, weight).unwrap();
        assert_same(&fast, &slow, &format!("{} {what} @ {latency}", g.name()));
    }
}

/// Equal weights make every gain at one level a tie: the kernel must break
/// each one towards the lowest node id, like the scan.
#[test]
fn equal_weights_break_ties_by_node_id() {
    for g in [wide_dag(), diamond()] {
        for preset in PRESETS {
            check_weights(&g, &preset.table().slack_levels(), &|_| 1.0, "equal weights");
        }
    }
}

/// Weightless operations never consume slack; mixing them with weighted
/// ones must not shift any weighted choice.
#[test]
fn zero_weights_never_promote() {
    for g in [wide_dag(), diamond()] {
        let levels = VoltagePreset::FiveLevel.table().slack_levels();
        check_weights(&g, &levels, &|_| 0.0, "all zero");
        check_weights(&g, &levels, &|n| if n.index() % 3 == 0 { 0.0 } else { 2.5 }, "some zero");
        check_weights(&g, &levels, &|n| if n.index() % 2 == 0 { -0.0 } else { 1.0 }, "neg zero");
    }
}

/// A NaN weight is never promoted and poisons the energy identically in
/// both kernels (same operations in the same order, so the same bits).
#[test]
fn nan_weights_are_skipped_identically() {
    for g in [wide_dag(), diamond()] {
        let poisoned = g.slices().functional()[1];
        let weight = move |n: NodeId| if n == poisoned { f64::NAN } else { 1.0 + n.index() as f64 };
        let levels = VoltagePreset::ThreeLevel.table().slack_levels();
        check_weights(&g, &levels, &weight, "one NaN");
        let latency = g.critical_path_length() + 4;
        let mut ws = dvs::Workspace::new();
        let a = dvs::distribute_slack(&g, latency, &levels, &weight, &mut ws).unwrap();
        assert_eq!(a.level_of(poisoned), 0, "a NaN-weighted op stays nominal");
        assert!(a.energy().is_nan());
    }
}

/// A one-level table leaves nothing to promote.
#[test]
fn one_level_table_promotes_nothing() {
    let levels = [SlackLevel { delay_steps: 1, energy_factor: 1.0 }];
    for g in [wide_dag(), diamond()] {
        check_weights(&g, &levels, &|n| 1.0 + n.index() as f64, "one level");
        let latency = g.critical_path_length() + 5;
        let mut ws = dvs::Workspace::new();
        let a = dvs::distribute_slack(&g, latency, &levels, &|_| 1.0, &mut ws).unwrap();
        assert_eq!(a.promotions(), 0);
    }
}
