//! Optimality-gap property tests for the fine-grained DVS kernel: on
//! small circuits from every generator family, the greedy
//! slack-distribution kernel (`sched::dvs::distribute_slack`) must never
//! beat the exact branch-and-bound reference
//! (`sched::dvs::exact_min_energy`, the `reference` feature) — the exact
//! search is a true lower bound — and the measured gap is reported with
//! every failure so a regression shows its size, not just its sign.
//!
//! Weights come from the full power-management pipeline exactly as the
//! Pareto explorer uses it: the managed graph, fair select
//! probabilities, and the paper's operation power weights scaled by
//! activation probability.

use gen::{Family, GenSpec};
use pmsched::{power_manage, OpWeights, PowerManagementOptions, SelectProbabilities};
use power::VoltagePreset;
use proptest::prelude::*;

/// Small family specs — the exact search is exponential in the worst
/// case, so every knob stays at smoke size.
fn spec_for(family: Family, seed: u64, size: u8) -> GenSpec {
    let mut spec = GenSpec::new(family, seed, 1);
    match family {
        Family::RandomDag => {
            spec.width = 3;
            spec.depth = 4 + u32::from(size % 2);
            spec.mux_permille = 300;
        }
        Family::MuxTree => spec.depth = 2,
        Family::DspChain => spec.taps = 3 + u32::from(size % 2),
        Family::Cordic => spec.iters = 2,
    }
    spec
}

fn family_strategy() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::RandomDag),
        Just(Family::MuxTree),
        Just(Family::DspChain),
        Just(Family::Cordic),
    ]
}

fn preset_strategy() -> impl Strategy<Value = VoltagePreset> {
    prop_oneof![
        Just(VoltagePreset::TwoLevel),
        Just(VoltagePreset::ThreeLevel),
        Just(VoltagePreset::FiveLevel),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The greedy kernel is admissible: its energy never drops below the
    /// exact minimum (up to float-summation rounding), at any feasible
    /// budget, for any preset, on any family.
    #[test]
    fn greedy_kernel_never_beats_the_exact_reference(
        family in family_strategy(),
        preset in preset_strategy(),
        seed in 0u64..500,
        size in 0u8..4,
        slack in 0u32..3,
    ) {
        let spec = spec_for(family, seed, size);
        let bench = gen::generate_one(&spec, 0).expect("generator produces valid circuits");
        // Cap the exact search's input size; the smoke knobs stay under
        // this for every family, so nothing is silently skipped.
        let functional = bench.cdfg.slices().functional().len();
        prop_assert!(functional <= 24, "spec produced {functional} functional nodes");

        let budget = bench.cdfg.critical_path_length().max(1) + slack;
        let result = power_manage(&bench.cdfg, &PowerManagementOptions::with_latency(budget))
            .expect("budget at or above the critical path is feasible");
        let probs = SelectProbabilities::fair();
        let activation = result.activation(&probs);
        let weights = OpWeights::paper_power();
        let pm = result.cdfg();
        let node_weight = |n: cdfg::NodeId| {
            let class = pm.node(n).expect("live node").op.class();
            weights.weight(class) * activation.probability(n)
        };

        let table = preset.table();
        let levels = table.slack_levels();
        let mut ws = sched::dvs::Workspace::new();
        let heur =
            sched::dvs::distribute_slack(pm, result.latency(), &levels, &node_weight, &mut ws)
                .expect("nominal assignment is feasible at this budget");
        let exact = sched::dvs::exact_min_energy(pm, result.latency(), &levels, &node_weight)
            .expect("nominal assignment is feasible at this budget");

        let tolerance = 1e-9 * exact.energy().abs().max(1.0);
        let gap_percent = if exact.energy() > 0.0 {
            (heur.energy() - exact.energy()) / exact.energy() * 100.0
        } else {
            0.0
        };
        prop_assert!(
            heur.energy() >= exact.energy() - tolerance,
            "{} budget {budget} preset {preset:?}: greedy {} beat exact {} (gap {gap_percent:.4}%)",
            bench.name, heur.energy(), exact.energy()
        );
        // At zero slack with no off-critical-path freedom the two agree;
        // in general the gap is finite and reported.
        prop_assert!(gap_percent.is_finite(), "{}: non-finite gap", bench.name);
    }
}
