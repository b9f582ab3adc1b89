//! Schedule-identity property tests: the incremental force-directed kernel
//! (`sched::force`) and the retained map-based reference (`sched::naive`)
//! must produce *equal* schedules — bit-identical step assignments — on
//! every circuit family the generator can draw, and must agree on
//! infeasibility errors.
//!
//! This is the contract the sweep byte-identity guarantees rest on: if the
//! two kernels ever diverge on any circuit, the incremental rewrite changed
//! observable behaviour and these tests fail before any JSON does.

use gen::{Family, GenSpec};
use pmsched::{power_manage, PowerManagementOptions};
use proptest::prelude::*;
use sched::error::ScheduleError;
use sched::{force, naive, repair, RepairWorkspace};

/// Builds the spec for one generated circuit of the given family with
/// family-appropriate size knobs.
fn spec_for(family: Family, seed: u64, size: u8) -> GenSpec {
    let mut spec = GenSpec::new(family, seed, 1);
    match family {
        Family::RandomDag => {
            spec.width = 4 + u32::from(size % 3) * 4; // 4, 8 or 12
            spec.depth = 6 + u32::from(size / 3) * 6; // 6, 12 or 18
            spec.mux_permille = 250;
        }
        Family::MuxTree => spec.depth = 3 + u32::from(size % 4), // 3..=6
        Family::DspChain => spec.taps = 4 + u32::from(size % 5) * 4, // 4..=20
        Family::Cordic => spec.iters = 3 + u32::from(size % 6),  // 3..=8
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The incremental and naive force-directed schedulers agree exactly —
    /// same steps for every node — across families, seeds, sizes and
    /// latency slacks.
    #[test]
    fn incremental_force_equals_naive_reference(
        family in family_strategy(),
        seed in 0u64..1000,
        size in 0u8..9,
        slack in 0u32..5,
    ) {
        let spec = spec_for(family, seed, size);
        let bench = gen::generate_one(&spec, 0).expect("generator produces valid circuits");
        let latency = bench.cdfg.critical_path_length().max(1) + slack;
        let fast = force::schedule(&bench.cdfg, latency).expect("feasible latency");
        let slow = naive::schedule(&bench.cdfg, latency).expect("feasible latency");
        prop_assert_eq!(
            &fast, &slow,
            "kernels diverged on {} at latency {}", bench.name, latency
        );
        fast.validate(&bench.cdfg).expect("valid schedule");
    }

    /// Below the critical path both kernels report the same
    /// `LatencyTooSmall` error (same requested and critical-path fields).
    #[test]
    fn latency_too_small_errors_agree(
        family in family_strategy(),
        seed in 0u64..1000,
        size in 0u8..9,
    ) {
        let spec = spec_for(family, seed, size);
        let bench = gen::generate_one(&spec, 0).expect("generator produces valid circuits");
        let cp = bench.cdfg.critical_path_length();
        // Every family's circuits are at least two steps deep, so cp - 1 is
        // a meaningful sub-critical latency (the shim has no prop_assume).
        prop_assert!(cp > 1, "{} has a degenerate critical path", bench.name);
        let fast = force::schedule(&bench.cdfg, cp - 1).unwrap_err();
        let slow = naive::schedule(&bench.cdfg, cp - 1).unwrap_err();
        prop_assert_eq!(&fast, &slow, "error mismatch on {}", bench.name);
        prop_assert!(matches!(fast, ScheduleError::LatencyTooSmall { .. }));
    }
}

/// Every paper circuit at every Table II budget: the two kernels agree.
#[test]
fn paper_circuits_schedule_identically() {
    for bench in circuits::all_benchmarks() {
        for &steps in &bench.control_steps {
            let fast = force::schedule(&bench.cdfg, steps).expect("paper budgets are feasible");
            let slow = naive::schedule(&bench.cdfg, steps).expect("paper budgets are feasible");
            assert_eq!(fast, slow, "kernels diverged on {} at {} steps", bench.name, steps);
        }
    }
}

/// A denser sweep over one mid-sized circuit per family — every latency
/// from the critical path to critical path + 6 — plus one wide random DAG
/// over cp..=cp + 8, the size at which the force kernel's lower bound
/// prunes most of its exact candidate scans.  At every latency the final
/// schedule of `power_manage` is checked too: the kernel scheduled the
/// power-managed graph, control edges included, so naive must agree on
/// that graph as well.
#[test]
fn latency_sweep_identity_per_family() {
    let mut wide = GenSpec::new(Family::RandomDag, 20260729, 1);
    wide.width = 24;
    wide.depth = 8;
    wide.mux_permille = 250;
    let inputs = Family::ALL.into_iter().map(|family| (spec_for(family, 20260729, 4), 6));
    for (spec, span) in inputs.chain([(wide, 8)]) {
        let bench = gen::generate_one(&spec, 0).expect("valid circuit");
        let cp = bench.cdfg.critical_path_length().max(1);
        for latency in cp..=cp + span {
            let fast = force::schedule(&bench.cdfg, latency).expect("feasible");
            let slow = naive::schedule(&bench.cdfg, latency).expect("feasible");
            assert_eq!(fast, slow, "{} diverged at latency {latency}", bench.name);

            let options = PowerManagementOptions::with_latency(latency);
            let managed = power_manage(&bench.cdfg, &options).expect("feasible");
            let slow = naive::schedule(managed.cdfg(), latency).expect("feasible");
            assert_eq!(
                managed.schedule(),
                &slow,
                "{} diverged at latency {latency} on the power-managed graph",
                bench.name
            );
        }
    }
}

/// Reused kernel buffers: one `RepairWorkspace` (the only owner of
/// buffers that outlive a call) walked down the whole budget range of
/// every family's circuit, rebinding from one circuit to the next, must
/// produce schedules bit-identical to cold per-budget runs of the naive
/// reference.  Every budget of the walk is new to the workspace, so each
/// one runs the timing analysis and the kernel on buffers the previous
/// budget, or the previous circuit, left behind.
#[test]
fn warm_started_full_range_walks_match_cold_naive_runs() {
    let mut rw = RepairWorkspace::new();
    for family in Family::ALL {
        let spec = spec_for(family, 20260729, 3);
        let bench = gen::generate_one(&spec, 0).expect("valid circuit");
        let cp = bench.cdfg.critical_path_length().max(1);
        for latency in (cp..=cp + 6).rev() {
            let (warm, _) = repair(&bench.cdfg, latency, &mut rw);
            let cold = naive::schedule(&bench.cdfg, latency).expect("feasible");
            assert_eq!(
                warm.expect("feasible"),
                cold,
                "{} warm walk diverged at latency {latency}",
                bench.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomised version of the warm-walk identity across families, seeds
    /// and sizes — the acceptance gate for kernel-buffer reuse.
    #[test]
    fn warm_walks_equal_naive_on_random_circuits(
        family in family_strategy(),
        seed in 0u64..1000,
        size in 0u8..9,
    ) {
        let spec = spec_for(family, seed, size);
        let bench = gen::generate_one(&spec, 0).expect("generator produces valid circuits");
        let cp = bench.cdfg.critical_path_length().max(1);
        let mut rw = RepairWorkspace::new();
        for latency in (cp..=cp + 3).rev() {
            let (warm, _) = repair(&bench.cdfg, latency, &mut rw);
            let cold = naive::schedule(&bench.cdfg, latency).expect("feasible latency");
            prop_assert_eq!(
                &warm.expect("feasible latency"), &cold,
                "{} warm walk diverged at latency {}", bench.name, latency
            );
        }
    }
}
