//! Repair-identity property tests: `sched::force::repair` must produce
//! schedules **bit-identical** to a cold `sched::force::schedule` at the
//! final parameters after *every* event of an online stream — across all
//! four generated circuit families, arbitrary seeds, memo hits and kernel
//! runs, and workspace rebinds — and must surface the same typed
//! `ScheduleError` as a cold run when a budget tightens below the
//! critical path.
//!
//! This is the contract the online mode's wire reports rest on: if the
//! incremental repair ever drifts from cold bytes on any circuit, these
//! tests fail before any JSON does.

use std::collections::BTreeMap;

use gen::{Family, GenSpec, StreamEvent, StreamSpec};
use proptest::prelude::*;
use sched::error::ScheduleError;
use sched::{force, repair, RepairStats, RepairWorkspace};

/// Builds the spec for one generated circuit of the given family with
/// family-appropriate size knobs (mirrors the schedule-identity suite).
fn spec_for(family: Family, seed: u64, size: u8) -> GenSpec {
    let mut spec = GenSpec::new(family, seed, 1);
    match family {
        Family::RandomDag => {
            spec.width = 4 + u32::from(size % 3) * 4;
            spec.depth = 6 + u32::from(size / 3) * 6;
            spec.mux_permille = 250;
        }
        Family::MuxTree => spec.depth = 3 + u32::from(size % 4),
        Family::DspChain => spec.taps = 4 + u32::from(size % 5) * 4,
        Family::Cordic => spec.iters = 3 + u32::from(size % 6),
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

/// Replays a generated event stream at the sched layer — one warm
/// [`RepairWorkspace`] per live circuit, dropped on retirement — and
/// asserts every repaired schedule equals a cold recompute at the final
/// parameters.  Returns the number of schedule-producing events checked.
fn replay_and_check(stream: &StreamSpec) -> usize {
    let (batch, events) = gen::stream(stream).expect("stream generates");
    let pool: BTreeMap<String, cdfg::Cdfg> = batch.into_iter().map(|b| (b.name, b.cdfg)).collect();
    let mut live: BTreeMap<String, RepairWorkspace> = BTreeMap::new();
    let mut checked = 0usize;
    for event in &events {
        match event {
            StreamEvent::CircuitArrived { circuit, budget }
            | StreamEvent::BudgetChanged { circuit, budget } => {
                let cdfg = &pool[circuit];
                let rw = live.entry(circuit.clone()).or_default();
                let (result, _) = repair(cdfg, *budget, rw);
                let cold = force::schedule(cdfg, *budget);
                match (result, cold) {
                    (Ok(repaired), Ok(cold)) => {
                        assert_eq!(repaired, cold, "{circuit} diverged at budget {budget}");
                    }
                    (Err(warm_err), Err(cold_err)) => {
                        assert_eq!(warm_err, cold_err, "{circuit} error drift at {budget}");
                    }
                    (warm, cold) => {
                        panic!("{circuit} feasibility drift at {budget}: {warm:?} vs {cold:?}")
                    }
                }
                checked += 1;
            }
            StreamEvent::CircuitRetired { circuit } => {
                live.remove(circuit);
            }
            StreamEvent::ScalingChanged { .. } => {}
        }
    }
    checked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every post-event repaired schedule across random streams of every
    /// family is bit-identical to a cold recompute at the new parameters.
    #[test]
    fn stream_repairs_equal_cold_schedules(
        family in family_strategy(),
        seed in 0u64..500,
        eseed in 0u64..500,
    ) {
        let text = format!(
            "family={},seed={seed},count=2;events=30,eseed={eseed},churn=150,rescale=100",
            family.name()
        );
        let stream = StreamSpec::parse(&text).expect("stream spec parses");
        let checked = replay_and_check(&stream);
        prop_assert!(checked > 0, "stream produced no schedule-producing events");
    }

    /// Mixed paths agree: a single reused workspace walking a budget
    /// sequence (memo hits and kernel runs interleaved) stays equal to a
    /// *fresh* workspace's full recompute and to the cold scheduler at
    /// every step, and every event that does work costs exactly what the
    /// fresh workspace's cold run costs.
    #[test]
    fn mixed_repair_and_recompute_paths_agree(
        family in family_strategy(),
        seed in 0u64..500,
        size in 0u8..9,
        walk in proptest::collection::vec(0u32..6, 1..12),
    ) {
        let spec = spec_for(family, seed, size);
        let bench = gen::generate_one(&spec, 0).expect("valid circuit");
        let cp = bench.cdfg.critical_path_length().max(1);
        let mut warm = RepairWorkspace::new();
        for slack in walk {
            let budget = cp + slack;
            let (warm_result, warm_stats) = repair(&bench.cdfg, budget, &mut warm);
            let warm_schedule = warm_result.expect("feasible budget");
            let mut fresh = RepairWorkspace::new();
            let (fresh_result, fresh_stats) = repair(&bench.cdfg, budget, &mut fresh);
            prop_assert!(fresh_stats.full_recompute, "first sight always recomputes");
            if warm_stats != RepairStats::default() {
                prop_assert_eq!(
                    warm_stats, fresh_stats,
                    "a kernel run costs what a cold run costs on {} at {}", &bench.name, budget
                );
            }
            let cold = force::schedule(&bench.cdfg, budget).expect("feasible budget");
            prop_assert_eq!(&warm_schedule, &cold, "reused workspace drifted on {}", &bench.name);
            prop_assert_eq!(
                &fresh_result.expect("feasible budget"), &cold,
                "full path drifted on {}", &bench.name
            );
        }
    }

    /// A budget that tightens below the critical path surfaces the same
    /// typed error a cold run produces — both from the bound circuit's
    /// O(1) check and from a first-sight full recompute.
    #[test]
    fn infeasible_tighten_errors_match_cold(
        family in family_strategy(),
        seed in 0u64..500,
        size in 0u8..9,
    ) {
        let spec = spec_for(family, seed, size);
        let bench = gen::generate_one(&spec, 0).expect("valid circuit");
        let cp = bench.cdfg.critical_path_length();
        prop_assert!(cp > 1, "{} has a degenerate critical path", &bench.name);
        let cold = force::schedule(&bench.cdfg, cp - 1).expect_err("sub-critical budget");
        prop_assert!(
            matches!(cold, ScheduleError::LatencyTooSmall { requested, critical_path }
                if requested == cp - 1 && critical_path == cp),
            "unexpected cold error {:?}", cold
        );
        // First sight: the full-recompute path fails like cold.
        let mut rw = RepairWorkspace::new();
        let (first, _) = repair(&bench.cdfg, cp - 1, &mut rw);
        prop_assert_eq!(first.expect_err("sub-critical budget"), cold.clone());
        // Once the workspace has bound the critical path, the O(1)
        // feasibility check must produce the identical typed error.
        let (seeded, _) = repair(&bench.cdfg, cp, &mut rw);
        seeded.expect("critical path is feasible");
        let (warm, stats) = repair(&bench.cdfg, cp - 1, &mut rw);
        prop_assert_eq!(warm.expect_err("sub-critical budget"), cold);
        prop_assert_eq!(stats.nodes_touched, 0, "infeasibility check is O(1)");
    }
}

/// Deterministic cross-family sweep: longer streams with churn and
/// rescale, plus a workspace deliberately rebound across circuits
/// mid-stream — rebinding must not leak state between circuits.
#[test]
fn family_streams_and_rebinds_stay_cold_identical() {
    for family in Family::ALL {
        let text = format!(
            "family={},seed=9,count=3;events=120,eseed=13,churn=200,rescale=150",
            family.name()
        );
        let stream = StreamSpec::parse(&text).expect("stream spec parses");
        let checked = replay_and_check(&stream);
        assert!(checked >= 20, "{family}: only {checked} schedule events");
    }

    // One workspace serving two different circuits alternately: every
    // rebind drops the previous circuit's caches.
    let a = gen::generate_one(&spec_for(Family::MuxTree, 5, 2), 0).expect("valid circuit");
    let b = gen::generate_one(&spec_for(Family::DspChain, 5, 2), 0).expect("valid circuit");
    let mut rw = RepairWorkspace::new();
    for round in 0..3u32 {
        for bench in [&a, &b] {
            let budget = bench.cdfg.critical_path_length().max(1) + round;
            let (result, _) = repair(&bench.cdfg, budget, &mut rw);
            let cold = force::schedule(&bench.cdfg, budget).expect("feasible");
            assert_eq!(result.expect("feasible"), cold, "{} round {round}", bench.name);
        }
    }
}

/// The repair kernel's work counters over one fixed stream, pinned: a
/// change that makes the kernel fix, propagate or rebuild more (or less)
/// than before fails here even when every schedule stays identical.
#[test]
fn work_counters_over_a_fixed_stream_are_pinned() {
    let text = "family=random-dag,seed=3,count=3;events=200,eseed=7,churn=150,rescale=100";
    let stream = StreamSpec::parse(text).expect("stream spec parses");
    let (batch, events) = gen::stream(&stream).expect("stream generates");
    let pool: BTreeMap<String, cdfg::Cdfg> = batch.into_iter().map(|b| (b.name, b.cdfg)).collect();
    let mut live: BTreeMap<String, RepairWorkspace> = BTreeMap::new();
    let (mut touched, mut rebuilt, mut full) = (0usize, 0usize, 0usize);
    for event in &events {
        match event {
            StreamEvent::CircuitArrived { circuit, budget }
            | StreamEvent::BudgetChanged { circuit, budget } => {
                let rw = live.entry(circuit.clone()).or_default();
                let (_, stats) = repair(&pool[circuit], *budget, rw);
                touched += stats.nodes_touched;
                rebuilt += stats.classes_rebuilt;
                full += usize::from(stats.full_recompute);
            }
            StreamEvent::CircuitRetired { circuit } => {
                live.remove(circuit);
            }
            StreamEvent::ScalingChanged { .. } => {}
        }
    }
    assert_eq!((touched, rebuilt, full), (5759, 2980, 47), "nodes touched, rows rebuilt, full");
}
