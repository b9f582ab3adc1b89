//! Deferred-baseline identity tests: without a resource limit,
//! `power_manage` no longer schedules the unmanaged baseline up front — it
//! schedules it the first time `baseline_schedule()` is read, on a copy of
//! the result graph with the managed control edges removed.  Under a limit
//! the baseline stays eager.  Either way the baseline must be exactly what
//! `hyper::schedule` makes of the input graph with the same options, and a
//! budget below the critical path must fail with the error the eager
//! baseline produced — same value, same text — as the retained eager
//! reference (`pmsched::naive`) still does.
//!
//! Covered: the paper circuits and the four generator families, at budgets
//! from one below the critical path to four above it, both unconstrained
//! and under the minimum allocation, through `power_manage` and
//! `power_manage_reordered`.

use std::sync::Arc;

use cdfg::Cdfg;
use gen::{Family, GenSpec};
use pmsched::algorithm::power_manage_reordered;
use pmsched::{naive, power_manage, PowerManageError, PowerManagementOptions};
use sched::hyper::{self, HyperOptions};
use sched::ResourceConstraint;

/// Permutation bound for the reorder search: circuits with up to three
/// multiplexors also try every explicit order.
const REORDER_LIMIT: usize = 3;

/// Checks one circuit across the budget range and both resource modes.
fn assert_baseline_identity(cdfg: &Cdfg) {
    let name = cdfg.name();
    let cp = cdfg.critical_path_length();
    for budget in cp.saturating_sub(1).max(1)..=cp + 4 {
        let allocation = hyper::minimum_resources(cdfg, budget.max(cp)).expect("cp is feasible");
        for resources in [ResourceConstraint::Unlimited, ResourceConstraint::Limited(allocation)] {
            let label = format!("{name}@{budget} {resources:?}");
            let eager = hyper::schedule(
                cdfg,
                &HyperOptions { latency: budget, resources: resources.clone() },
            );
            let options = PowerManagementOptions::with_resources(budget, resources);
            let reference = naive::power_manage(cdfg, &options);
            let runs = [
                ("power_manage", power_manage(cdfg, &options)),
                ("power_manage_reordered", power_manage_reordered(cdfg, &options, REORDER_LIMIT)),
            ];
            for (entry, run) in runs {
                match (run, &eager) {
                    (Ok(result), Ok(baseline)) => {
                        assert_eq!(result.baseline_schedule(), baseline, "{entry} {label}");
                        let reference = reference.as_ref().expect("the reference agrees");
                        assert_eq!(
                            result.baseline_schedule(),
                            reference.baseline_schedule(),
                            "{entry} {label}: baseline differs from the eager reference"
                        );
                    }
                    (Err(err), Err(expected)) => {
                        let expected = PowerManageError::from(expected.clone());
                        assert_eq!(err, expected, "{entry} {label}");
                        assert_eq!(err.to_string(), expected.to_string(), "{entry} {label}");
                        let parent = reference.as_ref().expect_err("the reference fails too");
                        assert_eq!(&err, parent, "{entry} {label}");
                        assert_eq!(err.to_string(), parent.to_string(), "{entry} {label}");
                    }
                    (Ok(_), Err(expected)) => {
                        panic!("{entry} {label}: succeeded, but the baseline fails: {expected}")
                    }
                    (Err(err), Ok(_)) => {
                        panic!("{entry} {label}: failed with `{err}`, but the baseline schedules")
                    }
                }
            }
        }
    }
}

#[test]
fn deferred_baseline_matches_eager_on_paper_circuits() {
    for bench in circuits::all_benchmarks() {
        assert_baseline_identity(&bench.cdfg);
    }
}

#[test]
fn deferred_baseline_matches_eager_on_generated_families() {
    for family in [Family::RandomDag, Family::MuxTree, Family::DspChain, Family::Cordic] {
        for seed in [5, 61] {
            let mut spec = GenSpec::new(family, seed, 2);
            match family {
                Family::RandomDag => {
                    spec.width = 6;
                    spec.depth = 8;
                    spec.mux_permille = 250;
                }
                Family::MuxTree => spec.depth = 3,
                Family::DspChain => spec.taps = 8,
                Family::Cordic => spec.iters = 4,
            }
            for bench in gen::generate(&spec).expect("valid spec") {
                assert_baseline_identity(&bench.cdfg);
            }
        }
    }
}

#[test]
fn shared_results_compute_the_baseline_once_for_every_reader() {
    // Results travel between engine workers behind an `Arc`; concurrent
    // first reads must all see the one baseline `hyper::schedule` makes.
    let cdfg = circuits::dealer();
    let latency = cdfg.critical_path_length() + 2;
    let result =
        Arc::new(power_manage(&cdfg, &PowerManagementOptions::with_latency(latency)).unwrap());
    let expected = hyper::schedule(&cdfg, &HyperOptions::with_latency(latency)).unwrap();
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let result = Arc::clone(&result);
                scope.spawn(move || result.baseline_schedule().clone())
            })
            .collect();
        for reader in readers {
            assert_eq!(reader.join().expect("reader finished"), expected);
        }
    });
    assert!(std::ptr::eq(result.baseline_schedule(), result.baseline_schedule()));
}
