//! The Pareto exploration study behind `cargo run -p experiments --bin
//! pareto`.
//!
//! Where [`crate::sweep`] samples the paper's hand-picked budget lists,
//! this module turns the repro into a continuous design-space explorer: it
//! walks every circuit (the paper's four, or generated workloads) across
//! its full feasible budget range on the engine's
//! [`engine::Engine::explore`] path and reports the latency–power fronts
//! under the scaled-delay (DVS-style) energy model.  The binary turns
//! [`paper_requests`] (or generated circuits) and [`default_options`] into
//! one `service::plans::explore_job` and runs it in-process or on a
//! `sweepd`.

use circuits::all_benchmarks;
use engine::{BudgetCeiling, BudgetPolicy, ExploreOptions, ExploreRequest, VoltagePolicy};
use power::DelayScaling;

/// One exploration request per paper circuit, seeded with its Table II
/// budgets (the [`BudgetPolicy::Fixed`] fallback).  With `small` set, the
/// heavyweight `cordic` circuit is dropped — the CI smoke configuration.
pub fn paper_requests(small: bool) -> Vec<ExploreRequest> {
    let mut requests = vec![ExploreRequest::new("abs_diff").budgets([2, 3])];
    for bench in all_benchmarks() {
        if small && bench.name == "cordic" {
            continue;
        }
        requests
            .push(ExploreRequest::new(bench.name.as_str()).budgets(bench.control_steps.clone()));
    }
    requests
}

/// The study's default knobs: a Pareto walk to `critical path + span` under
/// the quadratic (voltage-square-law) scaling.
pub fn default_options(span: u32) -> ExploreOptions {
    ExploreOptions::new()
        .policy(BudgetPolicy::Pareto)
        .ceiling(BudgetCeiling::CriticalPathPlus(span))
        .voltage(VoltagePolicy::Global(DelayScaling::Quadratic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::ParetoReport;
    use gen::{Family, GenSpec};
    use service::{plans, Job, JobReport};

    fn explored(job: Job, threads: usize) -> ParetoReport {
        let (JobReport::Explore(report), _) = job.run(threads).unwrap() else {
            panic!("an explore job returns an exploration report");
        };
        report
    }

    #[test]
    fn paper_requests_cover_the_table_circuits() {
        let full = paper_requests(false);
        let names: Vec<&str> = full.iter().map(|r| r.circuit.as_str()).collect();
        assert_eq!(names, vec!["abs_diff", "dealer", "gcd", "vender", "cordic"]);
        let small = paper_requests(true);
        assert!(small.iter().all(|r| r.circuit != "cordic"));
        assert!(small.iter().all(|r| !r.budgets.is_empty()));
    }

    #[test]
    fn paper_exploration_produces_non_dominated_fronts_without_failures() {
        let job = plans::explore_job(Vec::new(), paper_requests(true), &default_options(4));
        let report = explored(job.unwrap(), 2);
        assert_eq!(report.failure_count(), 0);
        for circuit in &report.circuits {
            assert!(!circuit.points.is_empty(), "{}", circuit.circuit);
            assert_eq!(circuit.points[0].budget, circuit.critical_path);
            // The front is non-dominated in (budget, energy, area): a
            // bigger budget must buy strictly lower energy or area to stay
            // on it (combined_reduction alone is no longer monotone now
            // that area is a real objective).
            for pair in circuit.points.windows(2) {
                assert!(pair[0].budget < pair[1].budget, "{}", circuit.circuit);
                assert!(
                    pair[1].energy.total_cmp(&pair[0].energy).is_lt()
                        || pair[1].area.total_cmp(&pair[0].area).is_lt(),
                    "{}: point @ {} should be dominated",
                    circuit.circuit,
                    pair[1].budget
                );
            }
        }
    }

    #[test]
    fn generated_exploration_is_deterministic_across_threads() {
        let gen = vec![GenSpec::new(Family::MuxTree, 5, 2).spec_string()];
        let job = plans::explore_job(gen, Vec::new(), &default_options(3)).unwrap();
        let a = explored(job.clone(), 1);
        let b = explored(job, 4);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.failure_count(), 0);
    }
}
