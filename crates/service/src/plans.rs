//! Client-side builders of fully explicit jobs.
//!
//! The wire protocol carries jobs **fully explicit** — every sweep scenario
//! or explore request spelled out — so the daemon never has to guess how a
//! client meant to expand a generator spec.  [`sweep_job`] and
//! [`explore_job`] do that expansion once and return a [`Job`]: each
//! generated circuit is swept at every one of its derived budgets under
//! both schedulers, or explored across its own budget list, and the
//! generated circuits travel with the spec, so an in-process run registers
//! them instead of generating them again.
//!
//! Both the client and the daemon call [`generate_batch`] on the *same*
//! spec strings; the generator is seeded and deterministic, so both sides
//! materialize identical circuits and the daemon can key its cache purely
//! on scenario identity.

use circuits::Benchmark;
use engine::{BudgetPolicy, ExploreOptions, ExploreRequest, Scenario, SchedulerKind};
use gen::GenSpec;

use crate::protocol::JobSpec;
use crate::runner::Job;

/// Generates every circuit of every spec string, in spec order.
///
/// # Errors
///
/// Returns the generator's parse/validation message for the first bad spec.
pub fn generate_batch(specs: &[String]) -> Result<Vec<Benchmark>, String> {
    let mut batch = Vec::new();
    for text in specs {
        let spec = GenSpec::parse(text).map_err(|e| e.to_string())?;
        batch.extend(gen::generate(&spec).map_err(|e| e.to_string())?);
    }
    Ok(batch)
}

/// The sweep scenarios for a generated batch: each circuit at every one of
/// its derived budgets, under both schedulers.
pub fn batch_scenarios(batch: &[Benchmark]) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for bench in batch {
        for &steps in &bench.control_steps {
            for scheduler in [SchedulerKind::ForceDirected, SchedulerKind::List] {
                scenarios.push(Scenario::new(bench.name.as_str(), steps).scheduler(scheduler));
            }
        }
    }
    scenarios
}

/// The explore requests for a generated batch: each circuit walked across
/// its own derived budget list.
pub fn batch_requests(batch: &[Benchmark]) -> Vec<ExploreRequest> {
    batch
        .iter()
        .map(|bench| ExploreRequest::new(bench.name.as_str()).budgets(bench.control_steps.clone()))
        .collect()
}

/// A sweep job: the [`batch_scenarios`] of every `gen` spec, then
/// `scenarios`, at fixed budgets and without gate-level simulation.
///
/// # Errors
///
/// Propagates [`generate_batch`] failures.
pub fn sweep_job(gen: Vec<String>, scenarios: Vec<Scenario>) -> Result<Job, String> {
    let circuits = generate_batch(&gen)?;
    let mut all = batch_scenarios(&circuits);
    all.extend(scenarios);
    let spec =
        JobSpec::Sweep { gen, scenarios: all, policy: BudgetPolicy::Fixed, gate_level: None };
    Ok(Job { spec, circuits })
}

/// An explore job: the [`batch_requests`] of every `gen` spec, then
/// `requests`, walked under `options`.
///
/// # Errors
///
/// Propagates [`generate_batch`] failures.
pub fn explore_job(
    gen: Vec<String>,
    requests: Vec<ExploreRequest>,
    options: &ExploreOptions,
) -> Result<Job, String> {
    let circuits = generate_batch(&gen)?;
    let mut all = batch_requests(&circuits);
    all.extend(requests);
    Ok(Job { spec: JobSpec::Explore { gen, requests: all, options: *options }, circuits })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_cover_budgets_times_schedulers() {
        let specs = vec!["family=mux-tree,seed=5,count=2".to_owned()];
        let job = sweep_job(specs.clone(), vec![Scenario::new("dealer", 4)]).unwrap();
        assert_eq!(job.circuits.len(), 2);
        let JobSpec::Sweep { gen, scenarios, .. } = &job.spec else { panic!("a sweep spec") };
        assert_eq!(gen, &specs);
        let budgets: usize = job.circuits.iter().map(|b| b.control_steps.len()).sum();
        assert_eq!(scenarios.len(), budgets * 2 + 1, "two schedulers per budget, then the rest");
        assert!(scenarios.iter().any(|s| s.scheduler == SchedulerKind::List));
        assert_eq!(scenarios.last(), Some(&Scenario::new("dealer", 4)));
    }

    #[test]
    fn requests_carry_each_circuits_own_budgets() {
        let specs = vec!["family=random-dag,seed=9,count=3".to_owned()];
        let options = ExploreOptions::new().policy(BudgetPolicy::FullRange);
        let job = explore_job(specs, Vec::new(), &options).unwrap();
        let JobSpec::Explore { requests, options: o, .. } = &job.spec else { panic!("explore") };
        assert_eq!(*o, options);
        assert_eq!(requests.len(), 3);
        for (request, bench) in requests.iter().zip(&job.circuits) {
            assert_eq!(request.circuit, bench.name);
            assert_eq!(request.budgets, bench.control_steps);
        }
    }

    #[test]
    fn bad_specs_surface_the_generator_message() {
        let err = generate_batch(&["family=warp,seed=1,count=1".to_owned()]).unwrap_err();
        assert!(err.contains("warp"), "{err}");
        let err = sweep_job(vec!["family=warp,seed=1,count=1".to_owned()], Vec::new()).unwrap_err();
        assert!(err.contains("warp"), "{err}");
    }
}
