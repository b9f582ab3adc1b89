//! Client-side expansion of generator specs into explicit work lists.
//!
//! The wire protocol carries jobs **fully explicit** — every sweep scenario
//! or explore request spelled out — so the daemon never has to guess how a
//! client meant to expand a generator spec.  These helpers do that
//! expansion, and the experiment crate's in-process `--gen` paths call the
//! same helpers: each generated circuit is swept at every one of its
//! derived budgets under both schedulers, and explored across its own
//! budget list.
//!
//! Both the client and the daemon call [`generate_batch`] on the *same*
//! spec strings; the generator is seeded and deterministic, so both sides
//! materialize identical circuits and the daemon can key its cache purely
//! on scenario identity.

use circuits::Benchmark;
use engine::{ExploreRequest, Scenario, SchedulerKind};
use gen::GenSpec;

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
/// its derived budgets, under both schedulers — the same matrix
/// `sweep --gen` runs in-process.
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
/// its own derived budget list — the same requests `pareto --gen` builds.
pub fn batch_requests(batch: &[Benchmark]) -> Vec<ExploreRequest> {
    batch
        .iter()
        .map(|bench| ExploreRequest::new(bench.name.as_str()).budgets(bench.control_steps.clone()))
        .collect()
}

/// Expands generator spec strings straight into sweep scenarios.
///
/// # Errors
///
/// Propagates [`generate_batch`] failures.
pub fn gen_scenarios(specs: &[String]) -> Result<Vec<Scenario>, String> {
    Ok(batch_scenarios(&generate_batch(specs)?))
}

/// Expands generator spec strings straight into explore requests.
///
/// # Errors
///
/// Propagates [`generate_batch`] failures.
pub fn gen_requests(specs: &[String]) -> Result<Vec<ExploreRequest>, String> {
    Ok(batch_requests(&generate_batch(specs)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_cover_budgets_times_schedulers() {
        let specs = vec!["family=mux-tree,seed=5,count=2".to_owned()];
        let batch = generate_batch(&specs).unwrap();
        assert_eq!(batch.len(), 2);
        let scenarios = gen_scenarios(&specs).unwrap();
        let budgets: usize = batch.iter().map(|b| b.control_steps.len()).sum();
        assert_eq!(scenarios.len(), budgets * 2, "two schedulers per budget");
        assert!(scenarios.iter().any(|s| s.scheduler == SchedulerKind::List));
    }

    #[test]
    fn requests_carry_each_circuits_own_budgets() {
        let specs = vec!["family=random-dag,seed=9,count=3".to_owned()];
        let batch = generate_batch(&specs).unwrap();
        let requests = gen_requests(&specs).unwrap();
        assert_eq!(requests.len(), 3);
        for (request, bench) in requests.iter().zip(&batch) {
            assert_eq!(request.circuit, bench.name);
            assert_eq!(request.budgets, bench.control_steps);
        }
    }

    #[test]
    fn bad_specs_surface_the_generator_message() {
        let err = generate_batch(&["family=warp,seed=1,count=1".to_owned()]).unwrap_err();
        assert!(err.contains("warp"), "{err}");
    }
}
