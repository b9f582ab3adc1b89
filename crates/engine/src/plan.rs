//! Sweep plans: declarative expansion of a scenario matrix.
//!
//! A [`SweepPlanBuilder`] collects base cases (circuit, latency) plus one
//! list per sweep dimension, expands the cross product, deduplicates it and
//! sorts it into the canonical [`Scenario`] order.  The resulting
//! [`SweepPlan`] is what [`crate::Engine::run`] executes.

use std::collections::BTreeSet;

use crate::error::EngineError;
use crate::pareto::BudgetPolicy;
use crate::scenario::{BranchModel, Scenario, SchedulerKind};
use crate::MAX_LATENCY;

/// Request for Table III style gate-level metrics on every scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateLevelSpec {
    /// Number of random input samples to simulate per scenario.
    pub samples: usize,
    /// Seed for the random vector generator.
    pub seed: u64,
}

/// A deduplicated, deterministically ordered list of scenarios, optionally
/// with gate-level simulation enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPlan {
    scenarios: Vec<Scenario>,
    gate_level: Option<GateLevelSpec>,
}

impl SweepPlan {
    /// Starts building a plan.
    pub fn builder() -> SweepPlanBuilder {
        SweepPlanBuilder::default()
    }

    /// The scenarios, in canonical (sorted) order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of scenarios in the plan.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the plan is empty (never true for built plans).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The gate-level request, if any.
    pub fn gate_level(&self) -> Option<GateLevelSpec> {
        self.gate_level
    }
}

/// Builder for [`SweepPlan`].
///
/// Base cases come from [`case`](Self::case) (explicit circuit/latency
/// pairs) and/or the [`circuits`](Self::circuits) ×
/// [`latencies`](Self::latencies) cross product.  Each sweep dimension
/// defaults to a single neutral value (force-directed, depth 1, no
/// reordering, fair probabilities) when left unset.
#[derive(Debug, Clone, Default)]
pub struct SweepPlanBuilder {
    cases: Vec<(String, u32)>,
    explicit: Vec<Scenario>,
    circuits: Vec<String>,
    latencies: Vec<u32>,
    schedulers: Vec<SchedulerKind>,
    depths: Vec<u32>,
    reorder: Vec<bool>,
    models: Vec<BranchModel>,
    gate_level: Option<GateLevelSpec>,
    budget_policy: BudgetPolicy,
}

impl SweepPlanBuilder {
    /// Adds one explicit (circuit, latency) base case.
    pub fn case(mut self, circuit: impl Into<String>, latency: u32) -> Self {
        self.cases.push((circuit.into(), latency));
        self
    }

    /// Adds fully specified scenarios verbatim, bypassing the cross-product
    /// expansion.  They are validated, deduplicated and sorted together with
    /// the expanded matrix — the sweep service uses this to reconstruct a
    /// plan from an explicit wire-format scenario list and still land on the
    /// same canonical plan an in-process builder produces.
    pub fn scenarios<I: IntoIterator<Item = Scenario>>(mut self, scenarios: I) -> Self {
        self.explicit.extend(scenarios);
        self
    }

    /// Adds circuits for the cross-product part of the matrix.
    pub fn circuits<I, S>(mut self, circuits: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.circuits.extend(circuits.into_iter().map(Into::into));
        self
    }

    /// Adds latency bounds for the cross-product part of the matrix.
    pub fn latencies<I: IntoIterator<Item = u32>>(mut self, latencies: I) -> Self {
        self.latencies.extend(latencies);
        self
    }

    /// Sets the schedulers to sweep (default: force-directed only).
    pub fn schedulers<I: IntoIterator<Item = SchedulerKind>>(mut self, schedulers: I) -> Self {
        self.schedulers.extend(schedulers);
        self
    }

    /// Sets the pipeline depths to sweep (default: 1, no pipelining).
    pub fn pipeline_depths<I: IntoIterator<Item = u32>>(mut self, depths: I) -> Self {
        self.depths.extend(depths);
        self
    }

    /// Sets the reordering settings to sweep (default: off only).
    pub fn reorder<I: IntoIterator<Item = bool>>(mut self, reorder: I) -> Self {
        self.reorder.extend(reorder);
        self
    }

    /// Sets the branch-probability models to sweep (default: fair only).
    pub fn branch_models<I: IntoIterator<Item = BranchModel>>(mut self, models: I) -> Self {
        self.models.extend(models);
        self
    }

    /// Requests gate-level (Table III style) metrics for every scenario.
    pub fn gate_level(mut self, samples: usize, seed: u64) -> Self {
        self.gate_level = Some(GateLevelSpec { samples, seed });
        self
    }

    /// Sets the budget policy.  A sweep runs exactly its scenarios, so
    /// [`BudgetPolicy::Fixed`] (the default) is the only policy
    /// [`build`](Self::build) accepts; a range walk is an exploration
    /// ([`crate::Engine::explore`]), or explicit scenarios at each budget.
    pub fn budget_policy(mut self, policy: BudgetPolicy) -> Self {
        self.budget_policy = policy;
        self
    }

    /// Expands, validates, deduplicates and sorts the matrix.
    ///
    /// # Errors
    ///
    /// * [`EngineError::RangePolicyOnSweep`] for any budget policy but
    ///   [`BudgetPolicy::Fixed`],
    /// * [`EngineError::EmptyPlan`] when no base case was provided,
    /// * [`EngineError::InvalidLatency`] for a zero latency bound,
    /// * [`EngineError::InvalidPipelineDepth`] for a zero pipeline depth,
    /// * [`EngineError::LatencyTooLarge`] for a scenario whose effective
    ///   latency (`latency × pipeline_depth`) exceeds [`MAX_LATENCY`] (the
    ///   first such scenario in canonical order).
    pub fn build(self) -> Result<SweepPlan, EngineError> {
        if self.budget_policy != BudgetPolicy::Fixed {
            return Err(EngineError::RangePolicyOnSweep(self.budget_policy));
        }
        let mut base = self.cases;
        for circuit in &self.circuits {
            for &latency in &self.latencies {
                base.push((circuit.clone(), latency));
            }
        }
        if base.is_empty() && self.explicit.is_empty() {
            return Err(EngineError::EmptyPlan);
        }
        if base.iter().any(|&(_, latency)| latency == 0)
            || self.explicit.iter().any(|scenario| scenario.latency == 0)
        {
            return Err(EngineError::InvalidLatency);
        }
        if self.explicit.iter().any(|scenario| scenario.pipeline_depth == 0) {
            return Err(EngineError::InvalidPipelineDepth);
        }

        let schedulers = if self.schedulers.is_empty() {
            vec![SchedulerKind::default()]
        } else {
            self.schedulers
        };
        let depths = if self.depths.is_empty() { vec![1] } else { self.depths };
        if depths.contains(&0) {
            return Err(EngineError::InvalidPipelineDepth);
        }
        let reorder = if self.reorder.is_empty() { vec![false] } else { self.reorder };
        let models =
            if self.models.is_empty() { vec![BranchModel::default()] } else { self.models };

        let mut expanded: BTreeSet<Scenario> = self.explicit.into_iter().collect();
        for (circuit, latency) in &base {
            for &scheduler in &schedulers {
                for &depth in &depths {
                    for &reordering in &reorder {
                        for &model in &models {
                            expanded.insert(
                                Scenario::new(circuit.clone(), *latency)
                                    .scheduler(scheduler)
                                    .pipeline_depth(depth)
                                    .reorder(reordering)
                                    .branch_model(model),
                            );
                        }
                    }
                }
            }
        }

        // `effective_latency` saturates, so an overflowing product is
        // refused too.
        if let Some(scenario) = expanded.iter().find(|s| s.effective_latency() > MAX_LATENCY) {
            return Err(EngineError::LatencyTooLarge {
                latency: scenario.latency,
                pipeline_depth: scenario.pipeline_depth,
            });
        }

        Ok(SweepPlan { scenarios: expanded.into_iter().collect(), gate_level: self.gate_level })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_product_expands_and_sorts() {
        let plan = SweepPlan::builder()
            .circuits(["gcd", "dealer"])
            .latencies([5, 4])
            .schedulers([SchedulerKind::ForceDirected, SchedulerKind::List])
            .build()
            .unwrap();
        assert_eq!(plan.len(), 8);
        let first = &plan.scenarios()[0];
        assert_eq!(first.circuit, "dealer");
        assert_eq!(first.latency, 4);
        // Sorted: all dealer scenarios precede all gcd scenarios.
        let dealer_count = plan.scenarios().iter().take_while(|s| s.circuit == "dealer").count();
        assert_eq!(dealer_count, 4);
    }

    #[test]
    fn duplicates_are_removed() {
        let plan = SweepPlan::builder()
            .case("dealer", 4)
            .case("dealer", 4)
            .circuits(["dealer"])
            .latencies([4])
            .build()
            .unwrap();
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn empty_plan_is_rejected() {
        assert_eq!(SweepPlan::builder().build().unwrap_err(), EngineError::EmptyPlan);
        // Circuits without latencies produce no base cases either.
        let err = SweepPlan::builder().circuits(["dealer"]).build().unwrap_err();
        assert_eq!(err, EngineError::EmptyPlan);
    }

    #[test]
    fn zero_latency_and_zero_depth_are_rejected() {
        let err = SweepPlan::builder().case("dealer", 0).build().unwrap_err();
        assert_eq!(err, EngineError::InvalidLatency);
        let err = SweepPlan::builder().case("dealer", 4).pipeline_depths([0]).build().unwrap_err();
        assert_eq!(err, EngineError::InvalidPipelineDepth);
    }

    #[test]
    fn gate_level_is_carried() {
        let plan = SweepPlan::builder().case("dealer", 4).gate_level(100, 7).build().unwrap();
        assert_eq!(plan.gate_level(), Some(GateLevelSpec { samples: 100, seed: 7 }));
        assert!(!plan.is_empty());
    }

    #[test]
    fn explicit_scenarios_round_trip_to_the_same_canonical_plan() {
        // Building from a plan's own scenario list must reproduce the plan:
        // this is the contract the sweep service's wire format relies on.
        let expanded = SweepPlan::builder()
            .circuits(["gcd", "dealer"])
            .latencies([5, 4])
            .schedulers([SchedulerKind::ForceDirected, SchedulerKind::List])
            .reorder([false, true])
            .build()
            .unwrap();
        let mut shuffled = expanded.scenarios().to_vec();
        shuffled.reverse();
        let rebuilt = SweepPlan::builder().scenarios(shuffled).build().unwrap();
        assert_eq!(rebuilt, expanded);
    }

    #[test]
    fn explicit_scenarios_merge_with_the_cross_product() {
        let plan = SweepPlan::builder()
            .case("dealer", 4)
            .scenarios([
                Scenario::new("gcd", 5).scheduler(SchedulerKind::List),
                // Duplicate of the cross-product case: deduplicated away.
                Scenario::new("dealer", 4),
            ])
            .build()
            .unwrap();
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn explicit_scenarios_are_validated() {
        let err = SweepPlan::builder().scenarios([Scenario::new("dealer", 0)]).build().unwrap_err();
        assert_eq!(err, EngineError::InvalidLatency);
        let err = SweepPlan::builder()
            .scenarios([Scenario::new("dealer", 4).pipeline_depth(0)])
            .build()
            .unwrap_err();
        assert_eq!(err, EngineError::InvalidPipelineDepth);
    }

    #[test]
    fn effective_latency_is_bounded_inclusively_at_max_latency() {
        let half = MAX_LATENCY / 2;
        let within = [(MAX_LATENCY, 1), (half, 2)];
        let over = [(MAX_LATENCY + 1, 1), (MAX_LATENCY, 2), (1, u32::MAX)];
        let explicit = |latency, depth| {
            SweepPlan::builder()
                .scenarios([Scenario::new("dealer", latency).pipeline_depth(depth)])
                .build()
        };
        let matrix = |latency, depth| {
            SweepPlan::builder()
                .circuits(["dealer", "gcd"])
                .latencies([4, latency])
                .pipeline_depths([depth])
                .build()
        };
        for (latency, depth) in within {
            assert!(explicit(latency, depth).is_ok(), "{latency} x {depth}");
            assert_eq!(matrix(latency, depth).unwrap().len(), 4, "{latency} x {depth}");
        }
        for (latency, depth) in over {
            let refused = Err(EngineError::LatencyTooLarge { latency, pipeline_depth: depth });
            assert_eq!(explicit(latency, depth), refused, "{latency} x {depth}");
            assert_eq!(matrix(latency, depth), refused, "{latency} x {depth}");
        }
    }

    #[test]
    fn range_policies_are_refused_and_fixed_builds_the_default_plan() {
        for policy in [BudgetPolicy::FullRange, BudgetPolicy::Pareto] {
            let err = SweepPlan::builder().case("dealer", 6).budget_policy(policy).build();
            assert_eq!(err.unwrap_err(), EngineError::RangePolicyOnSweep(policy));
        }
        let fixed =
            SweepPlan::builder().case("dealer", 6).budget_policy(BudgetPolicy::Fixed).build();
        assert_eq!(fixed.unwrap(), SweepPlan::builder().case("dealer", 6).build().unwrap());
    }
}
