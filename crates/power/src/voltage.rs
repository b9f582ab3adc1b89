//! Discrete per-operation voltage model: level tables, per-op assignments
//! and the voltage-aware energy estimate.
//!
//! The scaled-delay model of [`crate::dvs`] prices slack through one global
//! [`DelayScaling`] curve.  This module generalises it the way the
//! fine-grained DVS literature does: a design picks its supplies from a
//! small discrete [`VoltageTable`] — each [`VoltageLevel`] trades a delay
//! multiplier for an energy factor — and every operation gets its *own*
//! level through a [`VoltageAssignment`].  The global curves are the
//! degenerate case: [`VoltageTable::from_scaling`] re-expresses a
//! [`DelayScaling`] law as a table with one level per allotted delay,
//! [`VoltageAssignment::from_delays`] puts each operation at the level its
//! allotted delay picks, and the estimate over that pair reproduces the
//! single-curve loop byte-identically (pinned in the tests here).
//!
//! The preset tables ([`VoltagePreset`]) use the classic square-law numbers
//! for a 5 V nominal process with `Vt = 0.8 V`: energy scales as
//! `(V/5)²` and delay as `V/(V−Vt)²` normalised to the nominal supply,
//! rounded up to whole control steps.
//!
//! [`VoltagePolicy`] is the explore/sweep axis built from all of this: a
//! policy is either one global curve or a per-op preset, so the Pareto
//! explorer, the sweep daemon and the CLIs can treat "how is voltage
//! assigned" as one more deterministic dimension.

use std::fmt;

use pmsched::{compose_reductions, OpWeights, PowerManagementResult, SelectProbabilities};
use sched::dvs::SlackLevel;

use crate::dvs::DelayScaling;
use crate::estimate::EstimateError;

/// One discrete supply level: the delay multiplier an operation pays for
/// running at this voltage and the energy factor it gains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageLevel {
    /// Control steps an operation at this level occupies (level 0 is the
    /// nominal single step).
    pub delay_steps: u32,
    /// Energy per execution relative to nominal (level 0 is 1.0).
    pub energy_factor: f64,
}

/// A discrete, ordered table of supply levels: strictly slower and never
/// more expensive as the index grows, with the nominal single-step level
/// first.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageTable {
    levels: Vec<VoltageLevel>,
}

impl VoltageTable {
    /// Builds a table from explicit levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty, does not start with a single-step
    /// level, has non-increasing delays or increasing energy factors —
    /// these are programming errors in a table definition, not runtime
    /// conditions.
    pub fn new(levels: Vec<VoltageLevel>) -> Self {
        assert!(!levels.is_empty(), "voltage table must not be empty");
        assert_eq!(levels[0].delay_steps, 1, "level 0 must be the nominal single-step level");
        for pair in levels.windows(2) {
            assert!(
                pair[0].delay_steps < pair[1].delay_steps,
                "level delays must be strictly increasing"
            );
            assert!(
                pair[1].energy_factor.total_cmp(&pair[0].energy_factor).is_le(),
                "level energy factors must be non-increasing"
            );
        }
        VoltageTable { levels }
    }

    /// The degenerate one-level table: everything runs at nominal voltage.
    /// Estimating under it reproduces [`DelayScaling::None`] reports
    /// byte-identically.
    pub fn nominal() -> Self {
        VoltageTable::new(vec![VoltageLevel { delay_steps: 1, energy_factor: 1.0 }])
    }

    /// Re-expresses a global [`DelayScaling`] curve as a voltage table with
    /// one level per allotted delay `1..=max_delay`, each priced by
    /// [`DelayScaling::factor`].  Because the factors come from the same
    /// function, an estimate over this table equals the single-curve
    /// estimate bit for bit.
    pub fn from_scaling(scaling: DelayScaling, max_delay: u32) -> Self {
        let levels = (1..=max_delay.max(1))
            .map(|d| VoltageLevel { delay_steps: d, energy_factor: scaling.factor(d) })
            .collect();
        VoltageTable::new(levels)
    }

    /// The levels, ascending by delay.
    pub fn levels(&self) -> &[VoltageLevel] {
        &self.levels
    }

    /// The level at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn level(&self, index: u32) -> VoltageLevel {
        self.levels[index as usize]
    }

    /// The deepest level whose delay fits within `delay` allotted steps
    /// (floored at one step, like [`DelayScaling::factor`]).  Level 0
    /// always fits, so this never fails.
    pub fn level_for_delay(&self, delay: u32) -> u32 {
        let delay = delay.max(1);
        let mut best = 0;
        for (i, level) in self.levels.iter().enumerate() {
            if level.delay_steps <= delay {
                best = i as u32;
            }
        }
        best
    }

    /// The table as [`sched::dvs`] slack levels, for the slack-distribution
    /// kernel.
    pub fn slack_levels(&self) -> Vec<SlackLevel> {
        self.levels
            .iter()
            .map(|l| SlackLevel { delay_steps: l.delay_steps, energy_factor: l.energy_factor })
            .collect()
    }
}

/// A per-operation voltage-level choice: a dense level index per CDFG slot
/// (structural slots stay at level 0, they never execute).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoltageAssignment {
    level: Vec<u32>,
}

impl VoltageAssignment {
    /// Wraps dense per-slot level indices (e.g. the output of
    /// [`sched::dvs::distribute_slack`]).
    pub fn from_levels(level: Vec<u32>) -> Self {
        VoltageAssignment { level }
    }

    /// Derives the assignment a global curve induces: every operation takes
    /// the deepest level of `table` that fits its allotted delay.
    /// `slot_count` sizes the dense index (unlisted slots stay nominal).
    pub fn from_delays(
        table: &VoltageTable,
        delays: &[(cdfg::NodeId, u32)],
        slot_count: usize,
    ) -> Self {
        let mut level = vec![0u32; slot_count];
        for &(node, delay) in delays {
            level[node.index()] = table.level_for_delay(delay);
        }
        VoltageAssignment { level }
    }

    /// The level index assigned to `node` (0 for slots beyond the dense
    /// range — an unknown op runs at nominal).
    pub fn level_of(&self, node: cdfg::NodeId) -> u32 {
        self.level.get(node.index()).copied().unwrap_or(0)
    }

    /// The dense per-slot level indices.
    pub fn levels(&self) -> &[u32] {
        &self.level
    }
}

/// Expected-energy summary under a per-operation voltage assignment: the
/// shut-down and voltage-scaling mechanisms separately and composed.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageEstimate {
    /// Weighted energy with every operation executing at nominal voltage.
    pub baseline_weighted: f64,
    /// Weighted energy with shut-down only (expected executions, nominal
    /// voltage).
    pub shutdown_weighted: f64,
    /// Weighted energy with shut-down *and* per-op voltage scaling.
    pub scaled_weighted: f64,
    /// Reduction from shutting operations down, in percent.
    pub shutdown_reduction_percent: f64,
    /// Additional reduction from the voltage assignment, relative to the
    /// shut-down-only energy, in percent.
    pub slowdown_reduction_percent: f64,
    /// Combined reduction relative to the baseline, in percent
    /// ([`pmsched::compose_reductions`] of the other two by construction).
    pub combined_reduction_percent: f64,
}

/// Computes the voltage-aware energy estimate for a power-management
/// result: per-op execution probabilities from the activation analysis,
/// per-op energy factors from `table` through `assignment`.
///
/// Sums run over scheduled functional nodes in ascending node-id order —
/// the same order as [`crate::dvs::allotted_delays`] — so global-curve
/// assignments reproduce the single-curve loop bit for bit.
///
/// # Errors
///
/// Returns [`EstimateError::DegenerateBaseline`] when the design's
/// weighted baseline energy is not strictly positive.
pub fn voltage_scaled_estimate(
    result: &PowerManagementResult,
    probs: &SelectProbabilities,
    weights: &OpWeights,
    table: &VoltageTable,
    assignment: &VoltageAssignment,
) -> Result<VoltageEstimate, EstimateError> {
    let cdfg = result.cdfg();
    let schedule = result.schedule();
    let activation = result.activation(probs);
    let slices = cdfg.slices();

    let mut baseline = 0.0;
    let mut shutdown = 0.0;
    let mut scaled = 0.0;
    for &node in slices.functional() {
        if schedule.step_of(node).is_none() {
            continue;
        }
        let class = cdfg.node(node).expect("live node").op.class();
        let weight = weights.weight(class);
        let p = activation.probability(node);
        baseline += weight;
        shutdown += weight * p;
        scaled += weight * p * table.level(assignment.level_of(node)).energy_factor;
    }

    if !baseline.is_finite() || baseline <= 0.0 {
        return Err(EstimateError::degenerate(format!(
            "design has non-positive weighted baseline energy ({baseline})"
        )));
    }
    let shutdown_reduction_percent = 100.0 * (baseline - shutdown) / baseline;
    let slowdown_reduction_percent =
        if shutdown > 0.0 { 100.0 * (shutdown - scaled) / shutdown } else { 0.0 };
    Ok(VoltageEstimate {
        baseline_weighted: baseline,
        shutdown_weighted: shutdown,
        scaled_weighted: scaled,
        shutdown_reduction_percent,
        slowdown_reduction_percent,
        combined_reduction_percent: compose_reductions(
            shutdown_reduction_percent,
            slowdown_reduction_percent,
        ),
    })
}

/// The built-in discrete voltage sets: classic square-law tables for a 5 V
/// nominal process with `Vt = 0.8 V` (energies `(V/5)²`, delays
/// `V/(V−Vt)²` normalised and rounded up to whole steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VoltagePreset {
    /// 5 V / 3.3 V — the common dual-supply setup.
    TwoLevel,
    /// 5 V / 3.3 V / 2.4 V.
    ThreeLevel,
    /// 5 V / 3.3 V / 2.4 V / 2.0 V / 1.5 V — deep scaling.
    FiveLevel,
}

impl VoltagePreset {
    /// Every preset, in increasing depth.
    pub const ALL: [VoltagePreset; 3] =
        [VoltagePreset::TwoLevel, VoltagePreset::ThreeLevel, VoltagePreset::FiveLevel];

    /// The preset's voltage table.
    pub fn table(self) -> VoltageTable {
        let five = [
            VoltageLevel { delay_steps: 1, energy_factor: 1.0 }, // 5.0 V
            VoltageLevel { delay_steps: 2, energy_factor: 0.4356 }, // 3.3 V
            VoltageLevel { delay_steps: 4, energy_factor: 0.2304 }, // 2.4 V
            VoltageLevel { delay_steps: 5, energy_factor: 0.16 }, // 2.0 V
            VoltageLevel { delay_steps: 11, energy_factor: 0.09 }, // 1.5 V
        ];
        let count = match self {
            VoltagePreset::TwoLevel => 2,
            VoltagePreset::ThreeLevel => 3,
            VoltagePreset::FiveLevel => 5,
        };
        VoltageTable::new(five[..count].to_vec())
    }

    /// Number of levels in the preset's table.
    pub fn level_count(self) -> usize {
        match self {
            VoltagePreset::TwoLevel => 2,
            VoltagePreset::ThreeLevel => 3,
            VoltagePreset::FiveLevel => 5,
        }
    }
}

/// How the explorer assigns voltage: one global delay-scaling curve, or a
/// per-operation discrete assignment from a preset table picked by the
/// slack-distribution kernel.  This is the sweep/explore plan axis — it
/// carries no floats, so it derives `Eq`/`Hash`/`Ord` and can key plans
/// and caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VoltagePolicy {
    /// One global curve applied to every operation's allotted delay (the
    /// pre-existing scaled-delay model; `Global(DelayScaling::None)` is
    /// the paper's shut-down-only model).
    Global(DelayScaling),
    /// Per-operation discrete levels from a preset table, assigned by
    /// [`sched::dvs::distribute_slack`] under the latency budget.
    PerOp(VoltagePreset),
}

impl VoltagePolicy {
    /// Every policy, global curves first.
    pub const ALL: [VoltagePolicy; 6] = [
        VoltagePolicy::Global(DelayScaling::None),
        VoltagePolicy::Global(DelayScaling::Linear),
        VoltagePolicy::Global(DelayScaling::Quadratic),
        VoltagePolicy::PerOp(VoltagePreset::TwoLevel),
        VoltagePolicy::PerOp(VoltagePreset::ThreeLevel),
        VoltagePolicy::PerOp(VoltagePreset::FiveLevel),
    ];

    /// Short stable label used in reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            VoltagePolicy::Global(DelayScaling::None) => "global-none",
            VoltagePolicy::Global(DelayScaling::Linear) => "global-linear",
            VoltagePolicy::Global(DelayScaling::Quadratic) => "global-quadratic",
            VoltagePolicy::PerOp(VoltagePreset::TwoLevel) => "per-op-2",
            VoltagePolicy::PerOp(VoltagePreset::ThreeLevel) => "per-op-3",
            VoltagePolicy::PerOp(VoltagePreset::FiveLevel) => "per-op-5",
        }
    }

    /// Parses a label produced by [`VoltagePolicy::label`],
    /// case-insensitively.
    pub fn parse(text: &str) -> Option<Self> {
        VoltagePolicy::ALL.into_iter().find(|p| p.label().eq_ignore_ascii_case(text))
    }
}

impl Default for VoltagePolicy {
    /// The paper's model: one global curve, no scaling.
    fn default() -> Self {
        VoltagePolicy::Global(DelayScaling::None)
    }
}

impl fmt::Display for VoltagePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvs::allotted_delays;
    use cdfg::{Cdfg, Op};
    use pmsched::{power_manage, PowerManagementOptions};

    fn abs_diff() -> Cdfg {
        let mut g = Cdfg::new("abs_diff");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let gt = g.add_op(Op::Gt, &[a, b]).unwrap();
        let amb = g.add_op(Op::Sub, &[a, b]).unwrap();
        let bma = g.add_op(Op::Sub, &[b, a]).unwrap();
        let m = g.add_mux(gt, bma, amb).unwrap();
        g.add_output("abs", m).unwrap();
        g
    }

    /// The pre-refactor single-curve loop, kept verbatim as the reference
    /// the byte-identity pin compares against: one global
    /// [`DelayScaling::factor`] applied to every allotted delay, summed in
    /// ascending node-id order.
    fn pre_refactor_estimate(
        result: &PowerManagementResult,
        probs: &SelectProbabilities,
        weights: &OpWeights,
        scaling: DelayScaling,
    ) -> (f64, f64, f64, f64, f64, f64) {
        let cdfg = result.cdfg();
        let activation = result.activation(probs);
        let mut baseline = 0.0;
        let mut shutdown = 0.0;
        let mut scaled = 0.0;
        for (node, delay) in allotted_delays(cdfg, result.schedule(), result.latency()) {
            let class = cdfg.node(node).expect("live node").op.class();
            let weight = weights.weight(class);
            let p = activation.probability(node);
            baseline += weight;
            shutdown += weight * p;
            scaled += weight * p * scaling.factor(delay);
        }
        let shutdown_pct = 100.0 * (baseline - shutdown) / baseline;
        let slowdown_pct =
            if shutdown > 0.0 { 100.0 * (shutdown - scaled) / shutdown } else { 0.0 };
        let combined_pct = pmsched::compose_reductions(shutdown_pct, slowdown_pct);
        (baseline, shutdown, scaled, shutdown_pct, slowdown_pct, combined_pct)
    }

    /// The pinned tentpole identity: the refactored voltage path — a
    /// [`VoltageTable::from_scaling`] table with the curve-induced
    /// assignment, which is exactly how the explorer scores a global
    /// curve — reproduces the pre-refactor single-curve report
    /// **byte-identically** (exact f64 bits on every field), for every
    /// scaling law and a range of budgets.  The nominal one-level table is
    /// the `DelayScaling::None` case.
    #[test]
    fn global_curves_as_degenerate_tables_are_byte_identical() {
        let g = abs_diff();
        let probs = SelectProbabilities::fair();
        let weights = OpWeights::paper_power();
        for latency in 2..8 {
            let result = power_manage(&g, &PowerManagementOptions::with_latency(latency)).unwrap();
            let delays = allotted_delays(result.cdfg(), result.schedule(), latency);
            let slots = result.cdfg().slices().slot_count();
            for scaling in DelayScaling::ALL {
                let (baseline, shutdown, scaled, shutdown_pct, slowdown_pct, combined_pct) =
                    pre_refactor_estimate(&result, &probs, &weights, scaling);
                let table = if scaling == DelayScaling::None {
                    VoltageTable::nominal()
                } else {
                    VoltageTable::from_scaling(scaling, latency)
                };
                let assignment = VoltageAssignment::from_delays(&table, &delays, slots);
                let voltage =
                    voltage_scaled_estimate(&result, &probs, &weights, &table, &assignment)
                        .unwrap();
                for (estimate, reference) in [
                    (voltage.baseline_weighted, baseline),
                    (voltage.shutdown_weighted, shutdown),
                    (voltage.scaled_weighted, scaled),
                    (voltage.shutdown_reduction_percent, shutdown_pct),
                    (voltage.slowdown_reduction_percent, slowdown_pct),
                    (voltage.combined_reduction_percent, combined_pct),
                ] {
                    assert_eq!(
                        estimate.to_bits(),
                        reference.to_bits(),
                        "{scaling} @ {latency}: {estimate} vs {reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn level_for_delay_picks_the_deepest_fitting_level() {
        let table = VoltagePreset::FiveLevel.table();
        assert_eq!(table.level_for_delay(0), 0, "floored at one step");
        assert_eq!(table.level_for_delay(1), 0);
        assert_eq!(table.level_for_delay(2), 1);
        assert_eq!(table.level_for_delay(3), 1);
        assert_eq!(table.level_for_delay(4), 2);
        assert_eq!(table.level_for_delay(5), 3);
        assert_eq!(table.level_for_delay(10), 3);
        assert_eq!(table.level_for_delay(11), 4);
        assert_eq!(table.level_for_delay(1000), 4);
    }

    #[test]
    fn preset_tables_follow_the_square_law() {
        for preset in VoltagePreset::ALL {
            let table = preset.table();
            assert_eq!(table.levels().len(), preset.level_count());
            assert_eq!(table.levels()[0].delay_steps, 1);
            assert_eq!(table.levels()[0].energy_factor, 1.0);
            for pair in table.levels().windows(2) {
                assert!(pair[0].delay_steps < pair[1].delay_steps);
                assert!(pair[1].energy_factor < pair[0].energy_factor);
            }
        }
        // 3.3 V on a 5 V process: (3.3/5)² exactly.
        let two = VoltagePreset::TwoLevel.table();
        assert_eq!(two.level(1).energy_factor, 0.4356);
        assert_eq!(two.level(1).delay_steps, 2);
    }

    #[test]
    fn policy_labels_roundtrip_case_insensitively() {
        for policy in VoltagePolicy::ALL {
            assert_eq!(VoltagePolicy::parse(policy.label()), Some(policy));
            assert_eq!(VoltagePolicy::parse(&policy.label().to_uppercase()), Some(policy));
        }
        assert_eq!(VoltagePolicy::parse("per-op-7"), None);
        assert_eq!(VoltagePolicy::default(), VoltagePolicy::Global(DelayScaling::None));
    }

    #[test]
    fn slack_levels_mirror_the_table() {
        let table = VoltagePreset::ThreeLevel.table();
        let slack = table.slack_levels();
        assert_eq!(slack.len(), 3);
        for (s, v) in slack.iter().zip(table.levels()) {
            assert_eq!(s.delay_steps, v.delay_steps);
            assert_eq!(s.energy_factor, v.energy_factor);
        }
    }

    #[test]
    #[should_panic(expected = "level delays must be strictly increasing")]
    fn invalid_tables_are_rejected() {
        let _ = VoltageTable::new(vec![
            VoltageLevel { delay_steps: 1, energy_factor: 1.0 },
            VoltageLevel { delay_steps: 1, energy_factor: 0.5 },
        ]);
    }
}
