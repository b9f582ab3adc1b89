//! Power and area estimation: the Table II and Table III methods.

use std::collections::BTreeMap;
use std::fmt;

use binding::Datapath;
use cdfg::{Cdfg, OpClass};
use pmsched::{
    power_manage, OpWeights, PowerManageError, PowerManagementOptions, PowerManagementResult,
};
use rtl::{Controller, GateModel, SimError, Simulator};

use crate::vectors::RandomVectors;

/// Options for the gate-level (Table III style) comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateLevelOptions {
    /// Number of control steps per computation.
    pub latency: u32,
    /// Number of random input samples to simulate.
    pub samples: usize,
    /// Seed for the random vector generator.
    pub seed: u64,
}

impl GateLevelOptions {
    /// Default options for a given latency: 1000 samples, a fixed seed.
    /// Both schedules run with unlimited execution units.
    pub fn new(latency: u32) -> Self {
        GateLevelOptions { latency, samples: 1000, seed: 0xDAC96 }
    }

    /// Sets the number of simulated samples.
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Errors produced by the power-estimation flows.
#[derive(Debug)]
#[non_exhaustive]
pub enum EstimateError {
    /// Scheduling or power management failed.
    PowerManage(PowerManageError),
    /// RTL simulation failed (including functional mismatches, which would
    /// indicate an unsound shut-down decision).
    Simulation(SimError),
    /// Datapath construction failed.
    Binding(binding::BindError),
    /// The comparison baseline is degenerate — zero samples requested, or
    /// zero baseline power/area — so every "reduction" ratio would divide
    /// by zero.  Surfaced as a typed error instead of the NaN/∞ (or a
    /// silent 0%) the ratios used to produce.
    DegenerateBaseline {
        /// What exactly is degenerate about the baseline.
        reason: String,
    },
}

impl EstimateError {
    /// Builds the degenerate-baseline error.
    pub(crate) fn degenerate(reason: impl Into<String>) -> Self {
        EstimateError::DegenerateBaseline { reason: reason.into() }
    }
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::PowerManage(e) => write!(f, "power management failed: {e}"),
            EstimateError::Simulation(e) => write!(f, "rtl simulation failed: {e}"),
            EstimateError::Binding(e) => write!(f, "binding failed: {e}"),
            EstimateError::DegenerateBaseline { reason } => {
                write!(f, "degenerate baseline: {reason}")
            }
        }
    }
}

impl std::error::Error for EstimateError {}

impl From<PowerManageError> for EstimateError {
    fn from(e: PowerManageError) -> Self {
        EstimateError::PowerManage(e)
    }
}

impl From<SimError> for EstimateError {
    fn from(e: SimError) -> Self {
        EstimateError::Simulation(e)
    }
}

impl From<binding::BindError> for EstimateError {
    fn from(e: binding::BindError) -> Self {
        EstimateError::Binding(e)
    }
}

/// The Table III style report: original vs power-managed design at "gate
/// level" (simulated switching activity and gate-equivalent area).
#[derive(Debug, Clone, PartialEq)]
pub struct GateLevelReport {
    /// Design name.
    pub name: String,
    /// Control steps used by both designs.
    pub latency: u32,
    /// Gate-equivalent area of the original design.
    pub original_area: f64,
    /// Gate-equivalent area of the power-managed design (datapath plus the
    /// more complex controller).
    pub managed_area: f64,
    /// `managed_area / original_area` — the "Area Incr." column.
    pub area_ratio: f64,
    /// Simulated energy of the original design (arbitrary units).
    pub original_power: f64,
    /// Simulated energy of the power-managed design.
    pub managed_power: f64,
    /// `100 * (original - managed) / original` — the "Power %" column.
    pub power_reduction_percent: f64,
    /// Number of samples simulated.
    pub samples: usize,
}

impl fmt::Display for GateLevelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: area {:.0} -> {:.0} (x{:.2}), power {:.1} -> {:.1} ({:.1}% reduction)",
            self.name,
            self.original_area,
            self.managed_area,
            self.area_ratio,
            self.original_power,
            self.managed_power,
            self.power_reduction_percent
        )
    }
}

/// Runs the full Table III flow on one design: power-managed and baseline
/// schedules, controller generation, gate-level area, and switching-activity
/// simulation of both designs over the same random vectors.
///
/// # Errors
///
/// Returns an [`EstimateError`] if scheduling, binding or simulation fails.
/// A functional mismatch between the power-managed RTL and the reference
/// semantics is reported as a simulation error.
pub fn gate_level_comparison(
    cdfg: &Cdfg,
    options: &GateLevelOptions,
) -> Result<GateLevelReport, EstimateError> {
    let result = power_manage(cdfg, &PowerManagementOptions::with_latency(options.latency))?;
    gate_level_with_result(cdfg, &result, options)
}

/// Same flow as [`gate_level_comparison`], but reusing an already computed
/// power-management result (whose latency must match `options.latency`) so
/// callers that cache the scheduling prefix do not pay for it twice.
///
/// # Errors
///
/// Returns an [`EstimateError`] if binding or simulation fails, or
/// [`EstimateError::DegenerateBaseline`] when `options.samples` is zero or
/// the baseline design simulates to zero power — both would otherwise turn
/// the reduction and area ratios into NaN/∞ or a silent fake 0%.
pub fn gate_level_with_result(
    cdfg: &Cdfg,
    result: &PowerManagementResult,
    options: &GateLevelOptions,
) -> Result<GateLevelReport, EstimateError> {
    if options.samples == 0 {
        return Err(EstimateError::degenerate(
            "zero samples requested: no activity to compare against",
        ));
    }
    // Managed design.
    let managed_controller = Controller::generate(result);
    let managed_datapath = Datapath::build(result.cdfg(), result.schedule())?;
    // Original (baseline) design: same constraints, traditional schedule,
    // ungated controller.  Note the baseline uses the original CDFG without
    // the control edges.
    let baseline_controller = Controller::ungated(cdfg, result.baseline_schedule());
    let baseline_datapath = Datapath::build(cdfg, result.baseline_schedule())?;

    let gate_model = GateModel::new();
    let managed_gates = gate_model.expand(&managed_datapath, &managed_controller);
    let baseline_gates = gate_model.expand(&baseline_datapath, &baseline_controller);

    // Simulate both designs on identical random vectors.
    let vectors = RandomVectors::new(cdfg, options.seed).samples(options.samples);
    let mut managed_sim = Simulator::new(result.cdfg(), result.schedule(), &managed_controller)?;
    let mut baseline_sim = Simulator::new(cdfg, result.baseline_schedule(), &baseline_controller)?;
    for sample in &vectors {
        managed_sim.run_sample(sample)?;
        baseline_sim.run_sample(sample)?;
    }

    let weights = OpWeights::paper_power();
    let managed_power = simulated_energy(&managed_sim, &weights, cdfg.default_bitwidth())
        + controller_energy(&managed_controller, options.samples);
    let original_power = simulated_energy(&baseline_sim, &weights, cdfg.default_bitwidth())
        + controller_energy(&baseline_controller, options.samples);

    // The explicit NaN checks matter: a plain `x <= 0` would wave NaN through
    // into every downstream ratio.
    if !original_power.is_finite() || original_power <= 0.0 {
        return Err(EstimateError::degenerate(format!(
            "baseline simulates to non-positive power ({original_power}); \
             a zero-activity design has no savings ratio"
        )));
    }
    let original_area = baseline_gates.total();
    let managed_area = managed_gates.total();
    if !original_area.is_finite() || original_area <= 0.0 {
        return Err(EstimateError::degenerate(format!(
            "baseline expands to non-positive gate area ({original_area})"
        )));
    }

    Ok(GateLevelReport {
        name: cdfg.name().to_owned(),
        latency: options.latency,
        original_area,
        managed_area,
        area_ratio: managed_area / original_area,
        original_power,
        managed_power,
        power_reduction_percent: 100.0 * (original_power - managed_power) / original_power,
        samples: options.samples,
    })
}

/// Converts the simulator's per-unit activity into energy.
///
/// Each active cycle of a unit costs half its nominal class weight (clocking
/// and internal-node activity) plus a data-dependent part proportional to
/// the fraction of interface bits that toggled.  An idle (gated) cycle costs
/// nothing — its inputs are held, which is the entire point of the paper's
/// shut-down technique.
fn simulated_energy(sim: &Simulator, weights: &OpWeights, bitwidth: u32) -> f64 {
    let mut per_class: BTreeMap<OpClass, (u64, u64)> = BTreeMap::new();
    for (unit, activity) in sim.activity() {
        if let Some(fu) = sim.datapath().fu_binding().unit(*unit) {
            let entry = per_class.entry(fu.class).or_insert((0, 0));
            entry.0 += activity.active_cycles;
            entry.1 += activity.toggled_bits;
        }
    }
    per_class
        .into_iter()
        .map(|(class, (active, toggles))| {
            let data_part = toggles as f64 / f64::from(bitwidth.max(1));
            weights.weight(class) * (0.5 * active as f64 + 0.5 * data_part)
        })
        .sum()
}

/// Energy of the controller itself: the state register toggles every cycle
/// and each gated enable adds decode activity.  This is what makes Table III
/// savings slightly lower than the datapath-only Table II savings.
fn controller_energy(controller: &Controller, samples: usize) -> f64 {
    let per_sample = 0.05 * f64::from(controller.num_steps())
        + 0.1 * controller.gated_enable_count() as f64
        + 0.05 * controller.condition_signals().len() as f64;
    per_sample * samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::Op;

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

    #[test]
    fn managed_design_saves_simulated_power() {
        let g = abs_diff();
        let report = gate_level_comparison(&g, &GateLevelOptions::new(3).samples(300)).unwrap();
        assert!(report.power_reduction_percent > 5.0, "{report}");
        assert!(report.power_reduction_percent < 80.0);
        assert!(report.managed_power < report.original_power);
        assert_eq!(report.samples, 300);
    }

    #[test]
    fn gate_level_savings_below_datapath_only_savings() {
        // The paper: "the savings in Table III are slightly lower [than]
        // Table II as expected" because the controller is more complex.
        let g = abs_diff();
        let pm = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        let datapath_only =
            pm.savings_with(&pmsched::SelectProbabilities::fair(), &OpWeights::paper_power());
        let gate_level = gate_level_comparison(&g, &GateLevelOptions::new(3).samples(300)).unwrap();
        assert!(gate_level.power_reduction_percent < datapath_only.reduction_percent + 5.0);
    }

    #[test]
    fn unmanaged_latency_yields_no_savings() {
        let g = abs_diff();
        let report = gate_level_comparison(&g, &GateLevelOptions::new(2).samples(200)).unwrap();
        assert!(report.power_reduction_percent.abs() < 5.0, "{report}");
        assert!((report.area_ratio - 1.0).abs() < 0.2);
    }

    #[test]
    fn options_builders_chain() {
        let opts = GateLevelOptions::new(4).samples(10).seed(1);
        assert_eq!(opts.latency, 4);
        assert_eq!(opts.samples, 10);
        assert_eq!(opts.seed, 1);
    }

    #[test]
    fn zero_samples_is_a_typed_degenerate_baseline_error() {
        // Before PR 5 a zero-sample run divided 0/0 into the reduction
        // ratio (or silently reported 0%); it must be a typed error now.
        let g = abs_diff();
        let err = gate_level_comparison(&g, &GateLevelOptions::new(3).samples(0)).unwrap_err();
        assert!(matches!(err, EstimateError::DegenerateBaseline { .. }), "{err}");
        assert!(err.to_string().contains("degenerate baseline"), "{err}");
        assert!(err.to_string().contains("zero samples"), "{err}");
    }

    #[test]
    fn one_sample_is_still_a_valid_baseline() {
        // The boundary right above the degenerate case: a single sample
        // simulates fine (the controller energy alone keeps the baseline
        // positive) and all ratios are finite.
        let g = abs_diff();
        let report = gate_level_comparison(&g, &GateLevelOptions::new(3).samples(1)).unwrap();
        assert_eq!(report.samples, 1);
        assert!(report.original_power > 0.0);
        assert!(report.power_reduction_percent.is_finite());
        assert!(report.area_ratio.is_finite() && report.area_ratio > 0.0);
    }

    #[test]
    fn estimate_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EstimateError>();
    }

    #[test]
    fn same_seed_gives_identical_reports() {
        let g = abs_diff();
        let a = gate_level_comparison(&g, &GateLevelOptions::new(3).samples(100).seed(9)).unwrap();
        let b = gate_level_comparison(&g, &GateLevelOptions::new(3).samples(100).seed(9)).unwrap();
        assert_eq!(a, b);
    }
}
