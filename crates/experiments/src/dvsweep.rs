//! The `dvsweep` study: fine-grained DVS policies against the global
//! scaling curve, plus the measured optimality gap of the greedy
//! slack-distribution kernel against the exact branch-and-bound
//! reference.
//!
//! Two questions, two tables:
//!
//! * **Policy comparison** — for every paper circuit, the full budget
//!   range is explored once per [`VoltagePolicy`]: the global quadratic
//!   curve and the per-op presets with 2, 3 and 5 discrete levels.  Each
//!   row reports the widest point's energy and area, so the table shows
//!   what finer voltage granularity buys (lower energy) and what it
//!   costs (voltage-partitioned units cannot be shared, so area can
//!   move).
//! * **Optimality gap** — on circuits small enough for the exact
//!   reference ([`sched::dvs::exact_min_energy`], enabled through the
//!   `reference` feature), the greedy kernel's energy is set against the
//!   exact minimum at every feasible budget.  The gap is reported in
//!   percent; the kernel is admissible, so the gap is never negative
//!   (up to float rounding).  Circuits too large for the exact search
//!   are listed as skipped, never silently dropped.
//!
//! Both tables are byte-identical across reruns and thread counts: the
//! explorations run on the engine's deterministic pool and the gap sweep
//! is strictly sequential.

use std::fmt::Write as _;

use circuits::{abs_diff, all_benchmarks};
use engine::report::json_number;
use engine::{
    BudgetCeiling, BudgetPolicy, DelayScaling, Engine, ExploreOptions, ExploreRequest,
    VoltagePolicy, VoltagePreset,
};
use gen::{Family, GenSpec};
use pmsched::{power_manage, OpWeights, PowerManagementOptions, SelectProbabilities};

use crate::ExperimentError;

/// The policies the comparison table walks, in report order.
pub const POLICIES: [VoltagePolicy; 4] = [
    VoltagePolicy::Global(DelayScaling::Quadratic),
    VoltagePolicy::PerOp(VoltagePreset::TwoLevel),
    VoltagePolicy::PerOp(VoltagePreset::ThreeLevel),
    VoltagePolicy::PerOp(VoltagePreset::FiveLevel),
];

/// Functional-node ceiling for the exact reference: beyond this the
/// branch-and-bound search may blow up combinatorially, so the circuit is
/// reported as skipped instead.
const EXACT_NODE_CAP: usize = 18;

/// One circuit × policy row of the comparison table.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Circuit name.
    pub circuit: String,
    /// The voltage policy explored.
    pub policy: VoltagePolicy,
    /// Points on the walk (full budget range).
    pub points: usize,
    /// Points surviving 3-objective front marking.
    pub front_points: usize,
    /// Scaled-weighted energy at the widest budget.
    pub widest_energy: f64,
    /// Datapath area at the widest budget.
    pub widest_area: f64,
    /// Combined reduction percent at the widest budget.
    pub widest_combined: f64,
}

/// One circuit × preset × budget row of the optimality-gap table.
#[derive(Debug, Clone)]
pub struct GapRow {
    /// Circuit name.
    pub circuit: String,
    /// The per-op preset whose level table was distributed.
    pub preset: VoltagePreset,
    /// The latency budget.
    pub budget: u32,
    /// Greedy kernel energy.
    pub heuristic: f64,
    /// Exact branch-and-bound minimum energy.
    pub exact: f64,
    /// `(heuristic − exact) / exact × 100` (0 when exact is 0).
    pub gap_percent: f64,
}

/// The whole study's results.
#[derive(Debug, Clone)]
pub struct DvsweepOutcome {
    /// Budget span above the critical path both tables walked.
    pub span: u32,
    /// Comparison rows, circuit-major in [`POLICIES`] order.
    pub policy_rows: Vec<PolicyRow>,
    /// Gap rows, circuit-major, preset-major, ascending budgets.
    pub gap_rows: Vec<GapRow>,
    /// Circuits excluded from the exact study (too many functional
    /// nodes), with the node count that disqualified them.
    pub skipped: Vec<(String, usize)>,
}

impl DvsweepOutcome {
    /// The largest measured optimality gap in percent.
    pub fn max_gap_percent(&self) -> f64 {
        self.gap_rows.iter().map(|r| r.gap_percent).fold(0.0, f64::max)
    }

    /// Whether the greedy kernel lower-bounds correctly everywhere: no
    /// heuristic energy below the exact minimum (beyond float rounding).
    pub fn kernel_is_admissible(&self) -> bool {
        self.gap_rows.iter().all(|r| r.heuristic >= r.exact - 1e-9 * r.exact.abs().max(1.0))
    }
}

/// The exact-study circuits: the paper's `abs_diff` plus one small
/// generated circuit per family.
fn gap_circuits() -> Result<Vec<(String, cdfg::Cdfg)>, ExperimentError> {
    let mut circuits = vec![("abs_diff".to_owned(), abs_diff())];
    for family in Family::ALL {
        let mut spec = GenSpec::new(family, 11, 1);
        match family {
            Family::RandomDag => {
                spec.width = 3;
                spec.depth = 4;
                spec.mux_permille = 300;
            }
            Family::MuxTree => spec.depth = 2,
            Family::DspChain => spec.taps = 3,
            Family::Cordic => spec.iters = 2,
        }
        let bench = gen::generate_one(&spec, 0)?;
        circuits.push((bench.name, bench.cdfg));
    }
    Ok(circuits)
}

/// Runs the study (see the module docs).  `small` drops the heavyweight
/// `cordic` circuit from the comparison and trims the gap sweep to one
/// preset and a narrower budget walk — the CI smoke configuration.
///
/// # Errors
///
/// Propagates generator and power-management failures; an infeasible
/// budget inside the walked range is a bug, not a skip.
pub fn run_dvsweep(small: bool, threads: usize) -> Result<DvsweepOutcome, ExperimentError> {
    let span = if small { 3 } else { 6 };

    // Policy comparison over the paper circuits.
    let requests: Vec<ExploreRequest> = {
        let mut requests = vec![ExploreRequest::new("abs_diff")];
        for bench in all_benchmarks() {
            if small && bench.name == "cordic" {
                continue;
            }
            requests.push(ExploreRequest::new(bench.name.as_str()));
        }
        requests
    };
    let engine = Engine::new();
    let mut policy_rows = Vec::new();
    for policy in POLICIES {
        let options = ExploreOptions::new()
            .policy(BudgetPolicy::FullRange)
            .ceiling(BudgetCeiling::CriticalPathPlus(span))
            .voltage(policy);
        let report = engine.explore(&requests, &options, threads);
        for circuit in &report.circuits {
            if let Some(failure) = circuit.failures.first() {
                return Err(ExperimentError {
                    context: format!("dvsweep {} under {}", circuit.circuit, policy),
                    message: failure.1.clone(),
                });
            }
            let widest = circuit.points.last().ok_or_else(|| ExperimentError {
                context: format!("dvsweep {} under {}", circuit.circuit, policy),
                message: "exploration produced no points".to_owned(),
            })?;
            policy_rows.push(PolicyRow {
                circuit: circuit.circuit.clone(),
                policy,
                points: circuit.points.len(),
                front_points: circuit.points.iter().filter(|p| p.on_front).count(),
                widest_energy: widest.energy,
                widest_area: widest.area,
                widest_combined: widest.combined_reduction,
            });
        }
    }
    // Circuit-major order reads better than the policy-major loop above.
    policy_rows.sort_by(|a, b| {
        let pos = |row: &PolicyRow| {
            (
                requests.iter().position(|r| r.circuit == row.circuit),
                POLICIES.iter().position(|p| *p == row.policy),
            )
        };
        pos(a).cmp(&pos(b))
    });

    // Optimality gap on the small circuits.
    let presets: &[VoltagePreset] = if small {
        &[VoltagePreset::ThreeLevel]
    } else {
        &[VoltagePreset::TwoLevel, VoltagePreset::ThreeLevel, VoltagePreset::FiveLevel]
    };
    let gap_span = if small { 2 } else { 3 };
    let weights = OpWeights::paper_power();
    let mut gap_rows = Vec::new();
    let mut skipped = Vec::new();
    let mut ws = sched::dvs::Workspace::new();
    for (name, cdfg) in gap_circuits()? {
        let functional = cdfg.slices().functional().len();
        if functional > EXACT_NODE_CAP {
            skipped.push((name, functional));
            continue;
        }
        let critical_path = cdfg.critical_path_length();
        for &preset in presets {
            let table = preset.table();
            let levels = table.slack_levels();
            for budget in critical_path..=critical_path + gap_span {
                let context = || ExperimentError {
                    context: format!("dvsweep gap {name} preset {preset:?} budget {budget}"),
                    message: String::new(),
                };
                let options = PowerManagementOptions::with_latency(budget);
                let result = power_manage(&cdfg, &options)
                    .map_err(|e| ExperimentError { message: e.to_string(), ..context() })?;
                let probs = SelectProbabilities::fair();
                let activation = result.activation(&probs);
                let pm = result.cdfg();
                let node_weight = |n: cdfg::NodeId| {
                    let class = pm.node(n).expect("live node").op.class();
                    weights.weight(class) * activation.probability(n)
                };
                let heur = sched::dvs::distribute_slack(
                    pm,
                    result.latency(),
                    &levels,
                    &node_weight,
                    &mut ws,
                )
                .map_err(|e| ExperimentError { message: e.to_string(), ..context() })?;
                let exact =
                    sched::dvs::exact_min_energy(pm, result.latency(), &levels, &node_weight)
                        .map_err(|e| ExperimentError { message: e.to_string(), ..context() })?;
                let gap_percent = if exact.energy() > 0.0 {
                    (heur.energy() - exact.energy()) / exact.energy() * 100.0
                } else {
                    0.0
                };
                gap_rows.push(GapRow {
                    circuit: name.clone(),
                    preset,
                    budget,
                    heuristic: heur.energy(),
                    exact: exact.energy(),
                    gap_percent,
                });
            }
        }
    }

    Ok(DvsweepOutcome { span, policy_rows, gap_rows, skipped })
}

/// Renders both tables as fixed-width text.
pub fn render(outcome: &DvsweepOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Voltage-policy comparison (widest budget = critical path + {}):",
        outcome.span
    );
    let _ = writeln!(
        out,
        "{:<10} {:<16} {:>6} {:>6} {:>10} {:>10} {:>9}",
        "circuit", "policy", "points", "front", "energy", "area", "comb %"
    );
    for row in &outcome.policy_rows {
        let _ = writeln!(
            out,
            "{:<10} {:<16} {:>6} {:>6} {:>10.3} {:>10.1} {:>9.2}",
            row.circuit,
            row.policy.label(),
            row.points,
            row.front_points,
            row.widest_energy,
            row.widest_area,
            row.widest_combined,
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "Greedy kernel vs exact reference (optimality gap):");
    let _ = writeln!(
        out,
        "{:<14} {:<9} {:>6} {:>10} {:>10} {:>8}",
        "circuit", "preset", "budget", "greedy", "exact", "gap %"
    );
    for row in &outcome.gap_rows {
        let _ = writeln!(
            out,
            "{:<14} {:<9} {:>6} {:>10.4} {:>10.4} {:>8.3}",
            row.circuit,
            VoltagePolicy::PerOp(row.preset).label(),
            row.budget,
            row.heuristic,
            row.exact,
            row.gap_percent,
        );
    }
    for (name, nodes) in &outcome.skipped {
        let _ =
            writeln!(out, "skipped {name}: {nodes} functional nodes exceed the exact-search cap");
    }
    let _ = writeln!(
        out,
        "max gap {:.3}% over {} measurements; kernel admissible: {}",
        outcome.max_gap_percent(),
        outcome.gap_rows.len(),
        outcome.kernel_is_admissible(),
    );
    out
}

/// Renders the study as JSON (stable key order, one row per line).
pub fn to_json(outcome: &DvsweepOutcome) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"span\": {},", outcome.span);
    let _ = writeln!(out, "  \"policies\": [");
    for (i, row) in outcome.policy_rows.iter().enumerate() {
        let comma = if i + 1 == outcome.policy_rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"circuit\": \"{}\", \"policy\": \"{}\", \"points\": {}, \
             \"front_points\": {}, \"widest_energy\": {}, \"widest_area\": {}, \
             \"widest_combined\": {}}}{comma}",
            row.circuit,
            row.policy.label(),
            row.points,
            row.front_points,
            json_number(row.widest_energy),
            json_number(row.widest_area),
            json_number(row.widest_combined),
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"gaps\": [");
    for (i, row) in outcome.gap_rows.iter().enumerate() {
        let comma = if i + 1 == outcome.gap_rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"circuit\": \"{}\", \"preset\": \"{}\", \"budget\": {}, \
             \"heuristic\": {}, \"exact\": {}, \"gap_percent\": {}}}{comma}",
            row.circuit,
            VoltagePolicy::PerOp(row.preset).label(),
            row.budget,
            json_number(row.heuristic),
            json_number(row.exact),
            json_number(row.gap_percent),
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"skipped\": [");
    for (i, (name, nodes)) in outcome.skipped.iter().enumerate() {
        let comma = if i + 1 == outcome.skipped.len() { "" } else { "," };
        let _ =
            writeln!(out, "    {{\"circuit\": \"{name}\", \"functional_nodes\": {nodes}}}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"max_gap_percent\": {},", json_number(outcome.max_gap_percent()));
    let _ = writeln!(out, "  \"kernel_admissible\": {}", outcome.kernel_is_admissible());
    out.push('}');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_measures_gaps_and_stays_admissible() {
        let outcome = run_dvsweep(true, 2).unwrap();
        assert!(!outcome.policy_rows.is_empty());
        assert!(!outcome.gap_rows.is_empty());
        assert!(outcome.kernel_is_admissible(), "{outcome:?}");
        // Every gap-study circuit × budget appears once per preset.
        assert!(outcome.gap_rows.iter().all(|r| r.preset == VoltagePreset::ThreeLevel));
        // The per-op presets never price above the global curve at the
        // widest budget: finer granularity only helps.
        for chunk in outcome.policy_rows.chunks(POLICIES.len()) {
            assert_eq!(chunk.len(), POLICIES.len());
            let global = &chunk[0];
            assert_eq!(global.policy, POLICIES[0]);
            for per_op in &chunk[1..] {
                assert_eq!(per_op.circuit, global.circuit);
                assert!(
                    per_op.widest_energy.total_cmp(&global.widest_energy).is_le(),
                    "{}: {} vs global",
                    per_op.circuit,
                    per_op.policy
                );
            }
        }
        let text = render(&outcome);
        assert!(text.contains("kernel admissible: true"));
        assert!(to_json(&outcome).contains("\"kernel_admissible\": true"));
    }

    #[test]
    fn thread_counts_do_not_change_the_rendered_bytes() {
        let solo = run_dvsweep(true, 1).unwrap();
        let wide = run_dvsweep(true, 4).unwrap();
        assert_eq!(to_json(&solo), to_json(&wide));
        assert_eq!(render(&solo), render(&wide));
    }
}
