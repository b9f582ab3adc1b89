//! Power management on the `gcd` benchmark across control-step budgets.
//!
//! Shows how the available slack (control steps beyond the critical path)
//! controls how many multiplexors can be power managed and how much datapath
//! power is saved — the trend behind Table II of the paper.  Also runs the
//! gate-level comparison (Table III method) for the budget the paper used.
//!
//! Run with `cargo run --example gcd_power`.

use std::error::Error;

use circuits::gcd;
use pmsched::{power_manage, PowerManagementOptions, SelectProbabilities};
use power::estimate::{gate_level_comparison, GateLevelOptions};

fn main() -> Result<(), Box<dyn Error>> {
    let cdfg = gcd();
    println!("gcd: {}", cdfg.op_counts());
    println!("critical path: {} control steps\n", cdfg.critical_path_length());

    println!("{:<6} {:>9} {:>10} {:>12}", "steps", "PM muxes", "gated ops", "savings (%)");
    for steps in cdfg.critical_path_length()..=cdfg.critical_path_length() + 3 {
        let result = power_manage(&cdfg, &PowerManagementOptions::with_latency(steps))?;
        let activation = result.activation(&SelectProbabilities::fair());
        println!(
            "{:<6} {:>9} {:>10} {:>12.2}",
            steps,
            result.managed_mux_count(),
            activation.gated_nodes().len(),
            result.savings().reduction_percent
        );
    }

    println!("\ngate-level comparison at 7 control steps (Table III method):");
    let report = gate_level_comparison(&cdfg, &GateLevelOptions::new(7).samples(1000))?;
    println!("{report}");

    // Skewed branch probabilities: if the inputs are rarely equal (as with
    // real data), the eq-driven multiplexors gate almost nothing while the
    // gt-driven ones still save power.
    let result = power_manage(&cdfg, &PowerManagementOptions::with_latency(7))?;
    let mut skewed = SelectProbabilities::fair();
    for mm in result.managed_muxes() {
        // Assume the "greater" outcome is common and the "equal" outcome is
        // rare; mux nodes selected by eq get probability 0.05.
        if result.cdfg().node(mm.select_driver).map(|d| d.op == cdfg::Op::Eq).unwrap_or(false) {
            skewed.set(mm.mux, 0.05);
        }
    }
    let savings = result.savings_with(&skewed, &pmsched::OpWeights::paper_power());
    println!(
        "\nwith skewed branch probabilities (equality rare): {:.2}% datapath reduction",
        savings.reduction_percent
    );
    Ok(())
}
