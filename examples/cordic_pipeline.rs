//! Pipelining as a power-management enabler (Section IV-B) on a CORDIC
//! rotator.
//!
//! In a CORDIC iteration the direction comparison naturally precedes the
//! conditional add/subtract pairs, so even at the critical-path throughput
//! most multiplexors are already manageable; the example shows that adding
//! pipeline stages preserves those savings while the throughput constraint
//! stays fixed, at the cost of latency and pipeline registers.  (For designs
//! whose conditions sit on the critical path — e.g. `dealer` — the extra
//! stages also unlock additional managed multiplexors; see the
//! `ablation_pipeline` binary.)
//!
//! Run with `cargo run --example cordic_pipeline`.

use std::error::Error;

use circuits::cordic_with_iterations;
use engine::{Engine, Scenario, SweepPlan};

fn main() -> Result<(), Box<dyn Error>> {
    // A 6-iteration CORDIC keeps the example fast; the full benchmark uses
    // 16 iterations (see `circuits::cordic`).
    let cdfg = cordic_with_iterations(6);
    let critical_path = cdfg.critical_path_length();
    println!("cordic (6 iterations): {}", cdfg.op_counts());
    println!("critical path / throughput constraint: {critical_path} control steps\n");

    // The engine schedules each pipeline depth at `critical_path × stages`
    // steps, as `ablation_pipeline` does for the paper's circuits.
    let name = cdfg.name().to_owned();
    let mut engine = Engine::new();
    engine.register_circuit(cdfg);
    let plan =
        SweepPlan::builder().case(&name, critical_path).pipeline_depths([1, 2, 3]).build()?;
    let report = engine.run(&plan, 0);

    println!(
        "{:<7} {:>15} {:>9} {:>12} {:>15}",
        "stages", "steps per sample", "PM muxes", "savings (%)", "extra registers"
    );
    for stages in 1..=3u32 {
        let scenario = Scenario::new(&name, critical_path).pipeline_depth(stages);
        let record = report.record_for(&scenario).expect("the plan holds every depth");
        let metrics =
            record.metrics().ok_or_else(|| record.error().unwrap_or_default().to_owned())?;
        println!(
            "{:<7} {:>15} {:>9} {:>12.2} {:>15}",
            stages,
            metrics.effective_latency,
            metrics.pm_muxes,
            metrics.power_reduction,
            metrics.extra_registers
        );
    }

    println!(
        "\nThe price of pipelining is latency ({}x the sample period) and the\n\
         pipeline registers listed above — exactly the trade-off Section IV-B\n\
         of the paper describes.",
        3
    );
    Ok(())
}
