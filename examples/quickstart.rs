//! Quickstart: the paper's |a - b| example, end to end.
//!
//! Builds the CDFG from Silage-like source, runs the power-management
//! scheduling algorithm with three control steps, generates the controller
//! and VHDL, and simulates a few samples to show one subtraction being shut
//! down per sample.
//!
//! Run with `cargo run --example quickstart`.

use std::collections::BTreeMap;
use std::error::Error;

use pmsched::{power_manage, PowerManagementOptions};
use rtl::{Controller, Simulator};

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Frontend: Silage-like source to CDFG.
    let source = circuits::abs_diff_silage_source();
    let cdfg = silage::compile(source)?;
    println!("design `{}`: {}", cdfg.name(), cdfg.op_counts());
    println!("critical path: {} control steps\n", cdfg.critical_path_length());

    // 2. Power-management-aware scheduling with three control steps.
    let result = power_manage(&cdfg, &PowerManagementOptions::with_latency(3))?;
    println!("power-managed schedule ({} steps):", result.latency());
    print!("{}", result.schedule().render(result.cdfg()));
    println!(
        "managed multiplexors: {}, estimated datapath power reduction: {:.1}%\n",
        result.managed_mux_count(),
        result.savings().reduction_percent
    );

    // 3. Controller and VHDL generation (step 12 of the paper's algorithm).
    let controller = Controller::generate(&result);
    println!("{controller}");
    let vhdl = rtl::vhdl::emit(&result, &controller);
    println!("generated VHDL: {} lines (entity `{}`)\n", vhdl.lines().count(), cdfg.name());

    // 4. Cycle-accurate simulation: one subtraction is gated every sample.
    let mut sim = Simulator::new(result.cdfg(), result.schedule(), &controller)?;
    for (a, b) in [(9i64, 4i64), (4, 9), (200, 13)] {
        let mut sample = BTreeMap::new();
        sample.insert("a".to_owned(), a);
        sample.insert("b".to_owned(), b);
        let run = sim.run_sample(&sample)?;
        println!(
            "|{a} - {b}| = {}  (executed {} ops, shut down {})",
            run.outputs["abs"],
            run.executed.len(),
            run.gated.len()
        );
    }
    Ok(())
}
