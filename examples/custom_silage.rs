//! Compiling and power-managing a user-written Silage-like program.
//!
//! The program below is a small clip-and-scale kernel with two nested
//! conditionals.  The example compiles it, explores the latency/savings
//! trade-off, exports the CDFG as Graphviz DOT and prints the generated
//! VHDL skeleton for the best configuration.
//!
//! Run with `cargo run --example custom_silage`.

use std::error::Error;

use pmsched::{power_manage, PowerManagementOptions};
use rtl::Controller;

const PROGRAM: &str = r#"
# Clip-and-scale: saturate the input against a threshold, then either
# amplify or attenuate depending on a mode comparison.
func clip_scale(x: num[8], threshold: num[8], gain: num[8], mode: num[8]) -> (y: num[8]) {
    over    = x > threshold;
    clipped = if over then threshold else x;
    loud    = mode > gain;
    amplified  = clipped * gain;
    attenuated = clipped - gain;
    y = if loud then amplified else attenuated;
}
"#;

fn main() -> Result<(), Box<dyn Error>> {
    let cdfg = silage::compile(PROGRAM)?;
    println!("compiled `{}`: {}", cdfg.name(), cdfg.op_counts());
    println!("critical path: {} control steps", cdfg.critical_path_length());

    println!("\nlatency sweep:");
    println!("{:<7} {:>9} {:>12}", "steps", "PM muxes", "savings (%)");
    let mut best_steps = cdfg.critical_path_length();
    let mut best_savings = -1.0f64;
    for steps in cdfg.critical_path_length()..=cdfg.critical_path_length() + 3 {
        let result = power_manage(&cdfg, &PowerManagementOptions::with_latency(steps))?;
        let savings = result.savings().reduction_percent;
        println!("{:<7} {:>9} {:>12.2}", steps, result.managed_mux_count(), savings);
        if savings > best_savings {
            best_savings = savings;
            best_steps = steps;
        }
    }

    let result = power_manage(&cdfg, &PowerManagementOptions::with_latency(best_steps))?;
    println!("\nbest configuration: {best_steps} control steps ({best_savings:.1}% reduction)");
    println!("\nGraphviz DOT of the constrained CDFG (control edges dashed):\n");
    println!("{}", cdfg::dot::to_dot(result.cdfg()));

    let controller = Controller::generate(&result);
    let vhdl = rtl::vhdl::emit(&result, &controller);
    println!("first lines of the generated VHDL:\n");
    for line in vhdl.lines().take(20) {
        println!("{line}");
    }
    println!("...");
    Ok(())
}
