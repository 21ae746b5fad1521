//! Quickstart: plan and evaluate GPT-3 6.7B training on the paper's wafer.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use temp_core::framework::Temp;
use temp_graph::models::ModelZoo;
use temp_wsc::units::{fmt_bytes, fmt_time};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4x8-die wafer (Table I), GPT-3 6.7B at its Table II workload.
    let temp = Temp::hpca(ModelZoo::gpt3_6_7b());
    println!("model: {}", temp.model());
    println!(
        "wafer: {}x{} dies, {:.1} PFLOPS total",
        temp.wafer().mesh_width,
        temp.wafer().mesh_height,
        temp.wafer().total_peak_flops() / 1e15
    );

    // Run the full DLWS search: enumerate hybrid configurations, cost them
    // with the TCME-mapped wafer model, solve the segment chain by DP.
    let plan = temp.solve()?;
    println!("\nTEMP plan: {}", plan.config);
    println!("  step time          {}", fmt_time(plan.report.step_time));
    println!(
        "  throughput         {:.0} tokens/s",
        plan.report.throughput
    );
    println!(
        "  peak memory/die    {}",
        fmt_bytes(plan.report.memory.total())
    );
    println!("  power              {:.1} kW", plan.report.power / 1e3);
    println!(
        "  efficiency         {:.1} tokens/s/W",
        plan.report.power_efficiency
    );
    println!(
        "  comm exposed       {:.1}% of step",
        100.0 * plan.report.comm_fraction()
    );
    Ok(())
}
