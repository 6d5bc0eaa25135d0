//! Runs every experiment binary's logic in sequence (synchronously), so one
//! command regenerates all figures and tables into `results/`. Exits
//! non-zero, after listing them, if any binary failed or could not start.
use std::process::Command;

fn main() {
    let bins = [
        "table1_hw_comparison",
        "table4_system_config",
        "table5_cxl_controller",
        "table6_hardware_costs",
        "fig01_gpu_batching",
        "fig02_gpu_motivation",
        "fig12_controller_cost",
        "fig17_vs_cxlpnm",
        "fig18_vs_gpu_pim",
        "ablations",
        "fig13_cent_vs_gpu",
        "fig14_analysis",
        "fig15_power_energy",
        "fig19_scalability",
    ];
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let mut failed = Vec::new();
    for bin in bins {
        println!("\n──────── running {bin} ────────");
        let status = Command::new(dir.join(bin)).status();
        match status {
            Ok(s) if s.success() => continue,
            Ok(s) => eprintln!("{bin} exited with {s}"),
            Err(e) => eprintln!("{bin} failed to start: {e}"),
        }
        failed.push(bin);
    }
    if !failed.is_empty() {
        eprintln!("\n{} of {} experiments failed: {}", failed.len(), bins.len(), failed.join(", "));
        std::process::exit(1);
    }
}
