//! Figure 19: CENT scalability on Llama2-70B, 16 → 128 devices (PP + DP),
//! with the utilization plateaus caused by whole-block placement.
use cent_bench::Report;
use cent_model::ModelConfig;
use cent_sim::scalability_sweep;

fn main() {
    let cfg = ModelConfig::llama2_70b();
    let counts = [16usize, 27, 32, 40, 44, 54, 64, 80, 96, 128];
    let mut report = Report::new(
        "fig19",
        "CENT scalability (Llama2-70B)",
        "0.68K tokens/s at 16 devices to 5.7K at 128; throughput plateaus where 80 blocks divide unevenly",
    );
    // A failed sweep exits non-zero instead of emitting an empty figure.
    let points = scalability_sweep(&cfg, &counts, 4096).unwrap_or_else(|e| {
        eprintln!("scalability sweep failed: {e}");
        std::process::exit(1);
    });
    let tput: Vec<(String, f64)> = points
        .iter()
        .map(|p| (format!("{} devices", p.devices), p.tokens_per_s / 1000.0))
        .collect();
    let util: Vec<(String, f64)> =
        points.iter().map(|p| (format!("{} devices", p.devices), p.utilization)).collect();
    report.push_series("decode throughput", "K tokens/s", &tput);
    report.push_series("device utilization", "fraction", &util);
    report.emit();
}
