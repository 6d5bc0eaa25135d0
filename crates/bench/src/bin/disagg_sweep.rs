//! Disaggregated prefill/decode sweep: throughput, handoff tails and
//! shared-pool pressure vs the prefill/decode group split on a fleet of
//! the paper's PP/8 deployments.
//!
//! Each configuration serves the same ShareGPT-like trace: the colocated
//! baseline runs every group as a full-service deployment, while the
//! split points route prompts to a prefill tier (chunked prefill so long
//! prompts interleave), publish the finished contexts into a bounded
//! switch-attached KV pool at a costed switch-hop price, and stream the
//! decode remainder on a decode tier that claims — and steals — from the
//! pool. The sweep shows where specialisation pays (TTFT under prompt
//! pressure) and what it costs (handoff latency, pool occupancy).
//!
//! Prints the comparison table and writes `results/BENCH_disagg.json`.
//! Run with `cargo run --release -p cent-bench --bin disagg_sweep`; pass
//! `--smoke` for the CI mode (shorter trace, colocated + one split),
//! which also asserts the disaggregation invariants: handoffs actually
//! engaged, the pool capacity bound was never exceeded, the colocated
//! configuration agrees with the colocated entry point bit for bit, and the
//! split fleet is bit-identical across 1 vs 2 worker threads.

use cent_bench::Report;
use cent_cluster::{
    simulate_fleet_disagg, simulate_fleet_instrumented, DisaggConfig, FleetOptions, FleetOutcome,
    JoinShortestQueue,
};
use cent_cxl::FabricConfig;
use cent_model::ModelConfig;
use cent_serving::{LengthSampler, ServingSystem, Workload};
use cent_types::Time;

/// Extra switch hops a pool-resident page traverses versus a direct host
/// link (prefill device → switch → pool, pool → switch → decode device).
const POOL_SWITCH_HOPS: u32 = 2;

fn run(
    system: &ServingSystem,
    trace: &[cent_serving::RequestSpec],
    offered: f64,
    opts: &FleetOptions,
    cfg: &DisaggConfig,
    threads: usize,
) -> FleetOutcome {
    let mut router = JoinShortestQueue;
    simulate_fleet_disagg(
        system,
        trace,
        offered,
        &mut router,
        &opts.clone().with_threads(threads),
        cfg,
    )
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let cfg = ModelConfig::llama2_7b();
    let system = ServingSystem::plan(&cfg, 8, cent_compiler::Strategy::PipelineParallel, 4096)
        .expect("planning Llama2-7B on 8 devices");
    let groups = 8usize;
    let horizon_s = if smoke { 60.0 } else { 240.0 };

    // ShareGPT-like lengths at 0.6x of the colocated fleet capacity:
    // enough pressure that the prefill tier queues and the pool sees
    // sustained traffic, with headroom so every split still drains.
    let (mean_prompt, mean_decode) = (160, 210);
    let offered = 0.6 * groups as f64 * system.capacity_qps(mean_prompt, mean_decode);
    let workload =
        Workload { lengths: LengthSampler::ShareGpt, ..Workload::chatbot(offered, 0xD15A) };
    let trace = workload.generate(Time::from_secs_f64(horizon_s), 4096);
    let opts = FleetOptions::new(groups).with_epoch(Time::from_secs_f64(0.25));

    // The pool holds ~32 mean contexts: generous enough that deferral is
    // backpressure, not the steady state.
    let pool_tokens = 32 * (mean_prompt as u64 + 1);
    let handoff_cost =
        system.swap_cost().with_switch_hops(POOL_SWITCH_HOPS, &FabricConfig::cent(32));
    let splits: &[(usize, usize)] =
        if smoke { &[(4, 4)] } else { &[(2, 6), (3, 5), (4, 4), (5, 3), (6, 2)] };

    println!(
        "{groups}-group PP/8 fleet | {} requests at 0.6x capacity | pool {pool_tokens} tokens | \
         chunked prefill 512\n",
        trace.len()
    );
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>9} {:>8} {:>9} {:>12} {:>10}",
        "config",
        "tok/s",
        "ttft p99",
        "tbt p99",
        "handoffs",
        "steals",
        "deferred",
        "handoff p99",
        "pool peak"
    );

    let mut rows: Vec<(String, FleetOutcome)> = Vec::new();

    // Colocated baseline first: the colocated configuration must agree
    // with the colocated entry point bit for bit — checked in smoke mode,
    // reported in both.
    let colocated = run(&system, &trace, offered, &opts, &DisaggConfig::colocated(groups), 1);
    if smoke {
        let mut router = JoinShortestQueue;
        let base = simulate_fleet_instrumented(&system, &trace, offered, &mut router, &opts);
        assert_eq!(
            colocated.report, base.report,
            "colocated disagg config must reproduce the colocated entry point's report"
        );
        assert_eq!(
            colocated.routed, base.routed,
            "colocated disagg config must reproduce the colocated entry point's routing"
        );
    }
    rows.push(("colocated".to_string(), colocated));

    for &(prefill, decode) in splits {
        let dcfg =
            DisaggConfig::split(prefill, decode, pool_tokens, handoff_cost).with_prefill_chunk(512);
        let out = run(&system, &trace, offered, &opts, &dcfg, 1);
        assert!(
            out.log.pool_peak_tokens <= out.log.pool_capacity_tokens,
            "{prefill}P/{decode}D: pool peak {} exceeded the {}-token bound",
            out.log.pool_peak_tokens,
            out.log.pool_capacity_tokens
        );
        if smoke {
            assert!(out.log.handoffs > 0, "{prefill}P/{decode}D: handoffs must engage");
            let threaded = run(&system, &trace, offered, &opts, &dcfg, 2);
            assert_eq!(
                (out.report.clone(), out.routed.clone(), out.log.clone()),
                (threaded.report, threaded.routed, threaded.log),
                "{prefill}P/{decode}D: split fleet diverged across 1 vs 2 worker threads"
            );
        }
        rows.push((format!("{prefill}P/{decode}D"), out));
    }

    for (label, out) in &rows {
        let d = out.report.disagg.as_ref();
        println!(
            "{:>12} {:>10.0} {:>9.3}s {:>9.4}s {:>9} {:>8} {:>9} {:>11.4}s {:>10}",
            label,
            out.report.tokens_per_s,
            out.report.ttft.p99.as_secs(),
            out.report.tbt.p99.as_secs(),
            d.map_or(0, |d| d.handoffs),
            d.map_or(0, |d| d.steals),
            d.map_or(0, |d| d.deferred_publishes),
            d.map_or(0.0, |d| d.handoff_latency.p99.as_secs()),
            d.map_or(0, |d| d.pool_peak_tokens),
        );
    }

    let mut report = Report::new(
        "BENCH_disagg",
        if smoke {
            "Disaggregated prefill/decode sweep (smoke): 8-group PP/8 fleet, shared KV pool"
        } else {
            "Disaggregated prefill/decode sweep: 8-group PP/8 fleet, shared KV pool"
        },
        "beyond the paper's colocated deployments: prefill/decode group specialisation over a \
         switch-attached CXL KV pool — throughput, TTFT/TBT tails, handoff latency and pool \
         pressure vs the tier split",
    );
    let series = |f: &dyn Fn(&FleetOutcome) -> f64| -> Vec<(String, f64)> {
        rows.iter().map(|(x, o)| (x.clone(), f(o))).collect()
    };
    report.push_series("throughput", "tok/s", &series(&|o| o.report.tokens_per_s));
    report.push_series("ttft p99", "s", &series(&|o| o.report.ttft.p99.as_secs()));
    report.push_series("tbt p99", "s", &series(&|o| o.report.tbt.p99.as_secs()));
    report.push_series("handoffs", "contexts", &series(&|o| o.log.handoffs as f64));
    report.push_series("steals", "claims", &series(&|o| o.log.steals as f64));
    report.push_series("deferred publishes", "refusals", &series(&|o| o.log.deferred as f64));
    report.push_series(
        "handoff p99",
        "s",
        &series(&|o| o.report.disagg.as_ref().map_or(0.0, |d| d.handoff_latency.p99.as_secs())),
    );
    report.push_series(
        "pool peak",
        "fraction of capacity",
        &series(&|o| {
            if o.log.pool_capacity_tokens == 0 {
                0.0
            } else {
                o.log.pool_peak_tokens as f64 / o.log.pool_capacity_tokens as f64
            }
        }),
    );
    report.push_series(
        "pool occupancy",
        "mean fraction of capacity",
        &series(&|o| o.report.disagg.as_ref().map_or(0.0, |d| d.pool_occupancy)),
    );
    report.emit();
}
