//! `cent-layerbench` — the repo benchmark.
//!
//! One process runs one workload and prints, as the last line of standard
//! output, a JSON object `{"correct", "attempted", "failed", "metrics"}`:
//!
//! ```text
//! cent-layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! * `--trace 0` reports the end-to-end metrics: `wall_s` (median host
//!   seconds of one pass of the timed calls), `setup_s` (median host
//!   seconds of the set-up before the first timed call), `peak_rss_mb`,
//!   `success_rate` (1 − failed/attempted calls) and `paper_log_error`
//!   (see [`claims`]).
//! * `--trace 1` reports the per-layer metrics, attributed from spans
//!   recorded around public library calls (see [`blocks`]), plus the
//!   tracing overhead against an untraced pass of the same run; the spans
//!   are written to `layerbench/out/` when the run ends.
//!
//! Workloads: `paper-figures` (the fig13/14/15/19 simulator calls),
//! `fleet-kv-swap` and `fleet-disagg-chaos` (see [`fleet`]). Passes repeat
//! back to back until the next would overrun `--seconds` (at least one).
//! Every pass is checked — finite positive results, request conservation,
//! the pool bound, a digest of every simulated output identical across
//! passes — and a failed check exits 1.

mod blocks;
mod claims;
mod digest;
mod fleet;
mod paper;
mod trace;

use std::process::ExitCode;

use blocks::{Demand, LayerCost};
use trace::{now_ns, secs, timed, Tracer};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["paper-figures", "fleet-kv-swap", "fleet-disagg-chaos"];

/// Set-up repetitions whose median is `setup_s`. They are spread over the
/// run — half before the first pass and half after the last on
/// `paper-figures`; at the start, half way and at the end on the fleets —
/// so a burst of interference from other work on the host cannot decide
/// every sample.
const PAPER_SETUPS: usize = 16;
const FLEET_SETUPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// What one run measured and checked.
#[derive(Debug, Default)]
struct Run {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Run {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.metric(name, value as f64, "count");
    }

    fn fail(&mut self, failure: String) {
        println!("CHECK FAILED: {failure}");
        self.failures.push(failure);
    }

    /// The result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { value.to_string() } else { "null".into() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Whether another pass of about `last` seconds still fits in `seconds`
/// when the passes so far started at `start_ns`.
fn fits(start_ns: u64, last: f64, seconds: f64) -> bool {
    secs(start_ns, now_ns()) + last <= seconds
}

/// The process's peak resident set in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end metrics common to every workload.
fn end_to_end(
    run: &mut Run,
    walls: &[f64],
    setups: &[f64],
    scored: &[(claims::Claim, Option<f64>)],
) {
    for (name, v) in [("wall_s", walls), ("setup_s", setups)] {
        let (lo, hi) = (
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(0.0, f64::max),
        );
        println!(
            "{name}: median {:.6} over {} samples, min {lo:.6}, max {hi:.6}",
            median(v),
            v.len()
        );
    }
    run.metric("wall_s", median(walls), "s");
    run.metric("setup_s", median(setups), "s");
    match peak_rss_mb() {
        Some(mb) => run.metric("peak_rss_mb", mb, "MB"),
        None => run.fail("peak RSS unavailable (no /proc/self/status)".into()),
    }
    let success = 1.0 - run.failed as f64 / run.attempted.max(1) as f64;
    println!("error_rate {:.6} ({} of {} calls failed)", 1.0 - success, run.failed, run.attempted);
    run.metric("success_rate", success, "ratio");
    for (claim, measured) in scored {
        let shown = measured.map_or_else(|| "missing".to_string(), |m| format!("{m:.4}"));
        println!("claim {:<34} {:>9} paper {} {}", claim.name, shown, claim.paper, claim.unit);
    }
    match claims::paper_log_error(scored) {
        Some(e) => run.metric("paper_log_error", e, "ln"),
        None => run.fail("paper_log_error: a claim could not be measured".into()),
    }
}

/// The compiler/device/sim layer metrics from block-step attribution.
/// `sim_s` is the host time of the `cent_sim` calls the demand came from.
fn lower_layers(run: &mut Run, demand: &Demand, cost: &LayerCost, sim_s: f64) {
    run.metric("compiler.s", cost.compiler_s, "s");
    run.count("compiler.instructions", cost.compiler_instructions);
    run.metric("device.s", cost.device_s, "s");
    run.count("device.instructions", cost.device_instructions);
    run.metric("device.instructions_per_s", cost.device_instructions as f64 / cost.device_s, "1/s");
    run.count("device.dram_commands", cost.dram_commands);
    run.metric("device.dram_commands_per_s", cost.dram_commands as f64 / cost.device_s, "1/s");
    run.count("sim.evaluate_calls", demand.evaluate_calls);
    run.count("sim.evaluate_keys", demand.evaluate_keys.len() as u64);
    run.count("sim.block_steps", demand.block_steps);
    run.count("sim.block_keys", demand.block_keys.len() as u64);
    run.metric("sim.block_useful", demand.block_useful(), "ratio");
    run.metric("sim.self_s", sim_s - cost.compiler_s - cost.device_s, "s");
}

/// Per-layer metrics a workload does not exercise: reported as 0 with the
/// reason printed, so every traced run carries the full metric set.
fn absent(run: &mut Run, names: &[(&'static str, &'static str)], why: &str) {
    for (name, unit) in names {
        println!("absent {name}: {why}");
        run.metric(name, 0.0, unit);
    }
}

const SERVING_COUNTS: [&str; 6] = [
    "serving.heap_events",
    "serving.tick_events",
    "serving.admissions",
    "serving.swaps",
    "serving.preemptions",
    "serving.tokens",
];
const CLUSTER_COUNTS: [&str; 4] =
    ["cluster.retries", "cluster.crashes", "cluster.rescued", "cluster.shed"];
const CXL_COUNTS: [(&str, &str); 4] = [
    ("cxl.pool_handoffs", "count"),
    ("cxl.pool_steals", "count"),
    ("cxl.pool_deferred", "count"),
    ("cxl.pool_peak_tokens", "tokens"),
];

fn counts(names: &[&'static str]) -> Vec<(&'static str, &'static str)> {
    names.iter().map(|n| (*n, "count")).collect()
}

fn paper_figures(args: &Args, run: &mut Run, tracer: &mut Tracer) {
    // Set-up: the call list, the GPU baselines the figures divide by, and
    // the block-step demand the calls imply (attribution input).
    let build = || {
        let calls = paper::figure_calls();
        let mut demand = Demand::default();
        for call in &calls {
            call.demand(&mut demand);
        }
        (calls, paper::GpuBaselines::compute(), demand)
    };
    let mut setups = Vec::with_capacity(PAPER_SETUPS);
    let mut built = None;
    for _ in 0..PAPER_SETUPS / 2 {
        let (b, s) = timed(build);
        setups.push(s);
        built = Some(b);
    }
    let (calls, gpu, demand) = built.expect("at least one set-up");
    println!(
        "{} calls: {} evaluate calls over {} argument sets, {} block steps over {} block keys",
        calls.len(),
        demand.evaluate_calls,
        demand.evaluate_keys.len(),
        demand.block_steps,
        demand.block_keys.len()
    );
    let check = |run: &mut Run, outputs: &[Result<paper::Output, String>]| {
        for (call, out) in calls.iter().zip(outputs) {
            run.attempted += 1;
            match out {
                Ok(o) => {
                    if let Err(e) = paper::check(call, o) {
                        run.fail(e);
                    }
                }
                Err(e) => {
                    run.failed += 1;
                    println!("call failed: {} {}: {e}", call.span_name(), call.fig());
                }
            }
        }
    };

    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut outputs;
    let start = now_ns();
    loop {
        let (outs, times, digest) = paper::pass(&calls, None);
        walls.push(times.iter().sum::<f64>());
        check(run, &outs);
        digests.push(digest);
        outputs = outs;
        if args.trace || !fits(start, walls[walls.len() - 1], args.seconds) {
            break;
        }
    }
    if args.trace {
        let (outs, times, digest) = paper::pass(&calls, Some(tracer));
        let traced: f64 = times.iter().sum();
        check(run, &outs);
        digests.push(digest);
        match tracer.span("bench.attribution", 0, |t| blocks::reissue(&demand, t)) {
            Ok(cost) => lower_layers(run, &demand, &cost, traced),
            Err(e) => run.fail(format!("block-step re-issue failed: {e}")),
        }
        let no_serving = "paper-figures runs no serving, cluster or pool layer";
        absent(run, &[("serving.plan_s", "s"), ("serving.s", "s")], no_serving);
        absent(run, &counts(&SERVING_COUNTS), no_serving);
        absent(run, &[("cluster.s", "s"), ("cluster.self_s", "s")], no_serving);
        absent(run, &counts(&CLUSTER_COUNTS), no_serving);
        absent(run, &CXL_COUNTS, no_serving);
        overhead(run, median(&walls), traced);
    }
    check_digests(run, &digests);
    while setups.len() < PAPER_SETUPS {
        setups.push(timed(build).1);
    }
    if !args.trace {
        let scored = paper::score(&calls, &outputs, &gpu);
        end_to_end(run, &walls, &setups, &scored);
    }
}

fn overhead(run: &mut Run, untraced: f64, traced: f64) {
    let ratio = traced / untraced - 1.0;
    println!(
        "tracing overhead {:+.2}% (traced pass {traced:.4} s vs untraced {untraced:.4} s)",
        100.0 * ratio
    );
    run.metric("trace.overhead", ratio, "ratio");
}

fn check_digests(run: &mut Run, digests: &[digest::Digest]) {
    println!("digest {} over {} passes", digests[0].hex(), digests.len());
    if let Some(d) = digests.iter().find(|d| **d != digests[0]) {
        run.fail(format!("digest changed across passes: {} vs {}", digests[0].hex(), d.hex()));
    }
}

/// Builds a fleet set-up, appending its host seconds to `setups` and its
/// `ServingSystem::plan` seconds to `plans`.
fn fleet_setup(
    kind: fleet::Kind,
    seed: u64,
    setups: &mut Vec<f64>,
    plans: &mut Vec<f64>,
) -> Result<fleet::Setup, String> {
    let (setup, secs) = timed(|| fleet::setup(kind, seed));
    let setup = setup.map_err(|e| format!("set-up failed: {e}"))?;
    setups.push(secs);
    plans.push(setup.plan_s);
    Ok(setup)
}

fn fleet_workload(kind: fleet::Kind, args: &Args, run: &mut Run, tracer: &mut Tracer) {
    let mut setups = Vec::with_capacity(FLEET_SETUPS);
    let mut plans = Vec::with_capacity(FLEET_SETUPS);
    let setup = match fleet_setup(kind, args.seed, &mut setups, &mut plans) {
        Ok(s) => s,
        Err(e) => {
            run.fail(e);
            return;
        }
    };
    // A repeated set-up must rebuild exactly the same inputs.
    let resetup = |run: &mut Run, setups: &mut Vec<f64>, plans: &mut Vec<f64>| match fleet_setup(
        kind, args.seed, setups, plans,
    ) {
        Ok(again) if again.trace == setup.trace => {}
        Ok(_) => run.fail("the same seed generated a different trace".into()),
        Err(e) => run.fail(e),
    };
    println!(
        "{} groups, {} requests offered at {:.2} qps",
        setup.fleet.groups,
        setup.trace.len(),
        setup.rate
    );

    // The paper claims, scored before the passes from fig13's and fig19's
    // calls; their time comes out of the pass budget.
    let start = now_ns();
    let scored = (!args.trace).then(|| {
        let calls = paper::fidelity_calls();
        let (outputs, _, _) = paper::pass(&calls, None);
        paper::score(&calls, &outputs, &paper::GpuBaselines::compute())
    });

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut digests = Vec::new();
    let mut first = None;
    loop {
        // Scoped so a pass's outcome is freed before the next pass starts.
        {
            let (out, wall) = timed(|| setup.run());
            run.attempted += 1;
            walls.push(wall);
            digests.push(out.digest());
            if first.is_none() {
                for f in out.check(&setup) {
                    run.fail(f);
                }
                first = Some(out);
            }
        }
        if args.trace {
            let (out, wall) = tracer.span("cluster.simulate_fleet", 0, |_| timed(|| setup.run()));
            run.attempted += 1;
            traced_walls.push(wall);
            digests.push(out.digest());
        }
        if setups.len() == 1 && secs(start, now_ns()) >= args.seconds / 2.0 {
            resetup(run, &mut setups, &mut plans);
        }
        let last = walls[walls.len() - 1] + traced_walls.last().copied().unwrap_or(0.0);
        if !fits(start, last, args.seconds) {
            break;
        }
    }
    while setups.len() < FLEET_SETUPS {
        resetup(run, &mut setups, &mut plans);
    }
    check_digests(run, &digests);
    let out = first.expect("at least one pass");
    let r = &out.report;
    let stats = out.stats();
    println!(
        "completed {} rejected {} swaps {} preemptions {} tokens {}",
        r.completed, r.rejected, r.swaps, r.preemptions, stats.tokens
    );
    if let Some(d) = &r.degraded {
        println!(
            "crashes {} retries {} dropped {} shed {} rescued {}",
            d.crashes, d.retries, d.drops, d.shed, d.pool_rescued
        );
    }
    if let Some(log) = &out.log {
        println!(
            "handoffs {} steals {} deferred {} pool peak {} of {} tokens",
            log.handoffs, log.steals, log.deferred, log.pool_peak_tokens, log.pool_capacity_tokens
        );
    }

    if let Some(scored) = scored {
        end_to_end(run, &walls, &setups, &scored);
        return;
    }

    // Lower layers: the one `evaluate` inside `ServingSystem::plan`.
    let mut demand = Demand::default();
    demand.evaluate(
        &cent_model::ModelConfig::llama2_7b(),
        fleet::DEVICES,
        cent_compiler::Strategy::PipelineParallel,
        fleet::CONTEXT,
    );
    let plan_s = median(&plans);
    match tracer.span("bench.attribution", 0, |t| blocks::reissue(&demand, t)) {
        Ok(cost) => lower_layers(run, &demand, &cost, plan_s),
        Err(e) => run.fail(format!("block-step re-issue failed: {e}")),
    }
    run.metric("serving.plan_s", plan_s, "s");

    let cluster_s = median(&traced_walls);
    let serving_s = match kind {
        fleet::Kind::KvSwap => Some(replay(&setup, &out, run, tracer)),
        fleet::Kind::DisaggChaos => None,
    };
    match serving_s {
        Some(s) => run.metric("serving.s", s, "s"),
        None => absent(
            run,
            &[("serving.s", "s")],
            "decode groups receive pool handoffs, not traces, so no group can be replayed alone",
        ),
    }
    run.count("serving.heap_events", stats.heap_pushes + stats.heap_pops);
    run.count("serving.tick_events", stats.tick_events);
    run.count("serving.admissions", stats.admissions);
    run.count("serving.swaps", r.swaps);
    run.count("serving.preemptions", r.preemptions);
    run.count("serving.tokens", stats.tokens);
    run.metric("cluster.s", cluster_s, "s");
    match serving_s {
        Some(s) => run.metric("cluster.self_s", cluster_s - s, "s"),
        None => absent(run, &[("cluster.self_s", "s")], "serving.s is not measured here"),
    }
    let d = r.degraded.as_ref();
    run.count("cluster.retries", d.map_or(0, |d| d.retries));
    run.count("cluster.crashes", d.map_or(0, |d| d.crashes));
    run.count("cluster.rescued", d.map_or(0, |d| d.pool_rescued as u64));
    run.count("cluster.shed", d.map_or(0, |d| d.shed as u64));
    match &out.log {
        Some(log) => {
            run.count("cxl.pool_handoffs", log.handoffs);
            run.count("cxl.pool_steals", log.steals);
            run.count("cxl.pool_deferred", log.deferred);
            run.metric("cxl.pool_peak_tokens", log.pool_peak_tokens as f64, "tokens");
        }
        None => absent(run, &CXL_COUNTS, "a colocated fleet has no shared pool"),
    }
    overhead(run, median(&walls), cluster_s);
}

/// Replays each group's routed sub-trace alone through
/// `serve_trace_instrumented` (one span per group) and checks it reports
/// exactly what the group reported inside the fleet. Returns the replays'
/// total host seconds.
fn replay(setup: &fleet::Setup, out: &fleet::PassOut, run: &mut Run, tracer: &mut Tracer) -> f64 {
    let per_group_qps = setup.rate / setup.fleet.groups as f64;
    let first = tracer.spans().len();
    let mismatched = tracer.span("serving.replay", 0, |t| {
        let mut mismatched = Vec::new();
        for (g, sub) in setup.sub_traces(&out.routed).iter().enumerate() {
            let (report, _) = t.span("serving.serve_trace_instrumented", g as u64, |_| {
                setup.system.serve_trace_instrumented(sub, per_group_qps, setup.fleet.serve.clone())
            });
            if report != out.groups[g].report {
                mismatched.push(g);
            }
        }
        mismatched
    });
    if !mismatched.is_empty() {
        run.fail(format!("replayed groups {mismatched:?} report differently from the fleet run"));
    }
    tracer.weighted_secs(first, "serving.serve_trace_instrumented", |_| 1.0)
}

fn write_spans(args: &Args, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    std::fs::write(&path, tracer.to_tsv())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: cent-layerbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut run = Run::default();
    let mut tracer = Tracer::default();
    match args.workload.as_str() {
        "paper-figures" => paper_figures(&args, &mut run, &mut tracer),
        "fleet-kv-swap" => fleet_workload(fleet::Kind::KvSwap, &args, &mut run, &mut tracer),
        _ => fleet_workload(fleet::Kind::DisaggChaos, &args, &mut run, &mut tracer),
    }
    if args.trace {
        match write_spans(&args, &tracer) {
            Ok(path) => println!("{} spans written to {path}", tracer.spans().len()),
            Err(e) => run.fail(format!("writing spans: {e}")),
        }
    }
    if run.metrics.iter().any(|m| !m.1.is_finite()) {
        run.fail("a metric is not a finite number".into());
    }
    if run.attempted == 0 {
        run.fail("no call was attempted".into());
    }
    println!("{}", run.json());
    if run.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(argv("--workload fleet-kv-swap --seed 7 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!(
            a,
            Args { workload: "fleet-kv-swap".into(), seed: 7, seconds: 10.0, trace: true }
        );
        assert!(parse_args(argv("--workload nope")).is_err());
        assert!(parse_args(argv("--workload paper-figures --trace 2")).is_err());
        assert!(parse_args(argv("--seed 1")).is_err());
        assert!(parse_args(argv("--workload paper-figures --seconds 0")).is_err());
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut run = Run { attempted: 3, failed: 1, ..Run::default() };
        run.metric("wall_s", 1.25, "s");
        run.count("sim.block_steps", 232);
        assert_eq!(
            run.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"wall_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"sim.block_steps\": {\"value\": 232, \
             \"unit\": \"count\"}}}"
        );
    }
}
