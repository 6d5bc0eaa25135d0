//! The `paper-figures` workload: the `cent_sim` calls the fig13, fig14,
//! fig15 and fig19 experiment binaries make, with the same arguments, in
//! the same order, with the same repeats.
//!
//! Only the simulator calls are timed; the GPU-baseline numbers the
//! figures divide by are analytic and computed in set-up. A call that
//! returns `Err` (fig14(a)'s Llama2-70B 32K point runs out of memory) is a
//! failed call, never skipped.

use cent_baselines::GpuSystem;
use cent_compiler::Strategy;
use cent_model::ModelConfig;
use cent_sim::{evaluate, qos_sweep, scalability_sweep, CentPerformance, QosPoint, ScalePoint};

use crate::blocks::Demand;
use crate::claims::{self, Claim};
use crate::digest::Digest;
use crate::trace::Tracer;

/// Batch-1 latency and max-batch throughput context of fig13/fig15.
const CONTEXT: usize = 4096;

/// The fig13/fig15 deployments: model, CENT devices, A100s.
fn deployments() -> [(ModelConfig, usize, usize); 3] {
    [
        (ModelConfig::llama2_7b(), 8, 1),
        (ModelConfig::llama2_13b(), 20, 2),
        (ModelConfig::llama2_70b(), 32, 4),
    ]
}

/// One timed simulator call.
#[derive(Debug, Clone)]
pub enum Call {
    /// `evaluate(cfg, devices, strategy, context)`.
    Evaluate {
        /// Figure the call belongs to.
        fig: &'static str,
        /// Model evaluated.
        cfg: ModelConfig,
        /// CENT devices.
        devices: usize,
        /// Parallelisation strategy.
        strategy: Strategy,
        /// Evaluation context.
        context: usize,
    },
    /// `qos_sweep(cfg, devices, context, prefill, decode)`.
    Qos {
        /// Figure the call belongs to.
        fig: &'static str,
        /// Model swept.
        cfg: ModelConfig,
        /// CENT devices.
        devices: usize,
        /// Evaluation context.
        context: usize,
        /// Prompt tokens per query.
        prefill: usize,
        /// Generated tokens per query.
        decode: usize,
    },
    /// `scalability_sweep(cfg, counts, context)`.
    Scale {
        /// Figure the call belongs to.
        fig: &'static str,
        /// Model swept.
        cfg: ModelConfig,
        /// Device counts.
        counts: Vec<usize>,
        /// Evaluation context.
        context: usize,
    },
}

/// What a call returned.
#[derive(Debug, Clone)]
pub enum Output {
    /// An `evaluate` result.
    Perf(Box<CentPerformance>),
    /// A `qos_sweep` result.
    Qos(Vec<QosPoint>),
    /// A `scalability_sweep` result.
    Scale(Vec<ScalePoint>),
}

impl Call {
    /// Span name of the call.
    pub fn span_name(&self) -> &'static str {
        match self {
            Call::Evaluate { .. } => "sim.evaluate",
            Call::Qos { .. } => "sim.qos_sweep",
            Call::Scale { .. } => "sim.scalability_sweep",
        }
    }

    /// Figure the call belongs to.
    pub fn fig(&self) -> &'static str {
        match self {
            Call::Evaluate { fig, .. } | Call::Qos { fig, .. } | Call::Scale { fig, .. } => fig,
        }
    }

    /// Issues the call.
    pub fn run(&self) -> Result<Output, String> {
        let out = match self {
            Call::Evaluate { cfg, devices, strategy, context, .. } => {
                evaluate(cfg, *devices, *strategy, *context).map(|p| Output::Perf(Box::new(p)))
            }
            Call::Qos { cfg, devices, context, prefill, decode, .. } => {
                qos_sweep(cfg, *devices, *context, *prefill, *decode).map(Output::Qos)
            }
            Call::Scale { cfg, counts, context, .. } => {
                scalability_sweep(cfg, counts, *context).map(Output::Scale)
            }
        };
        out.map_err(|e| e.to_string())
    }

    /// Adds the `evaluate` calls and block steps this call implies.
    pub fn demand(&self, demand: &mut Demand) {
        match self {
            Call::Evaluate { cfg, devices, strategy, context, .. } => {
                demand.evaluate(cfg, *devices, *strategy, *context);
            }
            Call::Qos { cfg, devices, context, .. } => demand.qos_sweep(cfg, *devices, *context),
            Call::Scale { cfg, counts, context, .. } => {
                demand.scalability_sweep(cfg, counts, *context);
            }
        }
    }
}

/// fig13's six evaluations: per deployment, batch-1 TP then max-batch PP.
fn fig13_calls() -> Vec<Call> {
    let mut calls = Vec::new();
    for (cfg, devices, _) in deployments() {
        for strategy in [Strategy::TensorParallel, Strategy::PipelineParallel] {
            let cfg = cfg.clone();
            calls.push(Call::Evaluate { fig: "fig13", cfg, devices, strategy, context: CONTEXT });
        }
    }
    calls
}

/// fig19's Llama2-70B scalability sweep over `counts` devices.
fn fig19_call(counts: Vec<usize>) -> Call {
    Call::Scale { fig: "fig19", cfg: ModelConfig::llama2_70b(), counts, context: CONTEXT }
}

/// The calls of fig13, fig14, fig15 and fig19, in binary order.
pub fn figure_calls() -> Vec<Call> {
    let mut calls = fig13_calls();
    for ctx in [4096usize, 8192, 16384, 32768] {
        let devices = if ctx > 8192 { 64 } else { 32 };
        let cfg = ModelConfig::llama2_70b_long(ctx);
        let strategy = Strategy::PipelineParallel;
        calls.push(Call::Evaluate { fig: "fig14(a)", cfg, devices, strategy, context: ctx });
    }
    let cfg = ModelConfig::llama2_70b();
    calls.push(Call::Qos {
        fig: "fig14(b)",
        cfg: cfg.clone(),
        devices: 32,
        context: CONTEXT,
        prefill: 512,
        decode: 3584,
    });
    for fig in ["fig14(c)", "fig14(d)"] {
        let strategy = Strategy::PipelineParallel;
        calls.push(Call::Evaluate {
            fig,
            cfg: cfg.clone(),
            devices: 32,
            strategy,
            context: CONTEXT,
        });
    }
    for (cfg, devices, _) in deployments() {
        let strategy = Strategy::PipelineParallel;
        calls.push(Call::Evaluate { fig: "fig15", cfg, devices, strategy, context: CONTEXT });
    }
    calls.push(fig19_call(vec![16, 27, 32, 40, 44, 54, 64, 80, 96, 128]));
    calls
}

/// The smallest call set that scores every claim: fig13's six
/// evaluations and fig19's two end points.
pub fn fidelity_calls() -> Vec<Call> {
    let mut calls = fig13_calls();
    calls.push(fig19_call(vec![16, 128]));
    calls
}

/// The GPU side of fig13, per model name: batch-1 token latency (s) and
/// max-batch decode throughput (tokens/s).
#[derive(Debug, Clone)]
pub struct GpuBaselines(Vec<(&'static str, f64, f64)>);

impl GpuBaselines {
    /// Computes the baselines exactly as the fig13 binary does.
    pub fn compute() -> Self {
        GpuBaselines(
            deployments()
                .iter()
                .map(|(cfg, _, gpus)| {
                    let gpu = GpuSystem::a100x(*gpus);
                    let latency = 1.0 / gpu.decode_tokens_per_s(cfg, 1, CONTEXT).max(1e-9);
                    let batch = 128.min(gpu.max_batch(cfg, CONTEXT).max(1));
                    (cfg.name, latency, gpu.decode_tokens_per_s(cfg, batch, CONTEXT))
                })
                .collect(),
        )
    }
}

/// Measured values of the paper claims, from the outputs of `calls`.
pub fn score(
    calls: &[Call],
    outputs: &[Result<Output, String>],
    gpu: &GpuBaselines,
) -> Vec<(Claim, Option<f64>)> {
    let mut latency = Vec::new();
    let mut throughput = Vec::new();
    let mut ktok = [None, None];
    for (call, out) in calls.iter().zip(outputs) {
        match (call, out) {
            (Call::Evaluate { fig: "fig13", cfg, strategy, .. }, Ok(Output::Perf(p))) => {
                let Some(&(_, gpu_latency, gpu_tput)) = gpu.0.iter().find(|g| g.0 == cfg.name)
                else {
                    continue;
                };
                match strategy {
                    Strategy::TensorParallel => {
                        latency.push(gpu_latency / p.token_latency.as_secs());
                    }
                    _ => throughput.push((cfg.name, p.decode_tokens_per_s / gpu_tput)),
                }
            }
            (Call::Scale { fig: "fig19", .. }, Ok(Output::Scale(points))) => {
                for (slot, devices) in ktok.iter_mut().zip([16, 128]) {
                    if let Some(p) = points.iter().find(|p| p.devices == devices) {
                        *slot = Some(p.tokens_per_s / 1000.0);
                    }
                }
            }
            _ => {}
        }
    }
    let tputs: Vec<f64> = throughput.iter().map(|t| t.1).collect();
    let complete = |v: &[f64]| if v.len() == 3 { claims::geomean(v) } else { None };
    let tput_70b = throughput.iter().find(|t| t.0 == "Llama2-70B").map(|t| t.1);
    let measured = [complete(&latency), complete(&tputs), tput_70b, ktok[0], ktok[1]];
    claims::CLAIMS.into_iter().zip(measured).collect()
}

/// Checks every modelled number a call returned is finite and positive.
pub fn check(call: &Call, out: &Output) -> Result<(), String> {
    let ok = |v: f64| v.is_finite() && v > 0.0;
    let bad = match (call, out) {
        (_, Output::Perf(p)) => {
            !(p.token_latency.as_ps() > 0
                && ok(p.decode_tokens_per_s)
                && ok(p.prefill_tokens_per_s)
                && p.block.total.as_ps() > 0)
        }
        (_, Output::Qos(points)) => {
            points.is_empty()
                || points.iter().any(|p| !(ok(p.query_latency_min) && ok(p.queries_per_min)))
        }
        (Call::Scale { counts, .. }, Output::Scale(points)) => {
            points.len() != counts.len()
                || points
                    .iter()
                    .any(|p| !(ok(p.tokens_per_s) && p.utilization > 0.0 && p.utilization <= 1.0))
        }
        (_, Output::Scale(_)) => true,
    };
    if bad {
        return Err(format!(
            "{} {}: non-finite or non-positive result",
            call.fig(),
            call.span_name()
        ));
    }
    Ok(())
}

/// One pass over `calls`: outputs, per-call host seconds, the digest of
/// every output. With a tracer, each call runs inside a span (op = call
/// index).
pub fn pass(
    calls: &[Call],
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Result<Output, String>>, Vec<f64>, Digest) {
    let mut outputs = Vec::with_capacity(calls.len());
    let mut times = Vec::with_capacity(calls.len());
    let mut digest = Digest::default();
    for (op, call) in calls.iter().enumerate() {
        let (out, secs) = match tracer.as_deref_mut() {
            Some(t) => {
                let first = t.spans().len();
                let out = t.span(call.span_name(), op as u64, |_| call.run());
                (out, t.spans()[first].duration_ns() as f64 * 1e-9)
            }
            None => crate::trace::timed(|| call.run()),
        };
        digest.add(&format!("{out:?}"));
        outputs.push(out);
        times.push(secs);
    }
    (outputs, times, digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_calls_demand_216_steps_over_80_keys() {
        let calls = figure_calls();
        assert_eq!(calls.len(), 17);
        let mut demand = Demand::default();
        for call in &calls {
            call.demand(&mut demand);
        }
        // 31 evaluations over 23 distinct argument tuples; 27 simulate
        // blocks. The other four fail before any block step: the 32K
        // mapping and three fig14(b) hybrids run out of memory (two of
        // them only at block placement, after the mapping succeeded).
        assert_eq!(demand.evaluate_calls, 31);
        assert_eq!(demand.evaluate_keys.len(), 23);
        assert_eq!(demand.block_steps, 27 * 8);
        assert_eq!(demand.block_keys.len(), 80);
        assert!((demand.block_useful() - 80.0 / 216.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_calls_are_a_prefix_of_the_figures() {
        let all = figure_calls();
        let fidelity = fidelity_calls();
        for (a, b) in fidelity.iter().zip(&all).take(6) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert!(matches!(&fidelity[6], Call::Scale { counts, .. } if counts == &[16, 128]));
    }

    #[test]
    fn pass_digest_repeats_and_tracks_every_output() {
        let call = |devices| Call::Evaluate {
            fig: "test",
            cfg: ModelConfig::tiny(),
            devices,
            strategy: Strategy::PipelineParallel,
            context: 32,
        };
        // A feasible and an infeasible call: both the result and the error
        // feed the digest.
        let calls = [call(2), call(0)];
        let (outputs, times, first) = pass(&calls, None);
        assert!(outputs[0].is_ok() && outputs[1].is_err());
        assert!(times.iter().all(|t| *t > 0.0));
        let (_, _, second) = pass(&calls, Some(&mut Tracer::default()));
        assert_eq!(first, second, "host time or tracing leaked into the digest");
        let (_, _, other) = pass(&calls[..1], None);
        assert_ne!(first, other);
    }
}
