//! Block-step attribution: which block simulations the `cent_sim` calls of
//! a workload demand, and what each costs in the compiler and the device.
//!
//! `cent_sim::evaluate` simulates a deployment by compiling and executing
//! one transformer-block decode step at eight context positions (four for
//! the decode average, four for the prefill average). This module derives
//! those `(model, channels, position)` block keys from the same public
//! planning calls `evaluate` makes, counts how often a workload asks for
//! each key, and — in a traced run — re-issues every distinct key once as
//! its own `compile_decode_step` and `CxlDevice::execute` spans. The cost of
//! a key is then weighted by its demand count, so the compiler and device
//! layers get the share of `evaluate` time they account for without any
//! hook inside the library.

use cent_compiler::{
    compile_decode_step, max_feasible_channels, BlockPlacement, Strategy, SystemMapping,
};
use cent_device::{CxlDevice, DeviceConfig};
use cent_model::ModelConfig;
use cent_types::{ChannelId, DeviceId};

use crate::trace::Tracer;

/// One simulated block step: a model's block on `channels` channels
/// decoding at context `position`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockKey {
    /// The model whose block runs.
    pub cfg: ModelConfig,
    /// Channels the block is placed on.
    pub channels: usize,
    /// Context position of the decode step.
    pub position: usize,
}

/// The arguments of one `evaluate` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvaluateKey {
    /// Model evaluated.
    pub cfg: ModelConfig,
    /// CENT devices in the deployment.
    pub devices: usize,
    /// Parallelisation strategy.
    pub strategy: Strategy,
    /// Evaluation context.
    pub context: usize,
}

/// Block-step demand of a sequence of `cent_sim` calls.
#[derive(Debug, Default)]
pub struct Demand {
    /// `evaluate` invocations, including those inside sweeps.
    pub evaluate_calls: u64,
    /// Distinct `evaluate` argument tuples.
    pub evaluate_keys: Vec<EvaluateKey>,
    /// Block steps demanded, in total.
    pub block_steps: u64,
    /// Distinct block keys with their demand counts, in first-seen order.
    pub block_keys: Vec<(BlockKey, u64)>,
}

/// Channels `0..n`, as `simulate_block_avg` places a block.
fn channel_ids(n: usize) -> Vec<ChannelId> {
    (0..n).map(|c| ChannelId(c as u16)).collect()
}

/// The positions `simulate_block_avg` samples for `context`.
fn sample_positions(cfg: &ModelConfig, context: usize) -> [usize; 4] {
    [context / 4, context / 2, (3 * context) / 4, context.saturating_sub(1)]
        .map(|p| p.min(cfg.max_context - 1).max(1))
}

impl Demand {
    /// Records one `evaluate(cfg, devices, strategy, context)` call: no
    /// block steps if the mapping or the block placement is infeasible
    /// (evaluate fails before simulating), otherwise four decode-average
    /// and four prefill-average steps.
    pub fn evaluate(
        &mut self,
        cfg: &ModelConfig,
        devices: usize,
        strategy: Strategy,
        context: usize,
    ) {
        self.evaluate_calls += 1;
        let key = EvaluateKey { cfg: cfg.clone(), devices, strategy, context };
        if !self.evaluate_keys.contains(&key) {
            self.evaluate_keys.push(key);
        }
        let Ok(mapping) = SystemMapping::plan(cfg, devices, strategy) else {
            return;
        };
        let channels = max_feasible_channels(cfg, mapping.channels_per_block);
        if BlockPlacement::plan(cfg, channel_ids(channels)).is_err() {
            return;
        }
        for ctx in [context, context.min(512)] {
            for position in sample_positions(cfg, ctx) {
                self.block_step(BlockKey { cfg: cfg.clone(), channels, position });
            }
        }
    }

    /// Records the `evaluate` calls `qos_sweep(cfg, devices, context, ..)`
    /// makes: PP, each feasible hybrid TP degree, then full TP.
    pub fn qos_sweep(&mut self, cfg: &ModelConfig, devices: usize, context: usize) {
        self.evaluate(cfg, devices, Strategy::PipelineParallel, context);
        for tp in [2usize, 4, 8, 16] {
            if devices.is_multiple_of(tp) && tp < devices {
                self.evaluate(cfg, devices, Strategy::Hybrid { tp }, context);
            }
        }
        self.evaluate(cfg, devices, Strategy::TensorParallel, context);
    }

    /// Records the `evaluate` calls `scalability_sweep(cfg, counts,
    /// context)` makes: per device count, one data-parallel evaluation at
    /// the replica count with the best analytic score.
    pub fn scalability_sweep(&mut self, cfg: &ModelConfig, counts: &[usize], context: usize) {
        for &devices in counts {
            let mut best: Option<(f64, usize)> = None;
            for replicas in (1..=devices).filter(|r| devices % r == 0) {
                let strategy = Strategy::DataParallel { replicas };
                let Ok(mapping) = SystemMapping::plan(cfg, devices, strategy) else {
                    continue;
                };
                let score =
                    replicas as f64 * max_feasible_channels(cfg, mapping.channels_per_block) as f64;
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, replicas));
                }
            }
            if let Some((_, replicas)) = best {
                self.evaluate(cfg, devices, Strategy::DataParallel { replicas }, context);
            }
        }
    }

    fn block_step(&mut self, key: BlockKey) {
        self.block_steps += 1;
        match self.block_keys.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => self.block_keys.push((key, 1)),
        }
    }

    /// Distinct block keys over block steps: the share of block
    /// simulations that were not repeats (1.0 = nothing to memoize).
    pub fn block_useful(&self) -> f64 {
        if self.block_steps == 0 {
            return 1.0;
        }
        self.block_keys.len() as f64 / self.block_steps as f64
    }
}

/// Demand-weighted cost of the compiler and device layers, from re-issuing
/// every distinct block key once.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCost {
    /// Host seconds in `compile_decode_step`.
    pub compiler_s: f64,
    /// Instructions compiled.
    pub compiler_instructions: u64,
    /// Host seconds building the timing-only device and executing the
    /// trace on it.
    pub device_s: f64,
    /// Instructions the device executed.
    pub device_instructions: u64,
    /// DRAM commands the device's channels issued.
    pub dram_commands: u64,
}

/// Re-issues each distinct key of `demand` once under `tracer` spans
/// (`compiler.compile_decode_step` and `device.execute`, op = key index)
/// and returns the demand-weighted layer cost.
///
/// # Errors
///
/// Returns the first placement, compilation or execution error.
pub fn reissue(demand: &Demand, tracer: &mut Tracer) -> Result<LayerCost, String> {
    let first_span = tracer.spans().len();
    let mut cost = LayerCost::default();
    let mut placements: Vec<(ModelConfig, usize, BlockPlacement)> = Vec::new();
    for (op, (key, count)) in demand.block_keys.iter().enumerate() {
        let op = op as u64;
        let at = match placements.iter().position(|(c, ch, _)| *c == key.cfg && *ch == key.channels)
        {
            Some(i) => i,
            None => {
                let placement = BlockPlacement::plan(&key.cfg, channel_ids(key.channels))
                    .map_err(|e| e.to_string())?;
                placements.push((key.cfg.clone(), key.channels, placement));
                placements.len() - 1
            }
        };
        let placement = &placements[at].2;
        let step = tracer
            .span("compiler.compile_decode_step", op, |_| {
                compile_decode_step(placement, key.position)
            })
            .map_err(|e| e.to_string())?;
        let dev = tracer.span("device.execute", op, |_| {
            let mut dev = CxlDevice::new(DeviceId(0), DeviceConfig::timing_only());
            for inst in &step.trace {
                dev.execute(inst, None)?;
            }
            Ok::<_, cent_types::CentError>(dev)
        });
        let dev = dev.map_err(|e| e.to_string())?;
        cost.compiler_instructions += count * step.trace.len() as u64;
        cost.device_instructions += count * dev.instructions_executed();
        cost.dram_commands += count * dev.dram_activity().commands;
    }
    let weight = |op: u64| demand.block_keys[op as usize].1 as f64;
    cost.compiler_s = tracer.weighted_secs(first_span, "compiler.compile_decode_step", weight);
    cost.device_s = tracer.weighted_secs(first_span, "device.execute", weight);
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_evaluate_demands_eight_distinct_steps() {
        let mut d = Demand::default();
        d.evaluate(&ModelConfig::llama2_7b(), 8, Strategy::PipelineParallel, 4096);
        assert_eq!(d.evaluate_calls, 1);
        assert_eq!(d.block_steps, 8);
        assert_eq!(d.block_keys.len(), 8);
        assert_eq!(d.block_useful(), 1.0);
        let positions: Vec<usize> = d.block_keys.iter().map(|(k, _)| k.position).collect();
        assert_eq!(positions, [1024, 2048, 3072, 4095, 128, 256, 384, 511]);
    }

    #[test]
    fn repeated_evaluates_halve_usefulness() {
        let mut d = Demand::default();
        for _ in 0..2 {
            d.evaluate(&ModelConfig::llama2_7b(), 8, Strategy::PipelineParallel, 4096);
        }
        assert_eq!(d.evaluate_calls, 2);
        assert_eq!(d.evaluate_keys.len(), 1);
        assert_eq!(d.block_steps, 16);
        assert!(d.block_keys.iter().all(|(_, n)| *n == 2));
        assert_eq!(d.block_useful(), 0.5);
    }

    #[test]
    fn infeasible_mappings_demand_no_steps() {
        let mut d = Demand::default();
        // Llama2-70B cannot fit on one device.
        d.evaluate(&ModelConfig::llama2_70b(), 1, Strategy::PipelineParallel, 4096);
        assert_eq!(d.evaluate_calls, 1);
        assert_eq!(d.block_steps, 0);
        assert_eq!(d.block_useful(), 1.0);
    }

    #[test]
    fn reissue_weights_costs_by_demand() {
        let cfg = ModelConfig::tiny();
        let mut once = Demand::default();
        once.evaluate(&cfg, 2, Strategy::PipelineParallel, 32);
        let mut thrice = Demand::default();
        for _ in 0..3 {
            thrice.evaluate(&cfg, 2, Strategy::PipelineParallel, 32);
        }
        let a = reissue(&once, &mut Tracer::default()).expect("tiny model simulates");
        let b = reissue(&thrice, &mut Tracer::default()).expect("tiny model simulates");
        assert!(a.compiler_instructions > 0 && a.dram_commands > 0);
        assert_eq!(b.compiler_instructions, 3 * a.compiler_instructions);
        assert_eq!(b.device_instructions, 3 * a.device_instructions);
        assert_eq!(b.dram_commands, 3 * a.dram_commands);
        assert!(a.compiler_s > 0.0 && a.device_s > 0.0);
    }
}
