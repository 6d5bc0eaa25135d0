//! The two fleet workloads: a colocated Llama2-7B PP/8 fleet under KV
//! pressure with the swap-to-CXL tier (`fleet-kv-swap`), and the same
//! deployment split into prefill and decode tiers over the shared CXL KV
//! pool under a chaos fault schedule (`fleet-disagg-chaos`).
//!
//! Every input — the arrival trace, the router's choices, the fault
//! schedule — is drawn from the run's seed ahead of time (open loop). The
//! lower layers (`compiler`, `device`, `sim`) run only once, in set-up,
//! inside `ServingSystem::plan`.
//!
//! The fleet driver runs on one worker thread. Its report is identical for
//! any thread count; on a two-core host shared with other work, sharding
//! over both cores made `fleet-kv-swap` passes 1.5-4× slower than one
//! thread and let them vary 3× from run to run, too noisy to gate.

use cent_cluster::{
    simulate_fleet_disagg, simulate_fleet_instrumented, AdmissionPolicy, ChaosRates, DisaggConfig,
    DisaggLog, FaultPlan, FleetOptions, FleetReport, PowerOfTwoChoices, RecoveryMode, RetryPolicy,
};
use cent_compiler::Strategy;
use cent_cxl::FabricConfig;
use cent_model::ModelConfig;
use cent_serving::{
    GroupOutcome, KvBudget, KvSpillConfig, LengthSampler, LoadCurve, RequestSpec, ServeOptions,
    ServingSystem, SimStats, Workload,
};
use cent_types::Time;

use crate::digest::Digest;

/// Devices of one replica group (the paper's Llama2-7B PP/8 deployment).
pub const DEVICES: usize = 8;
/// Context the deployment is planned for.
pub const CONTEXT: usize = 4096;

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Colocated fleet, token-granular KV, cost-driven swap tier.
    KvSwap,
    /// Prefill/decode split over the shared pool, under chaos.
    DisaggChaos,
}

/// Shape of the `fleet-kv-swap` run.
const SWAP_GROUPS: usize = 256;
const SWAP_HORIZON_S: f64 = 1800.0;
/// Offered load as a share of the fleet's nominal chatbot capacity.
const SWAP_LOAD: f64 = 0.5;

/// Shape of the `fleet-disagg-chaos` run (half prefill, half decode).
const DISAGG_GROUPS: usize = 32;
const DISAGG_HORIZON_S: f64 = 600.0;
const DISAGG_LOAD: f64 = 0.6;

/// Everything a pass needs, built before the first timed call.
#[derive(Debug)]
pub struct Setup {
    /// Workload kind.
    pub kind: Kind,
    /// The per-group deployment (KV budget already applied).
    pub system: ServingSystem,
    /// The open-loop arrival trace.
    pub trace: Vec<RequestSpec>,
    /// Mean offered load, queries/second.
    pub rate: f64,
    /// Fleet options (serving options, faults, retry, recovery,
    /// admission).
    pub fleet: FleetOptions,
    /// The prefill/decode split, for the disaggregated workload.
    pub disagg: Option<DisaggConfig>,
    /// Router seed.
    pub router_seed: u64,
    /// Host seconds `ServingSystem::plan` took.
    pub plan_s: f64,
}

/// Plans the deployment (timed) and builds trace, fault plan and options.
///
/// # Errors
///
/// Propagates planning errors.
pub fn setup(kind: Kind, seed: u64) -> Result<Setup, String> {
    let cfg = ModelConfig::llama2_7b();
    let (planned, plan_s) = crate::trace::timed(|| {
        ServingSystem::plan(&cfg, DEVICES, Strategy::PipelineParallel, CONTEXT)
    });
    let system = planned.map_err(|e| e.to_string())?;
    let epoch = Time::from_secs_f64(0.25);
    let router_seed = seed ^ 0xD1CE;
    Ok(match kind {
        Kind::KvSwap => {
            let rate = SWAP_LOAD * SWAP_GROUPS as f64 * system.capacity_qps(512, 3584);
            let horizon = Time::from_secs_f64(SWAP_HORIZON_S);
            let curve = LoadCurve::diurnal(SWAP_HORIZON_S, 0.5, 1.5);
            let trace = Workload::chatbot(rate, seed).generate_modulated(
                horizon,
                CONTEXT,
                &curve,
                seed.rotate_left(17),
            );
            // A third of the slots' full-context footprint: the pool runs
            // dry and evicts, and the cost-driven tier swaps most victims.
            let slots = system.slots_per_replica() as u64;
            let kv = (slots * CONTEXT as u64).div_ceil(3);
            let system = system.with_kv_budget(KvBudget::tokens(kv));
            let spill = KvSpillConfig::cost_driven(2 * slots * CONTEXT as u64, system.swap_cost());
            let fleet = FleetOptions::new(SWAP_GROUPS)
                .with_epoch(epoch)
                .with_serve(ServeOptions::token_granular().with_spill(spill));
            Setup { kind, system, trace, rate, fleet, disagg: None, router_seed, plan_s }
        }
        Kind::DisaggChaos => {
            let rate = DISAGG_LOAD * DISAGG_GROUPS as f64 * system.capacity_qps(160, 210);
            let horizon = Time::from_secs_f64(DISAGG_HORIZON_S);
            let workload =
                Workload { lengths: LengthSampler::ShareGpt, ..Workload::chatbot(rate, seed) };
            let trace = workload.generate(horizon, CONTEXT);
            let half = DISAGG_GROUPS / 2;
            let disagg = DisaggConfig::split(
                half,
                half,
                half as u64 * 8 * 161,
                system.swap_cost().with_switch_hops(2, &FabricConfig::cent(32)),
            )
            .with_prefill_chunk(512);
            let rates = ChaosRates { decode_crash_mult: 1.5, ..ChaosRates::default() };
            let faults =
                FaultPlan::chaos_disagg(seed.rotate_left(29), &disagg.roles, horizon, &rates);
            let fleet = FleetOptions::new(DISAGG_GROUPS)
                .with_epoch(epoch)
                .with_faults(faults)
                .with_retry(RetryPolicy { max_attempts: 4, backoff: Time::from_us(50_000) })
                .with_recovery(RecoveryMode::Warm { retained_fraction: 0.5 })
                .with_admission(AdmissionPolicy::shed_above(6.0));
            Setup { kind, system, trace, rate, fleet, disagg: Some(disagg), router_seed, plan_s }
        }
    })
}

/// What one fleet call produced.
#[derive(Debug)]
pub struct PassOut {
    /// The merged report.
    pub report: FleetReport,
    /// Per-group outcomes.
    pub groups: Vec<GroupOutcome>,
    /// First-dispatch group per trace entry.
    pub routed: Vec<usize>,
    /// Pool/handoff log of a split fleet.
    pub log: Option<DisaggLog>,
}

impl Setup {
    /// Issues the workload's one fleet call.
    pub fn run(&self) -> PassOut {
        let mut router = PowerOfTwoChoices::seeded(self.router_seed);
        match &self.disagg {
            None => {
                let out = simulate_fleet_instrumented(
                    &self.system,
                    &self.trace,
                    self.rate,
                    &mut router,
                    &self.fleet,
                );
                PassOut { report: out.report, groups: out.groups, routed: out.routed, log: None }
            }
            Some(disagg) => {
                let out = simulate_fleet_disagg(
                    &self.system,
                    &self.trace,
                    self.rate,
                    &mut router,
                    &self.fleet,
                    disagg,
                );
                let log = Some(out.log);
                PassOut { report: out.report, groups: out.groups, routed: out.routed, log }
            }
        }
    }

    /// Routed sub-trace of every group, in group order.
    pub fn sub_traces(&self, routed: &[usize]) -> Vec<Vec<RequestSpec>> {
        let mut sub = vec![Vec::new(); self.fleet.groups];
        for (spec, &g) in self.trace.iter().zip(routed) {
            if g != usize::MAX {
                sub[g].push(*spec);
            }
        }
        sub
    }
}

impl PassOut {
    /// Digest of the simulated outputs: the report's stable JSON, the
    /// routing decisions and the pool log.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        d.add(&self.report.to_json());
        d.add(&format!("{:?}", self.routed));
        d.add(&format!("{:?}", self.log));
        d
    }

    /// Event-core counters summed over every group.
    pub fn stats(&self) -> SimStats {
        let mut s = SimStats::default();
        for o in &self.groups {
            s.heap_pushes += o.stats.heap_pushes;
            s.heap_pops += o.stats.heap_pops;
            s.tick_events += o.stats.tick_events;
            s.tokens += o.stats.tokens;
            s.admissions += o.stats.admissions;
        }
        s
    }

    /// The correctness checks of one pass; each failure is one message.
    pub fn check(&self, setup: &Setup) -> Vec<String> {
        let mut failures = Vec::new();
        let r = &self.report;
        let (drops, shed) = r.degraded.as_ref().map_or((0, 0), |d| (d.drops, d.shed));
        let accounted = r.completed + r.rejected + drops + shed;
        if accounted != setup.trace.len() {
            failures.push(format!(
                "conservation: completed {} + rejected {} + dropped {drops} + shed {shed} = \
                 {accounted} != offered {}",
                r.completed,
                r.rejected,
                setup.trace.len()
            ));
        }
        match (setup.kind, &self.log) {
            (Kind::KvSwap, _) => {
                if r.swaps == 0 {
                    failures.push("the swap tier never engaged".to_string());
                }
            }
            (Kind::DisaggChaos, Some(log)) => {
                if log.pool_peak_tokens > log.pool_capacity_tokens {
                    failures.push(format!(
                        "pool peak {} exceeds its {}-token capacity",
                        log.pool_peak_tokens, log.pool_capacity_tokens
                    ));
                }
                if log.handoffs == 0 {
                    failures.push("no context was handed off through the pool".to_string());
                }
                if r.degraded.as_ref().is_none_or(|d| d.crashes == 0) {
                    failures.push("the chaos schedule crashed no group".to_string());
                }
            }
            (Kind::DisaggChaos, None) => failures.push("split fleet returned no pool log".into()),
        }
        failures
    }
}
