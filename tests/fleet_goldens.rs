//! Bit-identity goldens for the fleet driver.
//!
//! Each config pins one FNV-1a hash over everything a fleet run exposes:
//! the report's stable JSON (`FleetReport::to_json`), the per-request
//! routing decisions, and the `Debug` output of the fault log and the
//! disaggregation log. The hashes were captured before the colocated and
//! split drivers were folded into one, so any change to routing, fault
//! handling, admission or the handoff pipeline shows up here.
//!
//! Every config runs at 1 and 2 worker threads (one golden covers both),
//! and colocated configs run through both entry points
//! (`simulate_fleet_instrumented` and `simulate_fleet_disagg` with
//! `DisaggConfig::colocated`), which must agree.

use cent_cluster::{
    simulate_fleet_disagg, simulate_fleet_instrumented, AdmissionPolicy, ChaosRates, DisaggConfig,
    DisaggLog, FaultLog, FaultPlan, FaultSchedule, FaultSpec, FleetOptions, FleetReport,
    PowerOfTwoChoices, RecoveryMode, RetryPolicy, RoundRobin,
};
use cent_cost::KvSwapCost;
use cent_cxl::FabricConfig;
use cent_model::ModelConfig;
use cent_serving::{
    KvBudget, KvMode, LengthSampler, PriorityClass, RequestSpec, SchedulerConfig, ServingSystem,
    Workload,
};
use cent_types::{ByteSize, Time};

/// One pipeline group: 4 decode slots, 1 ms token cadence, 1000 tok/s
/// prefill, a 4000-token KV budget.
fn group_system() -> ServingSystem {
    ServingSystem::from_parts(
        &ModelConfig::llama2_7b(),
        SchedulerConfig {
            replicas: 1,
            slots_per_replica: 4,
            kv_budget: KvBudget::tokens(4000),
            kv: KvMode::FullReservation,
        },
        Time::from_us(1000),
        1000.0,
        4000.0,
    )
}

/// Uniform lengths (single-token decodes included), every other request
/// in the batch class, and every 37th request too large for any group's
/// KV budget, so the reject path runs too.
fn trace(qps: f64, seed: u64, horizon_s: f64) -> Vec<RequestSpec> {
    let w = Workload {
        lengths: LengthSampler::Uniform {
            prompt_min: 8,
            prompt_max: 160,
            decode_min: 1,
            decode_max: 240,
        },
        ..Workload::chatbot(qps, seed)
    };
    let mut trace = w.generate(Time::from_secs_f64(horizon_s), 4096);
    for spec in trace.iter_mut().skip(1).step_by(2) {
        spec.class = PriorityClass::BATCH;
    }
    for spec in trace.iter_mut().skip(5).step_by(37) {
        spec.prompt = 3900;
        spec.decode = 200;
    }
    trace
}

fn handoff_cost() -> KvSwapCost {
    KvSwapCost::cent(ByteSize::bytes(512)).with_switch_hops(2, &FabricConfig::cent(32))
}

fn epoch() -> Time {
    Time::from_secs_f64(0.05)
}

/// What one run exposes, field by field.
struct Run {
    report: FleetReport,
    routed: Vec<usize>,
    faults: FaultLog,
    log: DisaggLog,
}

impl Run {
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.add(&self.report.to_json());
        h.add(&format!("{:?}", self.routed));
        h.add(&format!("{:?}", self.faults));
        h.add(&format!("{:?}", self.log));
        h.0
    }
}

/// FNV-1a, 64-bit; each part is followed by a separator byte.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn add(&mut self, part: &str) {
        for &b in part.as_bytes().iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Runs a colocated config at 1 and 2 threads through both entry points,
/// asserts all four runs agree, and returns the one-thread run.
fn colocated(trace: &[RequestSpec], qps: f64, opts: &FleetOptions) -> Run {
    let mut runs = Vec::new();
    for threads in [1, 2] {
        let opts = opts.clone().with_threads(threads);
        let mut router = PowerOfTwoChoices::seeded(11);
        let o = simulate_fleet_instrumented(&group_system(), trace, qps, &mut router, &opts);
        runs.push(Run {
            report: o.report,
            routed: o.routed,
            faults: o.faults,
            log: DisaggLog::default(),
        });
        let mut router = PowerOfTwoChoices::seeded(11);
        let cfg = DisaggConfig::colocated(opts.groups);
        let o = simulate_fleet_disagg(&group_system(), trace, qps, &mut router, &opts, &cfg);
        runs.push(Run { report: o.report, routed: o.routed, faults: o.faults, log: o.log });
    }
    let first = runs[0].digest();
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(run.digest(), first, "run {i} (threads, entry point) diverged");
    }
    runs.swap_remove(0)
}

/// Runs a split config at 1 and 2 threads, asserts they agree, and
/// returns the one-thread run.
fn split(trace: &[RequestSpec], qps: f64, opts: &FleetOptions, cfg: &DisaggConfig) -> Run {
    let mut runs = Vec::new();
    for threads in [1, 2] {
        let opts = opts.clone().with_threads(threads);
        let mut router = RoundRobin::default();
        let o = simulate_fleet_disagg(&group_system(), trace, qps, &mut router, &opts, cfg);
        runs.push(Run { report: o.report, routed: o.routed, faults: o.faults, log: o.log });
    }
    assert_eq!(runs[0].digest(), runs[1].digest(), "2 threads diverged from 1");
    runs.swap_remove(0)
}

fn assert_golden(name: &str, run: &Run, expected: u64) {
    let got = run.digest();
    assert_eq!(got, expected, "{name}: digest {got:#018x} != golden {expected:#018x}");
}

fn assert_conserved(run: &Run, offered: usize) {
    let r = &run.report;
    assert_eq!(
        r.completed + r.rejected + run.faults.dropped.len() + run.faults.shed.len(),
        offered,
        "conservation"
    );
}

#[test]
fn colocated_healthy_matches_golden() {
    let trace = trace(120.0, 3, 6.0);
    let run = colocated(&trace, 120.0, &FleetOptions::new(4).with_epoch(epoch()));
    assert!(run.report.rejected > 0, "oversized requests must be rejected");
    assert!(run.report.degraded.is_none());
    assert_conserved(&run, trace.len());
    assert_golden("colocated healthy", &run, 0x0999_a051_5fd6_7fe9);
}

#[test]
fn colocated_chaos_warm_admission_matches_golden() {
    let trace = trace(160.0, 5, 10.0);
    let rates = ChaosRates {
        crash_rate: 1.0 / 6.0,
        mean_outage_s: 1.5,
        degrade_rate: 1.0 / 4.0,
        mean_degrade_s: 1.0,
        straggler_probability: 0.25,
        ..ChaosRates::default()
    };
    // A pool-link window has no pool to degrade on a colocated fleet.
    let mut specs = FaultPlan::chaos(0xC0, 4, Time::from_secs_f64(10.0), &rates).specs().to_vec();
    specs.push(FaultSpec::PoolLinkDegrade {
        at: Time::from_secs_f64(1.0),
        duration: Time::from_secs_f64(2.0),
        bandwidth_factor: 0.5,
    });
    let opts = FleetOptions::new(4)
        .with_epoch(epoch())
        .with_faults(FaultSchedule::new(specs))
        .with_retry(RetryPolicy { max_attempts: 3, backoff: Time::from_us(80_000) })
        .with_recovery(RecoveryMode::Warm { retained_fraction: 0.5 })
        .with_admission(AdmissionPolicy::shed_above(2.0).with_class(PriorityClass::BATCH, 1.0));
    let run = colocated(&trace, 160.0, &opts);
    assert!(run.faults.crashes > 0, "chaos must crash");
    assert!(run.faults.warm_rejoins > 0, "warm recovery must re-seed");
    assert!(run.faults.retries > 0, "orphans must retry");
    assert!(!run.faults.shed.is_empty(), "admission must shed");
    assert_conserved(&run, trace.len());
    assert_golden("colocated chaos", &run, 0x4009_40cf_b655_2ce7);
}

#[test]
fn colocated_standby_fleet_death_matches_golden() {
    let trace = trace(100.0, 7, 6.0);
    let mut specs = vec![FaultSpec::GroupCrash {
        group: 1,
        at: Time::from_secs_f64(0.8),
        recover_after: Some(Time::from_secs_f64(0.6)),
    }];
    specs.extend((0..4).map(|group| FaultSpec::GroupCrash {
        group,
        at: Time::from_secs_f64(3.0),
        recover_after: None,
    }));
    let opts = FleetOptions::new(4)
        .with_epoch(epoch())
        .with_faults(FaultSchedule::new(specs))
        .with_retry(RetryPolicy { max_attempts: 2, backoff: Time::from_us(50_000) })
        .with_recovery(RecoveryMode::Standby { spares: 1 });
    let run = colocated(&trace, 100.0, &opts);
    assert!(run.faults.promotions > 0, "a spare must promote");
    assert!(!run.faults.dropped.is_empty(), "a dead fleet must drop");
    assert_conserved(&run, trace.len());
    assert_golden("colocated standby", &run, 0x4e9d_ccca_766f_dd20);
}

#[test]
fn split_healthy_small_pool_matches_golden() {
    let trace = trace(90.0, 9, 6.0);
    let opts = FleetOptions::new(5).with_epoch(epoch());
    let cfg = DisaggConfig::split(2, 3, 400, handoff_cost()).with_prefill_chunk(32);
    let run = split(&trace, 90.0, &opts, &cfg);
    assert!(run.log.handoffs > 0);
    assert!(run.log.singles > 0, "single-token decodes finish on prefill");
    assert!(run.log.deferred > 0, "a 400-token pool must defer publishes");
    assert!(run.log.steals > 0, "round-robin must leave a drained decode group");
    assert!(run.report.rejected > 0, "oversized requests must be rejected");
    assert_conserved(&run, trace.len());
    assert_golden("split healthy", &run, 0x4306_7767_d511_1c2e);
}

#[test]
fn split_chaos_durable_pool_matches_golden() {
    let trace = trace(110.0, 13, 10.0);
    let cfg = DisaggConfig::split(2, 2, 8_000, handoff_cost()).with_prefill_chunk(64);
    let rates = ChaosRates {
        crash_rate: 1.0 / 6.0,
        mean_outage_s: 1.5,
        pool_degrade_rate: 1.0 / 5.0,
        mean_pool_degrade_s: 1.0,
        ..ChaosRates::default()
    };
    let chaos = FaultPlan::chaos_disagg(0xD0, &cfg.roles, Time::from_secs_f64(10.0), &rates);
    let mut specs = chaos.specs().to_vec();
    specs.push(FaultSpec::PoolLinkDegrade {
        at: Time::from_secs_f64(2.0),
        duration: Time::from_secs_f64(3.0),
        bandwidth_factor: 0.25,
    });
    let opts = FleetOptions::new(4)
        .with_epoch(epoch())
        .with_faults(FaultSchedule::new(specs))
        .with_retry(RetryPolicy { max_attempts: 3, backoff: Time::from_us(80_000) })
        .with_recovery(RecoveryMode::Warm { retained_fraction: 0.5 })
        .with_admission(AdmissionPolicy::shed_above(2.5).with_class(PriorityClass::BATCH, 1.2));
    let run = split(&trace, 110.0, &opts, &cfg);
    assert!(run.faults.crashes > 0, "chaos must crash");
    assert!(!run.faults.pool_rescued.is_empty(), "a durable pool must rescue");
    assert!(!run.faults.shed.is_empty(), "admission must shed");
    assert_conserved(&run, trace.len());
    assert_golden("split chaos durable", &run, 0x05fc_a178_371e_b4d2);
}

#[test]
fn split_chaos_volatile_pool_standby_matches_golden() {
    let trace = trace(90.0, 17, 10.0);
    let cfg = DisaggConfig::split(3, 3, 16_000, handoff_cost()).with_volatile_pool();
    let rates = ChaosRates { crash_rate: 1.0 / 5.0, mean_outage_s: 1.5, ..ChaosRates::default() };
    let faults = FaultPlan::chaos_disagg(0xE0, &cfg.roles, Time::from_secs_f64(10.0), &rates);
    let opts = FleetOptions::new(6)
        .with_epoch(epoch())
        .with_faults(faults)
        .with_retry(RetryPolicy { max_attempts: 3, backoff: Time::from_us(80_000) })
        .with_recovery(RecoveryMode::Standby { spares: 1 });
    let run = split(&trace, 90.0, &opts, &cfg);
    assert!(run.faults.crashes > 0, "chaos must crash");
    assert!(run.faults.promotions > 0, "a spare must promote");
    assert!(run.faults.pool_lost > 0, "a volatile pool loses decode orphans' copies");
    assert!(run.faults.pool_rescued.is_empty());
    assert_conserved(&run, trace.len());
    assert_golden("split chaos volatile", &run, 0x63a7_fffa_2003_873e);
}
