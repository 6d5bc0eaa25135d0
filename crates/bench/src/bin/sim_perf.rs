//! Simulator self-benchmark: the span-fast-forward serving engine measured
//! against the retained per-token reference loop, its differential oracle;
//! the repo's perf-trajectory artifact.
//!
//! For each shape, the same trace is served by both [`TickEngine`]s and
//! the bin records wall-clock time, simulated tokens per wall-second, heap
//! events (pushes + pops) per generated token and heap allocations per
//! token, asserting along the way that the two engines' `ServingReport`s
//! are bit-identical — perf numbers for diverging simulations would be
//! meaningless. Results print as a table and land in
//! `results/BENCH_serving_sim.json` (schema documented in the README's
//! Performance section).
//!
//! Run with `cargo run --release --bin sim_perf`; pass `--smoke` for the
//! CI mode, which uses small synthetic shapes (one clean, one churning the
//! swap-to-CXL spill tier, one multi-replica under token-granular
//! pressure), skips the slow planner sweeps, and fails if the span engine
//! does not beat the reference on heap traffic (deterministic) and
//! wall-clock (with noise slack).
//!
//! Both modes end with one table of fleet shapes (`measure_fleets`), each
//! timing the epoch-driven fleet driver — `GroupSim`'s incremental span
//! engine inside `simulate_fleet_disagg` — against a per-group per-token
//! replay of the same trace, and asserting the fleet report and routing
//! are bit-identical across worker-thread counts: a 64-group fleet of the
//! paper's PP/8 deployment under a diurnal chatbot load, healthy and under
//! crash-recovery chaos, and an 8-group 4-prefill/4-decode split over the
//! shared CXL KV pool on a ShareGPT-like trace, healthy and under
//! disagg-aware chaos.
//!
//! The process installs a counting global allocator: after each measured
//! run the bin asserts the span engine allocates (amortised) nothing on
//! the per-token hot path — preemption victims and tick snapshots land in
//! run-owned scratch buffers, so steady-state allocations scale with
//! admissions, not tokens.
//!
//! Pass `--check-against <path>` to gate against a committed baseline
//! (`results/BENCH_serving_sim_baseline.json`): the run fails if any
//! baseline shape regresses by more than 20% on the span engine's heap
//! events per token (deterministic) or on the reference→span wall-clock
//! speedup (the machine-normalized wall-clock metric — absolute seconds
//! are not comparable across runners, the engines' ratio on the same
//! machine is), or if the baseline does not hold exactly one span row per
//! shape.

// The counting global allocator below must implement the unsafe
// `GlobalAlloc` trait; this is the workspace's one sanctioned use of
// `unsafe` (every library crate carries `#![forbid(unsafe_code)]`).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cent_bench::results_dir;
use cent_cluster::{
    simulate_fleet_disagg, simulate_fleet_instrumented, AdmissionPolicy, ChaosRates, DisaggConfig,
    FaultPlan, FleetOptions, FleetOutcome, GroupRole, PowerOfTwoChoices, RecoveryMode, RetryPolicy,
};
use cent_cost::KvSwapCost;
use cent_cxl::FabricConfig;
use cent_model::ModelConfig;
use cent_serving::{
    ArrivalProcess, ClassMix, KvBudget, KvMode, KvSpillConfig, LengthSampler, LoadCurve,
    RequestSpec, SchedulerConfig, ServeOptions, ServingReport, ServingSystem, SimStats, TickEngine,
    Workload,
};
use cent_types::{ByteSize, Time};

/// Counts heap allocations so the bench can verify the engines' no-alloc
/// steady state (scratch buffers are reused; the hot path never allocates).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One benchmark shape: a deployment plus a saturated trace to serve.
struct Shape {
    name: &'static str,
    system: ServingSystem,
    trace: Vec<RequestSpec>,
    offered_qps: f64,
    options: ServeOptions,
}

/// Timing + event-core counters of one engine on one shape.
struct Measurement {
    wall_s: f64,
    stats: SimStats,
    /// Heap allocations during the fastest repeat's serve call.
    allocations: u64,
}

impl Measurement {
    fn allocations_per_token(&self) -> f64 {
        if self.stats.tokens == 0 {
            return 0.0;
        }
        self.allocations as f64 / self.stats.tokens as f64
    }
}

/// Runs the shape `repeats` times and keeps the *minimum* wall time (the
/// run least disturbed by scheduler noise — the simulation itself is
/// deterministic, so stats and report are identical across repeats).
fn measure(shape: &Shape, engine: TickEngine, repeats: u32) -> (Measurement, ServingReport) {
    let mut best: Option<(Measurement, ServingReport)> = None;
    for _ in 0..repeats.max(1) {
        let options = shape.options.clone().with_engine(engine);
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let start = Instant::now();
        let (report, stats) =
            shape.system.serve_trace_instrumented(&shape.trace, shape.offered_qps, options);
        let wall_s = start.elapsed().as_secs_f64();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
        if best.as_ref().is_none_or(|(m, _)| wall_s < m.wall_s) {
            best = Some((Measurement { wall_s, stats, allocations }, report));
        }
    }
    best.expect("at least one repeat ran")
}

/// A synthetic `replicas × slots` system mirroring `from_parts` test rigs:
/// 1 ms token cadence, fast prefill, ample KV unless a budget is given.
fn synthetic(replicas: usize, slots: usize, kv_tokens: u64, kv: KvMode) -> ServingSystem {
    ServingSystem::from_parts(
        &ModelConfig::llama2_7b(),
        SchedulerConfig {
            replicas,
            slots_per_replica: slots,
            kv_budget: KvBudget::tokens(kv_tokens),
            kv,
        },
        Time::from_us(1000),
        50_000.0,
        (replicas * slots) as f64 * 1000.0,
    )
}

fn smoke_shapes() -> Vec<Shape> {
    // 8 slots/replica (the acceptance shape floor), saturated fixed mix.
    let system = synthetic(1, 8, u64::MAX / 2, KvMode::FullReservation);
    let w = Workload {
        arrivals: ArrivalProcess::Poisson { rate_qps: 3.0 * system.capacity_qps(32, 256) },
        lengths: LengthSampler::Fixed { prompt: 32, decode: 256 },
        seed: 0xCE27,
        classes: ClassMix::default(),
    };
    let trace = w.generate(Time::from_secs_f64(30.0), 4096);
    let mut shapes = vec![Shape {
        name: "smoke-8slot-saturated",
        system,
        trace: trace.clone(),
        offered_qps: w.arrivals.mean_qps(),
        options: ServeOptions::default(),
    }];
    // The same trace against a KV-starved pool with the cost-driven
    // swap-to-CXL tier: eviction, page-out/page-in serialization and the
    // per-victim comparator all ride the perf gate too.
    let starved = synthetic(1, 8, 8 * (32 + 256) / 3, KvMode::token_granular());
    let spill =
        KvSpillConfig::cost_driven(4 * 8 * (32 + 256), KvSwapCost::cent(ByteSize::kib(128)));
    shapes.push(Shape {
        name: "smoke-8slot-kv-swap",
        system: starved,
        trace,
        offered_qps: w.arrivals.mean_qps(),
        options: ServeOptions::token_granular().with_spill(spill),
    });
    // Multi-replica deployment (4 replicas × PP/8 slots) under
    // token-granular KV pressure: the span engine solves an exhaustion
    // forecast per replica and folds four replicas' occupancy deltas into
    // one integral update per event; recompute-only keeps the churn
    // deterministic without host-pool contention.
    let multi = synthetic(4, 8, 8 * (32 + 256) * 2 / 3, KvMode::token_granular());
    let w = Workload {
        arrivals: ArrivalProcess::Poisson { rate_qps: 3.0 * multi.capacity_qps(32, 256) },
        lengths: LengthSampler::Fixed { prompt: 32, decode: 256 },
        seed: 0xCE28,
        classes: ClassMix::default(),
    };
    let trace = w.generate(Time::from_secs_f64(20.0), 4096);
    shapes.push(Shape {
        name: "smoke-4x8-multi-replica-kv",
        system: multi,
        trace,
        offered_qps: w.arrivals.mean_qps(),
        options: ServeOptions::token_granular(),
    });
    shapes
}

fn full_shapes() -> Vec<Shape> {
    let mut shapes = smoke_shapes();
    // The paper's serving deployment: Llama2-7B pipeline-parallel on 8
    // devices (1 replica × 32 slots), saturated chatbot mix — the shape
    // the load/policy sweeps hammer.
    let cfg = ModelConfig::llama2_7b();
    let system = ServingSystem::plan(&cfg, 8, cent_compiler::Strategy::PipelineParallel, 4096)
        .expect("planning Llama2-7B on 8 devices");
    let rate = 1.2 * system.capacity_qps(512, 3584);
    let w = Workload::chatbot(rate, 0xCE27);
    let trace = w.generate(Time::from_secs_f64(3600.0), 4096);
    shapes.push(Shape {
        name: "llama2_7b-pp8-chatbot-1.2x",
        system: system.clone(),
        trace: trace.clone(),
        offered_qps: rate,
        options: ServeOptions::default(),
    });
    // The same deployment (and the same trace) under KV pressure with
    // token-granular accounting: preemption/recompute churns the resident
    // set, the engine's worst case.
    let slots = system.total_slots() / system.replicas();
    let constrained = system.with_kv_budget(KvBudget::tokens((slots as u64 * 4096).div_ceil(3)));
    shapes.push(Shape {
        name: "llama2_7b-pp8-chatbot-kv-managed",
        system: constrained.clone(),
        trace: trace.clone(),
        offered_qps: rate,
        options: ServeOptions::token_granular(),
    });
    // The same KV-pressured point with the cost-driven swap-to-CXL tier
    // (host pool for 2× the device budget, the deployment's own link/cost
    // model): the spill machinery's event cost shows up next to recompute's.
    let spill = KvSpillConfig::cost_driven(2 * slots as u64 * 4096, constrained.swap_cost());
    shapes.push(Shape {
        name: "llama2_7b-pp8-chatbot-kv-swap",
        system: constrained,
        trace,
        offered_qps: rate,
        options: ServeOptions::token_granular().with_spill(spill),
    });
    shapes
}
/// Reference→span wall-clock speedup and heap-event ratio.
fn ratios(reference: &Measurement, span: &Measurement) -> (f64, f64) {
    (
        reference.wall_s / span.wall_s.max(1e-9),
        reference.stats.heap_events_per_token() / span.stats.heap_events_per_token().max(1e-9),
    )
}

/// Prints a shape's reference and span table lines.
fn print_pair(name: &str, reference: &Measurement, span: &Measurement, speedup: f64, ratio: f64) {
    println!(
        "{:>28} {:>9} {:>9.3}s {:>10} {:>9.3} {:>11} {:>9.4} {:>11}",
        name,
        "reference",
        reference.wall_s,
        "1.00x",
        reference.stats.heap_events_per_token(),
        "1.00x",
        reference.allocations_per_token(),
        reference.stats.tokens,
    );
    println!(
        "{:>28} {:>9} {:>9.3}s {:>9.2}x {:>9.3} {:>10.2}x {:>9.4} {:>11}",
        "",
        "span",
        span.wall_s,
        speedup,
        span.stats.heap_events_per_token(),
        ratio,
        span.allocations_per_token(),
        span.stats.tokens,
    );
}

/// The floors every shape carries: the deterministic heap-event ratio
/// (`None` skips it) and, in smoke mode, "not slower than the reference"
/// with 25% wall-clock slack — the full run reports the real speedup.
fn assert_floors(
    name: &str,
    reference: &Measurement,
    span: &Measurement,
    heap_ratio: f64,
    floor: Option<f64>,
    smoke: bool,
) {
    if let Some(floor) = floor {
        assert!(
            heap_ratio >= floor,
            "{name}: span heap-event ratio {heap_ratio:.2} < {floor}x vs the reference loop"
        );
    }
    if smoke {
        assert!(
            span.wall_s <= 1.25 * reference.wall_s,
            "{name}: span engine slower than the reference ({:.3}s vs {:.3}s)",
            span.wall_s,
            reference.wall_s
        );
    }
}

/// The JSON tail every shape row shares: both engine blocks and the
/// gated ratios.
fn json_pair(reference: &Measurement, span: &Measurement, speedup: f64, ratio: f64) -> String {
    format!(
        "\"reference\": {},\n     \"span\": {},\n     \"span_wall_speedup\": {speedup:.3}, \
         \"span_heap_ratio\": {ratio:.3}, \"reports_identical\": true",
        json_engine(reference),
        json_engine(span),
    )
}

/// Sums per-group event-core counters into one fleet-wide [`SimStats`].
fn total_stats<'a>(stats: impl IntoIterator<Item = &'a SimStats>) -> SimStats {
    stats.into_iter().fold(SimStats::default(), |acc, s| SimStats {
        heap_pushes: acc.heap_pushes + s.heap_pushes,
        heap_pops: acc.heap_pops + s.heap_pops,
        tick_events: acc.tick_events + s.tick_events,
        tokens: acc.tokens + s.tokens,
        admissions: acc.admissions + s.admissions,
    })
}

fn fleet_stats(out: &FleetOutcome) -> SimStats {
    total_stats(out.groups.iter().map(|o| &o.stats))
}

/// Seed of every fleet run's power-of-two-choices router.
const ROUTER_SEED: u64 = 0xD1CE;

/// A fleet trace and its reference: the healthy colocated fleet routes the
/// trace, then each group's routed sub-trace replays through the per-token
/// loop (timed). Every fleet row on the trace divides by this replay —
/// the faulted and split rows too, so a fault-path or handoff-path
/// slowdown shows against the same healthy denominator.
struct FleetTrace {
    system: ServingSystem,
    trace: Vec<RequestSpec>,
    rate: f64,
    opts: FleetOptions,
    reference: Measurement,
    /// Each group's reference report, in group order.
    reports: Vec<ServingReport>,
}

impl FleetTrace {
    fn new(system: &ServingSystem, trace: Vec<RequestSpec>, rate: f64, opts: FleetOptions) -> Self {
        let mut router = PowerOfTwoChoices::seeded(ROUTER_SEED);
        let colocated = simulate_fleet_instrumented(system, &trace, rate, &mut router, &opts);
        let mut sub: Vec<Vec<RequestSpec>> = vec![Vec::new(); opts.groups];
        for (spec, &g) in trace.iter().zip(&colocated.routed) {
            sub[g].push(*spec);
        }
        let per_group_qps = rate / opts.groups as f64;
        let options = ServeOptions::default().with_engine(TickEngine::PerTokenReference);
        let mut reports = Vec::with_capacity(opts.groups);
        let mut stats = Vec::with_capacity(opts.groups);
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let start = Instant::now();
        for group_trace in &sub {
            let (report, s) =
                system.serve_trace_instrumented(group_trace, per_group_qps, options.clone());
            reports.push(report);
            stats.push(s);
        }
        let wall_s = start.elapsed().as_secs_f64();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
        let reference = Measurement { wall_s, stats: total_stats(&stats), allocations };
        FleetTrace { system: system.clone(), trace, rate, opts, reference, reports }
    }
}

/// One fleet row: what the fleet runs on top of its [`FleetTrace`], and
/// what the row checks and records beyond the generic measurement.
struct FleetShape<'a> {
    name: &'static str,
    on: &'a FleetTrace,
    /// The trace's fleet options plus the row's faults, retries, recovery
    /// and admission.
    opts: FleetOptions,
    dcfg: DisaggConfig,
    /// Deterministic floor on the reference→span heap-event ratio.
    floor: f64,
    /// Asserts the row's own invariants and renders its JSON fields after
    /// `sim_tokens`.
    check: fn(&str, &FleetTrace, &FleetOutcome) -> String,
    /// The JSON flag recording that `check` held, if the row has one.
    flag: Option<&'static str>,
}

/// Runs one fleet row at 1 and 2 worker threads, asserts both agree bit
/// for bit, checks it against its trace's reference replay and returns its
/// JSON row and gate row.
fn measure_fleet(shape: &FleetShape, smoke: bool) -> (String, GateRow) {
    let FleetShape { name, on, dcfg, .. } = shape;
    let run = |threads: usize| {
        let mut router = PowerOfTwoChoices::seeded(ROUTER_SEED);
        let opts = shape.opts.clone().with_threads(threads);
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let start = Instant::now();
        let out = simulate_fleet_disagg(&on.system, &on.trace, on.rate, &mut router, &opts, dcfg);
        let wall_s = start.elapsed().as_secs_f64();
        (out, wall_s, ALLOCATIONS.load(Ordering::Relaxed) - allocs_before)
    };
    let (out, wall_s, allocations) = run(1);
    let (threaded, _, _) = run(2);
    assert_eq!(
        out.report, threaded.report,
        "{name}: fleet report must be bit-identical across worker-thread counts"
    );
    assert_eq!(
        out.routed, threaded.routed,
        "{name}: fleet routing must be bit-identical across worker-thread counts"
    );
    let fields = (shape.check)(name, on, &out);
    let span = Measurement { wall_s, stats: fleet_stats(&out), allocations };
    let reference = &on.reference;
    // The fleet run's wall clock is a few milliseconds — too short for a
    // ±20% gate. Clamp the *recorded* speedup at 20x: the gate then
    // compares saturated values (stable), and any regression big enough
    // to matter pulls the true ratio under the cap and trips it.
    let (speedup, heap_ratio) = ratios(reference, &span);
    let speedup = speedup.min(20.0);
    print_pair(name, reference, &span, speedup, heap_ratio);
    // Epoch driving, faults and handoffs must not reintroduce per-token
    // heap events.
    assert_floors(name, reference, &span, heap_ratio, Some(shape.floor), smoke);
    let prefill = dcfg.roles.iter().filter(|&&r| r == GroupRole::Prefill).count();
    let topology = if prefill == 0 {
        format!(
            "\"replicas_per_group\": {}, \"slots_per_replica\": {}",
            on.system.replicas(),
            on.system.slots_per_replica()
        )
    } else {
        format!("\"prefill_groups\": {prefill}, \"decode_groups\": {}", dcfg.roles.len() - prefill)
    };
    let row = format!(
        "    {{\"name\": \"{name}\", \"groups\": {}, {topology}, \"sim_tokens\": {}, {fields},\n     \
         {}, \"threads_invariant\": true{}}}",
        dcfg.roles.len(),
        span.stats.tokens,
        json_pair(reference, &span, speedup, heap_ratio),
        shape.flag.map(|f| format!(", \"{f}\": true")).unwrap_or_default(),
    );
    let gate = GateRow {
        name: name.to_string(),
        heap_events_per_token: span.stats.heap_events_per_token(),
        wall_speedup: speedup,
    };
    (row, gate)
}

/// The fleet table, on two traces of the paper's Llama2-7B PP/8
/// deployment routed by seeded power-of-two choices:
///
/// * a 64-group colocated fleet under a diurnal chatbot load — healthy
///   (every group reports identically to its reference replay), and under a
///   seeded [`FaultPlan::chaos`] schedule with bounded retries
///   (`cluster-crash-recovery`: crashes orphan in-flight work onto
///   survivors, degradation windows shift the spill cost model,
///   `completed + rejected + dropped = offered`);
/// * an 8-group fleet split 4 prefill / 4 decode over the shared
///   switch-attached KV pool with chunked prefill, on a ShareGPT-like
///   trace — healthy (handoffs engage, the pool bound holds, the split
///   generates exactly the colocated token population), and under a seeded
///   [`FaultPlan::chaos_disagg`] schedule with warm recovery, bounded
///   retries and admission shedding (`cluster-disagg-chaos`: decode-tier
///   crashes rescue parked pool copies,
///   `completed + rejected + dropped + shed = offered`).
///
/// The clean colocated row carries the 5x heap-ratio floor; the others
/// re-admit work (retries, rescues, the split's second admission), so
/// their heap traffic is admission-bound and the floor is 3x.
fn measure_fleets(smoke: bool) -> (Vec<String>, Vec<GateRow>) {
    let cfg = ModelConfig::llama2_7b();
    let system = ServingSystem::plan(&cfg, 8, cent_compiler::Strategy::PipelineParallel, 4096)
        .expect("planning Llama2-7B on 8 devices");
    let epoch = Time::from_secs_f64(0.25);
    let retry = RetryPolicy { max_attempts: 4, backoff: Time::from_us(50_000) };

    let horizon_s = if smoke { 60.0 } else { 600.0 };
    let rate = 0.9 * 64.0 * system.capacity_qps(512, 3584);
    let curve = LoadCurve::diurnal(horizon_s, 0.5, 1.5);
    let w = Workload::chatbot(rate, 0xCE29);
    let trace = w.generate_modulated(Time::from_secs_f64(horizon_s), 4096, &curve, 7);
    let colocated = FleetTrace::new(&system, trace, rate, FleetOptions::new(64).with_epoch(epoch));
    let chaos =
        FaultPlan::chaos(0xFA01, 64, Time::from_secs_f64(horizon_s), &ChaosRates::default());

    let horizon_s = if smoke { 60.0 } else { 240.0 };
    let rate = 0.6 * 8.0 * system.capacity_qps(160, 210);
    let w = Workload { lengths: LengthSampler::ShareGpt, ..Workload::chatbot(rate, 0xD15A) };
    let trace = w.generate(Time::from_secs_f64(horizon_s), 4096);
    let split = FleetTrace::new(&system, trace, rate, FleetOptions::new(8).with_epoch(epoch));
    let hops = system.swap_cost().with_switch_hops(2, &FabricConfig::cent(32));
    let dcfg = DisaggConfig::split(4, 4, 32 * 161, hops).with_prefill_chunk(512);
    let rates = ChaosRates { decode_crash_mult: 1.5, ..ChaosRates::default() };
    let split_chaos =
        FaultPlan::chaos_disagg(0xFA02, &dcfg.roles, Time::from_secs_f64(horizon_s), &rates);

    let shapes = [
        FleetShape {
            name: "cluster-64xpp8-chatbot-diurnal",
            on: &colocated,
            opts: colocated.opts.clone(),
            dcfg: DisaggConfig::colocated(64),
            floor: 5.0,
            check: |name, on, out| {
                for (g, (o, reference)) in out.groups.iter().zip(&on.reports).enumerate() {
                    assert_eq!(
                        &o.report, reference,
                        "{name}: group {g} fleet run must report identically to the reference loop"
                    );
                }
                assert_eq!(
                    fleet_stats(out).tokens,
                    on.reference.stats.tokens,
                    "{name}: the fleet must generate exactly the reference token population"
                );
                format!(
                    "\"preemptions\": {}, \"swaps\": {}",
                    out.report.preemptions, out.report.swaps
                )
            },
            flag: None,
        },
        FleetShape {
            name: "cluster-crash-recovery",
            on: &colocated,
            opts: colocated.opts.clone().with_faults(chaos).with_retry(retry),
            dcfg: DisaggConfig::colocated(64),
            floor: 3.0,
            check: |name, on, out| {
                let d = out.report.degraded.as_ref().expect("chaos run reports degraded mode");
                assert!(d.availability < 1.0, "{name}: crashes must dent availability");
                assert!(d.retries > 0, "{name}: failover must redispatch orphans");
                assert_eq!(
                    out.report.completed + out.report.rejected + d.drops,
                    on.trace.len(),
                    "{name}: requests leaked from the conservation invariant"
                );
                format!(
                    "\"crashes\": {}, \"recoveries\": {}, \"retries\": {}, \"drops\": {}, \
                     \"availability\": {:.4}",
                    d.crashes, d.recoveries, d.retries, d.drops, d.availability
                )
            },
            flag: Some("conservation"),
        },
        FleetShape {
            name: "cluster-disagg-4p4d-sharegpt",
            on: &split,
            opts: split.opts.clone(),
            dcfg: dcfg.clone(),
            floor: 3.0,
            check: |name, on, out| {
                assert!(out.log.handoffs > 0, "{name}: the handoff path must engage");
                assert!(
                    out.log.pool_peak_tokens <= out.log.pool_capacity_tokens,
                    "{name}: pool peak {} exceeded the {}-token bound",
                    out.log.pool_peak_tokens,
                    out.log.pool_capacity_tokens
                );
                assert_eq!(
                    fleet_stats(out).tokens,
                    on.reference.stats.tokens,
                    "{name}: the split pipeline must generate exactly the colocated token population"
                );
                format!(
                    "\"handoffs\": {}, \"steals\": {}, \"deferred_publishes\": {}, \
                     \"pool_peak_tokens\": {}",
                    out.log.handoffs, out.log.steals, out.log.deferred, out.log.pool_peak_tokens
                )
            },
            flag: Some("pool_bound_held"),
        },
        FleetShape {
            name: "cluster-disagg-chaos",
            on: &split,
            opts: split
                .opts
                .clone()
                .with_faults(split_chaos)
                .with_retry(retry)
                .with_recovery(RecoveryMode::Warm { retained_fraction: 0.5 })
                .with_admission(AdmissionPolicy::shed_above(6.0)),
            dcfg,
            floor: 3.0,
            check: |name, on, out| {
                let d = out.report.degraded.as_ref().expect("chaos run reports degraded mode");
                assert!(d.crashes > 0, "{name}: the chaos schedule must actually crash groups");
                assert_eq!(
                    out.report.completed + out.report.rejected + d.drops + d.shed,
                    on.trace.len(),
                    "{name}: requests leaked from the extended conservation invariant"
                );
                assert!(d.pool_rescued > 0, "{name}: decode-tier crashes must rescue pool copies");
                format!(
                    "\"crashes\": {}, \"pool_rescued\": {}, \"pool_lost\": {}, \
                     \"warm_rejoins\": {}, \"shed\": {}, \"availability\": {:.4}",
                    d.crashes, d.pool_rescued, d.pool_lost, d.warm_rejoins, d.shed, d.availability
                )
            },
            flag: Some("conservation"),
        },
    ];
    shapes.iter().map(|shape| measure_fleet(shape, smoke)).unzip()
}

fn json_engine(m: &Measurement) -> String {
    format!(
        "{{\"wall_s\": {:.6}, \"sim_tokens_per_wall_s\": {:.1}, \"heap_pushes\": {}, \
         \"heap_pops\": {}, \"tick_events\": {}, \"heap_events_per_token\": {:.4}, \
         \"allocs_per_token\": {:.4}}}",
        m.wall_s,
        if m.wall_s > 0.0 { m.stats.tokens as f64 / m.wall_s } else { 0.0 },
        m.stats.heap_pushes,
        m.stats.heap_pops,
        m.stats.tick_events,
        m.stats.heap_events_per_token(),
        m.allocations_per_token(),
    )
}

/// Per-shape span-engine numbers the regression gate compares.
struct GateRow {
    name: String,
    heap_events_per_token: f64,
    wall_speedup: f64,
}

/// Extracts `(shape, heap_events_per_token, span_wall_speedup)` rows from a
/// `BENCH_serving_sim*.json` file. The file is machine-written by this bin
/// (one `"name"` line, one `"span": {...}` line and one flat
/// `"span_wall_speedup"` line per shape, in that order), so a line scan is
/// exact — the build environment has no serde to do better.
///
/// # Panics
///
/// Panics unless every `"name"` line yields exactly one span row, so a
/// malformed baseline edit fails the gate instead of shrinking it.
fn parse_baseline(text: &str) -> Vec<GateRow> {
    fn field(line: &str, key: &str) -> Option<f64> {
        let tail = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        tail[..end].trim().parse().ok()
    }
    let mut rows = Vec::new();
    let mut shapes = 0;
    let mut name: Option<String> = None;
    let mut hept: Option<f64> = None;
    for line in text.lines().map(str::trim) {
        if let Some(tail) = line.strip_prefix("{\"name\": \"") {
            shapes += 1;
            name = tail.split('"').next().map(str::to_string);
            hept = None;
        }
        if line.starts_with("\"span\":") {
            hept = field(line, "heap_events_per_token");
        }
        if let Some(wall_speedup) = field(line, "span_wall_speedup") {
            if let (Some(name), Some(heap_events_per_token)) = (name.take(), hept.take()) {
                rows.push(GateRow { name, heap_events_per_token, wall_speedup });
            }
        }
    }
    assert_eq!(rows.len(), shapes, "baseline must hold exactly one span row per shape");
    rows
}

/// Allowed regression on either gated metric.
const GATE_SLACK: f64 = 1.20;

/// Steady-state allocation ceiling for the span engine, in heap
/// allocations per simulated token. The hot path is allocation-free;
/// what remains scales with admissions (records, requeues, report
/// assembly), two orders of magnitude below one-per-token.
const ALLOC_CEILING: f64 = 0.05;

fn main() {
    let mut smoke = false;
    let mut check_against: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check-against" => {
                check_against = Some(args.next().expect("--check-against needs a path"));
            }
            other => panic!("unknown argument {other:?} (expected --smoke / --check-against)"),
        }
    }
    let shapes = if smoke { smoke_shapes() } else { full_shapes() };

    println!(
        "{:>28} {:>9} {:>10} {:>10} {:>9} {:>11} {:>9} {:>11}",
        "shape", "engine", "wall", "speedup", "hp/tok", "hp ratio", "alloc/tok", "tokens"
    );
    let mut rows = Vec::new();
    let mut gate_rows = Vec::new();
    // The smoke gate compares wall clocks on a shared CI runner; take the
    // best of five so scheduler stalls cannot flip the not-slower assert
    // or the speedup half of the regression gate.
    let repeats = if smoke { 5 } else { 2 };
    for shape in &shapes {
        let (reference, ref_report) = measure(shape, TickEngine::PerTokenReference, repeats);
        let (span, report) = measure(shape, TickEngine::SpanFastForward, repeats);
        assert_eq!(
            ref_report, report,
            "{}: span engine must report identically to the reference before perf means anything",
            shape.name
        );
        let (speedup, heap_ratio) = ratios(&reference, &span);
        print_pair(shape.name, &reference, &span, speedup, heap_ratio);
        // The no-alloc-in-steady-state assertion: scratch buffers are
        // arena'd, so allocations scale with admissions, not tokens.
        assert!(
            span.allocations_per_token() < ALLOC_CEILING,
            "{}: span engine allocates {:.4}/token (ceiling {ALLOC_CEILING})",
            shape.name,
            span.allocations_per_token()
        );
        // The heap-event ratio is deterministic: on any shape with >= 8
        // slots per replica the span engine must batch at least 5x —
        // relaxed to 3x under eviction churn, where every resume is a
        // fresh admission and heap traffic is admission-bound.
        let slots = shape.system.slots_per_replica();
        let churn = ref_report.preemptions + ref_report.swaps > 0;
        let floor = (slots >= 8).then_some(if churn { 3.0 } else { 5.0 });
        assert_floors(shape.name, &reference, &span, heap_ratio, floor, smoke);
        rows.push(format!(
            "    {{\"name\": \"{}\", \"replicas\": {}, \"slots_per_replica\": {}, \
             \"sim_tokens\": {}, \"preemptions\": {}, \"swaps\": {},\n     {}}}",
            shape.name,
            shape.system.replicas(),
            slots,
            reference.stats.tokens,
            ref_report.preemptions,
            ref_report.swaps,
            json_pair(&reference, &span, speedup, heap_ratio),
        ));
        gate_rows.push(GateRow {
            name: shape.name.to_string(),
            heap_events_per_token: span.stats.heap_events_per_token(),
            wall_speedup: speedup,
        });
    }

    // The fleet shapes ride the same artifact and gate: each row carries a
    // "span" engine block and a span_wall_speedup, so --check-against
    // covers the fleet path — and its fault paths — with no parser changes.
    let (fleet_rows, fleet_gates) = measure_fleets(smoke);
    rows.extend(fleet_rows);
    gate_rows.extend(fleet_gates);

    let json = format!(
        "{{\n  \"id\": \"BENCH_serving_sim\",\n  \"mode\": \"{}\",\n  \"shapes\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        rows.join(",\n")
    );
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_serving_sim.json");
    std::fs::write(&path, json).expect("writing BENCH_serving_sim.json");
    println!("\nwrote {}", path.display());

    // The CI perf-regression gate: every shape in the committed baseline
    // must still be measured and must not regress by more than 20% on
    // either the span engine's heap events per token or its
    // reference→span wall-clock speedup.
    if let Some(baseline_path) = check_against {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("reading baseline {baseline_path}: {e}"));
        let baseline = parse_baseline(&text);
        assert!(!baseline.is_empty(), "baseline {baseline_path} has no shapes");
        println!("checking against {baseline_path} (\u{2264}{GATE_SLACK}x regression allowed):");
        let mut failures = Vec::new();
        for b in &baseline {
            let Some(now) = gate_rows.iter().find(|g| g.name == b.name) else {
                failures.push(format!("shape {:?} missing from this run", b.name));
                continue;
            };
            println!(
                "  {:>28}/    span: heap/tok {:.4} (baseline {:.4}) | speedup {:.3}x (baseline \
                 {:.3}x)",
                b.name,
                now.heap_events_per_token,
                b.heap_events_per_token,
                now.wall_speedup,
                b.wall_speedup,
            );
            // Failure lines are self-contained — measured value, baseline
            // value and the allowed threshold — so a CI log alone is
            // enough to judge how far over the line the run landed.
            if now.heap_events_per_token > GATE_SLACK * b.heap_events_per_token {
                failures.push(format!(
                    "{}/span: heap events/token regressed: measured {:.4}, baseline {:.4}, \
                     allowed at most {:.4} (baseline x {GATE_SLACK})",
                    b.name,
                    now.heap_events_per_token,
                    b.heap_events_per_token,
                    GATE_SLACK * b.heap_events_per_token,
                ));
            }
            if now.wall_speedup < b.wall_speedup / GATE_SLACK {
                failures.push(format!(
                    "{}/span: wall-clock speedup regressed: measured {:.3}x, baseline {:.3}x, \
                     allowed at least {:.3}x (baseline / {GATE_SLACK})",
                    b.name,
                    now.wall_speedup,
                    b.wall_speedup,
                    b.wall_speedup / GATE_SLACK,
                ));
            }
        }
        assert!(
            failures.is_empty(),
            "perf regression gate failed:\n  {}\n(if intentional: rerun `cargo run --release \
             -p cent-bench --bin sim_perf -- --smoke`, copy results/BENCH_serving_sim.json \
             over {baseline_path}, and commit it)",
            failures.join("\n  ")
        );
        println!("perf gate passed ({} rows)", baseline.len());
    }
}
