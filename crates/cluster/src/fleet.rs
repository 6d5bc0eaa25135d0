//! Fleet options, outcomes and the colocated entry points
//! ([`simulate_fleet`], [`simulate_fleet_instrumented`]): epoch-based
//! routing over N replica groups, fanned out across `std::thread::scope`
//! workers inside one simulation — with deterministic fault injection,
//! failover and retry on top. One epoch-grid driver,
//! [`simulate_fleet_disagg`], runs colocated and prefill/decode-split
//! fleets alike; the colocated entry points call it with
//! [`DisaggConfig::colocated`].
//!
//! # Determinism contract
//!
//! The trace is partitioned into fixed-width time *epochs*. The driver
//! stops at epoch-grid instants — the epoch holding the next arrival, the
//! next fault event (crash/recover/degrade instants are aligned up to the
//! grid), or the next retry-ready instant; a split fleet also stops for
//! claimable handoffs and while its prefill tier owes completions. At
//! each stop it advances every group to the stop instant, applies due
//! fault events from a single thread in a fixed `(instant, kind, group)`
//! order, refreshes the per-group [`GroupLoad`](crate::GroupLoad) index
//! from true scheduler state (dead groups leave the index), and then
//! routes redispatches and the epoch's arrivals against that snapshot
//! (bumping the index optimistically per assignment). Routing and fault
//! handling therefore depend only on (trace, fault schedule, router
//! state, epoch length) — never on worker interleaving — and each group's
//! simulation is single-threaded and deterministic, so the merged
//! [`FleetReport`] is bit-identical across worker-thread counts *for any
//! fault schedule*. Epochs with no work are coalesced: the driver jumps
//! straight to the next stop.
//!
//! # Failure semantics
//!
//! A [`GroupCrash`](FaultSpec::GroupCrash) tears the group down: its
//! in-flight and queued requests are orphaned (device KV and host-pool
//! pages are lost, so a redispatch re-prefills from scratch while TTFT
//! keeps running from the original arrival), and the [`RetryPolicy`]
//! decides whether each orphan is redispatched — onto the healthy subset,
//! after its backoff — or dropped. How a group *rejoins* is set by
//! [`RecoveryMode`]: cold (empty, the default), warm (a deterministic
//! fraction of each crash's orphans kept their KV and re-seed without
//! re-prefilling when the group recovers) or standby (idle spare groups
//! promoted at crash time, recovered groups joining the spare reserve).
//! While *no* group is alive, arrivals are deferred and dispatched at the
//! next recovery; if the fleet never recovers they are dropped. An
//! [`AdmissionPolicy`] additionally sheds arrivals by class once fleet
//! saturation crosses the class's threshold, extending conservation to
//! `completed + rejected + dropped + shed = offered`.

use cent_serving::ServingSystem;
use cent_serving::{GroupOutcome, GroupSim, PriorityClass, RequestId, RequestSpec, ServeOptions};
use cent_types::Time;

use crate::admission::AdmissionPolicy;
use crate::disagg::{simulate_fleet_disagg, DisaggConfig, DisaggLog};
use crate::fault::{FaultSchedule, FaultSpec, RecoveryMode, RetryPolicy};
use crate::report::FleetReport;
use crate::router::RoutingPolicy;

/// Fleet-level knobs: group count, worker threads, epoch width, the
/// per-group serving options, and the fault schedule, retry policy,
/// recovery mode and admission policy.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Independent replica groups behind the router.
    pub groups: usize,
    /// Worker threads sharding the groups (1 = fully inline). Any value
    /// yields the same [`FleetReport`]; this only trades wall-clock.
    pub threads: usize,
    /// Epoch width: the granularity at which the router's load index is
    /// refreshed from true group state (and onto which fault events are
    /// aligned). Smaller epochs mean fresher load signals and more
    /// synchronization barriers.
    pub epoch: Time,
    /// Serving options applied to every group.
    pub serve: ServeOptions,
    /// Faults injected into the run (empty = the healthy path, bit for
    /// bit).
    pub faults: FaultSchedule,
    /// Redispatch policy for crash orphans.
    pub retry: RetryPolicy,
    /// How crashed groups rejoin (cold, warm, or via a standby reserve).
    pub recovery: RecoveryMode,
    /// Saturation-based admission control
    /// ([`AdmissionPolicy::admit_all`] = the no-shed path, bit for bit).
    pub admission: AdmissionPolicy,
}

impl FleetOptions {
    /// `groups` groups, one worker thread, a 100 ms epoch, default serving
    /// options, no faults.
    pub fn new(groups: usize) -> Self {
        assert!(groups > 0, "a fleet needs at least one group");
        FleetOptions {
            groups,
            threads: 1,
            epoch: Time::from_secs_f64(0.1),
            serve: ServeOptions::default(),
            faults: FaultSchedule::empty(),
            retry: RetryPolicy::default(),
            recovery: RecoveryMode::Cold,
            admission: AdmissionPolicy::admit_all(),
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the epoch width.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub fn with_epoch(mut self, epoch: Time) -> Self {
        assert!(epoch > Time::ZERO, "epoch must be positive");
        self.epoch = epoch;
        self
    }

    /// Sets the per-group serving options.
    pub fn with_serve(mut self, serve: ServeOptions) -> Self {
        self.serve = serve;
        self
    }

    /// Sets the fault schedule.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the retry policy for crash orphans.
    ///
    /// # Panics
    ///
    /// Panics if `retry.max_attempts` is zero.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        assert!(retry.max_attempts > 0, "a request needs at least one attempt");
        self.retry = retry;
        self
    }

    /// Sets the recovery mode for crashed groups.
    ///
    /// # Panics
    ///
    /// Panics if the mode's parameters are out of range (see
    /// [`RecoveryMode::validate`]).
    pub fn with_recovery(mut self, recovery: RecoveryMode) -> Self {
        recovery.validate();
        self.recovery = recovery;
        self
    }

    /// Sets the saturation admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }
}

/// What the fault machinery did during one fleet run — the raw material
/// for the report's degraded-mode section, exposed for property tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    /// Crash events applied (a crash aligned into an existing outage is
    /// skipped, not double-counted).
    pub crashes: u64,
    /// Recovery events applied.
    pub recoveries: u64,
    /// Per-group outage windows `(group, down_from, up_at)`; `None` means
    /// the group never rejoined.
    pub down_windows: Vec<(usize, Time, Option<Time>)>,
    /// One entry per orphaning: the request and the crash instant that
    /// evicted it (a request appears once per crash it survives).
    pub orphaned: Vec<(RequestId, Time)>,
    /// Redispatches of crash orphans (deferred first dispatches of
    /// arrivals that found no live group are not retries).
    pub retries: u64,
    /// Redispatch counts per priority class.
    pub retries_by_class: Vec<(PriorityClass, u64)>,
    /// Requests dropped — out of attempts, or undispatchable because the
    /// fleet never recovered.
    pub dropped: Vec<(RequestId, PriorityClass)>,
    /// Recoveries that re-seeded at least one warm-retained context
    /// ([`RecoveryMode::Warm`]).
    pub warm_rejoins: u64,
    /// Recoveries that rejoined the serving set empty (every recovery
    /// under [`RecoveryMode::Cold`]; a warm recovery whose crash orphaned
    /// nothing). Standby recoveries join the spare reserve and count under
    /// neither.
    pub cold_rejoins: u64,
    /// Spare groups promoted into the serving set at crash instants
    /// ([`RecoveryMode::Standby`]).
    pub promotions: u64,
    /// Contexts a crashed decode group had claimed that were rescued from
    /// the shared pool's parked copies instead of re-prefilled, with the
    /// crash instant (disaggregated fleets only).
    pub pool_rescued: Vec<(RequestId, Time)>,
    /// Handed-off contexts whose pool copy was gone at crash time (evicted
    /// or volatile pool) — they fell back to re-prefill.
    pub pool_lost: u64,
    /// Arrivals shed by the admission policy, never dispatched.
    pub shed: Vec<(RequestId, PriorityClass)>,
    /// Last offered arrival — the availability horizon extends at least
    /// this far even if the fleet died long before serving it.
    pub horizon: Time,
}

/// Everything one fleet run produced: the merged report, the per-group
/// outcomes (in group order), the routing decision per trace entry, the
/// fault log and the disaggregation log.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The merged fleet-wide report; `report.disagg` is `Some` iff the
    /// fleet was split into prefill and decode tiers.
    pub report: FleetReport,
    /// Per-group outcomes, indexed by group. On a split fleet,
    /// prefill-role groups hold the prompt phase of each request (one
    /// decode token) and decode-role groups hold the remainder.
    pub groups: Vec<GroupOutcome>,
    /// Group index each trace entry (its *prompt*, on a split fleet) was
    /// *first* dispatched to, aligned with the trace (`usize::MAX` for
    /// requests never dispatched: shed by admission, or dropped because
    /// the entry tier was down on arrival and never recovered).
    pub routed: Vec<usize>,
    /// What the fault machinery did (empty for a fault-free schedule).
    pub faults: FaultLog,
    /// What the disaggregation machinery did (the default on a colocated
    /// fleet).
    pub log: DisaggLog,
}

/// A fault event compiled onto the epoch grid. At one instant, recoveries
/// apply before degrade-window edges before crashes (rank order), and
/// within a kind events apply in compiled order — a fixed, thread-free
/// total order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledFault {
    pub(crate) at: Time,
    pub(crate) rank: u8,
    pub(crate) group: usize,
    pub(crate) kind: CompiledKind,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum CompiledKind {
    Recover,
    DegradeEnd { factor: f64 },
    DegradeStart { factor: f64 },
    PoolDegradeEnd { factor: f64 },
    PoolDegradeStart { factor: f64 },
    Crash { recovers: bool },
}

/// Aligns `t` up to the next epoch-grid instant.
pub(crate) fn epoch_ceil(t: Time, epoch_ps: u64) -> Time {
    Time::from_ps(
        t.as_ps()
            .div_ceil(epoch_ps)
            .checked_mul(epoch_ps)
            .expect("epoch grid instant overflows Time"),
    )
}

/// Compiles the schedule onto the epoch grid: every instant is aligned up,
/// every window spans at least one epoch, and the result is sorted by
/// `(instant, rank, group)` with compiled order breaking residual ties
/// (stable sort).
pub(crate) fn compile_faults(schedule: &FaultSchedule, epoch_ps: u64) -> Vec<CompiledFault> {
    let mut events = Vec::new();
    for spec in schedule.specs() {
        match *spec {
            FaultSpec::GroupCrash { group, at, recover_after } => {
                let crash_at = epoch_ceil(at, epoch_ps);
                events.push(CompiledFault {
                    at: crash_at,
                    rank: 3,
                    group,
                    kind: CompiledKind::Crash { recovers: recover_after.is_some() },
                });
                if let Some(d) = recover_after {
                    let floor = Time::from_ps(
                        crash_at.as_ps().checked_add(epoch_ps).expect("recovery floor overflows"),
                    );
                    let recover_at = epoch_ceil(at + d, epoch_ps).max(floor);
                    events.push(CompiledFault {
                        at: recover_at,
                        rank: 0,
                        group,
                        kind: CompiledKind::Recover,
                    });
                }
            }
            FaultSpec::HostLinkDegrade { at, duration, bandwidth_factor } => {
                let start = epoch_ceil(at, epoch_ps);
                let floor = Time::from_ps(
                    start.as_ps().checked_add(epoch_ps).expect("degrade window end overflows"),
                );
                let end = epoch_ceil(at + duration, epoch_ps).max(floor);
                events.push(CompiledFault {
                    at: start,
                    rank: 2,
                    group: 0,
                    kind: CompiledKind::DegradeStart { factor: bandwidth_factor },
                });
                events.push(CompiledFault {
                    at: end,
                    rank: 1,
                    group: 0,
                    kind: CompiledKind::DegradeEnd { factor: bandwidth_factor },
                });
            }
            FaultSpec::PoolLinkDegrade { at, duration, bandwidth_factor } => {
                let start = epoch_ceil(at, epoch_ps);
                let floor = Time::from_ps(
                    start.as_ps().checked_add(epoch_ps).expect("degrade window end overflows"),
                );
                let end = epoch_ceil(at + duration, epoch_ps).max(floor);
                events.push(CompiledFault {
                    at: start,
                    rank: 2,
                    group: 0,
                    kind: CompiledKind::PoolDegradeStart { factor: bandwidth_factor },
                });
                events.push(CompiledFault {
                    at: end,
                    rank: 1,
                    group: 0,
                    kind: CompiledKind::PoolDegradeEnd { factor: bandwidth_factor },
                });
            }
            // Stragglers are construction-time, not events.
            FaultSpec::Straggler { .. } => {}
        }
    }
    events.sort_by_key(|e| (e.at, e.rank, e.group));
    events
}

/// Simulates `trace` over a fleet of identical colocated replica groups
/// and returns the merged fleet report. See the module docs for the
/// determinism contract; `trace` must be sorted by arrival time (as
/// [`Workload::generate`](cent_serving::Workload::generate) produces).
pub fn simulate_fleet(
    system: &ServingSystem,
    trace: &[RequestSpec],
    offered_qps: f64,
    router: &mut dyn RoutingPolicy,
    options: &FleetOptions,
) -> FleetReport {
    simulate_fleet_instrumented(system, trace, offered_qps, router, options).report
}

/// [`simulate_fleet`], additionally returning per-group outcomes, the
/// per-request routing decisions and the fault log (property tests,
/// router and failover studies): [`simulate_fleet_disagg`] with
/// [`DisaggConfig::colocated`].
pub fn simulate_fleet_instrumented(
    system: &ServingSystem,
    trace: &[RequestSpec],
    offered_qps: f64,
    router: &mut dyn RoutingPolicy,
    options: &FleetOptions,
) -> FleetOutcome {
    let colocated = DisaggConfig::colocated(options.groups);
    simulate_fleet_disagg(system, trace, offered_qps, router, options, &colocated)
}

/// Advances every group to `limit`, sharding contiguous chunks across
/// worker threads. Groups are independent, so any sharding computes the
/// same per-group state.
pub(crate) fn advance_groups(sims: &mut [GroupSim], limit: Time, threads: usize) {
    if threads <= 1 || sims.len() <= 1 {
        for sim in sims.iter_mut() {
            sim.advance_to(limit);
        }
        return;
    }
    let chunk = sims.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for part in sims.chunks_mut(chunk) {
            scope.spawn(move || {
                for sim in part {
                    sim.advance_to(limit);
                }
            });
        }
    });
}

/// Drains every group to completion and collects outcomes in group order.
pub(crate) fn finish_groups(sims: Vec<GroupSim>, qps: f64, threads: usize) -> Vec<GroupOutcome> {
    let mut sims: Vec<Option<GroupSim>> = sims.into_iter().map(Some).collect();
    let mut out: Vec<Option<GroupOutcome>> = sims.iter().map(|_| None).collect();
    if threads <= 1 || sims.len() <= 1 {
        for (sim, slot) in sims.iter_mut().zip(out.iter_mut()) {
            *slot = Some(sim.take().expect("group not yet finished").finish(qps));
        }
    } else {
        let chunk = sims.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (sim_part, out_part) in sims.chunks_mut(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (sim, slot) in sim_part.iter_mut().zip(out_part.iter_mut()) {
                        *slot = Some(sim.take().expect("group not yet finished").finish(qps));
                    }
                });
            }
        });
    }
    out.into_iter().map(|o| o.expect("every group finished")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{JoinShortestQueue, PowerOfTwoChoices, RoundRobin};
    use cent_model::ModelConfig;
    use cent_serving::{KvBudget, KvMode, SchedulerConfig, Workload};

    fn tiny_system() -> ServingSystem {
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

    fn trace(qps: f64, seed: u64, horizon_s: f64) -> Vec<RequestSpec> {
        let w = Workload {
            lengths: cent_serving::LengthSampler::Fixed { prompt: 10, decode: 40 },
            ..Workload::chatbot(qps, seed)
        };
        w.generate(Time::from_secs_f64(horizon_s), 4096)
    }

    /// Long-decode trace: ~half-second service times keep every group
    /// busy, so a mid-run crash is guaranteed to strand in-flight work.
    fn heavy_trace(qps: f64, seed: u64, horizon_s: f64) -> Vec<RequestSpec> {
        let w = Workload {
            lengths: cent_serving::LengthSampler::Fixed { prompt: 10, decode: 400 },
            ..Workload::chatbot(qps, seed)
        };
        w.generate(Time::from_secs_f64(horizon_s), 4096)
    }

    #[test]
    fn fleet_of_one_matches_the_single_system_run() {
        // With one group every router is the identity, so the group's
        // outcome must equal a direct ServingSystem run bit for bit.
        let sys = tiny_system();
        let trace = trace(30.0, 11, 2.0);
        let (solo, _) = sys.serve_trace_instrumented(&trace, 30.0, ServeOptions::default());
        let mut router = JoinShortestQueue;
        let fleet =
            simulate_fleet_instrumented(&sys, &trace, 30.0, &mut router, &FleetOptions::new(1));
        assert_eq!(fleet.groups[0].report, solo);
        assert_eq!(fleet.report.completed, solo.completed);
        assert_eq!(fleet.report.ttft, solo.ttft);
        assert_eq!(fleet.report.query_latency, solo.query_latency);
        assert!(fleet.routed.iter().all(|&g| g == 0));
        assert_eq!(fleet.faults, FaultLog::default());
        assert_eq!(fleet.report.degraded, None);
    }

    #[test]
    fn every_request_is_served_exactly_once() {
        let sys = tiny_system();
        let trace = trace(100.0, 3, 2.0);
        for router in [
            &mut RoundRobin::default() as &mut dyn RoutingPolicy,
            &mut JoinShortestQueue,
            &mut PowerOfTwoChoices::seeded(5),
        ] {
            let fleet = simulate_fleet_instrumented(
                &sys,
                &trace,
                100.0,
                router,
                &FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05)),
            );
            assert_eq!(fleet.routed.len(), trace.len());
            assert_eq!(fleet.report.submitted, trace.len());
            assert_eq!(fleet.report.completed, trace.len());
            let mut ids: Vec<u64> =
                fleet.groups.iter().flat_map(|o| o.records.iter().map(|r| r.spec.id.0)).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..trace.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn jsq_balances_better_than_round_robin_never_worse() {
        let sys = tiny_system();
        let trace = trace(120.0, 9, 3.0);
        let opts = FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.02));
        let jsq = simulate_fleet(&sys, &trace, 120.0, &mut JoinShortestQueue, &opts);
        assert!(jsq.imbalance.max_share < 1.5, "JSQ spread {:?}", jsq.imbalance);
        assert!(jsq.imbalance.min_share > 0.5);
    }

    #[test]
    fn epoch_width_changes_routing_but_not_accounting() {
        // Different epochs may route differently (fresher load signals),
        // but conservation holds and the report stays self-consistent.
        let sys = tiny_system();
        let trace = trace(80.0, 21, 2.0);
        for epoch_s in [0.01, 0.1, 1.0] {
            let fleet = simulate_fleet(
                &sys,
                &trace,
                80.0,
                &mut JoinShortestQueue,
                &FleetOptions::new(3).with_epoch(Time::from_secs_f64(epoch_s)),
            );
            assert_eq!(fleet.completed, trace.len(), "epoch {epoch_s}");
            assert_eq!(fleet.per_group.iter().map(|g| g.submitted).sum::<usize>(), trace.len());
        }
    }

    #[test]
    fn crash_orphans_are_retried_on_survivors() {
        let sys = tiny_system();
        let trace = heavy_trace(60.0, 13, 2.0);
        let faults = FaultSchedule::new(vec![FaultSpec::GroupCrash {
            group: 0,
            at: Time::from_secs_f64(0.5),
            recover_after: Some(Time::from_secs_f64(0.8)),
        }]);
        let opts = FleetOptions::new(3).with_epoch(Time::from_secs_f64(0.05)).with_faults(faults);
        let fleet = simulate_fleet_instrumented(&sys, &trace, 60.0, &mut JoinShortestQueue, &opts);
        assert_eq!(fleet.faults.crashes, 1);
        assert_eq!(fleet.faults.recoveries, 1);
        assert!(!fleet.faults.orphaned.is_empty(), "a loaded group must have had work");
        assert_eq!(fleet.faults.retries, fleet.faults.orphaned.len() as u64);
        assert!(fleet.faults.dropped.is_empty(), "one crash cannot exhaust 3 attempts");
        // Every request still completes exactly once.
        assert_eq!(fleet.report.completed, trace.len());
        let mut ids: Vec<u64> =
            fleet.groups.iter().flat_map(|o| o.records.iter().map(|r| r.spec.id.0)).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..trace.len() as u64).collect::<Vec<_>>());
        let degraded = fleet.report.degraded.as_ref().expect("faulted run reports degraded mode");
        assert!(degraded.availability < 1.0);
        assert!(degraded.availability > 0.0);
        assert_eq!(degraded.retries, fleet.faults.retries);
    }

    #[test]
    fn permanent_fleet_death_drops_requests() {
        // Both groups die early and never recover: everything not already
        // completed is dropped, and conservation still holds.
        let sys = tiny_system();
        let trace = trace(40.0, 17, 2.0);
        let faults = FaultSchedule::new(
            (0..2)
                .map(|g| FaultSpec::GroupCrash {
                    group: g,
                    at: Time::from_secs_f64(0.3),
                    recover_after: None,
                })
                .collect(),
        );
        let opts = FleetOptions::new(2).with_epoch(Time::from_secs_f64(0.05)).with_faults(faults);
        let fleet = simulate_fleet_instrumented(&sys, &trace, 40.0, &mut JoinShortestQueue, &opts);
        assert_eq!(fleet.faults.crashes, 2);
        assert_eq!(fleet.faults.recoveries, 0);
        assert!(!fleet.faults.dropped.is_empty());
        assert_eq!(
            fleet.report.completed + fleet.report.rejected + fleet.faults.dropped.len(),
            trace.len()
        );
        // Down windows stay open.
        assert!(fleet.faults.down_windows.iter().all(|&(_, _, up)| up.is_none()));
        let degraded = fleet.report.degraded.as_ref().expect("degraded section present");
        assert_eq!(degraded.drops, fleet.faults.dropped.len());
        assert!(degraded.availability < 1.0);
    }

    #[test]
    fn straggler_group_attracts_less_jsq_traffic() {
        let sys = tiny_system();
        let trace = trace(100.0, 23, 3.0);
        let faults = FaultSchedule::new(vec![FaultSpec::Straggler { group: 0, slowdown: 3.0 }]);
        let opts = FleetOptions::new(3).with_epoch(Time::from_secs_f64(0.02)).with_faults(faults);
        let fleet = simulate_fleet_instrumented(&sys, &trace, 100.0, &mut JoinShortestQueue, &opts);
        assert_eq!(fleet.report.completed, trace.len());
        let slow = fleet.report.per_group[0].submitted;
        let healthy = fleet.report.per_group[1].submitted.min(fleet.report.per_group[2].submitted);
        assert!(slow < healthy, "JSQ should shed load off the 3x straggler: {slow} vs {healthy}");
    }

    #[test]
    fn zero_fault_schedule_is_bit_identical_to_the_healthy_path() {
        let sys = tiny_system();
        let trace = trace(90.0, 29, 2.0);
        let base = FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05));
        let healthy =
            simulate_fleet_instrumented(&sys, &trace, 90.0, &mut JoinShortestQueue, &base);
        let scheduled = simulate_fleet_instrumented(
            &sys,
            &trace,
            90.0,
            &mut JoinShortestQueue,
            &base.clone().with_faults(FaultSchedule::empty()),
        );
        assert_eq!(healthy.report, scheduled.report);
        assert_eq!(healthy.routed, scheduled.routed);
    }
}
