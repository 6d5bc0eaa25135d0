//! The epoch-grid fleet driver, for colocated and disaggregated
//! prefill/decode fleets alike.
//!
//! Groups take a [`GroupRole`]. A fleet whose groups are all
//! [`Colocated`](GroupRole::Colocated) serves every request end to end on
//! one group; [`simulate_fleet`](crate::simulate_fleet) and
//! [`simulate_fleet_instrumented`](crate::simulate_fleet_instrumented) run
//! [`simulate_fleet_disagg`] with [`DisaggConfig::colocated`]. A *split*
//! fleet has *prefill-specialized* and *decode-specialized* groups, and a
//! finished prompt's KV pages travel between them through the bounded,
//! switch-attached [`SharedKvPool`] of `cent-cxl`, at a price set by a
//! [`KvSwapCost`] carrying the extra switch-hop term
//! ([`KvSwapCost::with_switch_hops`]). The fleet-level determinism
//! contract and failure semantics are documented in `fleet.rs`.
//!
//! # Request lifecycle in a split fleet
//!
//! 1. The router dispatches every **arrival** onto a *prefill* group
//!    (load-snapshot routing over the prefill subset, as a colocated fleet
//!    routes over every group). The prefill group runs the prompt —
//!    chunked ([`ServeOptions::with_prefill_chunk`]) so long prompts
//!    interleave — and emits the request's *first token*, so TTFT is owned
//!    end to end by the prefill tier.
//! 2. On completion the driver **publishes** the context (prompt + first
//!    token) into the shared pool over the group's egress link: capacity
//!    is reserved up front, the transfer serializes per link, and a
//!    publish that does not fit is *deferred* and retried once claims
//!    free capacity (counted in [`DisaggLog::deferred`]). One-token
//!    requests never touch the pool ([`DisaggLog::singles`]).
//! 3. When the publish transfer completes, a *decode* group **claims** the
//!    entry at the next epoch stop: the router picks the decode home from
//!    a load snapshot, but a *drained* decode group (zero outstanding
//!    work) **steals** the claim whenever the router's pick still has work
//!    queued ([`DisaggLog::steals`]) — pool entries are fabric-visible, so
//!    an idle group can take them without involving the publisher. The
//!    claiming group pays the same transfer again (pool → device) through
//!    [`GroupSim::push_handoff`], then streams the remaining tokens.
//!
//! All cross-group logic — harvest, publish, claim, steal, routing — runs
//! single-threaded at epoch stops, so the result is bit-identical across
//! worker-thread counts. On a colocated fleet none of the handoff
//! pipeline runs and no pool is built.
//!
//! # Faults and recovery in a split fleet
//!
//! A [`FaultSchedule`](crate::FaultSchedule) on `fleet.faults` injects
//! crash/degrade/straggler events into either kind of fleet, plus
//! [`PoolLinkDegrade`](FaultSpec::PoolLinkDegrade) windows that rescale
//! the switch-hop handoff cost for publishes and rescues issued inside the
//! window (the healthy cost is restored *exactly* when the window lifts; a
//! colocated fleet has no pool to degrade). Tier crashes differ by role:
//!
//! * A **prefill** crash orphans incomplete prompts; completed publishes
//!   are durable — the pool entry, its in-flight transfer and its visible
//!   instant all survive the publisher, so downstream claims proceed
//!   untouched. Orphans retry through the prefill tier under the
//!   [`RetryPolicy`](crate::RetryPolicy).
//! * A **decode** crash orphans claimed contexts. With a *durable pool*
//!   (the default), every claim leaves a capacity-free *parked copy*
//!   behind ([`SharedKvPool::park`]); an orphan whose copy survives is
//!   **rescued** — redispatched onto an alive decode group at switch-hop
//!   cost instead of re-prefilling ([`FaultLog::pool_rescued`]). A copy
//!   that was evicted (or a [`DisaggConfig::with_volatile_pool`] fleet)
//!   falls back to a bounded re-prefill through the prefill tier
//!   ([`FaultLog::pool_lost`]).
//!
//! [`RecoveryMode`](crate::RecoveryMode) keeps a standby reserve per tier
//! and promotes role-matched spares, and the saturation
//! [`AdmissionPolicy`](crate::AdmissionPolicy) is fed by both tiers' loads
//! *and* pool occupancy. The extended conservation invariant
//! `completed + rejected + dropped + shed = offered` holds. A zero-fault
//! schedule with an inactive admission policy reproduces the healthy
//! split driver bit for bit (the pool never parks copies on that path).

use std::collections::{BTreeMap, BTreeSet};

use cent_cost::KvSwapCost;
use cent_cxl::SharedKvPool;
use cent_serving::{GroupSim, PriorityClass, RequestRecord, RequestSpec, ServingSystem};
use cent_types::Time;

use crate::admission::fleet_saturation;
use crate::fault::{FaultSpec, RecoveryMode};
use crate::fleet::{
    advance_groups, compile_faults, epoch_ceil, finish_groups, CompiledKind, FaultLog,
    FleetOptions, FleetOutcome,
};
use crate::report::FleetReport;
use crate::router::{GroupLoad, RoutingPolicy};

/// What one replica group does in a (possibly) disaggregated fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupRole {
    /// Full-service: prefill and decode on the same group.
    Colocated,
    /// Prompt processing only: receives arrivals, emits the first token,
    /// publishes the KV context into the shared pool.
    Prefill,
    /// Token streaming only: claims published contexts from the pool and
    /// generates the remaining tokens.
    Decode,
}

/// Configuration of the disaggregation layer: per-group roles, the shared
/// pool bound, and the cost of moving a KV context through the switch.
#[derive(Debug, Clone)]
pub struct DisaggConfig {
    /// Role of each group, in group order (length must equal
    /// `FleetOptions::groups`). Either all `Colocated` or a mix of
    /// `Prefill`/`Decode` with at least one of each.
    pub roles: Vec<GroupRole>,
    /// Capacity bound of the shared switch-attached pool, in KV tokens.
    pub pool_tokens: u64,
    /// Cost model of one context transfer (prefill group → pool, and pool
    /// → decode group — each direction pays it once). Build it with
    /// [`KvSwapCost::with_switch_hops`] to include the extra switch
    /// traversals a pool-resident page takes versus a direct host link.
    pub handoff_cost: KvSwapCost,
    /// Prefill chunk size applied to prefill-role groups (`None` = serial
    /// whole-prompt prefill). See `ServeOptions::with_prefill_chunk`.
    pub prefill_chunk: Option<u64>,
    /// Whether claims leave a capacity-free parked copy in the pool that a
    /// decode-tier crash can rescue (see the module docs). Only read on
    /// the faulted path; the default is `true`.
    pub durable_pool: bool,
}

impl DisaggConfig {
    /// The colocated configuration: `groups` full-service groups, no pool.
    /// [`simulate_fleet_instrumented`](crate::simulate_fleet_instrumented)
    /// is [`simulate_fleet_disagg`] with this config.
    pub fn colocated(groups: usize) -> Self {
        assert!(groups > 0, "a fleet needs at least one group");
        DisaggConfig {
            roles: vec![GroupRole::Colocated; groups],
            pool_tokens: 0,
            handoff_cost: KvSwapCost::cent(cent_types::ByteSize::bytes(1)),
            prefill_chunk: None,
            durable_pool: true,
        }
    }

    /// A split fleet: the first `prefill` groups are prefill-specialized,
    /// the next `decode` groups decode-specialized, handing off through a
    /// `pool_tokens`-bounded shared pool at `handoff_cost` per direction.
    ///
    /// # Panics
    ///
    /// Panics if either tier is empty or the pool has no capacity.
    pub fn split(
        prefill: usize,
        decode: usize,
        pool_tokens: u64,
        handoff_cost: KvSwapCost,
    ) -> Self {
        assert!(prefill > 0, "a split fleet needs a prefill tier");
        assert!(decode > 0, "a split fleet needs a decode tier");
        assert!(pool_tokens > 0, "a split fleet needs pool capacity");
        let mut roles = vec![GroupRole::Prefill; prefill];
        roles.resize(prefill + decode, GroupRole::Decode);
        DisaggConfig { roles, pool_tokens, handoff_cost, prefill_chunk: None, durable_pool: true }
    }

    /// Sets the prefill chunk size for prefill-role groups.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn with_prefill_chunk(mut self, chunk: u64) -> Self {
        assert!(chunk > 0, "prefill chunk must be positive");
        self.prefill_chunk = Some(chunk);
        self
    }

    /// Disables parked copies: a decode-tier crash always loses the pool
    /// copy and falls back to re-prefill (the ablation baseline for the
    /// durability study).
    pub fn with_volatile_pool(mut self) -> Self {
        self.durable_pool = false;
        self
    }

    /// True when every group is [`Colocated`](GroupRole::Colocated).
    pub fn is_colocated(&self) -> bool {
        self.roles.iter().all(|r| *r == GroupRole::Colocated)
    }
}

/// What the disaggregation machinery did during one run — the raw
/// material for the report's `disagg` section, exposed for property
/// tests. All counters are zero for a colocated configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DisaggLog {
    /// Contexts handed prefill → pool → decode (claims completed).
    pub handoffs: u64,
    /// Requests that finished entirely on their prefill group because
    /// they decode a single token — nothing left to hand off.
    pub singles: u64,
    /// Claims diverted from the router's pick to a drained decode group.
    pub steals: u64,
    /// Publish attempts refused for pool capacity and deferred to a later
    /// epoch stop (one per refused attempt).
    pub deferred: u64,
    /// Pool capacity bound, KV tokens.
    pub pool_capacity_tokens: u64,
    /// Largest pool reservation level observed, KV tokens.
    pub pool_peak_tokens: u64,
    /// Accumulated pool occupancy in token-seconds (entries charged over
    /// `[visible, claim)`).
    pub pool_occupancy_token_s: f64,
}

/// The prefill → pool → decode handoff state of a split fleet. A
/// colocated fleet has none: nothing is harvested, published, claimed or
/// rescued, and no pool is built.
struct Handoff {
    pool: SharedKvPool,
    /// Egress link of each prefill group: its rank within the prefill tier.
    link_of: BTreeMap<usize, usize>,
    /// Claims leave parked copies behind for crash rescue. Only on the
    /// faulted durable path — the healthy driver never parks, keeping the
    /// zero-fault run bit-identical.
    park_copies: bool,
    /// Original specs awaiting their decode phase, by raw id.
    pending_decode: BTreeMap<u64, RequestSpec>,
    /// Publishes refused for capacity, retried in `(finished, id)` order.
    backlog: BTreeMap<(Time, u64), usize>,
    /// Published entries awaiting a claim, in `(visible, id)` order; the
    /// value is the pool → device transfer the claiming group will pay.
    ready_claims: BTreeMap<(Time, u64), Time>,
    /// Orphans of a decode crash whose parked pool copy survived, keyed
    /// `(crash instant, id)`: value is the decode-phase spec and the
    /// parked token count, redispatched at switch-hop cost at the next
    /// stop with a live decode group.
    rescue_queue: BTreeMap<(Time, u64), (RequestSpec, u64)>,
    /// Completion records already harvested, per group.
    cursors: Vec<usize>,
    /// Decode-tier load snapshot of the claim phase.
    decode_loads: Vec<GroupLoad>,
    log: DisaggLog,
}

impl Handoff {
    /// Publishes the context of pending request `id`, finished on prefill
    /// `group` at `ready`, at transfer `cost`. False when the pool refused
    /// it for capacity.
    fn publish(&mut self, id: u64, group: usize, ready: Time, cost: &KvSwapCost) -> bool {
        let spec = self.pending_decode.get(&id).expect("publishing context is pending");
        let tokens = (spec.prompt + 1) as u64;
        assert!(
            tokens <= self.pool.capacity_tokens(),
            "context of {tokens} tokens can never fit a {}-token pool",
            self.pool.capacity_tokens()
        );
        let transfer = cost.transfer_time(tokens);
        match self.pool.try_publish(id, tokens, ready, self.link_of[&group], transfer) {
            Some(visible) => {
                self.ready_claims.insert((visible, id), transfer);
                true
            }
            None => false,
        }
    }

    /// Routes decode-phase `spec` over the claim-phase decode snapshot and
    /// hands it to the chosen group at `t`, its context claimable from
    /// `ready` at a `transfer` cost. Steal-from-pool: a drained decode
    /// group takes the handoff whenever the router's pick still has work
    /// queued. The snapshot is bumped optimistically for the next dispatch.
    fn dispatch(
        &mut self,
        router: &mut dyn RoutingPolicy,
        sims: &mut [GroupSim],
        spec: RequestSpec,
        t: Time,
        ready: Time,
        transfer: Time,
    ) {
        let mut pos = router.route(&spec, &self.decode_loads);
        assert!(
            pos < self.decode_loads.len(),
            "router chose position {pos} of {}",
            self.decode_loads.len()
        );
        if self.decode_loads[pos].outstanding > 0 {
            if let Some(idle) = self.decode_loads.iter().position(|l| l.outstanding == 0) {
                pos = idle;
                self.log.steals += 1;
            }
        }
        let load = &mut self.decode_loads[pos];
        sims[load.group].push_handoff(spec, t, ready, transfer);
        load.outstanding += 1;
        load.kv_tokens += spec.kv_tokens();
        self.log.handoffs += 1;
    }
}

/// Simulates `trace` over a fleet whose groups play `disagg.roles` (see
/// the module docs) — the one epoch-grid fleet driver. With an
/// all-colocated config this is
/// [`simulate_fleet_instrumented`](crate::simulate_fleet_instrumented);
/// with a prefill/decode split, prompts are routed to the prefill tier,
/// contexts hand off through the shared pool, and the report grows
/// handoff/pool/steal rows ([`FleetReport::disagg`]). A non-empty
/// `fleet.faults` schedule (or an active admission policy) additionally
/// produces the degraded-mode section with retry, drop and shed (and, on
/// a split fleet, pool-rescue) accounting.
///
/// # Panics
///
/// Panics if `disagg.roles` does not cover `fleet.groups` exactly, mixes
/// `Colocated` with specialized roles, lacks a prefill or decode group in
/// split mode, if a standby reserve does not leave every tier a serving
/// group, if the fault schedule names a group outside the fleet, or if a
/// single context exceeds the pool bound (it could never publish).
pub fn simulate_fleet_disagg(
    system: &ServingSystem,
    trace: &[RequestSpec],
    offered_qps: f64,
    router: &mut dyn RoutingPolicy,
    fleet: &FleetOptions,
    disagg: &DisaggConfig,
) -> FleetOutcome {
    assert_eq!(disagg.roles.len(), fleet.groups, "roles must cover every group of the fleet");
    let split = !disagg.is_colocated();
    // The entry tier takes arrivals and redispatches: the prefill tier of
    // a split fleet, every group of a colocated one.
    let entry_ids: Vec<usize> =
        (0..fleet.groups).filter(|&g| disagg.roles[g] != GroupRole::Decode).collect();
    let decode_ids: Vec<usize> =
        (0..fleet.groups).filter(|&g| disagg.roles[g] == GroupRole::Decode).collect();
    if split {
        assert!(
            disagg.roles.iter().all(|r| *r != GroupRole::Colocated),
            "a split fleet cannot mix colocated groups with specialized ones"
        );
        assert!(!entry_ids.is_empty(), "a split fleet needs a prefill tier");
        assert!(!decode_ids.is_empty(), "a split fleet needs a decode tier");
    }
    if let Some(g) = fleet.faults.max_group() {
        assert!(
            g < fleet.groups,
            "fault schedule names group {g} of a {}-group fleet",
            fleet.groups
        );
    }
    assert!(fleet.retry.max_attempts > 0, "a request needs at least one attempt");
    fleet.recovery.validate();
    let epoch_ps = fleet.epoch.as_ps().max(1);

    // Stragglers are a property of the group, not an event: build the
    // affected groups from a uniformly slowed system (worst slowdown wins
    // if a group is named twice).
    let mut slowdowns = vec![1.0f64; fleet.groups];
    for spec in fleet.faults.specs() {
        if let FaultSpec::Straggler { group, slowdown } = *spec {
            slowdowns[group] = slowdowns[group].max(slowdown);
        }
    }
    let mut sims: Vec<GroupSim> = disagg
        .roles
        .iter()
        .zip(slowdowns.iter())
        .map(|(role, &s)| {
            let serve = match (role, disagg.prefill_chunk) {
                (GroupRole::Prefill, Some(chunk)) => fleet.serve.clone().with_prefill_chunk(chunk),
                _ => fleet.serve.clone(),
            };
            if s > 1.0 {
                GroupSim::new(&system.slowed(s), serve)
            } else {
                GroupSim::new(system, serve)
            }
        })
        .collect();

    let events = compile_faults(&fleet.faults, epoch_ps);
    let faulty = !fleet.faults.is_empty();
    let shedding = fleet.admission.is_active();
    // Tracking (attempt counts, horizon, the degraded report section)
    // engages for a fault schedule OR an active admission policy — either
    // breaks the everything-completes invariant of the healthy path.
    let track = faulty || shedding;
    let mut handoff = split.then(|| Handoff {
        pool: SharedKvPool::new(disagg.pool_tokens, entry_ids.len()),
        link_of: entry_ids.iter().enumerate().map(|(link, &g)| (g, link)).collect(),
        park_copies: faulty && disagg.durable_pool,
        pending_decode: BTreeMap::new(),
        backlog: BTreeMap::new(),
        ready_claims: BTreeMap::new(),
        rescue_queue: BTreeMap::new(),
        cursors: vec![0; fleet.groups],
        decode_loads: Vec::with_capacity(decode_ids.len()),
        log: DisaggLog { pool_capacity_tokens: disagg.pool_tokens, ..DisaggLog::default() },
    });
    let mut next_event = 0usize;
    let mut alive = vec![true; fleet.groups];
    let mut down_since: Vec<Option<Time>> = vec![None; fleet.groups];
    let mut active_degrades: Vec<f64> = Vec::new();
    let mut effective_factor = 1.0f64;
    // Pool-link windows rescale the switch-hop handoff cost; the healthy
    // cost is restored exactly (no float round trip) when none is active.
    let mut pool_degrades: Vec<f64> = Vec::new();
    let mut cur_handoff: KvSwapCost = disagg.handoff_cost;
    let mut flog = FaultLog::default();
    let mut retries_by_class: BTreeMap<PriorityClass, u64> = BTreeMap::new();
    // Entry-tier dispatch counts per raw id (arrivals + redispatches),
    // kept on the faulty path only.
    let mut attempts: BTreeMap<u64, u32> = BTreeMap::new();
    // Redispatch queue holding TRACE specs, in `(ready, arrival, id)`
    // order: crash orphans waiting out their backoff, and arrivals that
    // found the entry tier down.
    let mut pending: BTreeMap<(Time, Time, u64), RequestSpec> = BTreeMap::new();
    // Warm retention: per crashed group, the orphans that kept their KV
    // and re-seed (skipping re-prefill) when the group rejoins.
    let mut retained: BTreeMap<usize, Vec<RequestSpec>> = BTreeMap::new();
    // Backfills `routed` for out-of-order dispatches and maps orphans back
    // to their trace specs.
    let id_to_index: BTreeMap<u64, usize> = if faulty {
        trace.iter().enumerate().map(|(i, s)| (s.id.0, i)).collect()
    } else {
        BTreeMap::new()
    };
    // Standby reserves are per tier: the last `spares` groups of each tier
    // idle outside the serving set, and promotion is role-matched (lowest
    // spare index first); recovered groups refill the reserve. Under
    // Cold/Warm every group serves from the start.
    let mut in_service = vec![true; fleet.groups];
    let mut spare_pool: BTreeSet<usize> = BTreeSet::new();
    if let RecoveryMode::Standby { spares } = fleet.recovery {
        for tier in [&entry_ids, &decode_ids].into_iter().filter(|t| !t.is_empty()) {
            assert!(
                spares < tier.len(),
                "a standby reserve of {spares} spares needs more than {spares} groups in each tier"
            );
            for &g in tier.iter().rev().take(spares) {
                in_service[g] = false;
                spare_pool.insert(g);
            }
        }
    }
    let slots_per_group = system.total_slots() as u64;
    let kv_budget_per_group = system.kv_budget_tokens() * system.replicas() as u64;

    let mut routed = vec![usize::MAX; trace.len()];
    // Entry-tier load snapshot, followed (for the admission check only) by
    // the decode tier's.
    let mut loads: Vec<GroupLoad> = Vec::with_capacity(fleet.groups);
    let mut cursor = 0usize;
    let mut now = Time::ZERO;
    loop {
        debug_assert!(
            cursor == 0
                || cursor >= trace.len()
                || trace[cursor - 1].arrival <= trace[cursor].arrival,
            "trace must be sorted by arrival"
        );
        // Candidate stops, all on the epoch grid: the epoch of the next
        // arrival, the next fault event, and the next redispatch-ready
        // instant (only while an entry group serves — while the whole tier
        // is down, only a recovery can unblock it). A split fleet adds the
        // first claimable pool entry or pending rescue (gated on the
        // decode tier likewise) and — while the prefill tier still owes
        // completions or the backlog holds deferred publishes — the next
        // grid instant, so harvest keeps polling. A decode tier that is
        // down with no fault event left can never drain the pipeline: the
        // driver stops polling (`stalled`) and the leftovers are accounted
        // as drops.
        let decode_up = decode_ids.iter().any(|&g| alive[g] && in_service[g]);
        let entry_up = entry_ids.iter().any(|&g| alive[g] && in_service[g]);
        let arrival_stop =
            trace.get(cursor).map(|s| Time::from_ps((s.arrival.as_ps() / epoch_ps) * epoch_ps));
        let fault_stop = events.get(next_event).map(|e| e.at);
        let retry_stop = if entry_up {
            pending.keys().next().map(|&(ready, _, _)| epoch_ceil(ready, epoch_ps))
        } else {
            None
        };
        let (claim_stop, busy_stop) = match &handoff {
            None => (None, None),
            Some(h) => {
                let claim_stop = if decode_up {
                    let claim =
                        h.ready_claims.keys().next().map(|&(vis, _)| epoch_ceil(vis, epoch_ps));
                    let rescue =
                        h.rescue_queue.keys().next().map(|&(at, _)| epoch_ceil(at, epoch_ps));
                    [claim, rescue].into_iter().flatten().min()
                } else {
                    None
                };
                let stalled = !decode_up && next_event >= events.len();
                let busy = !stalled
                    && (!h.backlog.is_empty()
                        || entry_ids.iter().any(|&g| sims[g].outstanding() > 0));
                let busy_stop = busy.then(|| {
                    Time::from_ps(
                        (now.as_ps() / epoch_ps + 1)
                            .checked_mul(epoch_ps)
                            .expect("epoch grid instant overflows Time"),
                    )
                });
                (claim_stop, busy_stop)
            }
        };
        let Some(stop) = [arrival_stop, fault_stop, claim_stop, retry_stop, busy_stop]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        // A publish can land with `visible` already in the past (the
        // prompt finished early in the epoch and the transfer is short),
        // which would put `claim_stop` behind the fleet. The driver never
        // rewinds: such claims are taken at the current stop instead.
        let t = stop.max(now);
        now = t;
        advance_groups(&mut sims, t, fleet.threads);

        // Fault phase: apply every event due at this stop, in compiled
        // order, from this single thread (before any cross-group logic, so
        // claims, publishes and routing at this stop see the new state).
        while next_event < events.len() && events[next_event].at == t {
            let e = events[next_event];
            next_event += 1;
            match e.kind {
                CompiledKind::Crash { recovers } => {
                    if !alive[e.group] {
                        // Grid alignment folded this crash into an outage
                        // already in progress.
                        continue;
                    }
                    alive[e.group] = false;
                    down_since[e.group] = Some(t);
                    flog.crashes += 1;
                    let was_serving = in_service[e.group];
                    spare_pool.remove(&e.group);
                    let role = disagg.roles[e.group];
                    let orphans = sims[e.group].crash(t);
                    // Warm recovery deterministically retains the first
                    // `retained_fraction` of the (arrival, id)-sorted
                    // orphans on the crashed group: their KV survives and
                    // re-seeds at recovery instead of re-prefilling. A
                    // crash that never recovers retains nothing.
                    let keep = match fleet.recovery {
                        RecoveryMode::Warm { retained_fraction } if recovers => {
                            (retained_fraction * orphans.len() as f64).floor() as usize
                        }
                        _ => 0,
                    };
                    for (i, spec) in orphans.into_iter().enumerate() {
                        flog.orphaned.push((spec.id, t));
                        if i < keep {
                            // A decode orphan's parked copy stays parked
                            // until completion.
                            retained.entry(e.group).or_default().push(spec);
                            continue;
                        }
                        let id = spec.id.0;
                        if role == GroupRole::Decode {
                            let h = handoff.as_mut().expect("a decode group implies a split fleet");
                            if h.park_copies {
                                if let Some(tokens) = h.pool.rescue(id) {
                                    h.rescue_queue.insert((t, id), (spec, tokens));
                                    flog.pool_rescued.push((spec.id, t));
                                    continue;
                                }
                            }
                            // Copy evicted or pool volatile: the context
                            // only survives as its prompt — re-prefill.
                            flog.pool_lost += 1;
                        }
                        // The whole pipeline reruns from the trace spec (a
                        // prefill group holds a truncated one, a colocated
                        // group the trace spec itself); the decode phase is
                        // re-registered when the redispatch lands.
                        if let Some(h) = handoff.as_mut() {
                            h.pending_decode.remove(&id);
                        }
                        let orig = trace[*id_to_index.get(&id).expect("orphan is in the trace")];
                        let n = *attempts.get(&id).expect("orphan was dispatched");
                        if n >= fleet.retry.max_attempts {
                            flog.dropped.push((spec.id, spec.class));
                        } else {
                            let ready = t + fleet.retry.backoff.times(u64::from(n));
                            pending.insert((ready, orig.arrival, id), orig);
                        }
                    }
                    // Standby: backfill the serving set from the tier's
                    // reserve.
                    if was_serving {
                        if let Some(&spare) = spare_pool.iter().find(|&&s| disagg.roles[s] == role)
                        {
                            spare_pool.remove(&spare);
                            in_service[spare] = true;
                            flog.promotions += 1;
                        }
                    }
                }
                CompiledKind::Recover => {
                    if alive[e.group] {
                        continue;
                    }
                    alive[e.group] = true;
                    flog.recoveries += 1;
                    let start = down_since[e.group].take().expect("recovering group was down");
                    flog.down_windows.push((e.group, start, Some(t)));
                    match fleet.recovery {
                        RecoveryMode::Standby { .. } => {
                            // Rejoin the spare reserve, not the serving
                            // set (neither warm nor cold counted) — unless
                            // the tier has no serving group, in which case
                            // its lowest spare is promoted immediately.
                            in_service[e.group] = false;
                            spare_pool.insert(e.group);
                            let role = disagg.roles[e.group];
                            let serving = (0..fleet.groups)
                                .any(|g| disagg.roles[g] == role && alive[g] && in_service[g]);
                            if !serving {
                                let &spare = spare_pool
                                    .iter()
                                    .find(|&&s| disagg.roles[s] == role)
                                    .expect("just inserted a spare of this role");
                                spare_pool.remove(&spare);
                                in_service[spare] = true;
                                flog.promotions += 1;
                            }
                        }
                        RecoveryMode::Warm { .. } => match retained.remove(&e.group) {
                            Some(kept) if !kept.is_empty() => {
                                flog.warm_rejoins += 1;
                                for spec in kept {
                                    sims[e.group].push_warm(spec, t);
                                }
                            }
                            _ => flog.cold_rejoins += 1,
                        },
                        RecoveryMode::Cold => flog.cold_rejoins += 1,
                    }
                }
                CompiledKind::DegradeStart { factor } => {
                    active_degrades.push(factor);
                    let eff = active_degrades.iter().copied().fold(1.0, f64::min);
                    if eff != effective_factor {
                        effective_factor = eff;
                        for sim in sims.iter_mut() {
                            sim.set_host_link_factor(eff);
                        }
                    }
                }
                CompiledKind::DegradeEnd { factor } => {
                    let pos = active_degrades
                        .iter()
                        .position(|&f| f == factor)
                        .expect("degrade window was active");
                    active_degrades.swap_remove(pos);
                    let eff = active_degrades.iter().copied().fold(1.0, f64::min);
                    if eff != effective_factor {
                        effective_factor = eff;
                        for sim in sims.iter_mut() {
                            sim.set_host_link_factor(eff);
                        }
                    }
                }
                CompiledKind::PoolDegradeStart { factor } => {
                    pool_degrades.push(factor);
                    let eff = pool_degrades.iter().copied().fold(1.0, f64::min);
                    cur_handoff = if eff == 1.0 {
                        disagg.handoff_cost
                    } else {
                        disagg.handoff_cost.with_bandwidth_factor(eff)
                    };
                }
                CompiledKind::PoolDegradeEnd { factor } => {
                    let pos = pool_degrades
                        .iter()
                        .position(|&f| f == factor)
                        .expect("pool degrade window was active");
                    pool_degrades.swap_remove(pos);
                    let eff = pool_degrades.iter().copied().fold(1.0, f64::min);
                    cur_handoff = if eff == 1.0 {
                        disagg.handoff_cost
                    } else {
                        disagg.handoff_cost.with_bandwidth_factor(eff)
                    };
                }
            }
        }

        if let Some(h) = handoff.as_mut() {
            // Harvest phase: newly completed prefill phases, merged across
            // the tier in `(finished, group, id)` order. A single-token
            // request is finished outright; everything else queues for
            // publish. Crash-surviving records stay in a group's tail, so
            // cursors keep working across outages.
            let mut finished: Vec<(Time, usize, u64)> = Vec::new();
            for &g in &entry_ids {
                let new = sims[g].completions_since(h.cursors[g]);
                h.cursors[g] += new.len();
                finished.extend(new.iter().map(|r| (r.finished, g, r.spec.id.0)));
            }
            finished.sort_unstable();
            // Decode-tier completions retire their parked pool copies.
            if h.park_copies {
                for &g in &decode_ids {
                    let new = sims[g].completions_since(h.cursors[g]);
                    h.cursors[g] += new.len();
                    for r in new {
                        h.pool.discard_parked(r.spec.id.0);
                    }
                }
            }

            // Claim phase first: claims free pool capacity, so this stop's
            // deferred publishes can retry into the space. The decode load
            // snapshot is taken once over the serving subset (after this
            // stop's fault events), then bumped optimistically per claim;
            // pool rescues dispatch after the regular claims, in
            // `(crash instant, id)` order.
            if decode_ids.iter().any(|&g| alive[g] && in_service[g]) {
                h.decode_loads.clear();
                for &g in &decode_ids {
                    if alive[g] && in_service[g] {
                        h.decode_loads.push(GroupLoad {
                            group: g,
                            outstanding: sims[g].outstanding(),
                            kv_tokens: sims[g].kv_reserved(),
                        });
                    }
                }
                while let Some((&(visible, id), &transfer)) = h.ready_claims.iter().next() {
                    if epoch_ceil(visible, epoch_ps) > t {
                        break;
                    }
                    h.ready_claims.remove(&(visible, id));
                    h.pool.claim(id, t);
                    let spec = h.pending_decode.remove(&id).expect("claimed context was pending");
                    if h.park_copies {
                        // The claim freed the capacity; a capacity-free
                        // copy stays behind for crash rescue.
                        h.pool.park(id, (spec.prompt + 1) as u64, t);
                    }
                    // The decode phase resumes from the published context:
                    // prompt + the first token, remaining tokens to stream.
                    let decode_spec =
                        RequestSpec { prompt: spec.prompt + 1, decode: spec.decode - 1, ..spec };
                    h.dispatch(router, &mut sims, decode_spec, t, visible, transfer);
                }
                while let Some((&(crashed, id), &(decode_spec, tokens))) =
                    h.rescue_queue.iter().next()
                {
                    h.rescue_queue.remove(&(crashed, id));
                    // The copy streams out of the pool at the current
                    // (possibly degraded) switch-hop cost; it is re-parked
                    // so a repeated crash can rescue it again.
                    let transfer = cur_handoff.transfer_time(tokens);
                    h.pool.park(id, tokens, t);
                    h.dispatch(router, &mut sims, decode_spec, t, t, transfer);
                }
            }

            // Publish phase: deferred publishes retry first (oldest
            // first), then this stop's fresh completions, all in
            // deterministic order. Publishes inside a pool-degrade window
            // pay the degraded cost.
            let retries: Vec<((Time, u64), usize)> =
                h.backlog.iter().map(|(&k, &g)| (k, g)).collect();
            for ((first_finished, id), group) in retries {
                if h.publish(id, group, t, &cur_handoff) {
                    h.backlog.remove(&(first_finished, id));
                }
            }
            for (finish_t, group, id) in finished {
                let spec = h.pending_decode.get(&id).expect("completed prompt was pending");
                if spec.decode <= 1 {
                    h.log.singles += 1;
                    h.pending_decode.remove(&id);
                    continue;
                }
                if !h.publish(id, group, finish_t, &cur_handoff) {
                    h.log.deferred += 1;
                    h.backlog.insert((finish_t, id), group);
                }
            }
        }

        // Entry-tier load snapshot over the serving subset, in group order
        // (standby spares idle outside the serving set), shared by the
        // redispatch and arrival phases (bumped continuously).
        loads.clear();
        for &g in &entry_ids {
            if alive[g] && in_service[g] {
                loads.push(GroupLoad {
                    group: g,
                    outstanding: sims[g].outstanding(),
                    kv_tokens: sims[g].kv_reserved(),
                });
            }
        }
        let entry_len = loads.len();

        // Redispatch phase: pending requests whose ready instant has
        // aligned to this stop (or earlier), in `(ready, arrival, id)`
        // order, routed over the serving entry subset with their trace
        // specs — on a split fleet the whole pipeline reruns from the
        // prompt.
        if entry_len > 0 {
            while let Some((&key, _)) = pending.iter().next() {
                if epoch_ceil(key.0, epoch_ps) > t {
                    break;
                }
                let spec = pending.remove(&key).expect("peeked entry exists");
                let hand_off = split && spec.kv_tokens() <= sims[entry_ids[0]].kv_budget_tokens();
                let entry_spec = if hand_off { RequestSpec { decode: 1, ..spec } } else { spec };
                let pos = router.route(&entry_spec, &loads);
                assert!(pos < loads.len(), "router chose position {pos} of {}", loads.len());
                let g = loads[pos].group;
                sims[g].push_redispatch(entry_spec, t);
                loads[pos].outstanding += 1;
                loads[pos].kv_tokens += entry_spec.kv_tokens();
                let n = attempts.entry(spec.id.0).or_insert(0);
                if *n > 0 {
                    flog.retries += 1;
                    *retries_by_class.entry(spec.class).or_insert(0) += 1;
                }
                *n += 1;
                if let Some(h) = handoff.as_mut().filter(|_| hand_off) {
                    h.pending_decode.insert(spec.id.0, spec);
                }
                let idx = *id_to_index.get(&spec.id.0).expect("pending spec is in the trace");
                if routed[idx] == usize::MAX {
                    routed[idx] = g;
                }
            }
        }

        // Arrival phase: the epoch's arrivals route over the entry tier's
        // boundary snapshot, bumped optimistically so intra-epoch bursts
        // still spread. On a split fleet the prefill phase runs the prompt
        // and emits the first token (`decode: 1`), so TTFT lands on the
        // prefill group. Admission sheds first — against every serving
        // group's load plus pool occupancy — then a down entry tier defers
        // what remains until the next recovery. The decode tier and the
        // pool do not change during this phase, so their snapshot is taken
        // once, appended behind the entry loads.
        let mut pool_load = None;
        if shedding {
            if let Some(h) = &handoff {
                for &g in &decode_ids {
                    if alive[g] && in_service[g] {
                        loads.push(GroupLoad {
                            group: g,
                            outstanding: sims[g].outstanding(),
                            kv_tokens: sims[g].kv_reserved(),
                        });
                    }
                }
                pool_load = Some((h.pool.used_tokens(), h.pool.capacity_tokens()));
            }
        }
        let epoch_end =
            Time::from_ps(t.as_ps().checked_add(epoch_ps).expect("epoch end overflows Time"));
        while cursor < trace.len() && trace[cursor].arrival < epoch_end {
            let spec = trace[cursor];
            let idx = cursor;
            cursor += 1;
            assert!(!split || spec.decode >= 1, "a request generates at least its first token");
            if shedding {
                let sat = fleet_saturation(&loads, slots_per_group, kv_budget_per_group, pool_load);
                if !fleet.admission.admits(spec.class, sat) {
                    flog.shed.push((spec.id, spec.class));
                    continue;
                }
            }
            if entry_len == 0 {
                pending.insert((spec.arrival, spec.arrival, spec.id.0), spec);
                continue;
            }
            // A footprint no replica budget can hold is rejected with its
            // *full* spec on the prefill group (as a colocated fleet
            // would), so its truncated prompt phase never runs.
            let hand_off = split && spec.kv_tokens() <= sims[entry_ids[0]].kv_budget_tokens();
            let entry_spec = if hand_off { RequestSpec { decode: 1, ..spec } } else { spec };
            let pos = router.route(&entry_spec, &loads[..entry_len]);
            assert!(pos < entry_len, "router chose position {pos} of {entry_len}");
            let g = loads[pos].group;
            sims[g].push_arrival(entry_spec);
            loads[pos].outstanding += 1;
            loads[pos].kv_tokens += entry_spec.kv_tokens();
            routed[idx] = g;
            if faulty {
                *attempts.entry(spec.id.0).or_insert(0) += 1;
            }
            if let Some(h) = handoff.as_mut().filter(|_| hand_off) {
                h.pending_decode.insert(spec.id.0, spec);
            }
        }
    }

    // Work stranded behind a tier that never came back is dropped:
    // undispatchable redispatches, and on a split fleet rescues with no
    // decode group left and prompts whose context was never claimed (a
    // true single still completes entirely on its prefill group, so it is
    // not one).
    for (_, spec) in pending {
        flog.dropped.push((spec.id, spec.class));
    }
    let log = match handoff {
        None => DisaggLog::default(),
        Some(mut h) => {
            debug_assert!(
                faulty || h.ready_claims.is_empty(),
                "every published context was claimed"
            );
            h.log.pool_peak_tokens = h.pool.peak_tokens();
            h.log.pool_occupancy_token_s = h.pool.occupancy_token_seconds();
            if faulty {
                for (_, (spec, _)) in h.rescue_queue {
                    flog.dropped.push((spec.id, spec.class));
                }
                for spec in h.pending_decode.values().filter(|s| s.decode > 1) {
                    flog.dropped.push((spec.id, spec.class));
                }
            } else {
                debug_assert!(
                    h.pending_decode.is_empty(),
                    "every admitted prompt resolved its decode phase"
                );
            }
            h.log
        }
    };
    debug_assert!(retained.is_empty(), "every warm retention rejoined");
    for (g, since) in down_since.iter().enumerate() {
        if let Some(start) = *since {
            flog.down_windows.push((g, start, None));
        }
    }
    flog.retries_by_class = retries_by_class.into_iter().collect();
    if track {
        flog.horizon = trace.last().map(|s| s.arrival).unwrap_or(Time::ZERO);
    }

    let per_group_qps = offered_qps / fleet.groups as f64;
    let outcomes = finish_groups(sims, per_group_qps, fleet.threads);
    let faults = track.then_some(&flog);
    let report = if split {
        let slo = fleet.serve.slo;
        FleetReport::from_outcomes_disagg(offered_qps, &outcomes, &disagg.roles, &log, faults, slo)
    } else if let Some(faults) = faults {
        FleetReport::from_outcomes_faulted(offered_qps, &outcomes, faults)
    } else {
        FleetReport::from_outcomes(offered_qps, &outcomes)
    };
    debug_assert!(
        report.completed + report.rejected + flog.dropped.len() + flog.shed.len() == trace.len(),
        "conservation: {} completed + {} rejected + {} dropped + {} shed != {} offered",
        report.completed,
        report.rejected,
        flog.dropped.len(),
        flog.shed.len(),
        trace.len()
    );
    FleetOutcome { report, groups: outcomes, routed, faults: flog, log }
}

/// Joins each handed-off request's prefill- and decode-phase records, by
/// id (both slices sorted by id after `finish`).
pub(crate) fn join_phases<'a>(
    prefill: &'a [&'a RequestRecord],
    decode: &'a [&'a RequestRecord],
) -> Vec<(&'a RequestRecord, &'a RequestRecord)> {
    let mut joined = Vec::with_capacity(decode.len());
    for d in decode {
        if let Ok(pos) = prefill.binary_search_by_key(&d.spec.id.0, |r| r.spec.id.0) {
            joined.push((prefill[pos], *d));
        }
    }
    joined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::JoinShortestQueue;
    use cent_model::ModelConfig;
    use cent_serving::{KvBudget, KvMode, SchedulerConfig, Workload};
    use cent_types::ByteSize;

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
            lengths: cent_serving::LengthSampler::Fixed { prompt: 100, decode: 40 },
            ..Workload::chatbot(qps, seed)
        };
        w.generate(Time::from_secs_f64(horizon_s), 4096)
    }

    fn handoff_cost() -> KvSwapCost {
        KvSwapCost::cent(ByteSize::bytes(512))
            .with_switch_hops(2, &cent_cxl::FabricConfig::cent(32))
    }

    #[test]
    fn colocated_config_is_the_base_driver_bit_for_bit() {
        let sys = tiny_system();
        let trace = trace(60.0, 11, 2.0);
        let opts = FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05));
        let base = crate::fleet::simulate_fleet_instrumented(
            &sys,
            &trace,
            60.0,
            &mut JoinShortestQueue,
            &opts,
        );
        let disagg = simulate_fleet_disagg(
            &sys,
            &trace,
            60.0,
            &mut JoinShortestQueue,
            &opts,
            &DisaggConfig::colocated(4),
        );
        assert_eq!(disagg.report, base.report);
        assert_eq!(disagg.routed, base.routed);
        assert_eq!(disagg.log, DisaggLog::default());
        assert_eq!(disagg.report.disagg, None);
    }

    #[test]
    fn split_fleet_serves_everything_through_the_pool() {
        let sys = tiny_system();
        let trace = trace(80.0, 7, 2.0);
        let opts = FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05));
        let cfg = DisaggConfig::split(2, 2, 64_000, handoff_cost()).with_prefill_chunk(32);
        let out = simulate_fleet_disagg(&sys, &trace, 80.0, &mut JoinShortestQueue, &opts, &cfg);
        assert_eq!(out.report.completed, trace.len());
        assert_eq!(out.report.submitted, trace.len());
        assert_eq!(out.log.handoffs, trace.len() as u64, "every 40-token decode hands off");
        assert_eq!(out.log.singles, 0);
        assert!(out.log.pool_peak_tokens <= cfg.pool_tokens);
        assert!(out.log.pool_peak_tokens > 0);
        // Arrivals only land on the prefill tier; decode groups only see
        // handoffs.
        assert!(out.routed.iter().all(|&g| g < 2));
        assert_eq!(out.groups[0].report.submitted + out.groups[1].report.submitted, trace.len());
        assert_eq!(
            out.groups[2].report.submitted + out.groups[3].report.submitted,
            out.log.handoffs as usize
        );
        let d = out.report.disagg.as_ref().expect("split run reports disagg");
        assert_eq!(d.handoffs, out.log.handoffs);
        assert_eq!((d.prefill_groups, d.decode_groups), (2, 2));
        assert!(d.handoff_latency.mean > Time::ZERO);
        assert!(d.pool_occupancy > 0.0);
        // Decode-token conservation across the phase split.
        assert_eq!(out.report.decode_tokens, trace.len() as u64 * 40);
        assert_eq!(out.report.prefill_tokens, trace.len() as u64 * 100);
    }

    #[test]
    fn split_fleet_is_thread_invariant() {
        let sys = tiny_system();
        let trace = trace(80.0, 19, 1.5);
        let cfg = DisaggConfig::split(2, 2, 32_000, handoff_cost()).with_prefill_chunk(64);
        let run = |threads: usize| {
            let opts =
                FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05)).with_threads(threads);
            simulate_fleet_disagg(&sys, &trace, 80.0, &mut JoinShortestQueue, &opts, &cfg)
        };
        let one = run(1);
        let four = run(4);
        assert!(one.log.handoffs > 0);
        assert_eq!(one.report, four.report);
        assert_eq!(one.routed, four.routed);
        assert_eq!(one.log, four.log);
    }

    #[test]
    fn tiny_pool_defers_publishes_but_loses_nothing() {
        let sys = tiny_system();
        let trace = trace(100.0, 3, 1.5);
        let opts = FleetOptions::new(4).with_epoch(Time::from_secs_f64(0.05));
        // Room for barely more than one context at a time.
        let cfg = DisaggConfig::split(2, 2, 150, handoff_cost());
        let out = simulate_fleet_disagg(&sys, &trace, 100.0, &mut JoinShortestQueue, &opts, &cfg);
        assert_eq!(out.report.completed, trace.len());
        assert!(out.log.deferred > 0, "a 150-token pool must backpressure");
        assert!(out.log.pool_peak_tokens <= 150);
    }

    #[test]
    fn drained_decode_groups_steal_claims() {
        let sys = tiny_system();
        // Long decodes under load-blind round-robin: claims pile onto a
        // busy pick while another decode group sits drained.
        let w = Workload {
            lengths: cent_serving::LengthSampler::Fixed { prompt: 100, decode: 400 },
            ..Workload::chatbot(30.0, 29)
        };
        let trace = w.generate(Time::from_secs_f64(2.0), 4096);
        let opts = FleetOptions::new(5).with_epoch(Time::from_secs_f64(0.05));
        let mut roles = vec![GroupRole::Prefill; 2];
        roles.extend_from_slice(&[GroupRole::Decode; 3]);
        let cfg = DisaggConfig {
            roles,
            pool_tokens: 64_000,
            handoff_cost: handoff_cost(),
            prefill_chunk: None,
            durable_pool: true,
        };
        let mut rr = crate::router::RoundRobin::default();
        let out = simulate_fleet_disagg(&sys, &trace, 30.0, &mut rr, &opts, &cfg);
        assert_eq!(out.report.completed, trace.len());
        assert!(out.log.steals > 0, "round-robin decode routing must leave a drained group");
    }
}
