//! `mc-serve`: a long-running fleet attestation daemon on a hand-rolled,
//! offline-safe, **simulated-time event loop**.
//!
//! The fleet layer up to PR 5 answers one shape of question: "sweep
//! everything, hand me the report". A cloud attestation service faces the
//! inverse shape — *"is module X clean on pool Y right now?"* — asked by
//! many tenants, under load, against a fleet that is partially sick. This
//! module promotes the sweep into a daemon that owns continuously
//! refreshed fleet state and admits [`AttestQuery`] requests through a
//! four-stage robustness pipeline:
//!
//! 1. **Catalog + quota** (the front door): queries naming a pool the
//!    fleet does not have, or a module no committed sweep has ever seen,
//!    are rejected [`Rejected::UnknownTarget`]; each tenant then pays one
//!    token from its [`QuotaPolicy`] bucket or is rejected
//!    [`Rejected::QuotaExceeded`]. Both are typed, instant rejections —
//!    never silent drops.
//! 2. **Bounded admission queue**: admitted queries join a FIFO queue in
//!    front of a single logical attestation server. When the queue holds
//!    [`ServeConfig::queue_capacity`] in-flight queries the arrival is
//!    rejected [`Rejected::QueueFull`] — explicit backpressure instead of
//!    unbounded growth. A query whose turn arrives after its deadline is
//!    shed as [`Rejected::DeadlineExpired`] at exactly `arrival +
//!    deadline`.
//! 3. **Health-based routing**: the daemon tracks a per-VM circuit
//!    breaker over committed sweep results (the same
//!    threshold/cooldown/half-open discipline as
//!    [`crate::monitor::ContinuousMonitor`]). Quarantined VMs are routed
//!    around: on-demand rescans exclude them from the scan set, and no
//!    fresh verdict ever names one — they appear only in the answer's
//!    `routed_around` list.
//! 4. **Degraded-answer fallback**: when a fresh answer cannot be
//!    produced inside the deadline (state too old, rescan too expensive,
//!    rescan failed, quorum lost) the daemon serves the last-known-good
//!    verdict stamped with its staleness and [`Confidence::Stale`]; with
//!    no last-known-good it still answers, typed
//!    [`Confidence::Unscannable`]. Every admitted query gets an answer at
//!    or before its deadline.
//!
//! # Time and determinism
//!
//! All clocks are [`SimDuration`] — nothing here reads wall time. The
//! event loop merges two planes:
//!
//! * the **refresh plane**: background [`FleetScheduler`] sweeps starting
//!   every [`ServeConfig::refresh_interval`], each completing (becoming
//!   visible to queries) one *modeled* wall later —
//!   [`crate::sched::simulated_fleet_wall`] at a fixed lane count,
//!   never the execution shard count;
//! * the **service plane**: a single logical FIFO server draining the
//!   admission queue, each query charged a flat
//!   [`ServeConfig::service_time`] lookup plus any on-demand rescan it
//!   affords within its deadline.
//!
//! Because arrivals are an input (seeded upstream, in `mc-loadgen`), the
//! queue drains in simulated time, and the refresh wall is a model
//! parameter, the resulting [`ServeReport`] is a pure function of
//! `(hypervisor state, fleet, queries, ServeConfig model knobs)`. The one
//! execution knob, [`FleetConfig::shards`], only reorders real computation
//! whose results are already proven byte-stable (DESIGN.md §11), so
//! `ServeReport::to_json` is byte-identical across shard counts — the
//! same argument, one layer up. DESIGN.md §13 spells it out.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::sync::Mutex;

use mc_hypervisor::{Hypervisor, SimDuration, VmId};

use crate::error::CheckError;
use crate::events::{EventPlane, EventPlaneStats};
use crate::listdiff::ListDiff;
use crate::lock;
use crate::monitor::{Breaker, HealthPolicy};
use crate::report::{FleetReport, PoolCheckReport, QuorumStatus};
use crate::sched::{simulated_fleet_wall, Fleet, FleetConfig, FleetScheduler};
use crate::{CaptureCache, ModChecker};

/// Per-tenant token-bucket admission quota.
///
/// A tenant's bucket refills continuously at `rate_per_sec` (of simulated
/// time) up to `burst` tokens; each admitted query spends one token. An
/// empty bucket rejects the query [`Rejected::QuotaExceeded`] without
/// consuming anything — the rejection is free for the server and typed
/// for the client.
#[derive(Clone, Copy, Debug)]
pub struct QuotaPolicy {
    /// Sustained admission rate, queries per simulated second.
    pub rate_per_sec: f64,
    /// Bucket capacity: the largest burst admitted at once.
    pub burst: f64,
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        QuotaPolicy {
            rate_per_sec: 2_000.0,
            burst: 8.0,
        }
    }
}

/// Modeled parallelism of the refresh plane: a sweep's visible completion
/// lags its start by [`crate::sched::simulated_fleet_wall`] at this lane
/// count. A model constant — never the execution shard count, which must
/// not affect the report.
const REFRESH_LANES: usize = 2;

/// Daemon configuration.
///
/// Everything except `fleet.shards` is a *model* knob and therefore part
/// of the deterministic answer: two runs differing in any model knob may
/// legitimately differ byte-for-byte. The shard count must not change a
/// single output byte — that is the serve determinism contract, enforced
/// by `tests/serve_sim.rs`.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Sweep/rescan configuration. `check` configures every scan the
    /// daemon runs; `shards` is execution-only.
    pub fleet: FleetConfig,
    /// Admission queue bound (queries in flight, including the one being
    /// served). At capacity, arrivals are rejected [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Per-tenant token-bucket quota.
    pub quota: QuotaPolicy,
    /// Flat per-query lookup cost on the service plane (state read +
    /// answer assembly).
    pub service_time: SimDuration,
    /// Background sweep cadence. A sweep that outlives the interval
    /// delays the next one — the refresh plane never overlaps itself.
    pub refresh_interval: SimDuration,
    /// Maximum state age served as [`Confidence::Fresh`] without a
    /// rescan. Older state triggers an on-demand rescan when the deadline
    /// affords one, else degrades to [`Confidence::Stale`].
    pub freshness_window: SimDuration,
    /// Circuit-breaker policy for the daemon's per-VM health tracking
    /// (threshold of consecutive all-unscannable sweeps; cooldown counted
    /// in committed sweeps).
    pub health: HealthPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            fleet: FleetConfig::default(),
            queue_capacity: 16,
            quota: QuotaPolicy::default(),
            service_time: SimDuration::from_micros(20),
            refresh_interval: SimDuration::from_millis(25),
            freshness_window: SimDuration::from_millis(30),
            health: HealthPolicy::default(),
        }
    }
}

/// One attestation request: "is `module` clean on `pool` right now?",
/// asked by `tenant` at simulated time `at`, answerable until `at +
/// deadline`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttestQuery {
    /// Arrival time on the daemon's simulated clock.
    pub at: SimDuration,
    /// Tenant identity (quota accounting key).
    pub tenant: String,
    /// Target pool name.
    pub pool: String,
    /// Target module name.
    pub module: String,
    /// Answer budget, relative to `at`.
    pub deadline: SimDuration,
}

/// Why a query was rejected. Every rejection is typed and immediate —
/// the pipeline never drops a query silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The tenant's token bucket was empty.
    QuotaExceeded,
    /// The admission queue was at capacity (backpressure).
    QueueFull,
    /// The query's turn came after its deadline; shed at exactly
    /// `arrival + deadline`.
    DeadlineExpired,
    /// No such pool, or no committed sweep of that pool has ever listed
    /// the module.
    UnknownTarget,
}

impl Rejected {
    /// Stable lowercase label (report JSON, metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            Rejected::QuotaExceeded => "quota_exceeded",
            Rejected::QueueFull => "queue_full",
            Rejected::DeadlineExpired => "deadline_expired",
            Rejected::UnknownTarget => "unknown_target",
        }
    }
}

/// How much the served verdict can be trusted to describe *now*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Confidence {
    /// Verdict from state no older than [`ServeConfig::freshness_window`],
    /// or from an on-demand rescan completed inside the deadline.
    Fresh,
    /// Last-known-good verdict, older than the freshness window; its age
    /// is stamped as `staleness`.
    Stale,
    /// No good verdict exists (the unit has never completed a
    /// quorate scan) — the answer carries no verdict at all.
    Unscannable,
}

impl Confidence {
    /// Stable lowercase label (report JSON, metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            Confidence::Fresh => "fresh",
            Confidence::Stale => "stale",
            Confidence::Unscannable => "unscannable",
        }
    }
}

/// The attestation payload: one (pool, module) unit's verdict as the
/// daemon last learned it. Quarantined VMs are filtered out at stamping
/// time — a fresh verdict never names one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitVerdict {
    /// No suspects, no static findings, quorum not lost.
    pub clean: bool,
    /// Voted-suspect VM names, scan order.
    pub suspects: Vec<String>,
    /// Statically flagged VM names, sorted.
    pub flagged: Vec<String>,
    /// Quorum status of the scan that produced this verdict.
    pub quorum: QuorumStatus,
}

fn quorum_str(q: QuorumStatus) -> &'static str {
    match q {
        QuorumStatus::Full => "full",
        QuorumStatus::Degraded => "degraded",
        QuorumStatus::Lost => "lost",
    }
}

/// Builds a [`UnitVerdict`] from a finished pool scan, routing around the
/// given quarantined VMs (they never contribute to a served verdict).
fn summarize(report: &PoolCheckReport, quarantined: &BTreeSet<String>) -> UnitVerdict {
    let suspects: Vec<String> = report
        .suspects()
        .map(|v| v.vm_name.clone())
        .filter(|n| !quarantined.contains(n))
        .collect();
    let flagged: Vec<String> = report
        .statically_flagged_vms()
        .iter()
        .filter(|n| !quarantined.contains(**n))
        .map(|n| (*n).to_string())
        .collect();
    UnitVerdict {
        clean: suspects.is_empty() && flagged.is_empty() && report.quorum != QuorumStatus::Lost,
        suspects,
        flagged,
        quorum: report.quorum,
    }
}

/// How one query left the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Served an answer (possibly degraded) at or before the deadline.
    Answered {
        /// Trust tier of the verdict.
        confidence: Confidence,
        /// The verdict; `None` only for [`Confidence::Unscannable`].
        verdict: Option<UnitVerdict>,
        /// Age of the served state at service start (zero for a
        /// same-query rescan).
        staleness: SimDuration,
        /// True when this query ran its own on-demand rescan.
        rescanned: bool,
        /// Quarantined pool VMs the answer was routed around.
        routed_around: Vec<String>,
    },
    /// Typed rejection.
    Rejected(Rejected),
}

/// One query's full account: identity, timing, and disposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServedQuery {
    /// Index into the input query slice.
    pub seq: usize,
    /// Arrival time.
    pub at: SimDuration,
    /// Tenant identity.
    pub tenant: String,
    /// Target pool.
    pub pool: String,
    /// Target module.
    pub module: String,
    /// Answer budget, relative to `at`.
    pub deadline: SimDuration,
    /// Time from arrival to answer/rejection. Always `<= deadline`;
    /// zero for front-door rejections.
    pub latency: SimDuration,
    /// Outcome.
    pub disposition: Disposition,
}

impl ServedQuery {
    /// True when the query was answered (any confidence tier).
    pub fn answered(&self) -> bool {
        matches!(self.disposition, Disposition::Answered { .. })
    }
}

/// Per-tenant admission accounting (derived, stable order).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Queries this tenant sent.
    pub queries: usize,
    /// Queries answered (any confidence tier).
    pub answered: usize,
    /// Queries rejected at the quota gate.
    pub rejected_quota: usize,
    /// Queries rejected by queue backpressure.
    pub rejected_queue: usize,
    /// Queries shed at their deadline.
    pub rejected_expired: usize,
    /// Queries naming an unknown pool or module.
    pub rejected_unknown: usize,
}

/// The daemon's deterministic account of one serve run.
///
/// Like [`FleetReport`], the JSON form deliberately excludes anything
/// execution-dependent — runs differing only in `fleet.shards` serialize
/// byte-identically.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Every query's account, arrival order.
    pub queries: Vec<ServedQuery>,
    /// Background sweeps started (the last may not have committed).
    pub sweeps_started: usize,
    /// Background sweeps whose results became visible to queries.
    pub sweeps_committed: usize,
    /// On-demand rescans attempted by queries.
    pub rescans: usize,
    /// Rescans that failed, overran their budget, or lost quorum (the
    /// query then fell back to a degraded answer).
    pub rescan_failures: usize,
    /// High-water mark of queries in flight (served + queued).
    pub max_queue_depth: usize,
    /// Circuit-breaker trips observed while serving.
    pub quarantine_events: usize,
    /// Every VM ever quarantined during the run, sorted.
    pub quarantined_vms: Vec<String>,
    /// Service-plane busy time (lookups + rescans).
    pub service_busy: SimDuration,
    /// Refresh-plane busy time (modeled sweep walls).
    pub refresh_busy: SimDuration,
    /// Last simulated instant the run touched (arrival, answer, or
    /// commit — whichever is latest).
    pub horizon: SimDuration,
}

/// Nearest-rank percentile over an unsorted sample; `None` when empty.
fn percentile(samples: &mut [SimDuration], pct: f64) -> Option<SimDuration> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

impl ServeReport {
    /// Queries answered, any confidence tier.
    pub fn answered(&self) -> usize {
        self.queries.iter().filter(|q| q.answered()).count()
    }

    /// Queries rejected, any reason.
    pub fn rejected(&self) -> usize {
        self.queries.len() - self.answered()
    }

    /// Answers at the given confidence tier.
    pub fn answered_at(&self, tier: Confidence) -> usize {
        self.queries
            .iter()
            .filter(
                |q| matches!(&q.disposition, Disposition::Answered { confidence, .. } if *confidence == tier),
            )
            .count()
    }

    /// Rejections for the given reason.
    pub fn rejected_for(&self, reason: Rejected) -> usize {
        self.queries
            .iter()
            .filter(|q| q.disposition == Disposition::Rejected(reason))
            .count()
    }

    /// Nearest-rank latency percentile over answered queries.
    pub fn latency_percentile(&self, pct: f64) -> Option<SimDuration> {
        let mut v: Vec<SimDuration> = self
            .queries
            .iter()
            .filter(|q| q.answered())
            .map(|q| q.latency)
            .collect();
        percentile(&mut v, pct)
    }

    /// Nearest-rank staleness percentile over answers that carried a
    /// verdict (Fresh and Stale tiers; Unscannable has nothing to date).
    pub fn staleness_percentile(&self, pct: f64) -> Option<SimDuration> {
        let mut v: Vec<SimDuration> = self
            .queries
            .iter()
            .filter_map(|q| match &q.disposition {
                Disposition::Answered {
                    verdict: Some(_),
                    staleness,
                    ..
                } => Some(*staleness),
                _ => None,
            })
            .collect();
        percentile(&mut v, pct)
    }

    /// Sustained answered-queries-per-simulated-second over the horizon.
    #[allow(clippy::cast_precision_loss)]
    pub fn answered_per_sec(&self) -> f64 {
        let secs = self.horizon.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.answered() as f64 / secs
    }

    /// Per-tenant accounting, tenant-name order.
    pub fn per_tenant(&self) -> BTreeMap<String, TenantStats> {
        let mut out: BTreeMap<String, TenantStats> = BTreeMap::new();
        for q in &self.queries {
            let t = out.entry(q.tenant.clone()).or_default();
            t.queries += 1;
            match &q.disposition {
                Disposition::Answered { .. } => t.answered += 1,
                Disposition::Rejected(Rejected::QuotaExceeded) => t.rejected_quota += 1,
                Disposition::Rejected(Rejected::QueueFull) => t.rejected_queue += 1,
                Disposition::Rejected(Rejected::DeadlineExpired) => t.rejected_expired += 1,
                Disposition::Rejected(Rejected::UnknownTarget) => t.rejected_unknown += 1,
            }
        }
        out
    }

    /// Machine-readable form (stable key order). Excludes everything
    /// execution-dependent: byte-identical across `fleet.shards` settings.
    pub fn to_json(&self) -> serde_json::Value {
        let ms = |d: Option<SimDuration>| d.map(SimDuration::as_millis_f64);
        serde_json::json!({
            "queries_total": self.queries.len(),
            "answered": self.answered(),
            "answered_fresh": self.answered_at(Confidence::Fresh),
            "answered_stale": self.answered_at(Confidence::Stale),
            "answered_unscannable": self.answered_at(Confidence::Unscannable),
            "rejected": self.rejected(),
            "rejected_quota": self.rejected_for(Rejected::QuotaExceeded),
            "rejected_queue_full": self.rejected_for(Rejected::QueueFull),
            "rejected_expired": self.rejected_for(Rejected::DeadlineExpired),
            "rejected_unknown": self.rejected_for(Rejected::UnknownTarget),
            "sweeps_started": self.sweeps_started,
            "sweeps_committed": self.sweeps_committed,
            "rescans": self.rescans,
            "rescan_failures": self.rescan_failures,
            "max_queue_depth": self.max_queue_depth,
            "quarantine_events": self.quarantine_events,
            "quarantined_vms": self.quarantined_vms,
            "p50_latency_ms": ms(self.latency_percentile(50.0)),
            "p99_latency_ms": ms(self.latency_percentile(99.0)),
            "p99_staleness_ms": ms(self.staleness_percentile(99.0)),
            "answered_per_sec": self.answered_per_sec(),
            "service_busy_ms": self.service_busy.as_millis_f64(),
            "refresh_busy_ms": self.refresh_busy.as_millis_f64(),
            "horizon_ms": self.horizon.as_millis_f64(),
            "per_tenant": self
                .per_tenant()
                .iter()
                .map(|(name, t)| {
                    serde_json::json!({
                        "tenant": name,
                        "queries": t.queries,
                        "answered": t.answered,
                        "rejected_quota": t.rejected_quota,
                        "rejected_queue_full": t.rejected_queue,
                        "rejected_expired": t.rejected_expired,
                        "rejected_unknown": t.rejected_unknown,
                    })
                })
                .collect::<Vec<_>>(),
            "answers": self
                .queries
                .iter()
                .map(|q| {
                    let (outcome, staleness, verdict, rescanned, routed) = match &q.disposition {
                        Disposition::Answered {
                            confidence,
                            verdict,
                            staleness,
                            rescanned,
                            routed_around,
                        } => (
                            confidence.as_str().to_string(),
                            Some(staleness.as_millis_f64()),
                            verdict.as_ref(),
                            *rescanned,
                            routed_around.clone(),
                        ),
                        Disposition::Rejected(r) => {
                            (format!("rejected:{}", r.as_str()), None, None, false, Vec::new())
                        }
                    };
                    serde_json::json!({
                        "seq": q.seq,
                        "at_ms": q.at.as_millis_f64(),
                        "tenant": q.tenant,
                        "pool": q.pool,
                        "module": q.module,
                        "deadline_ms": q.deadline.as_millis_f64(),
                        "latency_ms": q.latency.as_millis_f64(),
                        "outcome": outcome,
                        "staleness_ms": staleness,
                        "clean": verdict.map(|v| v.clean),
                        "quorum": verdict.map(|v| quorum_str(v.quorum)),
                        "suspects": verdict.map(|v| v.suspects.clone()).unwrap_or_default(),
                        "flagged": verdict.map(|v| v.flagged.clone()).unwrap_or_default(),
                        "rescanned": rescanned,
                        "routed_around": routed,
                    })
                })
                .collect::<Vec<_>>(),
        })
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve: {} queries — {} answered ({} fresh, {} stale, {} unscannable), {} rejected",
            self.queries.len(),
            self.answered(),
            self.answered_at(Confidence::Fresh),
            self.answered_at(Confidence::Stale),
            self.answered_at(Confidence::Unscannable),
            self.rejected(),
        )?;
        writeln!(
            f,
            "  rejections: {} quota, {} queue-full, {} expired, {} unknown",
            self.rejected_for(Rejected::QuotaExceeded),
            self.rejected_for(Rejected::QueueFull),
            self.rejected_for(Rejected::DeadlineExpired),
            self.rejected_for(Rejected::UnknownTarget),
        )?;
        let fmt_ms = |d: Option<SimDuration>| {
            d.map_or_else(
                || "n/a".to_string(),
                |d| format!("{:.3} ms", d.as_millis_f64()),
            )
        };
        writeln!(
            f,
            "  latency p50 {} / p99 {}, staleness p99 {}, {:.0} answers/s",
            fmt_ms(self.latency_percentile(50.0)),
            fmt_ms(self.latency_percentile(99.0)),
            fmt_ms(self.staleness_percentile(99.0)),
            self.answered_per_sec(),
        )?;
        writeln!(
            f,
            "  refresh: {} sweeps ({} committed), {} rescans ({} degraded), max depth {}, {} quarantine trip(s)",
            self.sweeps_started,
            self.sweeps_committed,
            self.rescans,
            self.rescan_failures,
            self.max_queue_depth,
            self.quarantine_events,
        )
    }
}

/// Per-unit serving state: the last verdict worth serving and what it
/// cost to produce (the rescan admission estimate).
#[derive(Clone, Debug, Default)]
struct UnitState {
    last_good: Option<UnitVerdict>,
    last_good_at: SimDuration,
    last_cost: Option<SimDuration>,
}

/// Token bucket with lazy refill on the simulated clock.
#[derive(Clone, Copy, Debug)]
struct TokenBucket {
    tokens: f64,
    refilled_at: SimDuration,
}

impl TokenBucket {
    fn admit(&mut self, now: SimDuration, quota: &QuotaPolicy) -> bool {
        let dt = (now - self.refilled_at).as_secs_f64();
        self.tokens = (self.tokens + dt * quota.rate_per_sec).min(quota.burst);
        self.refilled_at = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Mutable run state of one [`AttestServer::run`] invocation.
struct RunState {
    units: HashMap<(String, String), UnitState>,
    catalog: BTreeMap<String, BTreeSet<String>>,
    /// Per-VM circuit breakers, ticked once per committed sweep.
    health: BTreeMap<String, Breaker>,
    buckets: HashMap<String, TokenBucket>,
    /// Slot-release times of queries in flight (min-heap, nanoseconds).
    in_flight: BinaryHeap<Reverse<u64>>,
    server_free: SimDuration,
    pending_sweeps: VecDeque<(SimDuration, FleetReport)>,
    refresh_cursor: SimDuration,
    /// Latency of the most recent `admit` call (answer or shed time).
    last_latency: SimDuration,
    report: ServeReport,
}

/// The attestation daemon. Construct once per deterministic run; the
/// internal [`FleetScheduler`] caches warm across sweeps *within* a run,
/// so replaying the same queries against a fresh server reproduces the
/// report exactly.
#[derive(Debug)]
pub struct AttestServer {
    config: ServeConfig,
    sched: FleetScheduler,
    /// Write-trap subscription state; `Some` once [`AttestServer::arm_events`]
    /// ran, switching refresh sweeps to push mode.
    events: Mutex<Option<EventPlane>>,
}

impl AttestServer {
    /// Builds a daemon with the given configuration.
    pub fn new(config: ServeConfig) -> Self {
        AttestServer {
            sched: FleetScheduler::new(config.fleet),
            config,
            events: Mutex::new(None),
        }
    }

    /// The configuration this daemon runs.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Arms write traps over every pool's consensus module set, switching
    /// refresh sweeps to push mode. Replaces any previous plane, releasing
    /// its watches first. Returns the total guest frames watched.
    pub fn arm_events(&self, hv: &mut Hypervisor, fleet: &Fleet) -> Result<usize, CheckError> {
        if let Some(mut old) = lock(&self.events).take() {
            old.disarm_all(hv)?;
        }
        let mut plane = EventPlane::new();
        let mut frames = 0usize;
        for pool in &fleet.pools {
            let listing = ListDiff::scan_with(hv, &pool.vms, self.config.fleet.check.fast_capture)?;
            frames += plane.arm_modules(hv, &pool.vms, &listing.consensus_modules)?;
        }
        *lock(&self.events) = Some(plane);
        Ok(frames)
    }

    /// The event plane's cumulative counters, if armed.
    pub fn event_stats(&self) -> Option<EventPlaneStats> {
        lock(&self.events).as_ref().map(EventPlane::stats)
    }

    /// Runs the event loop over `queries` (any order; processed by
    /// arrival time, input order breaking ties) and returns the
    /// deterministic account.
    pub fn run(&self, hv: &Hypervisor, fleet: &Fleet, queries: &[AttestQuery]) -> ServeReport {
        let pool_vms: BTreeMap<String, Vec<(String, VmId)>> = fleet
            .pools
            .iter()
            .map(|p| {
                let vms = p
                    .vms
                    .iter()
                    .filter_map(|&id| hv.vm(id).ok().map(|vm| (vm.name.clone(), id)))
                    .collect();
                (p.name.clone(), vms)
            })
            .collect();

        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by_key(|&i| (queries[i].at, i));

        let mut st = RunState {
            units: HashMap::new(),
            catalog: BTreeMap::new(),
            health: BTreeMap::new(),
            buckets: HashMap::new(),
            in_flight: BinaryHeap::new(),
            server_free: SimDuration::ZERO,
            pending_sweeps: VecDeque::new(),
            refresh_cursor: SimDuration::ZERO,
            last_latency: SimDuration::ZERO,
            report: ServeReport {
                queries: Vec::with_capacity(queries.len()),
                sweeps_started: 0,
                sweeps_committed: 0,
                rescans: 0,
                rescan_failures: 0,
                max_queue_depth: 0,
                quarantine_events: 0,
                quarantined_vms: Vec::new(),
                service_busy: SimDuration::ZERO,
                refresh_busy: SimDuration::ZERO,
                horizon: SimDuration::ZERO,
            },
        };
        let mut rescan_caches: HashMap<String, CaptureCache> = HashMap::new();

        for seq in order {
            let q = &queries[seq];
            self.advance_refresh(hv, fleet, q.at, &mut st);
            self.commit_sweeps(q.at, &mut st);
            st.report.horizon = st.report.horizon.max(q.at);
            let disposition = self.admit(hv, q, &pool_vms, &mut rescan_caches, &mut st);
            st.report.queries.push(ServedQuery {
                seq,
                at: q.at,
                tenant: q.tenant.clone(),
                pool: q.pool.clone(),
                module: q.module.clone(),
                deadline: q.deadline,
                latency: st.last_latency,
                disposition,
            });
        }

        let mut report = st.report;
        report.quarantined_vms.sort_unstable();
        report.quarantined_vms.dedup();
        report
    }

    /// Starts every background sweep scheduled at or before `t`. Results
    /// become visible later, at their modeled completion time.
    fn advance_refresh(&self, hv: &Hypervisor, fleet: &Fleet, t: SimDuration, st: &mut RunState) {
        let step = self.config.refresh_interval.max(SimDuration::from_nanos(1));
        while st.refresh_cursor <= t {
            let started = st.refresh_cursor;
            let report = self.refresh_sweep(hv, fleet);
            let wall = simulated_fleet_wall(&report, REFRESH_LANES).max(SimDuration::from_nanos(1));
            let done = started + wall;
            st.report.sweeps_started += 1;
            st.report.refresh_busy += wall;
            st.pending_sweeps.push_back((done, report));
            st.refresh_cursor = (started + step).max(done);
        }
    }

    /// One refresh sweep: with a plane armed, drains it first and sweeps
    /// with quiet units trusted (the first sweep is cold — nothing cached —
    /// so push and pull start identically); without one, a plain
    /// [`FleetScheduler::sweep`].
    fn refresh_sweep(&self, hv: &Hypervisor, fleet: &Fleet) -> FleetReport {
        let mut guard = lock(&self.events);
        let Some(plane) = guard.as_mut() else {
            return self.sched.sweep(hv, fleet);
        };
        plane.drain(hv);
        let report = self.sched.sweep_with_trust(hv, fleet, Some(plane));
        plane.clear_dirty();
        report
    }

    /// Folds every sweep completed at or before `t` into the served
    /// state: health first (so verdicts are stamped against the *new*
    /// quarantine set), then per-unit verdicts and the module catalog.
    fn commit_sweeps(&self, t: SimDuration, st: &mut RunState) {
        while let Some((done, sweep)) = st.pending_sweeps.pop_front_if(|(done, _)| *done <= t) {
            st.report.sweeps_committed += 1;
            st.report.horizon = st.report.horizon.max(done);
            self.update_health(&sweep, st);
            let quarantined: BTreeSet<String> = st
                .health
                .iter()
                .filter(|(_, b)| b.is_open())
                .map(|(name, _)| name.clone())
                .collect();
            for pool in &sweep.pools {
                let catalog = st.catalog.entry(pool.pool.clone()).or_default();
                for unit in &pool.units {
                    catalog.insert(unit.module.clone());
                    let Ok(r) = &unit.result else { continue };
                    let state = st
                        .units
                        .entry((pool.pool.clone(), unit.module.clone()))
                        .or_default();
                    state.last_cost = Some(unit.duration());
                    // A lost-quorum scan is not a *good* verdict: keep
                    // serving the previous one (degraded), don't
                    // overwrite it.
                    if r.quorum != QuorumStatus::Lost {
                        state.last_good = Some(summarize(r, &quarantined));
                        state.last_good_at = done;
                    }
                }
            }
        }
    }

    /// Advances every VM's circuit breaker by one committed sweep: VMs
    /// unscannable in *all* of their pool's completed units count a
    /// failure; `threshold` consecutive failures trip quarantine for
    /// `cooldown` sweeps; expiry re-probes half-open (one more failure
    /// re-trips immediately).
    fn update_health(&self, sweep: &FleetReport, st: &mut RunState) {
        for pool in &sweep.pools {
            let ok_units: Vec<&PoolCheckReport> = pool
                .units
                .iter()
                .filter_map(|u| u.result.as_ref().ok())
                .collect();
            if ok_units.is_empty() {
                continue;
            }
            for vm_name in &pool.vm_names {
                let breaker = st.health.entry(vm_name.clone()).or_default();
                // A quarantined VM's sweep results are routed around, not
                // counted; the sweep only spends one tick of its cooldown.
                if !breaker.admit() {
                    continue;
                }
                let failed = ok_units
                    .iter()
                    .all(|r| r.unscannable().any(|v| &v.vm_name == vm_name));
                if breaker.record(failed, &self.config.health) {
                    st.report.quarantine_events += 1;
                    st.report.quarantined_vms.push(vm_name.clone());
                }
            }
        }
    }

    /// Runs one arrival through catalog → quota → queue → service.
    /// Returns the disposition; the answer latency lands in
    /// `st.last_latency`.
    fn admit(
        &self,
        hv: &Hypervisor,
        q: &AttestQuery,
        pool_vms: &BTreeMap<String, Vec<(String, VmId)>>,
        rescan_caches: &mut HashMap<String, CaptureCache>,
        st: &mut RunState,
    ) -> Disposition {
        st.last_latency = SimDuration::ZERO;

        // Stage 1a: catalog. Unknown pools are rejected outright; known
        // pools reject modules absent from every committed sweep (before
        // the first commit the catalog is empty and the daemon gives the
        // module the benefit of the doubt — the answer degrades to
        // Unscannable downstream instead).
        if !pool_vms.contains_key(&q.pool) {
            return Disposition::Rejected(Rejected::UnknownTarget);
        }
        if let Some(known) = st.catalog.get(&q.pool) {
            if !known.contains(&q.module) {
                return Disposition::Rejected(Rejected::UnknownTarget);
            }
        }

        // Stage 1b: per-tenant quota.
        let bucket = st.buckets.entry(q.tenant.clone()).or_insert(TokenBucket {
            tokens: self.config.quota.burst,
            refilled_at: SimDuration::ZERO,
        });
        if !bucket.admit(q.at, &self.config.quota) {
            return Disposition::Rejected(Rejected::QuotaExceeded);
        }

        // Stage 2: bounded admission queue. Queries whose slot-release
        // time has passed have left the system.
        while st
            .in_flight
            .peek()
            .is_some_and(|Reverse(ns)| *ns <= q.at.as_nanos())
        {
            st.in_flight.pop();
        }
        if st.in_flight.len() >= self.config.queue_capacity.max(1) {
            return Disposition::Rejected(Rejected::QueueFull);
        }

        let expiry = q.at + q.deadline;
        let start = q.at.max(st.server_free);
        if start >= expiry {
            // Shed in queue at exactly the deadline; the slot is held
            // until then.
            st.in_flight.push(Reverse(expiry.as_nanos()));
            st.report.max_queue_depth = st.report.max_queue_depth.max(st.in_flight.len());
            st.last_latency = q.deadline;
            st.report.horizon = st.report.horizon.max(expiry);
            return Disposition::Rejected(Rejected::DeadlineExpired);
        }

        // Stage 3 + 4: route and serve.
        let quarantined: BTreeSet<String> = pool_vms[&q.pool]
            .iter()
            .filter(|(name, _)| st.health.get(name).is_some_and(Breaker::is_open))
            .map(|(name, _)| name.clone())
            .collect();
        let routed_around: Vec<String> = quarantined.iter().cloned().collect();
        let key = (q.pool.clone(), q.module.clone());
        let state = st.units.get(&key).cloned().unwrap_or_default();
        let age = start - state.last_good_at;

        let cheap_done = (start + self.config.service_time).min(expiry);
        let (disposition, completion) =
            if state.last_good.is_some() && age <= self.config.freshness_window {
                (
                    Disposition::Answered {
                        confidence: Confidence::Fresh,
                        verdict: state.last_good.clone(),
                        staleness: age,
                        rescanned: false,
                        routed_around,
                    },
                    cheap_done,
                )
            } else {
                // Too old (or never scanned): afford a rescan?
                let budget = expiry - (start + self.config.service_time);
                let active: Vec<VmId> = pool_vms[&q.pool]
                    .iter()
                    .filter(|(name, _)| !quarantined.contains(name))
                    .map(|(_, id)| *id)
                    .collect();
                let affordable = budget > SimDuration::ZERO
                    && active.len() >= 2
                    && state.last_cost.is_none_or(|c| c <= budget);
                if affordable {
                    st.report.rescans += 1;
                    let mut check = self.config.fleet.check;
                    // Deadline propagation: every per-VM session of this
                    // rescan inherits the query's remaining budget.
                    check.deadline = Some(budget);
                    let checker = ModChecker::with_config(check);
                    let cache = rescan_caches.entry(q.pool.clone()).or_default();
                    match checker.check_pool_with_cache(hv, &active, &q.module, cache) {
                        Ok(r) if r.quorum != QuorumStatus::Lost => {
                            let cost = r.times.total();
                            let raw = start + self.config.service_time + cost;
                            if raw <= expiry {
                                let verdict = summarize(&r, &quarantined);
                                let s = st.units.entry(key).or_default();
                                s.last_good = Some(verdict.clone());
                                s.last_good_at = raw;
                                s.last_cost = Some(cost);
                                (
                                    Disposition::Answered {
                                        confidence: Confidence::Fresh,
                                        verdict: Some(verdict),
                                        staleness: SimDuration::ZERO,
                                        rescanned: true,
                                        routed_around,
                                    },
                                    raw,
                                )
                            } else {
                                st.report.rescan_failures += 1;
                                (fallback(&state, expiry, true, routed_around), expiry)
                            }
                        }
                        _ => {
                            // Scan failed or lost quorum: the attempt burned
                            // the budget; serve degraded at the deadline.
                            st.report.rescan_failures += 1;
                            (fallback(&state, expiry, true, routed_around), expiry)
                        }
                    }
                } else {
                    (
                        fallback(&state, cheap_done, false, routed_around),
                        cheap_done,
                    )
                }
            };

        st.in_flight.push(Reverse(completion.as_nanos()));
        st.report.max_queue_depth = st.report.max_queue_depth.max(st.in_flight.len());
        st.report.service_busy += completion - start;
        st.server_free = completion;
        st.report.horizon = st.report.horizon.max(completion);
        st.last_latency = completion - q.at;
        disposition
    }
}

/// Degraded answer: last-known-good (Stale, stamped with its age at
/// `served_at`) or, with nothing to serve, a typed Unscannable.
fn fallback(
    state: &UnitState,
    served_at: SimDuration,
    rescanned: bool,
    routed_around: Vec<String>,
) -> Disposition {
    match &state.last_good {
        Some(v) => Disposition::Answered {
            confidence: Confidence::Stale,
            verdict: Some(v.clone()),
            staleness: served_at - state.last_good_at,
            rescanned,
            routed_around,
        },
        None => Disposition::Answered {
            confidence: Confidence::Unscannable,
            verdict: None,
            staleness: SimDuration::ZERO,
            rescanned,
            routed_around,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::PoolSpec;
    use mc_guest::build_cloud_with_modules;
    use mc_hypervisor::AddressWidth;
    use mc_pe::corpus::ModuleBlueprint;

    /// One pool, `n` VMs, one 8 KiB module `hal.dll`.
    fn bed(n: usize) -> (Hypervisor, Fleet) {
        let mut hv = Hypervisor::new();
        let bps = vec![ModuleBlueprint::new("hal.dll", AddressWidth::W32, 8 * 1024)];
        let guests = build_cloud_with_modules(&mut hv, n, AddressWidth::W32, &bps).unwrap();
        let fleet = Fleet::from_pools(vec![PoolSpec {
            name: "pool0".to_string(),
            vms: guests.iter().map(|g| g.vm).collect(),
        }]);
        (hv, fleet)
    }

    fn q(at: SimDuration, tenant: &str, module: &str, deadline: SimDuration) -> AttestQuery {
        AttestQuery {
            at,
            tenant: tenant.to_string(),
            pool: "pool0".to_string(),
            module: module.to_string(),
            deadline,
        }
    }

    #[test]
    fn rearming_releases_the_replaced_planes_watches() {
        let (mut hv, fleet) = bed(3);
        let server = AttestServer::new(ServeConfig::default());
        let frames = server.arm_events(&mut hv, &fleet).unwrap();
        assert!(frames > 0);
        assert_eq!(server.arm_events(&mut hv, &fleet).unwrap(), frames);
        lock(&server.events)
            .as_mut()
            .expect("a plane is installed")
            .disarm_all(&mut hv)
            .unwrap();
        for &vm in &fleet.pools[0].vms {
            assert_eq!(hv.vm(vm).unwrap().mem.watched_frames(), 0);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<SimDuration> = (1..=100).map(SimDuration::from_millis).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(SimDuration::from_millis(50)));
        assert_eq!(percentile(&mut v, 99.0), Some(SimDuration::from_millis(99)));
        assert_eq!(
            percentile(&mut v, 100.0),
            Some(SimDuration::from_millis(100))
        );
        let mut one = vec![SimDuration::from_millis(7)];
        assert_eq!(
            percentile(&mut one, 50.0),
            Some(SimDuration::from_millis(7))
        );
        assert_eq!(percentile(&mut [], 99.0), None);
    }

    #[test]
    fn quota_gate_rejects_the_burst_overflow() {
        let (hv, fleet) = bed(3);
        let cfg = ServeConfig {
            queue_capacity: 64,
            ..ServeConfig::default()
        };
        let burst = cfg.quota.burst as usize;
        let queries: Vec<AttestQuery> = (0..burst + 12)
            .map(|_| {
                q(
                    SimDuration::ZERO,
                    "tenant0",
                    "hal.dll",
                    SimDuration::from_millis(500),
                )
            })
            .collect();
        let report = AttestServer::new(cfg).run(&hv, &fleet, &queries);
        assert_eq!(report.rejected_for(Rejected::QuotaExceeded), 12);
        assert_eq!(report.answered(), burst);
        // Typed, instant rejections: zero latency, no silent drops.
        for sq in report.queries.iter().filter(|s| !s.answered()) {
            assert_eq!(sq.latency, SimDuration::ZERO);
        }
    }

    #[test]
    fn token_bucket_refills_on_the_simulated_clock() {
        let (hv, fleet) = bed(3);
        let cfg = ServeConfig {
            quota: QuotaPolicy {
                rate_per_sec: 1_000.0, // one token per simulated ms
                burst: 1.0,
            },
            queue_capacity: 64,
            ..ServeConfig::default()
        };
        let d = SimDuration::from_millis(400);
        let queries = vec![
            q(SimDuration::ZERO, "t", "hal.dll", d),
            q(SimDuration::from_micros(500), "t", "hal.dll", d),
            q(SimDuration::from_micros(1_600), "t", "hal.dll", d),
        ];
        let report = AttestServer::new(cfg).run(&hv, &fleet, &queries);
        assert!(report.queries[0].answered(), "burst token");
        assert_eq!(
            report.queries[1].disposition,
            Disposition::Rejected(Rejected::QuotaExceeded),
            "bucket refills 0.5 tokens in 500µs"
        );
        assert!(report.queries[2].answered(), "refilled after 1.6ms");
    }

    #[test]
    fn queue_backpressure_is_typed_and_bounded() {
        let (hv, fleet) = bed(3);
        let cfg = ServeConfig {
            queue_capacity: 2,
            quota: QuotaPolicy {
                rate_per_sec: 1e9,
                burst: 1e9,
            },
            service_time: SimDuration::from_millis(5),
            freshness_window: SimDuration::from_millis(10_000),
            refresh_interval: SimDuration::from_millis(5),
            ..ServeConfig::default()
        };
        // Arrive well after the first sweep committed, so every answer is
        // a cheap fresh lookup (no rescans muddying the service times).
        let t0 = SimDuration::from_millis(40);
        let queries: Vec<AttestQuery> = (0..10)
            .map(|_| q(t0, "t", "hal.dll", SimDuration::from_millis(200)))
            .collect();
        let report = AttestServer::new(cfg).run(&hv, &fleet, &queries);
        assert_eq!(report.answered(), 2, "two in flight at capacity 2");
        assert_eq!(report.rejected_for(Rejected::QueueFull), 8);
        assert_eq!(report.max_queue_depth, 2);
    }

    #[test]
    fn late_turns_are_shed_at_exactly_the_deadline() {
        let (hv, fleet) = bed(3);
        let cfg = ServeConfig {
            queue_capacity: 64,
            quota: QuotaPolicy {
                rate_per_sec: 1e9,
                burst: 1e9,
            },
            service_time: SimDuration::from_millis(5),
            freshness_window: SimDuration::from_millis(10_000),
            refresh_interval: SimDuration::from_millis(5),
            ..ServeConfig::default()
        };
        let t0 = SimDuration::from_millis(40);
        let d = SimDuration::from_millis(8);
        let queries: Vec<AttestQuery> = (0..3).map(|_| q(t0, "t", "hal.dll", d)).collect();
        let report = AttestServer::new(cfg).run(&hv, &fleet, &queries);
        assert!(report.queries[0].answered());
        assert!(report.queries[1].answered(), "clamped to its deadline");
        assert_eq!(
            report.queries[2].disposition,
            Disposition::Rejected(Rejected::DeadlineExpired)
        );
        assert_eq!(
            report.queries[2].latency, d,
            "shed at exactly arrival+deadline"
        );
        for sq in &report.queries {
            assert!(sq.latency <= sq.deadline);
        }
    }

    #[test]
    fn unknown_pool_and_unknown_module_are_typed() {
        let (hv, fleet) = bed(3);
        let cfg = ServeConfig {
            refresh_interval: SimDuration::from_millis(5),
            ..ServeConfig::default()
        };
        let mut bad_pool = q(
            SimDuration::from_millis(40),
            "t",
            "hal.dll",
            SimDuration::from_millis(100),
        );
        bad_pool.pool = "nope".to_string();
        let bad_module = q(
            SimDuration::from_millis(40),
            "t",
            "ghost.sys",
            SimDuration::from_millis(100),
        );
        let report = AttestServer::new(cfg).run(&hv, &fleet, &[bad_pool, bad_module]);
        assert_eq!(report.rejected_for(Rejected::UnknownTarget), 2);
        assert_eq!(report.answered(), 0);
    }

    #[test]
    fn stale_state_degrades_with_a_staleness_stamp() {
        let (hv, fleet) = bed(3);
        let cfg = ServeConfig {
            freshness_window: SimDuration::from_nanos(1),
            // Only the priming sweep ever runs before the query.
            refresh_interval: SimDuration::from_millis(10_000),
            ..ServeConfig::default()
        };
        // Tiny deadline: the committed unit cost makes a rescan
        // unaffordable, forcing the last-known-good fallback.
        let report = AttestServer::new(cfg).run(
            &hv,
            &fleet,
            &[q(
                SimDuration::from_millis(40),
                "t",
                "hal.dll",
                SimDuration::from_micros(100),
            )],
        );
        let Disposition::Answered {
            confidence,
            verdict,
            staleness,
            rescanned,
            ..
        } = &report.queries[0].disposition
        else {
            panic!(
                "expected an answer, got {:?}",
                report.queries[0].disposition
            );
        };
        assert_eq!(*confidence, Confidence::Stale);
        assert!(!rescanned);
        assert!(verdict.as_ref().is_some_and(|v| v.clean));
        assert!(
            *staleness > SimDuration::from_millis(30),
            "aged since the priming sweep"
        );
        assert_eq!(report.rescans, 0);
    }

    #[test]
    fn fresh_rescan_answers_inside_the_deadline() {
        let (hv, fleet) = bed(3);
        let cfg = ServeConfig {
            freshness_window: SimDuration::from_nanos(1),
            refresh_interval: SimDuration::from_millis(10_000),
            ..ServeConfig::default()
        };
        let report = AttestServer::new(cfg).run(
            &hv,
            &fleet,
            &[q(
                SimDuration::from_millis(40),
                "t",
                "hal.dll",
                SimDuration::from_millis(200),
            )],
        );
        let Disposition::Answered {
            confidence,
            staleness,
            rescanned,
            ..
        } = &report.queries[0].disposition
        else {
            panic!("expected an answer");
        };
        assert_eq!(*confidence, Confidence::Fresh);
        assert!(rescanned);
        assert_eq!(*staleness, SimDuration::ZERO);
        assert_eq!(report.rescans, 1);
        assert_eq!(report.rescan_failures, 0);
    }

    #[test]
    fn report_bytes_are_identical_across_execution_knobs() {
        let (hv, fleet) = bed(4);
        let queries: Vec<AttestQuery> = (0..24)
            .map(|i| {
                q(
                    SimDuration::from_micros(i * 700),
                    &format!("tenant{}", i % 3),
                    "hal.dll",
                    SimDuration::from_millis(4),
                )
            })
            .collect();
        let mut renders = Vec::new();
        for shards in [1, 4, 8] {
            let mut cfg = ServeConfig {
                refresh_interval: SimDuration::from_millis(5),
                ..ServeConfig::default()
            };
            cfg.fleet.shards = shards;
            let report = AttestServer::new(cfg).run(&hv, &fleet, &queries);
            renders.push(serde_json::to_string_pretty(&report.to_json()).unwrap());
        }
        assert_eq!(renders[0], renders[1], "shards must not change a byte");
        assert_eq!(renders[0], renders[2], "shards must not change a byte");
    }

    #[test]
    fn push_mode_answers_match_pull_and_cut_refresh_cost() {
        let (mut hv, fleet) = bed(4);
        let queries: Vec<AttestQuery> = (0..12)
            .map(|i| {
                q(
                    SimDuration::from_millis(30 + i * 10),
                    "t",
                    "hal.dll",
                    SimDuration::from_millis(8),
                )
            })
            .collect();

        let pull_cfg = ServeConfig {
            refresh_interval: SimDuration::from_millis(5),
            ..ServeConfig::default()
        };
        let pull = AttestServer::new(pull_cfg).run(&hv, &fleet, &queries);

        let server = AttestServer::new(pull_cfg);
        let frames = server.arm_events(&mut hv, &fleet).unwrap();
        assert!(frames > 0);
        let push = server.run(&hv, &fleet, &queries);

        // Same verdict content on every answer (timing may differ — push
        // refreshes are cheaper, so staleness/latency can only improve).
        let verdicts = |r: &ServeReport| -> Vec<Option<(bool, Vec<String>)>> {
            r.queries
                .iter()
                .map(|sq| match &sq.disposition {
                    Disposition::Answered { verdict, .. } => {
                        verdict.as_ref().map(|v| (v.clean, v.suspects.clone()))
                    }
                    Disposition::Rejected(_) => None,
                })
                .collect()
        };
        assert_eq!(verdicts(&pull), verdicts(&push));
        assert_eq!(pull.answered(), push.answered());
        assert!(
            push.refresh_busy < pull.refresh_busy,
            "quiet sweeps must be cheaper: push {} vs pull {}",
            push.refresh_busy,
            pull.refresh_busy
        );
        assert!(server.event_stats().is_some());
    }

    #[test]
    fn every_query_is_accounted_and_in_deadline() {
        let (hv, fleet) = bed(3);
        let cfg = ServeConfig {
            refresh_interval: SimDuration::from_millis(5),
            ..ServeConfig::default()
        };
        let queries: Vec<AttestQuery> = (0..40)
            .map(|i| {
                q(
                    SimDuration::from_micros(i * 300),
                    &format!("tenant{}", i % 2),
                    "hal.dll",
                    SimDuration::from_millis(2),
                )
            })
            .collect();
        let report = AttestServer::new(cfg).run(&hv, &fleet, &queries);
        assert_eq!(report.queries.len(), queries.len());
        assert_eq!(report.answered() + report.rejected(), queries.len());
        for sq in &report.queries {
            assert!(sq.latency <= sq.deadline, "{sq:?}");
        }
        let tenants = report.per_tenant();
        assert_eq!(
            tenants.values().map(|t| t.queries).sum::<usize>(),
            queries.len()
        );
    }
}
