//! Continuous monitoring and remediation (the paper's §III discussion).
//!
//! ModChecker is positioned as a *light-weight first-pass* check: scan the
//! pool continuously; on a discrepancy, escalate — trigger deeper analysis
//! or revert the flagged VM to a clean snapshot. [`ContinuousMonitor`]
//! implements the scan loop (optionally on a background thread streaming
//! [`MonitorEvent`]s over a crossbeam channel) and [`remediate`] implements
//! snapshot-revert remediation.
//!
//! The monitor also carries per-VM health: a VM that is unscannable for
//! [`HealthPolicy::failure_threshold`] consecutive rounds trips a circuit
//! breaker and is quarantined — dropped from the scan set for
//! [`HealthPolicy::cooldown_rounds`] rounds so a flapping guest cannot
//! burn every round's introspection budget — then re-probed half-open: one
//! clean round restores it fully, one more failure re-trips the breaker
//! immediately.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use crossbeam::channel::Sender;

use mc_hypervisor::{Hypervisor, RoundCtx, VmId};
use mc_obs::MetricsRegistry;

use crate::crossview::{CrossView, CrossViewConfig, CrossViewReport};
use crate::error::CheckError;
use crate::events::{EventPlane, EventPlaneStats};
use crate::lock;
use crate::obs::record_pool_report;
use crate::report::{PoolCheckReport, QuorumStatus, VerdictStatus};
use crate::{CacheStats, CaptureCache, CheckConfig, ModChecker};

/// Circuit-breaker policy for persistently unscannable VMs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive unscannable rounds before a VM is quarantined. Clamped
    /// to at least 1.
    pub failure_threshold: usize,
    /// Rounds a quarantined VM sits out before the half-open re-probe.
    /// Clamped to at least 1.
    pub cooldown_rounds: usize,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            failure_threshold: 3,
            cooldown_rounds: 2,
        }
    }
}

/// One VM's circuit breaker under a [`HealthPolicy`], advanced once per
/// tick: a monitor round, or a committed sweep in the attestation daemon.
///
/// Each tick, [`Breaker::admit`] decides whether the VM takes part, and a
/// VM that took part reports its outcome to [`Breaker::record`]. A VM
/// failing every tick trips on tick `threshold − 1`, sits out the next
/// `cooldown` ticks (turning half-open on the last of them), is re-probed
/// on the tick after, and re-trips on that probe's failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Breaker {
    /// In the scan set, with this many consecutive failed ticks.
    Closed {
        /// Consecutive failed ticks so far (always below the threshold).
        failures: usize,
    },
    /// Quarantined for this many more ticks.
    Open {
        /// Ticks left to sit out; never zero.
        cooldown_left: usize,
    },
    /// Cooldown over: the next tick re-probes, and one failure re-trips.
    HalfOpen,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker::Closed { failures: 0 }
    }
}

impl Breaker {
    /// Starts a tick. An open breaker spends one tick of its cooldown
    /// (turning half-open when it runs out) and the VM sits the tick out:
    /// returns `false`. Otherwise the VM takes part.
    pub(crate) fn admit(&mut self) -> bool {
        match *self {
            Breaker::Open { cooldown_left } => {
                *self = if cooldown_left > 1 {
                    Breaker::Open {
                        cooldown_left: cooldown_left - 1,
                    }
                } else {
                    Breaker::HalfOpen
                };
                false
            }
            Breaker::Closed { .. } | Breaker::HalfOpen => true,
        }
    }

    /// Records the outcome of a tick the VM took part in. Returns `true`
    /// when this failure trips the breaker open.
    pub(crate) fn record(&mut self, failed: bool, policy: &HealthPolicy) -> bool {
        let threshold = policy.failure_threshold.max(1);
        let failures = match *self {
            Breaker::Open { .. } => return false, // sat this tick out
            _ if !failed => 0,
            Breaker::Closed { failures } => failures + 1,
            Breaker::HalfOpen => threshold,
        };
        if failures >= threshold {
            *self = Breaker::Open {
                cooldown_left: policy.cooldown_rounds.max(1),
            };
            true
        } else {
            *self = Breaker::Closed { failures };
            false
        }
    }

    /// True while the VM is quarantined.
    pub(crate) fn is_open(&self) -> bool {
        matches!(self, Breaker::Open { .. })
    }
}

/// Monitor configuration.
#[derive(Clone, Debug, Default)]
pub struct MonitorConfig {
    /// Modules to check each round (e.g. every module in the list, or the
    /// high-value set: hal.dll, ntfs.sys, tcpip.sys ...).
    pub modules: Vec<String>,
    /// Per-round scan configuration (mode, retries, deadline, quorum...).
    pub check: CheckConfig,
    /// Circuit-breaker policy.
    pub health: HealthPolicy,
    /// Seeded per-round scan-phase jitter; `None` scans at a fixed phase.
    pub scan_jitter: Option<ScanJitter>,
}

/// Seeded per-round scan-phase jitter.
///
/// A scrub-race adversary that has learned the monitor's cadence re-infects
/// right after each scan and restores clean bytes just before the next one.
/// Against a fixed phase the restore window always wins; a seeded random
/// offset moves each round's scan inside the period, so a
/// (seed-determined, reproducible) subset of rounds lands inside the dirty
/// window. The offset is a pure function of `(seed, round)` — verdicts stay
/// deterministic and shard/mode invariant, and a ground-truth oracle can
/// recompute exactly which rounds catch the adversary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanJitter {
    /// Jitter seed.
    pub seed: u64,
    /// Exclusive upper bound on the phase offset, simulated nanoseconds.
    /// Zero disables jitter.
    pub max_ns: u64,
}

impl ScanJitter {
    /// The phase offset for `round`: a splitmix64 hash of `(seed, round)`
    /// reduced modulo [`ScanJitter::max_ns`]. Pure — no RNG state to thread
    /// through shards or scan modes.
    pub fn offset_ns(&self, round: usize) -> u64 {
        if self.max_ns == 0 {
            return 0;
        }
        let mut z = (self.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % self.max_ns
    }
}

/// One event from a monitoring round.
#[derive(Clone, Debug)]
pub enum MonitorEvent {
    /// A module scanned clean across the pool.
    Clean {
        /// Round number (0-based).
        round: usize,
        /// Module name.
        module: String,
    },
    /// A discrepancy was found — the escalation trigger.
    Discrepancy {
        /// Round number.
        round: usize,
        /// Module name.
        module: String,
        /// Full report (who mismatched, which parts).
        report: Box<PoolCheckReport>,
    },
    /// The scan completed but fewer VMs than the full pool took part —
    /// verdicts for the survivors are valid, coverage is not total.
    Degraded {
        /// Round number.
        round: usize,
        /// Module name.
        module: String,
        /// Full report (quorum status, who was unscannable).
        report: Box<PoolCheckReport>,
    },
    /// The check itself failed (e.g. pool too small).
    Failed {
        /// Round number.
        round: usize,
        /// Module name.
        module: String,
        /// Error description.
        error: String,
    },
    /// A VM tripped the circuit breaker and sits out the next
    /// [`HealthPolicy::cooldown_rounds`] rounds.
    VmQuarantined {
        /// Round number in which the breaker tripped.
        round: usize,
        /// VM name.
        vm_name: String,
        /// Consecutive unscannable rounds that tripped the breaker.
        consecutive_failures: usize,
    },
    /// A quarantined VM finished cooldown and rejoins the scan set
    /// (half-open: the next failure re-quarantines immediately).
    VmRestored {
        /// Round number in which the VM rejoined.
        round: usize,
        /// VM name.
        vm_name: String,
    },
}

/// The continuous scan loop.
///
/// Rounds share a [`CaptureCache`]: a module whose page write-generations
/// did not move since the previous round is re-voted from its cached
/// capture instead of being re-copied, so steady-state clean rounds cost
/// O(pages probed) rather than O(module bytes · VMs). The cache sits behind
/// a mutex because `run_round` takes `&self` (callers poll an immutable
/// monitor); contention is nil — rounds are sequential.
#[derive(Debug)]
pub struct ContinuousMonitor {
    checker: ModChecker,
    config: MonitorConfig,
    health: HashMap<VmId, Breaker>,
    cache: Mutex<CaptureCache>,
    metrics: Mutex<MetricsRegistry>,
    /// Write-trap subscription state; `Some` once [`ContinuousMonitor::arm_events`]
    /// has armed the configured modules, switching rounds to push mode.
    events: Mutex<Option<EventPlane>>,
}

impl Clone for ContinuousMonitor {
    fn clone(&self) -> Self {
        // A poisoned lock means a sibling thread panicked mid-round — the
        // data (cache entries, counters) is still internally consistent
        // because rounds only mutate it between scans, so recover the guard
        // instead of silently cloning an *empty* cache/registry (which
        // would discard every capture and metric accumulated so far).
        ContinuousMonitor {
            checker: self.checker.clone(),
            config: self.config.clone(),
            health: self.health.clone(),
            cache: Mutex::new(lock(&self.cache).clone()),
            metrics: Mutex::new(lock(&self.metrics).clone()),
            events: Mutex::new(lock(&self.events).clone()),
        }
    }
}

impl ContinuousMonitor {
    /// Creates a monitor for the given module set.
    pub fn new(config: MonitorConfig) -> Self {
        ContinuousMonitor {
            checker: ModChecker::with_config(config.check),
            config,
            health: HashMap::new(),
            cache: Mutex::new(CaptureCache::new()),
            metrics: Mutex::new(MetricsRegistry::new()),
            events: Mutex::new(None),
        }
    }

    /// Cumulative capture-cache counters across all rounds so far.
    pub fn cache_stats(&self) -> CacheStats {
        lock(&self.cache).stats()
    }

    /// `(vm, module)` pairs the tamper-evidence channel flagged as
    /// scrubbed-then-restored across all rounds so far (empty unless
    /// [`CheckConfig::tamper_evidence`] is enabled).
    pub fn silent_restores(&self) -> Vec<(VmId, String)> {
        lock(&self.cache).silent_restores()
    }

    /// A snapshot of the monitor's metrics registry: every pool scan's
    /// counters and timing gauges accumulated across rounds, plus monitor
    /// lifecycle counters (`monitor_rounds_total`,
    /// `monitor_quarantines_total`, `monitor_restores_total`,
    /// `monitor_remediations_total`) and the capture-cache gauges.
    pub fn metrics(&self) -> MetricsRegistry {
        lock(&self.metrics).clone()
    }

    fn bump(&self, name: &str, v: u64) {
        lock(&self.metrics).counter_add(name, v);
    }

    /// The scan-phase offset for `round` under the configured jitter
    /// (zero when jitter is off). Pure function of the config and round.
    pub fn scan_phase_ns(&self, round: usize) -> u64 {
        self.config.scan_jitter.map_or(0, |j| j.offset_ns(round))
    }

    /// Builds the [`RoundCtx`] an adversary-replay driver steps scripts
    /// with before this round's scan: round number, nominal period, and
    /// this monitor's jittered phase offset. Also records the offset into
    /// the metrics registry (`monitor_jittered_rounds_total`,
    /// `monitor_scan_jitter_ns`).
    pub fn round_ctx(&self, round: usize, period_ns: u64) -> RoundCtx {
        let offset = self.scan_phase_ns(round);
        if self.config.scan_jitter.is_some() {
            let mut m = lock(&self.metrics);
            m.counter_add("monitor_jittered_rounds_total", 1);
            #[allow(clippy::cast_precision_loss)]
            m.gauge_set("monitor_scan_jitter_ns", offset as f64);
        }
        RoundCtx {
            round,
            period_ns,
            scan_offset_ns: offset,
        }
    }

    /// Runs a cross-view scan (guest list consensus vs physical header
    /// sweep, see [`CrossView`]) over the pool, recording `crossview_*`
    /// metrics into this monitor's registry.
    ///
    /// # Errors
    ///
    /// Propagates [`CheckError::PoolTooSmall`] from the scanner.
    pub fn run_crossview(
        &self,
        hv: &Hypervisor,
        vms: &[VmId],
    ) -> Result<CrossViewReport, CheckError> {
        let scanner = CrossView {
            config: CrossViewConfig {
                fast_capture: self.config.check.fast_capture,
                retry: self.config.check.retry,
            },
        };
        let report = scanner.scan(hv, vms)?;
        report.record_metrics(&mut lock(&self.metrics));
        Ok(report)
    }

    /// VM names currently quarantined by the circuit breaker.
    pub fn quarantined(&self) -> Vec<VmId> {
        let mut out: Vec<VmId> = self
            .health
            .iter()
            .filter(|(_, b)| b.is_open())
            .map(|(&vm, _)| vm)
            .collect();
        out.sort_by_key(|vm| vm.0);
        out
    }

    /// Runs one round over all configured modules, returning reports in
    /// configuration order.
    pub fn run_round(
        &self,
        hv: &Hypervisor,
        vms: &[VmId],
    ) -> Vec<(String, Result<PoolCheckReport, CheckError>)> {
        self.round(hv, vms, None)
    }

    /// Arms write traps over every configured module on every VM in `vms`,
    /// switching subsequent [`ContinuousMonitor::run_round_events`] /
    /// [`ContinuousMonitor::run`] calls to push mode. Replaces any
    /// previous plane, releasing its watches first. Returns the number of
    /// guest frames now watched.
    pub fn arm_events(&self, hv: &mut Hypervisor, vms: &[VmId]) -> Result<usize, CheckError> {
        if let Some(mut old) = lock(&self.events).take() {
            old.disarm_all(hv)?;
        }
        let mut plane = EventPlane::new();
        let modules = self.config.modules.clone();
        let frames = plane.arm_modules(hv, vms, &modules)?;
        *lock(&self.events) = Some(plane);
        Ok(frames)
    }

    /// True once [`ContinuousMonitor::arm_events`] has installed a plane.
    pub fn events_armed(&self) -> bool {
        lock(&self.events).is_some()
    }

    /// The event plane's cumulative counters, if armed.
    pub fn event_stats(&self) -> Option<EventPlaneStats> {
        lock(&self.events).as_ref().map(EventPlane::stats)
    }

    /// Runs one *push-mode* round: drains the host's write events, marks
    /// the `(vm, module)` pairs they land on dirty, and scans with every
    /// armed-and-quiet pair trusted — served straight from the capture
    /// cache with zero guest reads. Dirty pairs (and pairs whose cache
    /// entry is gone, e.g. evicted by a revert) rescan through the normal
    /// probe path, so verdicts are identical to [`ContinuousMonitor::run_round`].
    /// Falls back to `run_round` wholesale when no plane is armed.
    pub fn run_round_events(
        &self,
        hv: &Hypervisor,
        vms: &[VmId],
    ) -> Vec<(String, Result<PoolCheckReport, CheckError>)> {
        self.round(hv, vms, lock(&self.events).as_mut())
    }

    /// The one round body behind both modes: poll passes no plane and
    /// trusts nothing; push drains the plane first and trusts its quiet
    /// pairs. The per-module scan and the metrics recording are shared.
    fn round(
        &self,
        hv: &Hypervisor,
        vms: &[VmId],
        mut plane: Option<&mut EventPlane>,
    ) -> Vec<(String, Result<PoolCheckReport, CheckError>)> {
        let drained = plane.as_mut().map(|p| p.drain(hv));
        let dirty_now = plane.as_ref().map_or(0, |p| p.dirty_len() as u64);
        let mut trusted_total = 0u64;
        let results: Vec<(String, Result<PoolCheckReport, CheckError>)> = self
            .config
            .modules
            .iter()
            .map(|m| {
                let trusted = plane
                    .as_ref()
                    .map(|p| p.trusted_for(m, vms))
                    .unwrap_or_default();
                trusted_total += trusted.len() as u64;
                let result = self.checker.check_pool_with_cache_trusted(
                    hv,
                    vms,
                    m,
                    &mut lock(&self.cache),
                    &trusted,
                );
                (m.clone(), result)
            })
            .collect();
        // Every dirty pair either rescanned just now or belongs to a VM
        // outside `vms` (quarantined — it rescans cold on return anyway,
        // because quarantine evicted its cache entries).
        let unattributed = plane.map(|p| {
            p.clear_dirty();
            p.stats().unattributed_events
        });

        // Metrics snapshot per round: accumulate every successful scan's
        // counters, refresh the host/cache gauges. Recording happens after
        // the scans so the bookkeeping never affects verdicts or timing.
        let mut reg = lock(&self.metrics);
        reg.counter_add("monitor_rounds_total", 1);
        if let (Some(drained), Some(unattributed)) = (drained, unattributed) {
            reg.counter_add("event_writes_drained_total", drained.len() as u64);
            reg.counter_add("event_dirty_pairs_total", dirty_now);
            reg.counter_add("event_trusted_pairs_total", trusted_total);
            let scanned = (vms.len() as u64) * (self.config.modules.len() as u64);
            reg.counter_add("event_rescans_total", scanned.saturating_sub(trusted_total));
            reg.gauge_set("event_unattributed_total", unattributed as f64);
            for e in &drained {
                reg.observe("event_delivery_ns", e.latency.as_nanos() as f64);
            }
        }
        for (_, result) in &results {
            if let Ok(report) = result {
                record_pool_report(report, &mut reg);
            }
        }
        hv.record_metrics(&mut reg);
        lock(&self.cache).record_metrics(&mut reg);
        results
    }

    /// Runs one *fleet* round: one full sweep of every pool in `fleet` by
    /// the given scheduler. The scheduler owns the per-pool capture caches
    /// and suspect history (so hot modules dispatch first next round);
    /// the monitor contributes the metrics ledger — `fleet_*` series plus
    /// every unit's pool-scan counters — under its own
    /// `monitor_rounds_total` lifecycle.
    pub fn run_fleet_round(
        &self,
        hv: &Hypervisor,
        sched: &crate::sched::FleetScheduler,
        fleet: &crate::sched::Fleet,
    ) -> crate::report::FleetReport {
        let report = sched.sweep(hv, fleet);
        let mut reg = lock(&self.metrics);
        reg.counter_add("monitor_rounds_total", 1);
        crate::obs::record_fleet_report(&report, &mut reg);
        for unit in report.units() {
            if let Ok(r) = &unit.result {
                record_pool_report(r, &mut reg);
            }
        }
        hv.record_metrics(&mut reg);
        drop(reg);
        report
    }

    /// Reverts the report's suspects to `snapshot` (the free
    /// [`remediate_vms`] function) and evicts the reverted VMs'
    /// capture-cache entries: a reverted guest is a different memory image,
    /// and its cached captures must not survive the revert even as
    /// invalidation candidates.
    ///
    /// Eviction keys on the *id* each verdict was scanned under, never on a
    /// name re-lookup: if a suspect was renamed (and its old name possibly
    /// given to another VM) between the scan and the remediation, the
    /// revert and the eviction still land on the same — correct — VM, so a
    /// rename can never leave stale infected captures behind.
    pub fn remediate(
        &self,
        hv: &mut Hypervisor,
        report: &PoolCheckReport,
        snapshot: &str,
    ) -> Result<Vec<String>, mc_hypervisor::HvError> {
        let reverted = remediate_vms(hv, report, snapshot)?;
        let mut cache = lock(&self.cache);
        for (vm, _) in &reverted {
            cache.evict_vm(*vm);
        }
        drop(cache);
        self.bump("monitor_remediations_total", reverted.len() as u64);
        Ok(reverted.into_iter().map(|(_, name)| name).collect())
    }

    /// Runs `rounds` rounds, emitting an event per module per round into
    /// `events`, plus circuit-breaker events as VMs drop out and return.
    /// Each round goes through [`ContinuousMonitor::run_round_events`], so
    /// after [`ContinuousMonitor::arm_events`] quiet armed pairs are served
    /// from cache with verdicts identical to polling; without a plane every
    /// round polls. Blocks until done; call from a scoped thread for
    /// concurrent consumption (see the `continuous_monitoring` example).
    pub fn run(
        &mut self,
        hv: &Hypervisor,
        vms: &[VmId],
        rounds: usize,
        events: &Sender<MonitorEvent>,
    ) {
        let policy = self.config.health;
        for round in 0..rounds {
            // Assemble this round's scan set; expired quarantines re-probe.
            let mut active: Vec<VmId> = Vec::with_capacity(vms.len());
            for &vm in vms {
                let breaker = self.health.entry(vm).or_default();
                if !breaker.admit() {
                    continue; // sits this round out
                }
                if *breaker == Breaker::HalfOpen {
                    // Cooldown elapsed: half-open re-probe. One clean round
                    // closes the breaker; one more failure re-trips it.
                    self.bump("monitor_restores_total", 1);
                    if events
                        .send(MonitorEvent::VmRestored {
                            round,
                            vm_name: Self::vm_name(hv, vm),
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                active.push(vm);
            }

            let mut unscannable_this_round: HashSet<String> = HashSet::new();
            for (module, result) in self.run_round_events(hv, &active) {
                let event = match result {
                    Ok(report) => {
                        unscannable_this_round.extend(
                            report
                                .verdicts
                                .iter()
                                .filter(|v| v.status == VerdictStatus::Unscannable)
                                .map(|v| v.vm_name.clone()),
                        );
                        if report.any_discrepancy() {
                            MonitorEvent::Discrepancy {
                                round,
                                module,
                                report: Box::new(report),
                            }
                        } else if report.quorum == QuorumStatus::Full {
                            MonitorEvent::Clean { round, module }
                        } else {
                            MonitorEvent::Degraded {
                                round,
                                module,
                                report: Box::new(report),
                            }
                        }
                    }
                    Err(e) => MonitorEvent::Failed {
                        round,
                        module,
                        error: e.to_string(),
                    },
                };
                if events.send(event).is_err() {
                    return; // receiver hung up; stop scanning
                }
            }

            // Health bookkeeping for the VMs that were actually probed.
            for &vm in &active {
                let name = Self::vm_name(hv, vm);
                let failed = unscannable_this_round.contains(&name);
                if self.health.entry(vm).or_default().record(failed, &policy) {
                    // Quarantine evicts the VM's cached captures: when it
                    // returns from cooldown it re-scans from scratch rather
                    // than trusting pre-quarantine entries.
                    lock(&self.cache).evict_vm(vm);
                    self.bump("monitor_quarantines_total", 1);
                    if events
                        .send(MonitorEvent::VmQuarantined {
                            round,
                            vm_name: name,
                            consecutive_failures: policy.failure_threshold.max(1),
                        })
                        .is_err()
                    {
                        return;
                    }
                }
            }
        }
    }

    fn vm_name(hv: &Hypervisor, vm: VmId) -> String {
        hv.vm(vm)
            .map_or_else(|_| format!("vm{}", vm.0), |v| v.name.clone())
    }
}

/// Reverts every VM the report flags as suspect to the named snapshot —
/// the paper's "machines can be reverted back to their clean state to flush
/// infections". Returns the `(id, scan-time name)` of each VM actually
/// reverted.
///
/// Suspects are addressed by the [`crate::report::VmVerdict::vm`] id
/// recorded at scan time, not by re-resolving `vm_name`: names are mutable
/// (and reusable) between scan and remediation, and reverting whichever VM
/// *currently* holds the name would both miss the infected guest and wipe
/// an innocent one. A suspect whose id no longer exists (destroyed since
/// the scan) is skipped — there is nothing left to revert.
pub fn remediate_vms(
    hv: &mut Hypervisor,
    report: &PoolCheckReport,
    snapshot: &str,
) -> Result<Vec<(VmId, String)>, mc_hypervisor::HvError> {
    let mut reverted = Vec::new();
    for v in report.suspects() {
        let Ok(vm) = hv.vm_mut(v.vm) else {
            continue; // destroyed since the scan
        };
        vm.revert(snapshot)?;
        reverted.push((v.vm, v.vm_name.clone()));
    }
    Ok(reverted)
}

/// Name-returning convenience over [`remediate_vms`] (reverts by scan-time
/// id; returns the scan-time names of the VMs actually reverted).
pub fn remediate(
    hv: &mut Hypervisor,
    report: &PoolCheckReport,
    snapshot: &str,
) -> Result<Vec<String>, mc_hypervisor::HvError> {
    Ok(remediate_vms(hv, report, snapshot)?
        .into_iter()
        .map(|(_, name)| name)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use mc_guest::build_cloud_with_modules;
    use mc_hypervisor::AddressWidth;
    use mc_pe::corpus::ModuleBlueprint;

    fn cloud(n: usize) -> (Hypervisor, Vec<mc_guest::GuestOs>, Vec<VmId>) {
        let mut hv = Hypervisor::new();
        let bps = vec![
            ModuleBlueprint::new("hal.dll", AddressWidth::W32, 8 * 1024),
            ModuleBlueprint::new("ndis.sys", AddressWidth::W32, 8 * 1024),
        ];
        let guests = build_cloud_with_modules(&mut hv, n, AddressWidth::W32, &bps).unwrap();
        let ids = guests.iter().map(|g| g.vm).collect();
        (hv, guests, ids)
    }

    fn monitor() -> ContinuousMonitor {
        ContinuousMonitor::new(MonitorConfig {
            modules: vec!["hal.dll".into(), "ndis.sys".into()],
            ..MonitorConfig::default()
        })
    }

    #[test]
    fn a_forged_size_of_image_leaves_one_pair_unarmed_not_the_plane() {
        let (mut hv, guests, ids) = cloud(3);
        let offs = mc_guest::ldr::LdrOffsets::for_width(AddressWidth::W32);
        let entry = guests[1].find_module("hal.dll").unwrap().ldr_entry_va;
        hv.vm_mut(ids[1])
            .unwrap()
            .write_virt(entry + offs.size_of_image, &u32::MAX.to_le_bytes())
            .unwrap();

        // The plane arms the other five pairs and reports success.
        let mut plane = crate::events::EventPlane::new();
        let modules = vec!["hal.dll".to_string(), "ndis.sys".to_string()];
        assert!(plane.arm_modules(&mut hv, &ids, &modules).unwrap() > 0);
        assert_eq!(plane.armed_len(), 5);
        let trusted = plane.trusted_for("hal.dll", &ids);
        assert!(!trusted.contains(&ids[1]) && trusted.len() == 2);

        // The monitor installs its plane, and a push round scans dom2's
        // unarmed hal.dll through the poll path into a verdict.
        let m = monitor();
        assert!(m.arm_events(&mut hv, &ids).unwrap() > 0);
        assert!(m.events_armed());
        assert_eq!(m.event_stats().unwrap().pairs_armed, 5);
        let round = m.run_round_events(&hv, &ids);
        let (_, hal) = round.iter().find(|(name, _)| name == "hal.dll").unwrap();
        let report = hal
            .as_ref()
            .expect("dom2's failure is a verdict, not an Err");
        let dom2 = &report.verdicts[1];
        assert_eq!(dom2.vm_name, "dom2");
        let error = dom2.error.as_ref().expect("dom2 cannot be captured");
        assert!(error.detail.contains(&u32::MAX.to_string()), "{error:?}");
    }

    #[test]
    fn rearming_releases_the_replaced_planes_watches() {
        let (mut hv, _guests, ids) = cloud(3);
        let m = monitor();
        let frames = m.arm_events(&mut hv, &ids).unwrap();
        assert!(frames > 0);
        assert_eq!(m.arm_events(&mut hv, &ids).unwrap(), frames);
        lock(&m.events)
            .as_mut()
            .expect("a plane is installed")
            .disarm_all(&mut hv)
            .unwrap();
        for &vm in &ids {
            assert_eq!(hv.vm(vm).unwrap().mem.watched_frames(), 0);
        }
    }

    #[test]
    fn clean_rounds_emit_clean_events() {
        let (hv, _guests, ids) = cloud(3);
        let (tx, rx) = unbounded();
        monitor().run(&hv, &ids, 2, &tx);
        drop(tx);
        let events: Vec<MonitorEvent> = rx.iter().collect();
        assert_eq!(events.len(), 4, "2 rounds × 2 modules");
        assert!(events
            .iter()
            .all(|e| matches!(e, MonitorEvent::Clean { .. })));
    }

    #[test]
    fn infection_emits_discrepancy_with_report() {
        // 4 VMs: clean peers match 2 of 3 (> 3/2) and stay clean, so the
        // verdict pinpoints the infected VM. (At 3 VMs the strict-majority
        // rule flags everyone — see the worm test in pool.rs.)
        let (mut hv, guests, ids) = cloud(4);
        guests[1]
            .patch_module(&mut hv, "ndis.sys", 0x1002, &[0xCC])
            .unwrap();
        let (tx, rx) = unbounded();
        monitor().run(&hv, &ids, 1, &tx);
        drop(tx);
        let events: Vec<MonitorEvent> = rx.iter().collect();
        let discrepancies: Vec<&MonitorEvent> = events
            .iter()
            .filter(|e| matches!(e, MonitorEvent::Discrepancy { .. }))
            .collect();
        assert_eq!(discrepancies.len(), 1);
        let MonitorEvent::Discrepancy { module, report, .. } = discrepancies[0] else {
            panic!(
                "filtered to discrepancies above, got {:?}",
                discrepancies[0]
            );
        };
        assert_eq!(module, "ndis.sys");
        let suspects: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
        assert_eq!(suspects, vec!["dom2"]);
    }

    #[test]
    fn remediation_reverts_and_next_round_is_clean() {
        let (mut hv, guests, ids) = cloud(4);
        // Take clean snapshots first (operators do this at provision time).
        for id in &ids {
            hv.vm_mut(*id).unwrap().snapshot("clean");
        }
        guests[0]
            .patch_module(&mut hv, "hal.dll", 0x1002, &[0xCC])
            .unwrap();

        let m = monitor();
        let round = m.run_round(&hv, &ids);
        let (_, result) = &round[0];
        let report = result.as_ref().unwrap();
        assert!(report.any_discrepancy());

        let reverted = remediate(&mut hv, report, "clean").unwrap();
        assert_eq!(reverted, vec!["dom1"]);

        let round2 = m.run_round(&hv, &ids);
        assert!(round2
            .iter()
            .all(|(_, r)| r.as_ref().is_ok_and(PoolCheckReport::all_clean)));
    }

    #[test]
    fn persistent_failure_trips_and_retrips_the_breaker() {
        use mc_hypervisor::FaultPlan;
        let (mut hv, _guests, ids) = cloud(4);
        // dom4 is gone for good: every attach fails.
        hv.set_fault_plan(ids[3], Some(FaultPlan::none(7).lose_after(0)))
            .unwrap();
        let mut m = ContinuousMonitor::new(MonitorConfig {
            modules: vec!["hal.dll".into()],
            health: HealthPolicy {
                failure_threshold: 2,
                cooldown_rounds: 2,
            },
            ..MonitorConfig::default()
        });
        let (tx, rx) = unbounded();
        m.run(&hv, &ids, 6, &tx);
        drop(tx);
        let events: Vec<MonitorEvent> = rx.iter().collect();

        // Breaker lifecycle: trip after 2 failed rounds, sit out 2, re-probe
        // half-open, fail once more, re-trip immediately.
        let breaker: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::VmQuarantined { round, vm_name, .. } => {
                    Some(format!("quarantine {vm_name} @{round}"))
                }
                MonitorEvent::VmRestored { round, vm_name } => {
                    Some(format!("restore {vm_name} @{round}"))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            breaker,
            vec![
                "quarantine dom4 @1",
                "restore dom4 @4",
                "quarantine dom4 @4"
            ]
        );

        // While dom4 is probed the scans degrade; while it sits out, the
        // survivors form a full quorum and the rounds read clean.
        let per_round: Vec<(usize, &'static str)> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::Clean { round, .. } => Some((*round, "clean")),
                MonitorEvent::Degraded { round, .. } => Some((*round, "degraded")),
                MonitorEvent::Discrepancy { round, .. } => Some((*round, "discrepancy")),
                MonitorEvent::Failed { round, .. } => Some((*round, "failed")),
                _ => None,
            })
            .collect();
        assert_eq!(
            per_round,
            vec![
                (0, "degraded"),
                (1, "degraded"),
                (2, "clean"),
                (3, "clean"),
                (4, "degraded"),
                (5, "clean"),
            ]
        );
    }

    #[test]
    fn steady_state_rounds_reuse_cached_captures() {
        // A realistically sized module: the saving is the skipped per-page
        // map+copy, so it grows with module size (the list walk is the
        // fixed cost both paths pay).
        let mut hv = Hypervisor::new();
        let bps = vec![ModuleBlueprint::new(
            "ntoskrnl.exe",
            AddressWidth::W32,
            96 * 1024,
        )];
        let guests = build_cloud_with_modules(&mut hv, 4, AddressWidth::W32, &bps).unwrap();
        let ids: Vec<VmId> = guests.iter().map(|g| g.vm).collect();
        let m = ContinuousMonitor::new(MonitorConfig {
            modules: vec!["ntoskrnl.exe".into()],
            ..MonitorConfig::default()
        });
        let cost = |round: &[(String, Result<PoolCheckReport, CheckError>)]| {
            round
                .iter()
                .map(|(_, r)| r.as_ref().unwrap().times.searcher)
                .fold(mc_hypervisor::SimDuration::ZERO, |acc, t| acc + t)
        };
        let first = m.run_round(&hv, &ids);
        let first_cost = cost(&first);
        assert_eq!(m.cache_stats().hits, 0);
        assert_eq!(m.cache_stats().misses, 4);

        let second = m.run_round(&hv, &ids);
        assert!(second
            .iter()
            .all(|(_, r)| r.as_ref().is_ok_and(PoolCheckReport::all_clean)));
        assert_eq!(m.cache_stats().hits, 4);
        let second_cost = cost(&second);
        // The capture fast path compressed the cold round itself (one
        // scatter-gather read per module), so the cached round's relative
        // win is smaller than in the legacy loop — but reuse must still
        // strictly undercut re-copying the images.
        assert!(
            second_cost < first_cost,
            "cached round {second_cost} should undercut the cold round {first_cost}"
        );
    }

    #[test]
    fn remediation_refreshes_the_reverted_vms_cache_entry() {
        let (mut hv, guests, ids) = cloud(4);
        for id in &ids {
            hv.vm_mut(*id).unwrap().snapshot("clean");
        }
        let m = monitor();
        m.run_round(&hv, &ids); // warm the cache on the clean pool

        guests[0]
            .patch_module(&mut hv, "hal.dll", 0x1002, &[0xCC])
            .unwrap();
        let round = m.run_round(&hv, &ids);
        let report = round[0].1.as_ref().unwrap();
        assert!(report.any_discrepancy(), "patch invalidated dom1's entry");

        remediate(&mut hv, report, "clean").unwrap();
        // The revert restores pre-patch page stamps, which differ from the
        // cached (patched) capture's stamps — the moved pages must be
        // re-read (page-granular refresh), never served back infected.
        let after = m.run_round(&hv, &ids);
        assert!(after
            .iter()
            .all(|(_, r)| r.as_ref().is_ok_and(PoolCheckReport::all_clean)));
        assert!(m.cache_stats().partial_hits >= 2, "patch + revert");
        assert_eq!(m.cache_stats().invalidations, 0, "shape never changed");
    }

    #[test]
    fn quarantine_evicts_cached_captures_and_rescan_is_clean_after_restore() {
        use mc_hypervisor::FaultPlan;
        let (mut hv, _guests, ids) = cloud(4);
        let mut m = ContinuousMonitor::new(MonitorConfig {
            modules: vec!["hal.dll".into(), "ndis.sys".into()],
            health: HealthPolicy {
                failure_threshold: 2,
                cooldown_rounds: 2,
            },
            ..MonitorConfig::default()
        });
        let (tx, rx) = unbounded();
        // Warm the cache on the healthy pool: 4 VMs × 2 modules.
        m.run(&hv, &ids, 1, &tx);
        assert_eq!(m.cache_stats().evictions, 0);

        // dom4 dies; two failing rounds trip the breaker. Its two cached
        // entries must be gone afterwards (evicted at the first fatal
        // attach failure — the quarantine eviction then finds nothing).
        hv.set_fault_plan(ids[3], Some(FaultPlan::none(7).lose_after(0)))
            .unwrap();
        m.run(&hv, &ids, 2, &tx);
        drop(tx);
        assert_eq!(m.cache_stats().evictions, 2, "dom4's hal.dll + ndis.sys");
        let quarantined: Vec<String> = rx
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::VmQuarantined { vm_name, .. } => Some(vm_name),
                _ => None,
            })
            .collect();
        assert_eq!(quarantined, vec!["dom4"]);
        let metrics = m.metrics();
        assert_eq!(metrics.counter("monitor_quarantines_total"), 1);
        assert_eq!(metrics.counter("monitor_rounds_total"), 3);

        // The guest comes back: the next scan re-captures dom4 from
        // scratch (no stale entry to mislead it) and reads clean.
        hv.set_fault_plan(ids[3], None).unwrap();
        let round = m.run_round(&hv, &ids);
        assert!(round
            .iter()
            .all(|(_, r)| r.as_ref().is_ok_and(PoolCheckReport::all_clean)));
    }

    #[test]
    fn infection_landing_during_quarantine_is_caught_at_the_half_open_probe() {
        // The full breaker lifecycle against a *changing* guest: warm →
        // quarantine (evicting the VM's cached captures) → infection lands
        // while the VM sits out → half-open re-probe. The re-probe must
        // flag the infection — if the pre-quarantine clean capture had
        // survived the eviction, the scan would resurrect it and read
        // clean, exactly the stale-answer bug this lifecycle exists to
        // prevent.
        use mc_hypervisor::FaultPlan;
        let (mut hv, guests, ids) = cloud(4);
        let mut m = ContinuousMonitor::new(MonitorConfig {
            modules: vec!["hal.dll".into()],
            health: HealthPolicy {
                failure_threshold: 2,
                cooldown_rounds: 2,
            },
            ..MonitorConfig::default()
        });
        let (tx, rx) = unbounded();

        // Warm the cache on the healthy pool: one entry per VM.
        m.run(&hv, &ids, 1, &tx);
        assert_eq!(m.cache_stats().evictions, 0);
        assert_eq!(m.cache_stats().misses, 4);

        // dom4 drops off the bus; two failing rounds trip the breaker and
        // its cached capture is evicted (fatal attach failure at round 0,
        // so the quarantine eviction finds nothing further).
        hv.set_fault_plan(ids[3], Some(FaultPlan::none(7).lose_after(0)))
            .unwrap();
        m.run(&hv, &ids, 2, &tx);
        assert_eq!(m.cache_stats().evictions, 1, "dom4's hal.dll entry");
        assert_eq!(m.metrics().counter("monitor_quarantines_total"), 1);
        assert_eq!(m.quarantined(), vec![ids[3]]);

        // While dom4 sits out its cooldown, the infection lands and the
        // guest comes back reachable.
        guests[3]
            .patch_module(&mut hv, "hal.dll", 0x1002, &[0xCC])
            .unwrap();
        hv.set_fault_plan(ids[3], None).unwrap();

        // Cooldown (2 rounds) elapses, then the half-open re-probe scans
        // dom4 from scratch and must name it — fresh bytes, not the
        // evicted clean capture.
        m.run(&hv, &ids, 3, &tx);
        drop(tx);
        assert_eq!(m.metrics().counter("monitor_restores_total"), 1);
        assert!(
            m.quarantined().is_empty(),
            "probe succeeded: fully restored"
        );

        let events: Vec<MonitorEvent> = rx.iter().collect();
        let lifecycle: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::VmQuarantined { vm_name, .. } => {
                    Some(format!("quarantine {vm_name}"))
                }
                MonitorEvent::VmRestored { vm_name, .. } => Some(format!("restore {vm_name}")),
                _ => None,
            })
            .collect();
        assert_eq!(lifecycle, vec!["quarantine dom4", "restore dom4"]);
        let suspects: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::Discrepancy { report, .. } => Some(report),
                _ => None,
            })
            .flat_map(|r| r.suspects().map(|v| v.vm_name.clone()))
            .collect();
        assert_eq!(
            suspects,
            vec!["dom4"],
            "the half-open probe must surface the quarantine-era infection"
        );
        // A suspect verdict is still a *successful* probe: the breaker
        // counts unscannable rounds, not bad content.
        assert_eq!(m.metrics().counter("monitor_quarantines_total"), 1);
    }

    #[test]
    fn monitor_remediate_evicts_the_reverted_vms_entries() {
        let (mut hv, guests, ids) = cloud(4);
        for id in &ids {
            hv.vm_mut(*id).unwrap().snapshot("clean");
        }
        let m = monitor();
        m.run_round(&hv, &ids); // warm the cache on the clean pool

        guests[0]
            .patch_module(&mut hv, "hal.dll", 0x1002, &[0xCC])
            .unwrap();
        let round = m.run_round(&hv, &ids);
        let report = round[0].1.as_ref().unwrap().clone();
        assert!(report.any_discrepancy());

        let reverted = m.remediate(&mut hv, &report, "clean").unwrap();
        assert_eq!(reverted, vec!["dom1"]);
        // Both of dom1's entries go — the revert rewrote the whole guest,
        // not just the module that flagged.
        assert_eq!(m.cache_stats().evictions, 2);
        assert_eq!(m.metrics().counter("monitor_remediations_total"), 1);

        let after = m.run_round(&hv, &ids);
        assert!(after
            .iter()
            .all(|(_, r)| r.as_ref().is_ok_and(PoolCheckReport::all_clean)));
    }

    #[test]
    fn remediate_evicts_through_a_poisoned_cache_lock() {
        let (mut hv, guests, ids) = cloud(4);
        for id in &ids {
            hv.vm_mut(*id).unwrap().snapshot("clean");
        }
        let m = monitor();
        guests[0]
            .patch_module(&mut hv, "hal.dll", 0x1002, &[0xCC])
            .unwrap();
        let round = m.run_round(&hv, &ids);
        let report = round[0].1.as_ref().unwrap().clone();
        assert!(report.any_discrepancy());

        // A sibling thread panics while holding the cache: the mutex is
        // poisoned, but the entries it guards are intact.
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = m.cache.lock().unwrap();
                panic!("poison the capture cache");
            });
            assert!(holder.join().is_err());
        });
        assert!(m.cache.is_poisoned());

        m.remediate(&mut hv, &report, "clean").unwrap();
        let cache = lock(&m.cache);
        for module in ["hal.dll", "ndis.sys"] {
            assert!(
                !cache.contains(ids[0], module),
                "reverted dom1 still caches {module}"
            );
            assert!(cache.contains(ids[1], module));
        }
        drop(cache);

        // Rounds keep serving from the same cache, and the reverted VM is
        // rescanned clean rather than voted from its infected capture.
        let after = m.run_round(&hv, &ids);
        assert!(after
            .iter()
            .all(|(_, r)| r.as_ref().is_ok_and(PoolCheckReport::all_clean)));
    }

    #[test]
    fn breaker_timing_is_pinned_per_policy() {
        for threshold in 1..=3 {
            for cooldown in 1..=2 {
                let policy = HealthPolicy {
                    failure_threshold: threshold,
                    cooldown_rounds: cooldown,
                };
                // A VM failing on every tick it takes part in.
                let mut breaker = Breaker::default();
                let mut trips = Vec::new();
                let mut open_ticks = Vec::new();
                let mut half_open_at = None;
                for tick in 0..threshold + cooldown + 1 {
                    if !breaker.admit() {
                        open_ticks.push(tick);
                        if breaker == Breaker::HalfOpen {
                            half_open_at.get_or_insert(tick);
                        }
                        continue;
                    }
                    if breaker.record(true, &policy) {
                        trips.push(tick);
                    }
                }
                let case = format!("threshold {threshold}, cooldown {cooldown}");
                let probe = threshold + cooldown;
                // Trips on the threshold-th failure, sits out `cooldown`
                // ticks, turns half-open on the last of them, and the
                // half-open probe's one failure re-trips at once.
                assert_eq!(trips, vec![threshold - 1, probe], "{case}");
                assert_eq!(open_ticks, (threshold..probe).collect::<Vec<_>>(), "{case}");
                assert_eq!(half_open_at, Some(probe - 1), "{case}");
                assert!(breaker.is_open(), "{case}");
            }
        }
    }

    #[test]
    fn breaker_closes_on_a_clean_tick() {
        let policy = HealthPolicy {
            failure_threshold: 2,
            cooldown_rounds: 1,
        };
        let mut breaker = Breaker::default();
        // A clean tick resets the failure count before the threshold.
        assert!(!breaker.record(true, &policy));
        assert!(!breaker.record(false, &policy));
        assert!(!breaker.record(true, &policy));
        assert!(breaker.record(true, &policy));
        // A clean half-open probe closes the breaker fully.
        assert!(!breaker.admit());
        assert_eq!(breaker, Breaker::HalfOpen);
        assert!(breaker.admit());
        assert!(!breaker.record(false, &policy));
        assert_eq!(breaker, Breaker::Closed { failures: 0 });
    }

    #[test]
    fn vm_restored_lands_in_the_round_that_reprobes() {
        use mc_hypervisor::FaultPlan;
        let (mut hv, _guests, ids) = cloud(4);
        hv.set_fault_plan(ids[3], Some(FaultPlan::none(7).lose_after(0)))
            .unwrap();
        let mut m = ContinuousMonitor::new(MonitorConfig {
            modules: vec!["hal.dll".into()],
            health: HealthPolicy {
                failure_threshold: 1,
                cooldown_rounds: 1,
            },
            ..MonitorConfig::default()
        });
        let (tx, rx) = unbounded();
        m.run(&hv, &ids, 5, &tx);
        drop(tx);
        let events: Vec<MonitorEvent> = rx.iter().collect();
        // Rounds whose scan included dom4, read off the reports.
        let probed: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::Degraded { round, report, .. }
                | MonitorEvent::Discrepancy { round, report, .. }
                    if report.vm_names.iter().any(|n| n == "dom4") =>
                {
                    Some(*round)
                }
                _ => None,
            })
            .collect();
        let restored: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::VmRestored { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        // Probed at 0, trips, sits out 1, re-probes at 2, and so on.
        assert_eq!(probed, vec![0, 2, 4]);
        assert_eq!(restored, vec![2, 4], "restore fires in the re-probe round");
    }

    #[test]
    fn metrics_accumulate_across_rounds() {
        let (hv, _guests, ids) = cloud(3);
        let m = monitor();
        m.run_round(&hv, &ids);
        m.run_round(&hv, &ids);
        let reg = m.metrics();
        assert_eq!(reg.counter("monitor_rounds_total"), 2);
        assert_eq!(reg.counter("scan_rounds_total"), 4, "2 rounds × 2 modules");
        assert_eq!(
            reg.counter("scan_verdict_clean_total"),
            12,
            "3 VMs × 4 scans"
        );
        assert!(reg.counter("vmi_reads_total") > 0);
        assert_eq!(reg.gauge("hv_vm_count"), Some(3.0));
        // Cache gauges reflect the cumulative stats at the last round.
        assert_eq!(
            reg.gauge("cache_hits"),
            Some(6.0),
            "round 2 hit 3 VMs × 2 modules"
        );
        assert_eq!(reg.gauge("cache_entries"), Some(6.0));
    }

    #[test]
    fn remediation_by_id_survives_a_rename_race() {
        // Between the scan and the remediation, the infected VM is renamed
        // and a fresh VM steals its old name. Name-keyed remediation would
        // revert/evict the innocent name-thief and leave the infected
        // guest's stale captures live; id-keyed remediation must hit the
        // true suspect.
        let (mut hv, guests, ids) = cloud(4);
        for id in &ids {
            hv.vm_mut(*id).unwrap().snapshot("clean");
        }
        let m = monitor();
        m.run_round(&hv, &ids); // warm the cache

        guests[0]
            .patch_module(&mut hv, "hal.dll", 0x1002, &[0xCC])
            .unwrap();
        let round = m.run_round(&hv, &ids);
        let report = round[0].1.as_ref().unwrap().clone();
        assert_eq!(
            report
                .suspects()
                .map(|v| v.vm_name.clone())
                .collect::<Vec<_>>(),
            vec!["dom1"]
        );

        // The race: dom1 becomes dom1b, a brand-new VM takes "dom1".
        hv.rename_vm(ids[0], "dom1b").unwrap();
        hv.create_vm("dom1", AddressWidth::W32).unwrap();

        let reverted = m.remediate(&mut hv, &report, "clean").unwrap();
        assert_eq!(reverted, vec!["dom1"], "scan-time name of the true suspect");
        assert_eq!(
            m.cache_stats().evictions,
            2,
            "both of the *infected* VM's entries evicted"
        );

        // The infected guest (now dom1b) scans clean again: revert landed
        // on it and no stale infected capture survived to resurrect.
        let after = m.run_round(&hv, &ids);
        assert!(after
            .iter()
            .all(|(_, r)| r.as_ref().is_ok_and(PoolCheckReport::all_clean)));
    }

    #[test]
    fn remediate_vms_skips_destroyed_suspects() {
        let (mut hv, guests, ids) = cloud(4);
        for id in &ids {
            hv.vm_mut(*id).unwrap().snapshot("clean");
        }
        guests[0]
            .patch_module(&mut hv, "hal.dll", 0x1002, &[0xCC])
            .unwrap();
        let m = monitor();
        let round = m.run_round(&hv, &ids);
        let mut report = round[0].1.as_ref().unwrap().clone();
        // The suspect vanishes between scan and remediation (the simulator
        // has no destroy; point the verdict at an id that never existed).
        for v in &mut report.verdicts {
            v.vm = VmId(u32::MAX);
        }
        let reverted = remediate_vms(&mut hv, &report, "clean").unwrap();
        assert!(reverted.is_empty(), "nothing left to revert");
    }

    #[test]
    fn event_rounds_match_poll_verdicts_and_skip_guest_reads_when_quiet() {
        let (mut hv, guests, ids) = cloud(4);
        let m = monitor();
        let frames = m.arm_events(&mut hv, &ids).unwrap();
        assert!(frames > 0);
        assert!(m.events_armed());

        // Cold round: nothing cached yet, every pair probes normally.
        let cold = m.run_round_events(&hv, &ids);
        assert!(cold.iter().all(|(_, r)| r.as_ref().unwrap().all_clean()));

        // Quiet steady state: every pair armed + clean cache entry → the
        // whole round is served from cache, zero guest reads.
        let reads_before = m.metrics().counter("vmi_reads_total");
        let quiet = m.run_round_events(&hv, &ids);
        assert!(quiet.iter().all(|(_, r)| r.as_ref().unwrap().all_clean()));
        let reads_after = m.metrics().counter("vmi_reads_total");
        assert_eq!(
            reads_after, reads_before,
            "quiet round reads no guest memory"
        );
        assert_eq!(m.cache_stats().trusted_hits, 8, "4 VMs × 2 modules");

        // An infection fires events; only the dirtied pair rescans, and the
        // verdict names the same suspect a poll round would.
        guests[1]
            .patch_module(&mut hv, "ndis.sys", 0x1002, &[0xCC])
            .unwrap();
        let dirty = m.run_round_events(&hv, &ids);
        let ndis = dirty.iter().find(|(m, _)| m == "ndis.sys").unwrap();
        let suspects: Vec<String> = ndis
            .1
            .as_ref()
            .unwrap()
            .suspects()
            .map(|v| v.vm_name.clone())
            .collect();
        assert_eq!(suspects, vec!["dom2"]);
        let stats = m.event_stats().unwrap();
        assert!(stats.events_drained > 0);
        assert_eq!(stats.dirty_marks, 1);
        let reg = m.metrics();
        assert!(reg.counter("event_writes_drained_total") > 0);
        assert!(reg.counter("event_trusted_pairs_total") >= 8);
    }

    #[test]
    fn event_mode_catches_revert_despite_no_trap_events() {
        // A snapshot revert rewrites guest memory *without* firing write
        // traps (hypervisor-side remap). Trust must not mask it: the
        // monitor's remediation evicts the cache entries, which disables
        // the trusted short-circuit for exactly those pairs.
        let (mut hv, guests, ids) = cloud(4);
        for id in &ids {
            hv.vm_mut(*id).unwrap().snapshot("clean");
        }
        let m = monitor();
        m.arm_events(&mut hv, &ids).unwrap();
        guests[0]
            .patch_module(&mut hv, "hal.dll", 0x1002, &[0xCC])
            .unwrap();
        let round = m.run_round_events(&hv, &ids);
        let report = round[0].1.as_ref().unwrap().clone();
        assert!(report.any_discrepancy());

        m.remediate(&mut hv, &report, "clean").unwrap();
        // No events fired for the revert, the pair reads armed-and-quiet —
        // but its cache entry is gone, so the next round re-probes and sees
        // the clean bytes.
        let after = m.run_round_events(&hv, &ids);
        assert!(after
            .iter()
            .all(|(_, r)| r.as_ref().is_ok_and(PoolCheckReport::all_clean)));
    }

    #[test]
    fn armed_run_emits_the_same_stream_as_polling() {
        let (mut hv, guests, ids) = cloud(4);
        guests[2]
            .patch_module(&mut hv, "hal.dll", 0x1002, &[0xCC])
            .unwrap();

        let (tx_pull, rx_pull) = unbounded();
        monitor().run(&hv, &ids, 3, &tx_pull);
        drop(tx_pull);

        let mut m = monitor();
        m.arm_events(&mut hv, &ids).unwrap();
        let (tx_push, rx_push) = unbounded();
        m.run(&hv, &ids, 3, &tx_push);
        drop(tx_push);

        let label = |e: &MonitorEvent| match e {
            MonitorEvent::Clean { round, module } => format!("clean {module} @{round}"),
            MonitorEvent::Discrepancy {
                round,
                module,
                report,
            } => format!(
                "discrepancy {module} @{round}: {:?}",
                report
                    .suspects()
                    .map(|v| v.vm_name.clone())
                    .collect::<Vec<_>>()
            ),
            other => format!("{other:?}"),
        };
        let pull: Vec<String> = rx_pull.iter().map(|e| label(&e)).collect();
        let push: Vec<String> = rx_push.iter().map(|e| label(&e)).collect();
        assert_eq!(pull, push, "push and pull must agree event for event");
    }

    #[test]
    fn run_stops_when_receiver_drops() {
        let (hv, _guests, ids) = cloud(2);
        let (tx, rx) = unbounded();
        drop(rx);
        // Must return promptly instead of looping forever.
        monitor().run(&hv, &ids, 1000, &tx);
    }
}
