//! Fleet scan scheduler: sharded, batched multi-module sweeps.
//!
//! The paper scans one module across t clones of a single image. A
//! production cloud is a *fleet*: many pools (images), each with many
//! consensus modules, swept continuously. This module turns that into a
//! scheduling problem over `(pool, module)` work units:
//!
//! 1. **Shard the cloud into pools.** [`Fleet::discover`] groups VMs by
//!    module-list signature (same image ⇒ same loaded-module set), or the
//!    caller provides explicit [`PoolSpec`]s.
//! 2. **Expand work units.** Each pool's [`crate::listdiff::ListDiff`]
//!    scan yields its consensus module set; every consensus module becomes
//!    one `(pool, module)` unit.
//! 3. **Prioritize.** Units dispatch hot-first (modules that were suspects
//!    in an earlier sweep by the same [`FleetScheduler`]), then by image
//!    size descending (big captures first — classic LPT), then by name.
//!    The order is a pure function of scheduler state, never of timing.
//! 4. **Execute.** Pools are assigned to shards by longest-processing-time
//!    (LPT) over an estimated cost; shards run side by side (one shard runs
//!    on the calling thread), and within a pool units run one at a time in
//!    priority order — every unit touches all of the pool's VMs and shares
//!    the pool's capture cache.
//!
//! **Determinism.** Each unit's [`crate::report::PoolCheckReport`] is a
//! pure function of (cloud state, fault seed, check config): fault streams
//! are derived per `(plan seed, VM id)` at session attach, and within one
//! sweep each `(VM, module)` capture-cache key is owned by exactly one
//! unit. Execution order therefore cannot change any unit's bytes, and
//! results are always assembled in canonical (pool, priority) order — so a
//! fixed `--fault-seed` yields byte-identical [`FleetReport`] JSON at every
//! shard count. The golden tests pin this.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex};

use rayon::prelude::*;

use mc_hypervisor::{Hypervisor, SimDuration, VmId};
use mc_vmi::VmiSession;

use crate::error::CheckError;
use crate::events::EventPlane;
use crate::listdiff::{ListDiff, ListDiffReport};
use crate::lock;
use crate::report::{FleetPoolReport, FleetReport, FleetUnitReport, PoolCheckReport};
use crate::searcher::ModuleSearcher;
use crate::{AnalysisCacheStats, CacheStats, CaptureCache, CheckConfig, ModChecker};

/// One pool: a named group of VMs presumed to run the same image.
#[derive(Clone, Debug)]
pub struct PoolSpec {
    /// Pool name — the image identity. Keys the scheduler's per-pool
    /// capture cache and suspect history.
    pub name: String,
    /// Member VMs, pool order.
    pub vms: Vec<VmId>,
}

/// A cloud carved into pools, plus the VMs that fit nowhere.
#[derive(Clone, Debug, Default)]
pub struct Fleet {
    /// The pools, in founding order.
    pub pools: Vec<PoolSpec>,
    /// VMs excluded from every pool, as `(vm_name, reason)`.
    pub unassigned: Vec<(String, String)>,
}

impl Fleet {
    /// Builds a fleet from explicit pool specs (topology known a priori —
    /// the common case when the cloud manager tracks image lineage).
    pub fn from_pools(pools: Vec<PoolSpec>) -> Self {
        Fleet {
            pools,
            unassigned: Vec::new(),
        }
    }

    /// Total VMs across all pools.
    pub fn vm_count(&self) -> usize {
        self.pools.iter().map(|p| p.vms.len()).sum()
    }

    /// Discovers pools from module-list topology: VMs whose loaded-module
    /// sets overlap (Jaccard ≥ 0.5 against the group's founding member)
    /// share an image. VMs with unreadable lists, and groups of one (no
    /// peer to vote against), land in `unassigned`.
    ///
    /// Deterministic: VMs are considered in input order and ties never
    /// arise (a VM joins the *best*-overlapping group, first-founded wins
    /// on equal score).
    pub fn discover(hv: &Hypervisor, vms: &[VmId]) -> Fleet {
        let mut groups: Vec<(BTreeSet<String>, Vec<VmId>)> = Vec::new();
        let mut unassigned = Vec::new();
        for &vm in vms {
            let vm_name = hv.vm(vm).map(|v| v.name.clone()).unwrap_or_default();
            let listed = VmiSession::attach(hv, vm)
                .map_err(CheckError::from)
                .and_then(|mut s| ModuleSearcher::list_modules(&mut s));
            match listed {
                Ok(modules) => {
                    let sig: BTreeSet<String> =
                        modules.iter().map(|m| m.name.to_lowercase()).collect();
                    // Best-overlapping group; first-founded wins ties
                    // (strict `>`), so assignment is deterministic.
                    let mut best: Option<(usize, f64)> = None;
                    for (gi, (group_sig, _)) in groups.iter().enumerate() {
                        let score = jaccard(group_sig, &sig);
                        if best.is_none_or(|(_, s)| score > s) {
                            best = Some((gi, score));
                        }
                    }
                    match best.filter(|&(_, score)| score >= 0.5) {
                        Some((gi, _)) => groups[gi].1.push(vm),
                        None => groups.push((sig, vec![vm])),
                    }
                }
                Err(e) => unassigned.push((vm_name, format!("unreadable module list: {e}"))),
            }
        }
        let mut pools = Vec::new();
        for (gi, (_, members)) in groups.into_iter().enumerate() {
            if members.len() < 2 {
                for vm in members {
                    let name = hv.vm(vm).map(|v| v.name.clone()).unwrap_or_default();
                    unassigned.push((name, "no peer shares this image".to_string()));
                }
            } else {
                pools.push(PoolSpec {
                    name: format!("pool{gi}"),
                    vms: members,
                });
            }
        }
        Fleet { pools, unassigned }
    }
}

#[allow(clippy::cast_precision_loss)]
fn jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0 // two empty signatures are the same (degenerate) image
    } else {
        inter as f64 / union as f64
    }
}

/// Fleet scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Per-unit check configuration (compare strategy, retries…).
    pub check: CheckConfig,
    /// Number of shards pools are spread over. `1` = the whole sweep runs
    /// on the calling thread.
    pub shards: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            check: CheckConfig::default(),
            shards: 1,
        }
    }
}

/// One expanded `(pool, module)` work unit, pre-dispatch.
#[derive(Clone, Debug)]
struct WorkUnit {
    module: String,
    size: u64,
    hot: bool,
}

/// The fleet scan scheduler.
///
/// Holds cross-sweep state: one [`CaptureCache`] per pool (so repeated
/// sweeps reuse page generations) and the suspect history that drives
/// hot-first unit priority. Sweeps take `&self`; internal state is behind
/// mutexes so shards can share it.
#[derive(Debug, Default)]
pub struct FleetScheduler {
    checker: ModChecker,
    config: FleetConfig,
    caches: Mutex<HashMap<String, Arc<Mutex<CaptureCache>>>>,
    history: Mutex<HashSet<(String, String)>>,
}

impl FleetScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: FleetConfig) -> Self {
        FleetScheduler {
            checker: ModChecker::with_config(config.check),
            config,
            caches: Mutex::new(HashMap::new()),
            history: Mutex::new(HashSet::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Current suspect history as sorted `(pool, module)` pairs.
    pub fn suspect_history(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = lock(&self.history).iter().cloned().collect();
        out.sort();
        out
    }

    /// Aggregated capture-cache statistics across every pool cache.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for cache in lock(&self.caches).values() {
            total += lock(cache).stats();
        }
        total
    }

    /// Aggregated static-analysis cache statistics across every pool cache.
    /// `runs` counts real lint-engine invocations: the per-bucket pre-pass
    /// acceptance bound ("≤ one run per content bucket per unit") is pinned
    /// against this.
    pub fn analysis_stats(&self) -> AnalysisCacheStats {
        let mut total = AnalysisCacheStats::default();
        for cache in lock(&self.caches).values() {
            let s = lock(cache).analysis_stats();
            total.runs += s.runs;
            total.hits += s.hits;
        }
        total
    }

    fn cache_handle(&self, pool: &str) -> Arc<Mutex<CaptureCache>> {
        lock(&self.caches)
            .entry(pool.to_string())
            .or_default()
            .clone()
    }

    /// Runs one full sweep: per-pool list scans, unit expansion, sharded
    /// execution, canonical-order assembly. See the module docs for the
    /// determinism argument.
    pub fn sweep(&self, hv: &Hypervisor, fleet: &Fleet) -> FleetReport {
        self.sweep_with_trust(hv, fleet, None)
    }

    /// [`FleetScheduler::sweep`] with an optional event plane: a pool VM
    /// whose `(vm, module)` pair is armed and event-quiet, and whose fresh
    /// list scan still lists the module, is *trusted* — its unit is served
    /// from the pool capture cache with zero guest reads. Every sweep walks
    /// every pool's lists, because the watches cover module images, not
    /// LDR list nodes. Verdicts are identical to an untrusted sweep (trust
    /// only short-circuits pairs whose cached capture is still live;
    /// anything evicted — revert, quarantine — re-probes).
    pub fn sweep_with_trust(
        &self,
        hv: &Hypervisor,
        fleet: &Fleet,
        trust: Option<&EventPlane>,
    ) -> FleetReport {
        // Phase 1: list scans, one per pool.
        let listings: Vec<Result<ListDiffReport, CheckError>> = fleet
            .pools
            .iter()
            .map(|p| ListDiff::scan_with(hv, &p.vms, self.config.check.fast_capture))
            .collect();

        // Phase 2: expand consensus modules into prioritized units.
        let history: HashSet<(String, String)> = lock(&self.history).clone();
        let pool_units: Vec<Vec<WorkUnit>> = fleet
            .pools
            .iter()
            .zip(&listings)
            .map(|(pool, lists)| {
                let Ok(rep) = lists else { return Vec::new() };
                let mut units: Vec<WorkUnit> = rep
                    .consensus_modules
                    .iter()
                    .map(|m| WorkUnit {
                        module: m.clone(),
                        size: rep.module_sizes.get(m).copied().unwrap_or(0),
                        hot: history.contains(&(pool.name.clone(), m.clone())),
                    })
                    .collect();
                units.sort_by(|a, b| {
                    b.hot
                        .cmp(&a.hot)
                        .then(b.size.cmp(&a.size))
                        .then(a.module.cmp(&b.module))
                });
                units
            })
            .collect();

        // Phase 3: LPT shard assignment over estimated pool cost
        // (Σ unit size × pool width, so a pool's captures dominate).
        let costs: Vec<u64> = fleet
            .pools
            .iter()
            .zip(&pool_units)
            .map(|(pool, units)| {
                1 + units.iter().map(|u| u.size).sum::<u64>() * pool.vms.len() as u64
            })
            .collect();
        let shard_of = assign_shards(&costs, self.config.shards.max(1));
        let mut shard_groups: Vec<Vec<usize>> = vec![Vec::new(); self.config.shards.max(1)];
        for (pool_idx, &shard) in shard_of.iter().enumerate() {
            shard_groups[shard].push(pool_idx);
        }

        // Phase 4: execute. Shards in parallel; within a shard pools in
        // order; within a pool units one at a time in priority order.
        type PoolResults = (usize, Vec<Result<PoolCheckReport, CheckError>>);
        let shard_results: Vec<Vec<PoolResults>> = shard_groups
            .par_iter()
            .map(|pool_idxs| {
                pool_idxs
                    .iter()
                    .map(|&pi| {
                        let pool = &fleet.pools[pi];
                        let cache = self.cache_handle(&pool.name);
                        let reports = match &listings[pi] {
                            Ok(lists) => pool_units[pi]
                                .iter()
                                .map(|u| self.run_unit(hv, pool, lists, &cache, &u.module, trust))
                                .collect(),
                            // A pool whose list scan failed expanded no units.
                            Err(_) => Vec::new(),
                        };
                        (pi, reports)
                    })
                    .collect()
            })
            .collect();

        // Phase 5: canonical-order assembly — each pool's results land in
        // its slot regardless of which shard ran them.
        let mut results: Vec<Vec<Result<PoolCheckReport, CheckError>>> =
            fleet.pools.iter().map(|_| Vec::new()).collect();
        for (pi, reports) in shard_results.into_iter().flatten() {
            results[pi] = reports;
        }

        let mut pools_out = Vec::with_capacity(fleet.pools.len());
        for (pi, pool) in fleet.pools.iter().enumerate() {
            let vm_names: Vec<String> = pool
                .vms
                .iter()
                .map(|&vm| hv.vm(vm).map(|v| v.name.clone()).unwrap_or_default())
                .collect();
            let units: Vec<FleetUnitReport> = pool_units[pi]
                .iter()
                .zip(std::mem::take(&mut results[pi]))
                .enumerate()
                .map(|(priority, (u, result))| FleetUnitReport {
                    pool: pool.name.clone(),
                    module: u.module.clone(),
                    priority,
                    hot: u.hot,
                    result,
                })
                .collect();
            let (lists, list_error) = match &listings[pi] {
                Ok(rep) => (Some(rep.clone()), None),
                Err(e) => (None, Some(e.to_string())),
            };
            pools_out.push(FleetPoolReport {
                pool: pool.name.clone(),
                vm_names,
                lists,
                list_error,
                units,
            });
        }

        // Update suspect history for the next sweep's priority ordering.
        let mut h = lock(&self.history);
        for pool in &pools_out {
            for unit in &pool.units {
                let key = (pool.pool.clone(), unit.module.clone());
                match &unit.result {
                    Ok(r) if r.suspects().next().is_some() => {
                        h.insert(key);
                    }
                    Ok(_) => {
                        h.remove(&key);
                    }
                    Err(_) => {} // keep prior heat; errors say nothing
                }
            }
        }
        drop(h);

        FleetReport {
            pools: pools_out,
            unassigned: fleet.unassigned.clone(),
        }
    }

    /// Checks one unit. Trust follows the sweep's fresh listing: a VM
    /// whose list does not name `module` (unlinked, or an unreadable list)
    /// is never trusted, so it takes the normal probe path.
    fn run_unit(
        &self,
        hv: &Hypervisor,
        pool: &PoolSpec,
        lists: &ListDiffReport,
        cache: &Mutex<CaptureCache>,
        module: &str,
        trust: Option<&EventPlane>,
    ) -> Result<PoolCheckReport, CheckError> {
        let trusted = trust
            .map(|plane| {
                // `listings` follow `pool.vms` order, one per VM.
                let listed: Vec<VmId> = pool
                    .vms
                    .iter()
                    .zip(&lists.listings)
                    .filter(|(_, l)| l.modules.iter().any(|m| m == module))
                    .map(|(&vm, _)| vm)
                    .collect();
                plane.trusted_for(module, &listed)
            })
            .unwrap_or_default();
        self.checker.check_pool_with_cache_trusted(
            hv,
            &pool.vms,
            module,
            &mut lock(cache),
            &trusted,
        )
    }
}

/// Longest-processing-time assignment: pools sorted by cost descending
/// (ties: lower index first) each go to the currently lightest shard
/// (ties: lowest shard index). Returns `assignment[pool_idx] = shard_idx`.
/// Deterministic by construction.
pub fn assign_shards(costs: &[u64], shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then(a.cmp(&b)));
    let mut load = vec![0u64; shards];
    let mut assignment = vec![0usize; costs.len()];
    for pool_idx in order {
        let lightest = (0..shards).min_by_key(|&s| (load[s], s)).unwrap_or(0);
        assignment[pool_idx] = lightest;
        load[lightest] += costs[pool_idx];
    }
    assignment
}

/// The sharded makespan model: assigns pools to `shards` shards by LPT
/// over their *measured* simulated durations and returns the heaviest
/// shard's total — the simulated wall-clock of the sharded sweep.
///
/// Monotone nonincreasing in `shards` and never better than
/// `sequential / shards` (sub-linear: LPT imbalance and per-pool
/// serialization are real). `fig_fleet` plots units/sec from this.
pub fn simulated_fleet_wall(report: &FleetReport, shards: usize) -> SimDuration {
    let costs: Vec<u64> = report
        .pools
        .iter()
        .map(|p| p.duration().as_nanos())
        .collect();
    let assignment = assign_shards(&costs, shards);
    let mut load = vec![0u64; shards.max(1)];
    for (pool_idx, &shard) in assignment.iter().enumerate() {
        load[shard] += costs[pool_idx];
    }
    SimDuration::from_nanos(load.into_iter().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_guest::GuestOs;
    use mc_hypervisor::{AddressWidth, FaultPlan};
    use mc_pe::corpus::ModuleBlueprint;
    use mc_pe::PeFile;

    fn blueprints(prefix: &str, count: usize) -> Vec<(String, PeFile)> {
        (0..count)
            .map(|m| {
                let name = format!("{prefix}m{m}.sys");
                let pe = ModuleBlueprint::new(&name, AddressWidth::W32, (4 + 2 * m) * 1024)
                    .build()
                    .unwrap();
                (name, pe)
            })
            .collect()
    }

    /// Builds `pools` pools of `per_pool` VMs each, with `modules` modules
    /// per pool (distinct names per pool so discovery can't merge them).
    fn fleet_bed(
        pools: usize,
        per_pool: usize,
        modules: usize,
    ) -> (Hypervisor, Vec<Vec<GuestOs>>, Fleet) {
        let mut hv = Hypervisor::new();
        let mut specs = Vec::new();
        let mut guests = Vec::new();
        for p in 0..pools {
            let files = blueprints(&format!("p{p}"), modules);
            let mut vms = Vec::new();
            let mut pool_guests = Vec::new();
            for i in 0..per_pool {
                let vm = hv
                    .create_vm(&format!("p{p}dom{i}"), AddressWidth::W32)
                    .unwrap();
                let g =
                    GuestOs::install_with_modules(&mut hv, vm, &files, (p * 100 + i + 1) as u64)
                        .unwrap();
                vms.push(vm);
                pool_guests.push(g);
            }
            specs.push(PoolSpec {
                name: format!("pool{p}"),
                vms,
            });
            guests.push(pool_guests);
        }
        (hv, guests, Fleet::from_pools(specs))
    }

    #[test]
    fn sweep_covers_every_pool_and_module() {
        let (hv, _guests, fleet) = fleet_bed(3, 4, 2);
        let sched = FleetScheduler::new(FleetConfig::default());
        let report = sched.sweep(&hv, &fleet);
        assert_eq!(report.pools.len(), 3);
        assert_eq!(report.units_total(), 6);
        assert_eq!(report.units_failed(), 0);
        assert!(report.all_clean(), "{report}");
        for p in &report.pools {
            assert_eq!(p.vm_names.len(), 4);
            assert!(p.lists.as_ref().unwrap().consistent());
        }
    }

    #[test]
    fn unit_priority_is_size_desc_then_name() {
        let (hv, _guests, fleet) = fleet_bed(1, 3, 3);
        let sched = FleetScheduler::new(FleetConfig::default());
        let report = sched.sweep(&hv, &fleet);
        let modules: Vec<&str> = report.pools[0]
            .units
            .iter()
            .map(|u| u.module.as_str())
            .collect();
        // Expected order: by advertised image size descending (name as
        // tie-break) — exactly what the list scan measured.
        let sizes = &report.pools[0].lists.as_ref().unwrap().module_sizes;
        let mut expected: Vec<&str> = sizes.keys().map(String::as_str).collect();
        expected.sort_by(|a, b| sizes[*b].cmp(&sizes[*a]).then(a.cmp(b)));
        assert_eq!(modules, expected, "sizes: {sizes:?}");
        assert!(
            sizes.len() == 3 && sizes.values().all(|&s| s > 0),
            "{sizes:?}"
        );
    }

    #[test]
    fn suspect_history_boosts_hot_modules_next_sweep() {
        let (mut hv, guests, fleet) = fleet_bed(1, 4, 3);
        // Patch the *smallest* module on one VM so priority and heat pull
        // in opposite directions.
        guests[0][2]
            .patch_module(&mut hv, "p0m0.sys", 0x1010, &[0xCC, 0xCC])
            .unwrap();
        let sched = FleetScheduler::new(FleetConfig::default());
        let first = sched.sweep(&hv, &fleet);
        assert_eq!(
            first.suspects(),
            vec![(
                "pool0".to_string(),
                "p0m0.sys".to_string(),
                "p0dom2".to_string()
            )]
        );
        assert_eq!(
            sched.suspect_history(),
            vec![("pool0".to_string(), "p0m0.sys".to_string())]
        );
        let second = sched.sweep(&hv, &fleet);
        let head = &second.pools[0].units[0];
        assert!(head.hot, "hot module must dispatch first");
        assert_eq!(head.module, "p0m0.sys");
        // Remediate and the heat clears after the next clean sweep.
        guests[0][2]
            .patch_module(&mut hv, "p0m0.sys", 0x1010, &[0x55, 0x8B])
            .unwrap();
        let _third = sched.sweep(&hv, &fleet);
        // The module content is still different from peers unless restored
        // exactly; just assert history tracking ran without panicking and
        // hot ordering stayed deterministic.
        assert_eq!(second.pools[0].units.len(), 3);
    }

    #[test]
    fn sharded_and_sequential_sweeps_serialize_identically() {
        let (mut hv, guests, fleet) = fleet_bed(3, 3, 2);
        guests[1][0]
            .patch_module(&mut hv, "p1m1.sys", 0x1008, &[0xDE, 0xAD])
            .unwrap();
        hv.inject_fault_plan(FaultPlan::transient(7, 0.02));
        let render = |shards: usize| {
            let sched = FleetScheduler::new(FleetConfig {
                shards,
                ..FleetConfig::default()
            });
            serde_json::to_string_pretty(&sched.sweep(&hv, &fleet).to_json()).unwrap()
        };
        let sequential = render(1);
        assert_eq!(sequential, render(4), "shards must not change bytes");
        assert_eq!(sequential, render(8), "shards must not change bytes");
    }

    #[test]
    fn static_prepass_amortizes_analysis_runs_across_sweeps() {
        let (mut hv, guests, fleet) = fleet_bed(2, 4, 2);
        // A hook-style rel32 patch on one VM: the pre-pass must flag it,
        // and its bucket split adds exactly one extra analyzer run.
        guests[0][1]
            .patch_module(&mut hv, "p0m0.sys", 0x1000, &[0xE9, 0x10, 0x00, 0x00, 0x00])
            .unwrap();
        let sched = FleetScheduler::new(FleetConfig {
            check: CheckConfig {
                compare: crate::pool::CompareStrategy::Canonical,
                static_prepass: true,
                ..CheckConfig::default()
            },
            ..FleetConfig::default()
        });
        let report = sched.sweep(&hv, &fleet);
        assert_eq!(report.units_failed(), 0);
        let flagged: Vec<(&str, Vec<&str>)> = report
            .pools
            .iter()
            .flat_map(|p| &p.units)
            .filter_map(|u| u.result.as_ref().ok())
            .filter(|r| !r.static_findings.is_empty())
            .map(|r| (r.module.as_str(), r.statically_flagged_vms()))
            .collect();
        assert_eq!(flagged, vec![("p0m0.sys", vec!["p0dom1"])]);

        // Per-bucket bound: every clean (pool, module) unit is one content
        // bucket = one run; the hooked unit splits into two. 4 units total.
        let first = sched.analysis_stats();
        assert_eq!(first.runs, 5, "4 clean buckets + 1 split");

        // A second sweep over unchanged content is served entirely from
        // the per-pool caches: zero new analyzer runs.
        let again = sched.sweep(&hv, &fleet);
        assert_eq!(again.units_failed(), 0);
        let second = sched.analysis_stats();
        assert_eq!(second.runs, first.runs, "steady state re-runs nothing");
        assert!(second.hits > first.hits);
    }

    #[test]
    fn static_prepass_keeps_sharded_sweeps_byte_identical() {
        let (mut hv, guests, fleet) = fleet_bed(3, 3, 2);
        guests[1][0]
            .patch_module(&mut hv, "p1m1.sys", 0x1000, &[0xE9, 0x10, 0x00, 0x00, 0x00])
            .unwrap();
        let render = |shards: usize| {
            let sched = FleetScheduler::new(FleetConfig {
                check: CheckConfig {
                    compare: crate::pool::CompareStrategy::Canonical,
                    static_prepass: true,
                    ..CheckConfig::default()
                },
                shards,
            });
            serde_json::to_string_pretty(&sched.sweep(&hv, &fleet).to_json()).unwrap()
        };
        let sequential = render(1);
        assert!(sequential.contains("statically_flagged"));
        assert_eq!(sequential, render(4), "prepass must not change bytes");
        assert_eq!(sequential, render(8), "prepass must not change bytes");
    }

    #[test]
    fn discover_groups_by_module_signature() {
        let (hv, _guests, fleet) = fleet_bed(2, 3, 2);
        let all_vms: Vec<VmId> = fleet.pools.iter().flat_map(|p| p.vms.clone()).collect();
        let found = Fleet::discover(&hv, &all_vms);
        assert_eq!(found.pools.len(), 2);
        assert!(found.unassigned.is_empty());
        assert_eq!(found.pools[0].vms, fleet.pools[0].vms);
        assert_eq!(found.pools[1].vms, fleet.pools[1].vms);
    }

    #[test]
    fn discover_sidelines_loners_and_unreadable_vms() {
        let (mut hv, _guests, fleet) = fleet_bed(1, 3, 2);
        // A singleton with its own image...
        let lone = hv.create_vm("loner", AddressWidth::W32).unwrap();
        let files = blueprints("q", 1);
        let _g = GuestOs::install_with_modules(&mut hv, lone, &files, 99).unwrap();
        // ...and a VM that is unreachable at list time.
        let dead = hv.create_vm("dead", AddressWidth::W32).unwrap();
        let _g2 = GuestOs::install_with_modules(&mut hv, dead, &blueprints("r", 1), 98).unwrap();
        hv.set_fault_plan(dead, Some(FaultPlan::none(1).lose_after(0)))
            .unwrap();
        let mut all_vms: Vec<VmId> = fleet.pools[0].vms.clone();
        all_vms.push(lone);
        all_vms.push(dead);
        let found = Fleet::discover(&hv, &all_vms);
        assert_eq!(found.pools.len(), 1);
        assert_eq!(found.pools[0].vms, fleet.pools[0].vms);
        let names: Vec<&str> = found.unassigned.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["dead", "loner"]);
    }

    #[test]
    fn trusted_sweep_serves_quiet_pools_without_guest_reads() {
        // 4 VMs per pool so the one infected VM is outvoted by its three
        // clean peers (strict majority flags everyone at 3 VMs).
        let (mut hv, guests, fleet) = fleet_bed(2, 4, 2);
        let all_vms: Vec<VmId> = fleet.pools.iter().flat_map(|p| p.vms.clone()).collect();
        let mut plane = EventPlane::new();
        for pool in &fleet.pools {
            let listing = ListDiff::scan_with(&hv, &pool.vms, true).unwrap();
            plane
                .arm_modules(&mut hv, &pool.vms, &listing.consensus_modules)
                .unwrap();
        }
        let _ = all_vms;

        let sched = FleetScheduler::new(FleetConfig::default());
        // Cold sweep fills the caches; quiet sweep reads nothing.
        let cold = sched.sweep_with_trust(&hv, &fleet, Some(&plane));
        assert!(cold.all_clean());
        plane.drain(&hv);
        let quiet = sched.sweep_with_trust(&hv, &fleet, Some(&plane));
        assert!(quiet.all_clean());
        let reads: u64 = quiet
            .pools
            .iter()
            .flat_map(|p| &p.units)
            .filter_map(|u| u.result.as_ref().ok())
            .map(|r| r.vmi.reads)
            .sum();
        assert_eq!(reads, 0, "every unit trusted: zero guest reads");

        // An event-dirtied pair re-probes and is caught.
        guests[1][0]
            .patch_module(&mut hv, "p1m1.sys", 0x1008, &[0xDE, 0xAD])
            .unwrap();
        plane.drain(&hv);
        let dirty = sched.sweep_with_trust(&hv, &fleet, Some(&plane));
        assert_eq!(
            dirty.suspects(),
            vec![(
                "pool1".to_string(),
                "p1m1.sys".to_string(),
                "p1dom0".to_string()
            )]
        );
    }

    #[test]
    fn a_text_write_is_caught_by_the_next_poll_sweep_through_a_partial_hit() {
        let (mut hv, guests, fleet) = fleet_bed(2, 4, 2);
        let sched = FleetScheduler::new(FleetConfig::default());
        // Two poll sweeps warm the caches: the first captures, the second
        // is served from the cache in full.
        assert!(sched.sweep(&hv, &fleet).all_clean());
        assert!(sched.sweep(&hv, &fleet).all_clean());
        let warm = sched.cache_stats();
        assert_eq!(warm.partial_hits, 0);

        // One byte of `.text` on one VM: its page's generation moves, so
        // the next sweep must refresh that page rather than serve the
        // stale capture.
        guests[0][2]
            .patch_module(&mut hv, "p0m1.sys", 0x1008, &[0xCC])
            .unwrap();
        let swept = sched.sweep(&hv, &fleet);
        assert_eq!(
            swept.suspects(),
            vec![(
                "pool0".to_string(),
                "p0m1.sys".to_string(),
                "p0dom2".to_string()
            )]
        );
        let after = sched.cache_stats();
        assert_eq!(after.partial_hits, warm.partial_hits + 1);
        assert_eq!(after.pages_refreshed, warm.pages_refreshed + 1);
        assert_eq!(after.misses, warm.misses, "no full recapture");
        assert_eq!(after.invalidations, warm.invalidations);
    }

    #[test]
    fn cache_stats_sums_every_field_of_every_pool_cache() {
        let (mut hv, guests, fleet) = fleet_bed(2, 4, 2);
        let mut plane = EventPlane::new();
        for pool in &fleet.pools {
            let listing = ListDiff::scan_with(&hv, &pool.vms, true).unwrap();
            plane
                .arm_modules(&mut hv, &pool.vms, &listing.consensus_modules)
                .unwrap();
        }
        let sched = FleetScheduler::new(FleetConfig {
            check: CheckConfig {
                tamper_evidence: true,
                ..CheckConfig::default()
            },
            ..FleetConfig::default()
        });
        // Cold sweep (misses), quiet sweep (trusted hits), then an
        // identical-bytes rewrite in each pool (partial hits whose pages
        // read back unchanged: silent restores).
        sched.sweep_with_trust(&hv, &fleet, Some(&plane));
        plane.drain(&hv);
        sched.sweep_with_trust(&hv, &fleet, Some(&plane));
        for (p, pool_guests) in guests.iter().enumerate() {
            let g = &pool_guests[1];
            let module = format!("p{p}m1.sys");
            let base = g.find_module(&module).unwrap().base;
            let mut same = [0u8; 16];
            hv.vm(g.vm)
                .unwrap()
                .read_virt(base + 0x1008, &mut same)
                .unwrap();
            g.patch_module(&mut hv, &module, 0x1008, &same).unwrap();
        }
        plane.drain(&hv);
        sched.sweep_with_trust(&hv, &fleet, Some(&plane));

        let per_pool: Vec<CacheStats> = sched
            .caches
            .lock()
            .unwrap()
            .values()
            .map(|c| c.lock().unwrap().stats())
            .collect();
        assert_eq!(per_pool.len(), 2);
        let sum = |f: fn(&CacheStats) -> u64| per_pool.iter().map(f).sum::<u64>();
        let want = CacheStats {
            hits: sum(|s| s.hits),
            trusted_hits: sum(|s| s.trusted_hits),
            partial_hits: sum(|s| s.partial_hits),
            pages_refreshed: sum(|s| s.pages_refreshed),
            pages_reused: sum(|s| s.pages_reused),
            misses: sum(|s| s.misses),
            invalidations: sum(|s| s.invalidations),
            evictions: sum(|s| s.evictions),
            silent_restores: sum(|s| s.silent_restores),
        };
        let total = sched.cache_stats();
        assert_eq!(total, want);
        // The push-path counters are non-zero, so leaving one out of the
        // aggregate would show.
        assert!(total.trusted_hits > 0, "{total:?}");
        assert!(total.partial_hits > 0, "{total:?}");
        assert!(total.pages_refreshed > 0, "{total:?}");
        assert!(total.pages_reused > 0, "{total:?}");
        assert!(total.silent_restores > 0, "{total:?}");
    }

    /// Votes reused across every pool cache of `sched`.
    fn vote_reuses(sched: &FleetScheduler) -> u64 {
        lock(&sched.caches)
            .values()
            .map(|c| lock(c).vote_reuses())
            .sum()
    }

    /// Sweeps through `sched` and through a clone of its state with the
    /// vote memos dropped; the two reports must serialize byte-identically.
    fn sweep_against_oracle(
        sched: &FleetScheduler,
        hv: &Hypervisor,
        fleet: &Fleet,
        trust: Option<&EventPlane>,
    ) -> FleetReport {
        let oracle = FleetScheduler::new(sched.config);
        for (pool, cache) in lock(&sched.caches).iter() {
            let mut c = lock(cache).clone();
            c.forget_votes();
            lock(&oracle.caches).insert(pool.clone(), Arc::new(Mutex::new(c)));
        }
        *lock(&oracle.history) = lock(&sched.history).clone();
        let want = oracle.sweep_with_trust(hv, fleet, trust);
        let got = sched.sweep_with_trust(hv, fleet, trust);
        let json = |r: &FleetReport| serde_json::to_string_pretty(&r.to_json()).unwrap();
        assert_eq!(json(&got), json(&want));
        got
    }

    /// A report's verdict content: everything but simulated time and the
    /// introspection counters, which push mode exists to cut.
    fn verdict_json(report: &FleetReport) -> String {
        fn strip(v: &mut serde_json::Value) {
            match v {
                serde_json::Value::Object(obj) => {
                    obj.retain(|(k, _)| {
                        !matches!(
                            k.as_str(),
                            "times_ms" | "vmi" | "simulated_wall_sequential_ms"
                        )
                    });
                    obj.iter_mut().for_each(|(_, v)| strip(v));
                }
                serde_json::Value::Array(items) => items.iter_mut().for_each(strip),
                _ => {}
            }
        }
        let mut v = report.to_json();
        strip(&mut v);
        serde_json::to_string_pretty(&v).unwrap()
    }

    #[test]
    fn push_and_poll_sweeps_agree_with_vote_reuse_active() {
        let (mut hv, guests, fleet) = fleet_bed(2, 4, 2);
        guests[0][1]
            .patch_module(&mut hv, "p0m0.sys", 0x1000, &[0xE9, 0x10, 0x00, 0x00, 0x00])
            .unwrap();
        let mut plane = EventPlane::new();
        for pool in &fleet.pools {
            let listing = ListDiff::scan_with(&hv, &pool.vms, true).unwrap();
            plane
                .arm_modules(&mut hv, &pool.vms, &listing.consensus_modules)
                .unwrap();
        }
        let config = FleetConfig {
            check: CheckConfig {
                compare: crate::pool::CompareStrategy::Canonical,
                static_prepass: true,
                ..CheckConfig::default()
            },
            ..FleetConfig::default()
        };
        let (poll, push) = (FleetScheduler::new(config), FleetScheduler::new(config));
        let sweep_both = |hv: &Hypervisor, plane: &mut EventPlane| {
            plane.drain(hv);
            let polled = sweep_against_oracle(&poll, hv, &fleet, None);
            let pushed = sweep_against_oracle(&push, hv, &fleet, Some(plane));
            assert_eq!(verdict_json(&polled), verdict_json(&pushed));
            polled
        };
        // Cold, then two quiet sweeps: the quiet ones reuse every vote.
        let hooked = (
            "pool0".to_string(),
            "p0m0.sys".to_string(),
            "p0dom1".to_string(),
        );
        let cold = sweep_both(&hv, &mut plane);
        assert_eq!(cold.suspects(), vec![hooked.clone()]);
        assert!(verdict_json(&cold).contains("statically_flagged\": [\n"));
        sweep_both(&hv, &mut plane);
        sweep_both(&hv, &mut plane);
        let units = cold.units_total() as u64;
        assert_eq!(vote_reuses(&poll), 2 * units);
        assert_eq!(vote_reuses(&push), 2 * units);

        // A one-byte write: both modes flag it on the next sweep, and only
        // the written unit recomputes its vote.
        guests[1][2]
            .patch_module(&mut hv, "p1m1.sys", 0x1008, &[0xCC])
            .unwrap();
        let written = sweep_both(&hv, &mut plane);
        assert_eq!(
            written.suspects(),
            vec![
                hooked,
                (
                    "pool1".to_string(),
                    "p1m1.sys".to_string(),
                    "p1dom2".to_string()
                )
            ]
        );
        assert_eq!(vote_reuses(&poll), 3 * units - 1);
        assert_eq!(vote_reuses(&push), 3 * units - 1);
    }

    #[test]
    fn push_sweep_catches_a_dkom_unlink_like_poll() {
        let (mut hv, guests, fleet) = fleet_bed(2, 4, 2);
        let mut plane = EventPlane::new();
        for pool in &fleet.pools {
            let listing = ListDiff::scan_with(&hv, &pool.vms, true).unwrap();
            plane
                .arm_modules(&mut hv, &pool.vms, &listing.consensus_modules)
                .unwrap();
        }
        let (poll, push) = (
            FleetScheduler::new(FleetConfig::default()),
            FleetScheduler::new(FleetConfig::default()),
        );
        let sweep_both = |hv: &Hypervisor, plane: &mut EventPlane| {
            plane.drain(hv);
            let polled = poll.sweep(hv, &fleet);
            let pushed = push.sweep_with_trust(hv, &fleet, Some(plane));
            plane.clear_dirty();
            (polled, pushed)
        };
        // Two warm sweeps: every pair is cached and event-quiet.
        for _ in 0..2 {
            let (polled, pushed) = sweep_both(&hv, &mut plane);
            assert!(polled.all_clean() && pushed.all_clean());
        }

        // Unlinking writes list nodes, which no watch covers: the plane
        // stays quiet, so only the fresh listing can revoke trust.
        guests[1][0].dkom_hide(&mut hv, "p1m1.sys").unwrap();
        let (polled, pushed) = sweep_both(&hv, &mut plane);
        assert_eq!(verdict_json(&pushed), verdict_json(&polled));
        let hidden = (
            "pool1".to_string(),
            "p1m1.sys".to_string(),
            "p1dom0".to_string(),
        );
        for report in [&polled, &pushed] {
            assert!(!report.pools[1].lists.as_ref().unwrap().consistent());
            assert!(report.suspects().contains(&hidden), "{report}");
        }
    }

    #[test]
    fn lpt_assignment_is_deterministic_and_balanced() {
        let costs = vec![10, 7, 7, 3, 1];
        assert_eq!(assign_shards(&costs, 2), vec![0, 1, 1, 0, 0]);
        assert_eq!(assign_shards(&costs, 1), vec![0, 0, 0, 0, 0]);
        // More shards than pools: each pool gets its own shard.
        let spread = assign_shards(&costs, 8);
        let unique: HashSet<usize> = spread.iter().copied().collect();
        assert_eq!(unique.len(), costs.len());
    }

    #[test]
    fn makespan_model_is_monotone_and_sublinear() {
        let (hv, _guests, fleet) = fleet_bed(4, 3, 2);
        let sched = FleetScheduler::new(FleetConfig::default());
        let report = sched.sweep(&hv, &fleet);
        let seq = report.simulated_wall_sequential();
        assert_eq!(simulated_fleet_wall(&report, 1), seq);
        let mut prev = seq;
        for shards in [2, 4, 8] {
            let wall = simulated_fleet_wall(&report, shards);
            assert!(wall <= prev, "makespan must not grow with shards");
            assert!(
                wall.as_nanos() * (shards as u64) >= seq.as_nanos(),
                "speedup beyond shard count is impossible"
            );
            prev = wall;
        }
        // With 4 pools on 8 shards the makespan is the heaviest pool.
        let heaviest = report
            .pools
            .iter()
            .map(FleetPoolReport::duration)
            .max()
            .unwrap();
        assert_eq!(simulated_fleet_wall(&report, 8), heaviest);
    }
}
