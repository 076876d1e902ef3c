//! Check reports: per-pair outcomes, majority verdicts, component timing,
//! and — since the chaos work — quorum accounting: a pool scan reports how
//! many VMs it could actually vote over, and each verdict distinguishes
//! *unscannable* (the VM vanished / timed out) from *infected*.

use std::fmt;

use mc_hypervisor::SimDuration;

use crate::checker::PairOutcome;
use crate::error::CheckError;
use crate::parts::PartId;

/// Coarse classification of why a VM produced no comparable capture.
///
/// The kind — not the human-readable detail — is what degradation logic
/// keys on: [`VerdictErrorKind::is_unscannable`] kinds exclude the VM from
/// the vote (it says nothing about integrity), while the rest are
/// integrity signals in their own right (a module that is hidden or
/// unparseable *here* but fine elsewhere is suspicious).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictErrorKind {
    /// The module is not in this VM's loaded-module list (present on
    /// peers — the DKOM-hiding signal).
    ModuleNotFound,
    /// The VM itself is out of reach: lost mid-scan, paused past the
    /// retry budget, or gone from the host.
    VmUnreachable,
    /// The VM was reachable but the capture failed structurally: corrupt
    /// list, bad PE, implausible size, unmapped or hopelessly torn pages.
    CaptureFailed,
    /// The per-session simulated-time deadline expired mid-capture.
    Deadline,
}

impl VerdictErrorKind {
    /// True when the error says "could not scan", not "looks infected":
    /// the VM must be excluded from the vote rather than counted against
    /// anyone.
    pub fn is_unscannable(self) -> bool {
        matches!(
            self,
            VerdictErrorKind::VmUnreachable | VerdictErrorKind::Deadline
        )
    }

    /// Stable lowercase name (used in JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            VerdictErrorKind::ModuleNotFound => "module_not_found",
            VerdictErrorKind::VmUnreachable => "vm_unreachable",
            VerdictErrorKind::CaptureFailed => "capture_failed",
            VerdictErrorKind::Deadline => "deadline",
        }
    }
}

impl fmt::Display for VerdictErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed per-VM extraction error: machine-matchable kind plus the
/// original error text for humans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerdictError {
    /// What class of failure this was.
    pub kind: VerdictErrorKind,
    /// Human-readable description (the underlying error's display form).
    pub detail: String,
}

impl VerdictError {
    /// Classifies a [`CheckError`] into a verdict error.
    pub fn classify(e: &CheckError) -> Self {
        use mc_hypervisor::HvError;
        use mc_vmi::VmiError;
        let kind = match e {
            CheckError::ModuleNotFound { .. } => VerdictErrorKind::ModuleNotFound,
            CheckError::Vmi(VmiError::DeadlineExceeded { .. }) => VerdictErrorKind::Deadline,
            CheckError::Vmi(
                VmiError::VmNotFound(_)
                | VmiError::RetriesExhausted { .. }
                | VmiError::Hv(HvError::VmLost(_) | HvError::VmPaused(_) | HvError::UnknownVm(_)),
            ) => VerdictErrorKind::VmUnreachable,
            _ => VerdictErrorKind::CaptureFailed,
        };
        VerdictError {
            kind,
            detail: e.to_string(),
        }
    }
}

impl fmt::Display for VerdictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// Tri-state per-VM verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictStatus {
    /// Scanned and matched a majority of the other scanned VMs.
    Clean,
    /// Scanned and mismatched the majority — or produced an
    /// integrity-signal error (hidden module, corrupt capture).
    Suspect,
    /// Could not be scanned (VM unreachable / deadline) or the quorum was
    /// lost — says nothing about this VM's integrity either way.
    Unscannable,
}

impl VerdictStatus {
    /// Stable uppercase name (used in text and JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            VerdictStatus::Clean => "CLEAN",
            VerdictStatus::Suspect => "SUSPECT",
            VerdictStatus::Unscannable => "UNSCANNABLE",
        }
    }
}

impl fmt::Display for VerdictStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How much of the pool the vote actually covered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuorumStatus {
    /// Every VM in the pool was scanned.
    Full,
    /// Some VMs dropped out but at least `min_quorum` were scanned; the
    /// vote ran over the survivors.
    Degraded,
    /// Fewer than `min_quorum` VMs could be scanned; no verdict carries
    /// voting weight.
    Lost,
}

impl QuorumStatus {
    /// Stable lowercase name (used in JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            QuorumStatus::Full => "full",
            QuorumStatus::Degraded => "degraded",
            QuorumStatus::Lost => "lost",
        }
    }
}

impl fmt::Display for QuorumStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Simulated time attributed to each ModChecker component (the split the
/// paper plots in Figures 7 and 8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentTimes {
    /// Module-Searcher: symbol resolution, list walk, page-wise copy.
    pub searcher: SimDuration,
    /// Module-Parser: header/section extraction.
    pub parser: SimDuration,
    /// Integrity-Checker: RVA adjustment and hashing.
    pub checker: SimDuration,
}

impl ComponentTimes {
    /// Sum of all components.
    pub fn total(&self) -> SimDuration {
        self.searcher + self.parser + self.checker
    }

    /// Component-wise addition.
    pub fn accumulate(&mut self, other: &ComponentTimes) {
        self.searcher += other.searcher;
        self.parser += other.parser;
        self.checker += other.checker;
    }
}

impl fmt::Display for ComponentTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "searcher {} | parser {} | checker {} | total {}",
            self.searcher,
            self.parser,
            self.checker,
            self.total()
        )
    }
}

/// One VM's scan-cost breakdown from a pool check: where its simulated
/// time went and what introspection work it took. These are the span/metric
/// inputs the observability layer (`mc-obs`) renders; they are deterministic
/// per (fault seed, VM) and therefore identical across scan modes.
#[derive(Clone, Debug, Default)]
pub struct VmScanStats {
    /// VM name.
    pub vm_name: String,
    /// Component time split for this VM's capture (searcher/parser/checker;
    /// the checker share here is header hashing only — pairwise voting time
    /// is pool-level, not per-VM).
    pub times: ComponentTimes,
    /// Introspection counters from this VM's session (reads, pages mapped,
    /// retries, torn detections, stability re-reads...).
    pub vmi: mc_vmi::VmiStats,
    /// Anomalies the fault layer injected into this VM's session.
    pub fault_injections: u64,
}

/// Verdict for one VM from a full pool check.
#[derive(Clone, Debug)]
pub struct VmVerdict {
    /// Scan-time VM id. Remediation reverts and evicts by this id, not by
    /// re-resolving `vm_name` — a rename (or a new VM taking the old name)
    /// between scan and remediation must not redirect the revert or leave
    /// a stale capture alive. Not serialized: ids are host-local.
    pub vm: mc_hypervisor::VmId,
    /// VM name.
    pub vm_name: String,
    /// Tri-state verdict (drives [`PoolCheckReport::suspects`] /
    /// [`PoolCheckReport::unscannable`]).
    pub status: VerdictStatus,
    /// Comparisons in which every part hash matched.
    pub successes: usize,
    /// Comparisons this VM participated in: `scanned − 1` for scanned VMs
    /// (the vote runs only among reachable captures), 0 for VMs that
    /// produced no capture.
    pub comparisons: usize,
    /// Majority rule over the scanned population:
    /// `successes > comparisons / 2` (the paper's `n > (t−1)/2`).
    /// Equivalent to `status == VerdictStatus::Clean`.
    pub clean: bool,
    /// Union of mismatched parts across this VM's failed comparisons.
    pub suspect_parts: Vec<PartId>,
    /// Extraction error on this VM itself, if any. Whether it is an
    /// integrity signal or mere unreachability is the
    /// [`VerdictError::kind`]'s call.
    pub error: Option<VerdictError>,
}

impl fmt::Display for VmVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} {} ({}/{} matches)",
            self.vm_name, self.status, self.successes, self.comparisons
        )?;
        if let Some(e) = &self.error {
            write!(f, " [error: {e}]")?;
        }
        if !self.suspect_parts.is_empty() {
            write!(f, " mismatched: ")?;
            for (i, p) in self.suspect_parts.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
        }
        Ok(())
    }
}

/// Report from checking one VM's module against the rest of the pool —
/// the paper's primary operation.
#[derive(Clone, Debug)]
pub struct ModuleCheckReport {
    /// Module under check.
    pub module: String,
    /// The VM whose module was checked.
    pub reference: String,
    /// Pairwise outcomes against each peer that yielded a comparable
    /// capture.
    pub outcomes: Vec<PairOutcome>,
    /// Peers whose capture failed (`(vm, error)`). Integrity-signal
    /// failures (hidden module, corrupt capture) count as failed
    /// comparisons; unreachable peers are excluded from the vote.
    pub errors: Vec<(String, VerdictError)>,
    /// Matching comparisons (`n` in the paper).
    pub successes: usize,
    /// Total comparisons the vote ran over (`t − 1` when every peer is
    /// reachable; unreachable peers don't count).
    pub comparisons: usize,
    /// `n > (t−1)/2`.
    pub clean: bool,
    /// VMs (reference + peers) that produced a comparable capture.
    pub scanned: usize,
    /// Whether the vote covered the whole pool, a degraded majority, or
    /// too few VMs to mean anything.
    pub quorum: QuorumStatus,
    /// Aggregate component times over the whole run.
    pub times: ComponentTimes,
    /// Per-VM component times, in scan order (reference first).
    pub per_vm_times: Vec<(String, ComponentTimes)>,
    /// Aggregate introspection counters across every per-VM session.
    pub vmi: mc_vmi::VmiStats,
    /// Total fault-layer anomalies injected across every per-VM session.
    pub fault_injections: u64,
    /// Non-clean single-VM static analysis reports, one per flagged VM
    /// (populated when [`crate::pool::CheckConfig::static_prepass`] is on).
    /// Orthogonal to the vote: these findings name the infected VM even
    /// when the majority is compromised.
    pub static_findings: Vec<mc_analysis::AnalysisReport>,
}

impl ModuleCheckReport {
    /// Parts that mismatched in any comparison (what an operator would
    /// escalate on).
    pub fn suspect_parts(&self) -> Vec<PartId> {
        let mut out: Vec<PartId> = self
            .outcomes
            .iter()
            .flat_map(|o| o.mismatched.iter().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Simulated wall-clock for the sequential scanner (sum of all work;
    /// the configuration the paper benchmarks).
    pub fn simulated_wall_sequential(&self) -> SimDuration {
        self.times.total()
    }

    /// Simulated wall-clock for the parallel scanner with `workers` Dom0
    /// threads: per-VM capture+parse runs concurrently (bounded by
    /// workers), pairwise checking divides across workers. An idealized
    /// model for ablation ABL-1 — the real parallel speedup is measured by
    /// the wall-clock benches.
    pub fn simulated_wall_parallel(&self, workers: usize) -> SimDuration {
        let workers = workers.max(1);
        // List-scheduling bound for the capture phase: max single VM vs
        // total/workers, whichever dominates.
        let per_vm: Vec<SimDuration> = self
            .per_vm_times
            .iter()
            .map(|(_, t)| t.searcher + t.parser)
            .collect();
        let longest = per_vm.iter().copied().max().unwrap_or(SimDuration::ZERO);
        let total: SimDuration = per_vm.iter().copied().sum();
        let balanced = SimDuration::from_nanos(total.as_nanos() / workers as u64);
        let capture = longest.max(balanced);
        let checking = SimDuration::from_nanos(self.times.checker.as_nanos() / workers as u64);
        capture + checking
    }
}

impl fmt::Display for ModuleCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ModChecker: {} on {} vs {} peer(s): {} ({} of {} matches)",
            self.module,
            self.reference,
            self.comparisons,
            if self.clean { "CLEAN" } else { "SUSPECT" },
            self.successes,
            self.comparisons,
        )?;
        for o in &self.outcomes {
            if o.matches() {
                writeln!(f, "  vs {:<8} match", o.vms.1)?;
            } else {
                write!(f, "  vs {:<8} MISMATCH:", o.vms.1)?;
                for p in &o.mismatched {
                    write!(f, " {p};")?;
                }
                writeln!(f)?;
            }
        }
        for (vm, e) in &self.errors {
            writeln!(f, "  vs {vm:<8} ERROR: {e}")?;
        }
        for r in &self.static_findings {
            writeln!(
                f,
                "  static: {} findings on {}",
                r.diagnostics.len(),
                r.vm_name
            )?;
        }
        writeln!(f, "  times: {}", self.times)
    }
}

/// Report from a full-matrix pool check: a verdict for every VM.
#[derive(Clone, Debug)]
pub struct PoolCheckReport {
    /// Module under check.
    pub module: String,
    /// All VM names, scan order.
    pub vm_names: Vec<String>,
    /// Per-VM verdicts.
    pub verdicts: Vec<VmVerdict>,
    /// All pairwise outcomes (`i < j` order over successfully extracted
    /// VMs).
    pub matrix: Vec<PairOutcome>,
    /// VMs that produced a comparable capture (the voting population).
    pub scanned: usize,
    /// Whether the vote covered the whole pool, a degraded majority, or
    /// too few VMs to mean anything.
    pub quorum: QuorumStatus,
    /// Aggregate component times.
    pub times: ComponentTimes,
    /// Per-VM scan-cost breakdowns, in scan order. The sum of the per-VM
    /// capture totals plus the pool-level voting time equals
    /// [`PoolCheckReport::times`]`.total()` — the invariant the span tree
    /// in `mc-obs` is built on.
    pub per_vm: Vec<VmScanStats>,
    /// Aggregate introspection counters across every per-VM session.
    pub vmi: mc_vmi::VmiStats,
    /// Total fault-layer anomalies injected across every per-VM session.
    pub fault_injections: u64,
    /// Non-clean single-VM static analysis reports (populated when
    /// [`crate::pool::CheckConfig::static_prepass`] is on). These break
    /// worm-majority ties: the vote says "discrepancy somewhere", the
    /// static pass names the VMs carrying hook artifacts.
    pub static_findings: Vec<mc_analysis::AnalysisReport>,
}

impl PoolCheckReport {
    /// VMs flagged as suspect — infected or carrying an integrity-signal
    /// error. Unscannable VMs are *not* suspects (no evidence either way).
    pub fn suspects(&self) -> impl Iterator<Item = &VmVerdict> {
        self.verdicts
            .iter()
            .filter(|v| v.status == VerdictStatus::Suspect)
    }

    /// VMs the scan could not reach (lost, paused past the retry budget,
    /// or out of deadline) — candidates for re-scan, not for remediation.
    pub fn unscannable(&self) -> impl Iterator<Item = &VmVerdict> {
        self.verdicts
            .iter()
            .filter(|v| v.status == VerdictStatus::Unscannable)
    }

    /// True when every VM is clean (no discrepancy anywhere).
    pub fn all_clean(&self) -> bool {
        self.verdicts.iter().all(|v| v.clean)
    }

    /// True when *any* discrepancy exists — even if majority voting cannot
    /// name the culprit (the worm scenario of §III: ModChecker still
    /// "detects discrepancies among VMs that can trigger deeper analysis").
    /// Unscannable VMs are availability problems, not discrepancies.
    pub fn any_discrepancy(&self) -> bool {
        self.matrix.iter().any(|o| !o.matches())
            || self
                .verdicts
                .iter()
                .any(|v| v.status == VerdictStatus::Suspect && v.error.is_some())
    }

    /// Machine-readable form of the report (stable key order; used by the
    /// CLI's `--json` and the chaos suite's determinism check).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "module": self.module,
            "vms": self.vm_names.len(),
            "scanned": self.scanned,
            "quorum": self.quorum.as_str(),
            "all_clean": self.all_clean(),
            "any_discrepancy": self.any_discrepancy(),
            "verdicts": self
                .verdicts
                .iter()
                .map(|v| {
                    serde_json::json!({
                        "vm": v.vm_name,
                        "status": v.status.as_str(),
                        "clean": v.clean,
                        "successes": v.successes,
                        "comparisons": v.comparisons,
                        "suspect_parts": v
                            .suspect_parts
                            .iter()
                            .map(std::string::ToString::to_string)
                            .collect::<Vec<_>>(),
                        "error_kind": v.error.as_ref().map(|e| e.kind.as_str()),
                        "error": v.error.as_ref().map(|e| e.detail.clone()),
                    })
                })
                .collect::<Vec<_>>(),
            "statically_flagged": self
                .statically_flagged_vms()
                .iter()
                .map(|s| (*s).to_string())
                .collect::<Vec<_>>(),
            "times_ms": {
                "searcher": self.times.searcher.as_millis_f64(),
                "parser": self.times.parser.as_millis_f64(),
                "checker": self.times.checker.as_millis_f64(),
                "total": self.times.total().as_millis_f64(),
            },
            // Introspection counters are pure functions of (fault seed, VM):
            // every value below is identical at any worker count — the
            // pool scan's worker-count test covers this section too.
            "vmi": {
                "reads": self.vmi.reads,
                "pages_mapped": self.vmi.pages_mapped,
                "bytes_copied": self.vmi.bytes_copied,
                "page_walks": self.vmi.page_walks,
                "translate_cache_hits": self.vmi.translate_cache_hits,
                "vectored_reads": self.vmi.vectored_reads,
                "retries": self.vmi.retries,
                "transient_faults": self.vmi.transient_faults,
                "torn_detected": self.vmi.torn_detected,
                "stability_rereads": self.vmi.stability_rereads,
                "fault_injections": self.fault_injections,
            },
        })
    }

    /// VM names carrying static-analysis findings (the "deeper analysis"
    /// the paper defers to; requires `static_prepass`). Unlike the vote,
    /// this is per-VM evidence and survives a compromised majority.
    pub fn statically_flagged_vms(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .static_findings
            .iter()
            .map(|r| r.vm_name.as_str())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Display for PoolCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ModChecker pool check: {} across {} VMs",
            self.module,
            self.vm_names.len()
        )?;
        for v in &self.verdicts {
            writeln!(f, "  {v}")?;
        }
        for r in &self.static_findings {
            writeln!(
                f,
                "  static: {} findings on {}",
                r.diagnostics.len(),
                r.vm_name
            )?;
        }
        writeln!(f, "  times: {}", self.times)
    }
}

/// One `(pool, module)` work unit's outcome inside a fleet sweep.
///
/// The unit either produced a full [`PoolCheckReport`] or failed as a
/// whole with a [`CheckError`] — failures are isolated per unit, never
/// aborting the sweep (the scheduler inherits the repaired
/// [`crate::pool::ModChecker::check_all_modules`] semantics).
#[derive(Clone, Debug)]
pub struct FleetUnitReport {
    /// Owning pool's name.
    pub pool: String,
    /// Module checked.
    pub module: String,
    /// Dispatch rank within the pool (0 = first). Priority order is
    /// deterministic: previously-suspect modules first, then by size
    /// descending, then by name.
    pub priority: usize,
    /// True when the unit was boosted because the module was a suspect in
    /// an earlier sweep by the same scheduler.
    pub hot: bool,
    /// The unit's result: a pool report, or the error that sank it.
    pub result: Result<PoolCheckReport, CheckError>,
}

impl FleetUnitReport {
    /// Simulated time the unit consumed (zero for failed units — a failed
    /// unit never produced a timing ledger).
    pub fn duration(&self) -> SimDuration {
        self.result
            .as_ref()
            .map_or(SimDuration::ZERO, |r| r.times.total())
    }
}

/// One pool's slice of a fleet sweep: the list scan that seeded the work
/// units plus every unit's outcome, in priority order.
#[derive(Clone, Debug)]
pub struct FleetPoolReport {
    /// Pool name (image identity).
    pub pool: String,
    /// Member VM names, pool order.
    pub vm_names: Vec<String>,
    /// The cross-VM list scan that produced the consensus module set
    /// (`None` when the scan itself failed, e.g. a one-VM pool).
    pub lists: Option<crate::listdiff::ListDiffReport>,
    /// Why the list scan failed, when it did.
    pub list_error: Option<String>,
    /// Per-unit outcomes, dispatch (priority) order.
    pub units: Vec<FleetUnitReport>,
}

impl FleetPoolReport {
    /// Simulated time this pool consumed: the list walk plus every unit.
    pub fn duration(&self) -> SimDuration {
        let list = self.lists.as_ref().map_or(SimDuration::ZERO, |l| l.elapsed);
        self.units.iter().fold(list, |acc, u| acc + u.duration())
    }
}

/// A whole fleet sweep: every pool's list scan and unit outcomes, plus the
/// VMs that could not be assigned to any pool.
///
/// Everything in here — and in [`FleetReport::to_json`] — is a pure
/// function of (cloud state, fault seed, check config). The shard count
/// only reorders execution, so a fixed `--fault-seed` yields
/// byte-identical JSON at every shard count; the golden tests pin exactly
/// that.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-pool results, fleet pool order.
    pub pools: Vec<FleetPoolReport>,
    /// VMs left out of every pool, as `(vm_name, reason)`.
    pub unassigned: Vec<(String, String)>,
}

impl FleetReport {
    /// Every unit across every pool, canonical order.
    pub fn units(&self) -> impl Iterator<Item = &FleetUnitReport> {
        self.pools.iter().flat_map(|p| p.units.iter())
    }

    /// Total number of work units executed.
    pub fn units_total(&self) -> usize {
        self.pools.iter().map(|p| p.units.len()).sum()
    }

    /// Units that failed as a whole (a [`CheckError`], not a suspect
    /// verdict).
    pub fn units_failed(&self) -> usize {
        self.units().filter(|u| u.result.is_err()).count()
    }

    /// Every suspect as `(pool, module, vm)`, sorted.
    pub fn suspects(&self) -> Vec<(String, String, String)> {
        let mut out: Vec<(String, String, String)> = self
            .units()
            .filter_map(|u| u.result.as_ref().ok().map(|r| (u, r)))
            .flat_map(|(u, r)| {
                r.suspects()
                    .map(move |v| (u.pool.clone(), u.module.clone(), v.vm_name.clone()))
            })
            .collect();
        out.sort();
        out
    }

    /// True when no unit failed and no VM anywhere is a suspect.
    pub fn all_clean(&self) -> bool {
        self.units_failed() == 0
            && self.units().all(|u| {
                u.result
                    .as_ref()
                    .is_ok_and(|r| r.suspects().next().is_none())
            })
    }

    /// Simulated wall-clock of a fully sequential sweep: every list walk
    /// and every unit back to back. The sharded makespan model lives in
    /// [`crate::sched::simulated_fleet_wall`].
    pub fn simulated_wall_sequential(&self) -> SimDuration {
        self.pools
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration())
    }

    /// Machine-readable form (stable key order). Deliberately excludes
    /// anything execution-dependent — no shard count, no cache stats —
    /// so runs differing only in `--shards` serialize byte-identically.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "pools": self
                .pools
                .iter()
                .map(|p| {
                    serde_json::json!({
                        "pool": p.pool,
                        "vms": p.vm_names,
                        "list_error": p.list_error,
                        "consistent": p.lists.as_ref().map(crate::listdiff::ListDiffReport::consistent),
                        "consensus_modules": p
                            .lists
                            .as_ref()
                            .map(|l| l.consensus_modules.clone())
                            .unwrap_or_default(),
                        "anomalies": p
                            .lists
                            .as_ref()
                            .map(|l| {
                                l.anomalies
                                    .iter()
                                    .map(std::string::ToString::to_string)
                                    .collect::<Vec<_>>()
                            })
                            .unwrap_or_default(),
                        "units": p
                            .units
                            .iter()
                            .map(|u| {
                                serde_json::json!({
                                    "module": u.module,
                                    "priority": u.priority,
                                    "hot": u.hot,
                                    "error": u.result.as_ref().err().map(std::string::ToString::to_string),
                                    "report": u.result.as_ref().ok().map(PoolCheckReport::to_json),
                                })
                            })
                            .collect::<Vec<_>>(),
                    })
                })
                .collect::<Vec<_>>(),
            "unassigned": self
                .unassigned
                .iter()
                .map(|(vm, reason)| serde_json::json!({ "vm": vm, "reason": reason }))
                .collect::<Vec<_>>(),
            "units_total": self.units_total(),
            "units_failed": self.units_failed(),
            "all_clean": self.all_clean(),
            "suspects": self
                .suspects()
                .iter()
                .map(|(p, m, v)| serde_json::json!([p, m, v]))
                .collect::<Vec<_>>(),
            "simulated_wall_sequential_ms": self.simulated_wall_sequential().as_millis_f64(),
        })
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet sweep: {} pool(s), {} unit(s), {} failed, {}",
            self.pools.len(),
            self.units_total(),
            self.units_failed(),
            if self.all_clean() {
                "all clean"
            } else {
                "SUSPECTS"
            }
        )?;
        for p in &self.pools {
            let consensus = p.lists.as_ref().map_or(0, |l| l.consensus_modules.len());
            writeln!(
                f,
                "  pool {}: {} VM(s), {} consensus module(s), {} unit(s)",
                p.pool,
                p.vm_names.len(),
                consensus,
                p.units.len()
            )?;
            if let Some(e) = &p.list_error {
                writeln!(f, "    list scan failed: {e}")?;
            }
        }
        for (pool, module, vm) in self.suspects() {
            writeln!(f, "  SUSPECT {vm} ({pool}/{module})")?;
        }
        for (vm, reason) in &self.unassigned {
            writeln!(f, "  unassigned {vm}: {reason}")?;
        }
        writeln!(
            f,
            "  simulated sequential wall: {}",
            self.simulated_wall_sequential()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(a: &str, b: &str, mismatched: Vec<PartId>) -> PairOutcome {
        PairOutcome {
            vms: (a.into(), b.into()),
            mismatched,
            slots_adjusted: 0,
            residual_diffs: 0,
        }
    }

    #[test]
    fn component_times_accumulate() {
        let mut t = ComponentTimes::default();
        t.accumulate(&ComponentTimes {
            searcher: SimDuration::from_millis(2),
            parser: SimDuration::from_millis(1),
            checker: SimDuration::from_millis(3),
        });
        t.accumulate(&ComponentTimes {
            searcher: SimDuration::from_millis(1),
            parser: SimDuration::ZERO,
            checker: SimDuration::ZERO,
        });
        assert_eq!(t.searcher, SimDuration::from_millis(3));
        assert_eq!(t.total(), SimDuration::from_millis(7));
    }

    #[test]
    fn suspect_parts_deduplicate() {
        let report = ModuleCheckReport {
            module: "hal.dll".into(),
            reference: "dom1".into(),
            outcomes: vec![
                outcome("dom1", "dom2", vec![PartId::SectionData(".text".into())]),
                outcome("dom1", "dom3", vec![PartId::SectionData(".text".into())]),
            ],
            errors: vec![],
            successes: 0,
            comparisons: 2,
            clean: false,
            scanned: 3,
            quorum: QuorumStatus::Full,
            times: ComponentTimes::default(),
            per_vm_times: vec![],
            vmi: mc_vmi::VmiStats::default(),
            fault_injections: 0,
            static_findings: vec![],
        };
        assert_eq!(report.suspect_parts().len(), 1);
    }

    #[test]
    fn parallel_wall_is_bounded_by_sequential() {
        let per_vm = |ms: u64| ComponentTimes {
            searcher: SimDuration::from_millis(ms),
            parser: SimDuration::from_millis(1),
            checker: SimDuration::ZERO,
        };
        let mut times = ComponentTimes::default();
        let names = ["dom1", "dom2", "dom3", "dom4"];
        let per: Vec<(String, ComponentTimes)> =
            names.iter().map(|n| (n.to_string(), per_vm(4))).collect();
        for (_, t) in &per {
            times.accumulate(t);
        }
        times.checker = SimDuration::from_millis(8);
        let report = ModuleCheckReport {
            module: "m".into(),
            reference: "dom1".into(),
            outcomes: vec![],
            errors: vec![],
            successes: 0,
            comparisons: 0,
            clean: true,
            scanned: 4,
            quorum: QuorumStatus::Full,
            times,
            per_vm_times: per,
            vmi: mc_vmi::VmiStats::default(),
            fault_injections: 0,
            static_findings: vec![],
        };
        let seq = report.simulated_wall_sequential();
        let par4 = report.simulated_wall_parallel(4);
        let par1 = report.simulated_wall_parallel(1);
        assert!(par4 < seq, "parallel {par4} vs sequential {seq}");
        // One worker degenerates to (at least) the sequential capture cost.
        assert!(par1 >= par4);
        assert!(par1 <= seq + SimDuration::from_millis(1));
    }

    #[test]
    fn display_renders_verdicts() {
        let v = VmVerdict {
            vm: mc_hypervisor::VmId(3),
            vm_name: "dom3".into(),
            status: VerdictStatus::Suspect,
            successes: 1,
            comparisons: 4,
            clean: false,
            suspect_parts: vec![PartId::DosHeader],
            error: None,
        };
        let s = v.to_string();
        assert!(s.contains("SUSPECT"));
        assert!(s.contains("IMAGE_DOS_HEADER"));
    }

    #[test]
    fn error_kinds_classify_reachability_vs_integrity() {
        use mc_hypervisor::{HvError, VmId};
        use mc_vmi::VmiError;
        let cases = [
            (
                CheckError::ModuleNotFound {
                    vm: "dom1".into(),
                    module: "hal.dll".into(),
                },
                VerdictErrorKind::ModuleNotFound,
                false,
            ),
            (
                CheckError::Vmi(VmiError::Hv(HvError::VmLost(VmId(3)))),
                VerdictErrorKind::VmUnreachable,
                true,
            ),
            (
                CheckError::Vmi(VmiError::RetriesExhausted {
                    va: 0x1000,
                    attempts: 5,
                    last: HvError::TransientFault { va: 0x1000 },
                }),
                VerdictErrorKind::VmUnreachable,
                true,
            ),
            (
                CheckError::Vmi(VmiError::DeadlineExceeded {
                    elapsed: SimDuration::from_millis(10),
                    deadline: SimDuration::from_millis(5),
                }),
                VerdictErrorKind::Deadline,
                true,
            ),
            (
                CheckError::Vmi(VmiError::TornRead { va: 0x2000 }),
                VerdictErrorKind::CaptureFailed,
                false,
            ),
            (
                CheckError::ListCorrupt {
                    vm: "dom2".into(),
                    walked: 9,
                },
                VerdictErrorKind::CaptureFailed,
                false,
            ),
        ];
        for (err, kind, unscannable) in cases {
            let v = VerdictError::classify(&err);
            assert_eq!(v.kind, kind, "{err}");
            assert_eq!(v.kind.is_unscannable(), unscannable, "{err}");
            assert!(!v.detail.is_empty());
        }
    }
}
