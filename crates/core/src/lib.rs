//! **ModChecker** — kernel module integrity checking in the cloud
//! (Ahmed, Zoranic, Javaid, Richard — ICPP 2012), reproduced in Rust.
//!
//! ModChecker verifies the integrity of in-memory kernel modules *without a
//! database of known-good hashes*: in a cloud where many VMs run the same OS
//! image, it cross-compares a module's headers and executable contents
//! across the pool via virtual machine introspection. A module is trusted on
//! a VM if its hashes match a majority of the other VMs.
//!
//! The three components of the paper's Figure 1 map to modules here:
//!
//! * [`searcher`] — **Module-Searcher**: the only component that touches
//!   guest memory. Resolves `PsLoadedModuleList`, walks the doubly linked
//!   `LDR_DATA_TABLE_ENTRY` list (Figure 2), finds the module by
//!   `BaseDllName`, and copies the whole image out page by page.
//! * [`parts`] — **Module-Parser**: Algorithm 1. Splits the captured image
//!   into its PE headers (DOS+stub, composite NT, FILE, OPTIONAL, each
//!   section header) and section data, identifying executable content.
//! * [`checker`] + [`rva`] — **Integrity-Checker**: Algorithm 2. Pairwise
//!   compares executable sections, locating relocated absolute addresses by
//!   byte difference, rewriting them back to RVAs (`RVA = abs − base`,
//!   Equation 1), then MD5-hashing every part and reporting mismatches.
//!   Majority voting over the pool produces per-VM verdicts.
//!
//! Higher-level drivers live in [`pool`] (the paper's sequential scan, split
//! over the host's cores when it has more than one — the paper's proposed
//! improvement) and [`monitor`] (continuous scanning with snapshot-revert
//! remediation, per the paper's §III discussion).
//!
//! ## Example
//!
//! ```
//! use mc_hypervisor::{AddressWidth, Hypervisor};
//! use mc_pe::corpus::ModuleBlueprint;
//! use modchecker::ModChecker;
//!
//! // Three identical guests, each loading the same hal.dll file at a
//! // VM-specific base address (mc-guest stands in for the cloud).
//! let mut hv = Hypervisor::new();
//! let blueprint = ModuleBlueprint::new("hal.dll", AddressWidth::W32, 8 * 1024);
//! let guests = mc_guest::build_cloud_with_modules(
//!     &mut hv, 4, AddressWidth::W32, std::slice::from_ref(&blueprint),
//! ).unwrap();
//! let vms: Vec<_> = guests.iter().map(|g| g.vm).collect();
//!
//! // Clean pool: every VM matches a majority of its peers.
//! let report = ModChecker::new().check_pool(&hv, &vms, "hal.dll").unwrap();
//! assert!(report.all_clean());
//!
//! // One byte of code patched on one VM → that VM (and only it) flags.
//! guests[1].patch_module(&mut hv, "hal.dll", 0x1003, &[0xCC]).unwrap();
//! let report = ModChecker::new().check_pool(&hv, &vms, "hal.dll").unwrap();
//! let suspects: Vec<_> = report.suspects().map(|v| v.vm_name.clone()).collect();
//! assert_eq!(suspects, vec!["dom2"]);
//! ```
//!
//! ## Introspection discipline
//!
//! This crate reads guests exclusively through [`mc_vmi::VmiSession`]
//! (read-only) plus the *profile knowledge* any real introspector needs:
//! the `LDR_DATA_TABLE_ENTRY` field offsets and the `PsLoadedModuleList`
//! symbol name from `mc-guest`. It never touches `mc_guest::GuestOs` ground
//! truth (module bases, reloc site lists) — those are for attacks and tests.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arena;
mod cache;
pub mod checker;
pub mod crossview;
pub mod digest;
pub mod error;
pub mod events;
pub mod listdiff;
pub mod monitor;
pub mod obs;
pub mod parts;
pub mod pool;
pub mod report;
pub mod rva;
pub mod sched;
pub mod searcher;
pub mod serve;

pub use arena::ArenaStats;
pub use cache::{AnalysisCacheStats, CacheStats, CaptureCache};
pub use checker::{
    canonical_form, compare_pair, compare_pair_with, CanonicalForm, ExtractedModule, PairOutcome,
    PairScratch,
};
pub use crossview::{CrossView, CrossViewConfig, CrossViewFinding, CrossViewKind, CrossViewReport};
pub use digest::{DigestAlgo, PartDigest};
pub use error::CheckError;
pub use events::{EventPlane, EventPlaneStats};
pub use listdiff::{ListAnomaly, ListDiff, ListDiffReport};
pub use monitor::{
    remediate, remediate_vms, ContinuousMonitor, HealthPolicy, MonitorConfig, MonitorEvent,
    ScanJitter,
};
pub use obs::{
    fleet_span, observe_fleet, observe_scan, observe_serve, record_fleet_report,
    record_module_report, record_pool_report, record_serve_report, serve_span, ScanObservation,
};
pub use parts::{ModuleParts, PartId};
pub use pool::{CheckConfig, CompareStrategy, ModChecker, ModuleResults};
pub use report::{
    ComponentTimes, FleetPoolReport, FleetReport, FleetUnitReport, ModuleCheckReport,
    PoolCheckReport, QuorumStatus, VerdictError, VerdictErrorKind, VerdictStatus, VmScanStats,
    VmVerdict,
};
pub use sched::{simulated_fleet_wall, Fleet, FleetConfig, FleetScheduler, PoolSpec};
pub use serve::{
    AttestQuery, AttestServer, Confidence, Disposition, QuotaPolicy, Rejected, ServeConfig,
    ServeReport, ServedQuery, TenantStats, UnitVerdict,
};

pub use mc_vmi::RetryPolicy;
pub use rva::{adjust_rvas, normalize_with_reloc_table, AdjustStats};
pub use searcher::{ModuleImage, ModuleRef, ModuleSearcher};

/// Locks `m`, recovering the guard if a panicking thread poisoned it.
///
/// Every scan-path lock uses this one policy. The guarded state (capture
/// caches, metrics, breaker and listing maps) is only mutated between
/// scans, so it is still consistent after a sibling's panic; skipping the
/// lock or swapping in a fresh value would instead drop evictions and
/// counters while other paths keep serving from the same cache.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
