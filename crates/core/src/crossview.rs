//! Cross-view detection: reconcile what guests *claim* is loaded against
//! what is *physically* resident, voting across the pool.
//!
//! The paper's per-module vote and the EXT-2 list diff both trust the
//! guest's `PsLoadedModuleList` as the index of what to scan. An active
//! adversary can attack that index itself:
//!
//! * **DKOM unlinking on every VM** — today's list diff votes listings
//!   against each other, so a module unlinked from *all* its VMs simply
//!   vanishes from the consensus and nothing is scanned. But the unlink
//!   leaves physical residue on every VM: the orphaned
//!   `LDR_DATA_TABLE_ENTRY` in the pool and the still-mapped image.
//! * **Checker blinding** — the list stays intact but a victim entry's
//!   `DllBase` is redirected at a decoy copy of the clean image, so every
//!   capture (and every vote) reads staged bytes. The truly mapped image
//!   is then claimed by *no* entry.
//!
//! [`CrossView::scan`] runs, per VM, the L5 structural survey
//! ([`mc_analysis::survey_module_list`]) plus a physical PE-header sweep
//! ([`mc_vmi::VmiSession::sweep_image_headers`]) over the module region
//! the listed entries span, and classifies per-VM evidence:
//!
//! * an orphaned entry → a *hidden module* candidate (named from the
//!   orphan's recovered `BaseDllName`);
//! * a swept image whose base no linked entry claims → an *unlisted
//!   image* candidate (attributed to a listed module when exactly one
//!   advertises the same `SizeOfImage` — the blinding signature: the
//!   entry claims the decoy, the real image matches the entry's size).
//!
//! Candidates then vote across the pool exactly like the module vote: a
//! finding reported by a strict majority of readable VMs is a pool-level
//! discrepancy; below-majority residue (e.g. the single-VM DKOM the list
//! diff already names) stays a per-VM matter. Clean pools produce zero
//! findings — every header the sweep sees is claimed by the list.

use std::collections::{BTreeMap, BTreeSet};

use mc_hypervisor::{Hypervisor, SimDuration, VmId, PAGE_SIZE};
use mc_vmi::{RetryPolicy, VmiSession};

use crate::error::CheckError;

/// Pages swept beyond the span of the listed (and orphan-claimed) bases.
/// The per-VM allocation skew shifts *every* module of a VM equally, so the
/// margin only has to absorb inter-allocation guard gaps (≤ 65 pages each):
/// 512 pages bracket an image hidden several allocations past either end of
/// the claimed span.
const MARGIN_PAGES: u64 = 512;

/// Cross-view scan configuration.
#[derive(Clone, Copy, Debug)]
pub struct CrossViewConfig {
    /// Capture fast path for the survey and sweep sessions.
    pub fast_capture: bool,
    /// Retry policy for transient introspection faults.
    pub retry: RetryPolicy,
}

impl Default for CrossViewConfig {
    fn default() -> Self {
        CrossViewConfig {
            fast_capture: true,
            retry: RetryPolicy::default(),
        }
    }
}

/// What kind of cross-view discrepancy a finding describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrossViewKind {
    /// An orphaned `LDR_DATA_TABLE_ENTRY` (DKOM unlink residue) named the
    /// same module on a majority of VMs.
    HiddenModule,
    /// A physically resident PE image claimed by no list entry on a
    /// majority of VMs — the checker-blinding / unlisted-implant signature.
    UnlistedImage,
}

impl std::fmt::Display for CrossViewKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CrossViewKind::HiddenModule => "hidden-module",
            CrossViewKind::UnlistedImage => "unlisted-image",
        })
    }
}

/// One pool-level cross-view finding (majority-voted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrossViewFinding {
    /// Discrepancy kind.
    pub kind: CrossViewKind,
    /// Module name the evidence attributes the finding to, when
    /// recoverable (orphan `BaseDllName`, or the unique listed module
    /// whose `SizeOfImage` matches an unlisted image). Lowercased.
    pub module: Option<String>,
    /// Advertised `SizeOfImage` of the evidence, when the sweep saw one.
    pub size: Option<u64>,
    /// VM names reporting the evidence, sorted.
    pub vms: Vec<String>,
    /// Number of readable VMs reporting it (`vms.len()`).
    pub votes: usize,
    /// Total readable VMs voting.
    pub total: usize,
}

impl std::fmt::Display for CrossViewFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} ({} of {} VMs: {:?})",
            self.kind,
            match (&self.module, self.size) {
                (Some(m), _) => m.clone(),
                (None, Some(s)) => format!("unattributed image of {s} bytes"),
                (None, None) => "unattributed".to_string(),
            },
            self.votes,
            self.total,
            self.vms
        )
    }
}

/// Result of a pool cross-view scan.
#[derive(Clone, Debug, Default)]
pub struct CrossViewReport {
    /// Readable VMs that contributed a survey and sweep.
    pub vms_scanned: usize,
    /// VM names whose survey could not run (attach or list-head failure).
    pub unreadable: Vec<String>,
    /// Majority-voted findings, sorted by (kind, module, size).
    pub findings: Vec<CrossViewFinding>,
    /// Total simulated introspection time across surveys and sweeps.
    pub elapsed: SimDuration,
}

impl CrossViewReport {
    /// True when the guest view and the physical view agree on every VM.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The hidden-module findings (DKOM residue).
    pub fn hidden_modules(&self) -> impl Iterator<Item = &CrossViewFinding> {
        self.findings
            .iter()
            .filter(|f| f.kind == CrossViewKind::HiddenModule)
    }

    /// The unlisted-image findings (blinding / implant residue).
    pub fn unlisted_images(&self) -> impl Iterator<Item = &CrossViewFinding> {
        self.findings
            .iter()
            .filter(|f| f.kind == CrossViewKind::UnlistedImage)
    }

    /// Records the scan into a metrics registry (`crossview_*` series).
    #[allow(clippy::cast_precision_loss)]
    pub fn record_metrics(&self, reg: &mut mc_obs::MetricsRegistry) {
        reg.counter_add("crossview_scans_total", 1);
        reg.counter_add(
            "crossview_hidden_modules_total",
            self.hidden_modules().count() as u64,
        );
        reg.counter_add(
            "crossview_unlisted_images_total",
            self.unlisted_images().count() as u64,
        );
        reg.gauge_set("crossview_vms_scanned", self.vms_scanned as f64);
        reg.gauge_set("crossview_findings", self.findings.len() as f64);
    }
}

impl std::fmt::Display for CrossViewReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cross-view over {} VM(s): {}",
            self.vms_scanned,
            if self.is_clean() {
                "consistent"
            } else {
                "ANOMALOUS"
            }
        )?;
        for vm in &self.unreadable {
            writeln!(f, "  {vm}: unreadable")?;
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Per-VM evidence, keyed for the pool vote.
#[derive(Debug, Default)]
struct VmEvidence {
    /// Orphan names (lowercased) with the size their entry advertises.
    hidden: BTreeMap<String, Option<u64>>,
    /// Unlisted image evidence: attributed name (if unique size match)
    /// and advertised size.
    unlisted: BTreeSet<(Option<String>, u64)>,
}

/// The cross-view scanner.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrossView {
    /// Configuration.
    pub config: CrossViewConfig,
}

impl CrossView {
    /// A scanner with default configuration.
    pub fn new() -> Self {
        CrossView::default()
    }

    /// Surveys and sweeps every VM, then votes the evidence across the
    /// pool.
    ///
    /// # Errors
    ///
    /// [`CheckError::PoolTooSmall`] below two VMs; per-VM introspection
    /// failures degrade into `unreadable` entries, never errors.
    pub fn scan(&self, hv: &Hypervisor, vms: &[VmId]) -> Result<CrossViewReport, CheckError> {
        if vms.len() < 2 {
            return Err(CheckError::PoolTooSmall(vms.len()));
        }
        let mut elapsed = SimDuration::ZERO;
        let mut unreadable = Vec::new();
        let mut evidence: Vec<(String, VmEvidence)> = Vec::new();

        for &vm in vms {
            let vm_name = hv.vm(vm).map(|v| v.name.clone()).unwrap_or_default();
            let Ok(mut session) = VmiSession::attach(hv, vm) else {
                unreadable.push(vm_name);
                continue;
            };
            session = session.with_retry(self.config.retry);
            if self.config.fast_capture {
                session = session.with_fast_capture();
            }
            let Ok(survey) = mc_analysis::survey_module_list(&mut session) else {
                elapsed += session.elapsed();
                unreadable.push(vm_name);
                continue;
            };

            // What the guest claims: every linked entry's base; what it
            // half-admits: every orphan's base (the unlink residue still
            // names its image).
            let claimed: BTreeSet<u64> = survey.linked.iter().filter_map(|e| e.base).collect();
            let orphan_bases: BTreeSet<u64> =
                survey.orphans.iter().filter_map(|e| e.base).collect();

            let mut ev = VmEvidence::default();
            for orphan in &survey.orphans {
                if let Some(name) = &orphan.name {
                    ev.hidden.insert(name.to_lowercase(), orphan.size);
                }
            }

            // Physical sweep over the span the claims bracket.
            let anchors: Vec<u64> = claimed.iter().chain(&orphan_bases).copied().collect();
            if let (Some(&lo), Some(&hi)) = (anchors.iter().min(), anchors.iter().max()) {
                let margin = MARGIN_PAGES * PAGE_SIZE as u64;
                let top = survey
                    .linked
                    .iter()
                    .chain(&survey.orphans)
                    .filter_map(|e| Some(e.base? + e.size.unwrap_or(0)))
                    .max()
                    .unwrap_or(hi);
                let hits =
                    session.sweep_image_headers(lo.saturating_sub(margin), top.max(hi) + margin);
                for hit in hits {
                    if claimed.contains(&hit.base) {
                        continue; // the list accounts for it
                    }
                    if orphan_bases.contains(&hit.base) {
                        continue; // corroborates a hidden-module finding
                    }
                    // Attribute by unique SizeOfImage match among listed
                    // entries — the blinding signature: the victim entry
                    // advertises the true size but claims the decoy base.
                    let matches: Vec<&str> = survey
                        .linked
                        .iter()
                        .filter(|e| e.size == Some(hit.size_of_image))
                        .filter_map(|e| e.name.as_deref())
                        .collect();
                    let module = match matches.as_slice() {
                        [one] => Some(one.to_lowercase()),
                        _ => None,
                    };
                    ev.unlisted.insert((module, hit.size_of_image));
                }
            }
            elapsed += session.elapsed();
            evidence.push((vm_name, ev));
        }

        let total = evidence.len();
        if total < 2 {
            return Err(CheckError::PoolTooSmall(total));
        }

        // Pool vote: identical evidence keys across a strict majority of
        // readable VMs become findings.
        let mut hidden_votes: BTreeMap<String, (Vec<String>, Option<u64>)> = BTreeMap::new();
        let mut unlisted_votes: BTreeMap<(Option<String>, u64), Vec<String>> = BTreeMap::new();
        for (vm_name, ev) in &evidence {
            for (name, size) in &ev.hidden {
                let slot = hidden_votes.entry(name.clone()).or_default();
                slot.0.push(vm_name.clone());
                slot.1 = slot.1.or(*size);
            }
            for key in &ev.unlisted {
                unlisted_votes
                    .entry(key.clone())
                    .or_default()
                    .push(vm_name.clone());
            }
        }

        let mut findings = Vec::new();
        for (module, (mut vms, size)) in hidden_votes {
            if vms.len() * 2 > total {
                vms.sort();
                findings.push(CrossViewFinding {
                    kind: CrossViewKind::HiddenModule,
                    module: Some(module),
                    size,
                    votes: vms.len(),
                    total,
                    vms,
                });
            }
        }
        for ((module, size), mut vms) in unlisted_votes {
            if vms.len() * 2 > total {
                vms.sort();
                findings.push(CrossViewFinding {
                    kind: CrossViewKind::UnlistedImage,
                    module,
                    size: Some(size),
                    votes: vms.len(),
                    total,
                    vms,
                });
            }
        }
        findings.sort_by(|a, b| (a.kind, &a.module, a.size).cmp(&(b.kind, &b.module, b.size)));

        Ok(CrossViewReport {
            vms_scanned: total,
            unreadable,
            findings,
            elapsed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_guest::build_cloud_with_modules;
    use mc_hypervisor::AddressWidth;
    use mc_pe::corpus::ModuleBlueprint;

    fn cloud(n: usize) -> (Hypervisor, Vec<mc_guest::GuestOs>, Vec<VmId>) {
        let mut hv = Hypervisor::new();
        let bps = vec![
            ModuleBlueprint::new("hal.dll", AddressWidth::W32, 8 * 1024),
            ModuleBlueprint::new("ndis.sys", AddressWidth::W32, 12 * 1024),
        ];
        let guests = build_cloud_with_modules(&mut hv, n, AddressWidth::W32, &bps).unwrap();
        let ids = guests.iter().map(|g| g.vm).collect();
        (hv, guests, ids)
    }

    #[test]
    fn clean_pool_has_zero_findings() {
        let (hv, _guests, ids) = cloud(4);
        let report = CrossView::new().scan(&hv, &ids).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.vms_scanned, 4);
        assert!(report.unreadable.is_empty());
    }

    #[test]
    fn pool_wide_dkom_unlink_is_voted_hidden() {
        let (mut hv, guests, ids) = cloud(4);
        for g in &guests {
            g.dkom_hide(&mut hv, "ndis.sys").unwrap();
        }
        let report = CrossView::new().scan(&hv, &ids).unwrap();
        let hidden: Vec<_> = report.hidden_modules().collect();
        assert_eq!(hidden.len(), 1, "{report}");
        assert_eq!(hidden[0].module.as_deref(), Some("ndis.sys"));
        assert_eq!(hidden[0].votes, 4);
        // The still-mapped image corroborates the orphan rather than
        // producing a second finding.
        assert_eq!(report.unlisted_images().count(), 0);
    }

    #[test]
    fn minority_dkom_stays_below_the_vote() {
        // One-VM DKOM is the list diff's job (MissingOn); cross-view only
        // votes pool-wide evidence so it cannot double-report.
        let (mut hv, guests, ids) = cloud(5);
        guests[2].dkom_hide(&mut hv, "ndis.sys").unwrap();
        let report = CrossView::new().scan(&hv, &ids).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn pool_too_small_rejected() {
        let (hv, _guests, ids) = cloud(1);
        assert!(matches!(
            CrossView::new().scan(&hv, &ids),
            Err(CheckError::PoolTooSmall(1))
        ));
    }
}
