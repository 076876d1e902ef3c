//! Single-VM static analysis for captured kernel-module images.
//!
//! ModChecker's core detector (the paper's Algorithm 1/2 pipeline) is
//! *differential*: it needs at least two VMs and flags disagreement. That
//! leaves two gaps this crate closes from a single VM, with no reference
//! image:
//!
//! * **Majority infection.** When a worm has infected most of a pool, the
//!   vote flags every VM without saying which ones actually carry the hook
//!   (§III's SQL-Slammer discussion). A per-VM static pass restores the
//!   signal.
//! * **Single-tenant hosts.** A lone VM has no peer to diff against.
//!
//! The engine runs nine lints over one captured image (or, for L5, one
//! guest's loaded-module list):
//!
//! | Lint | Name               | Catches                                      |
//! |------|--------------------|----------------------------------------------|
//! | L1   | entry-redirect     | inline-hook `JMP`/`CALL`/push-ret at an exported entry |
//! | L2   | escaping-transfer  | `rel32` transfers leaving the image, landing in non-executable sections, or appearing at all (clean driver profile uses absolute indirect calls) |
//! | L3   | cave-payload       | non-zero bytes in inter-function opcode caves / section slack |
//! | L4   | pe-structure       | DOS-stub tampering, unexpected imports, section-table lies |
//! | L5   | module-list        | unlinked-but-resident `LDR_DATA_TABLE_ENTRY` (DKOM), list asymmetry |
//! | L6   | indirect-transfer  | IAT slots diverging from the import name table — the pointer an indirect `CALL [disp32]` actually reads (IAT-pivot hooks) |
//! | L7   | unreachable-code   | non-zero executable bytes outside every function span and unreachable from all CFG roots (injected payload) |
//! | L8   | hidden-transfer    | CFG-reachable `rel32` transfers the linear sweep never decodes (junk-byte anti-disassembly) |
//! | L9   | overlapping-decode | two reachable instructions sharing bytes at different offsets (opcode aliasing) |
//!
//! L1–L3 are built on the crate's own x86 length decoder ([`decoder`]),
//! and L6–L9 on the recursive-descent CFG ([`cfg`]) layered above it;
//! L4/L6 are PE-shape checking; L5 walks guest memory through a read-only
//! [`mc_vmi::VmiSession`]. Known blind spots are documented in
//! `DESIGN.md` §4 (EXT-4): single-opcode substitutions below decoder
//! resolution (EXP-B1) remain cross-VM-only detections. (IAT data hooks,
//! formerly in that list, are now caught by L6.)

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use mc_pe::{AddressWidth, PeError};
use mc_vmi::{VmiError, VmiSession};

pub mod cfg;
pub mod decoder;
mod lints;
mod list;
#[cfg(test)]
mod reference;

pub use list::{ListEntry, ListSurvey};

/// Little-endian `u32` at `off`, or `None` past the end of `image`.
pub(crate) fn read_u32_at(image: &[u8], off: usize) -> Option<u32> {
    let bytes = image.get(off..off.checked_add(4)?)?;
    Some(u32::from_le_bytes(bytes.try_into().ok()?))
}

/// One pointer-width little-endian slot (an IAT thunk or a relocated
/// pointer) at `off`, or `None` past the end of `image`.
pub(crate) fn read_thunk(image: &[u8], off: usize, width: AddressWidth) -> Option<u64> {
    match width {
        AddressWidth::W32 => read_u32_at(image, off).map(u64::from),
        AddressWidth::W64 => {
            let bytes = image.get(off..off.checked_add(8)?)?;
            Some(u64::from_le_bytes(bytes.try_into().ok()?))
        }
    }
}

/// Walks one guest's `PsLoadedModuleList` and scans its pool neighborhood,
/// returning the structured [`ListSurvey`]: linked entries, orphaned
/// (DKOM-unlinked) entries, and the L5 diagnostics. This is the raw
/// product behind [`Analyzer::analyze_module_list`], exported for the
/// cross-view scanner, which votes surveys across a pool of clones.
///
/// # Errors
///
/// [`AnalysisError::Vmi`] when the list head cannot even be located or the
/// first link is unreadable; anomalies *within* a reachable list are
/// survey findings, not errors.
pub fn survey_module_list(session: &mut VmiSession<'_>) -> Result<ListSurvey, AnalysisError> {
    list::survey(session)
}

/// The nine lint families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lint {
    /// L1: control-flow redirection at a module entry point.
    EntryRedirect,
    /// L2: suspicious IP-relative control transfer.
    EscapingTransfer,
    /// L3: executable payload in an opcode cave or section slack.
    CavePayload,
    /// L4: PE structural invariant violation.
    PeStructure,
    /// L5: loaded-module-list structural invariant violation.
    ModuleList,
    /// L6: IAT slot disagrees with the import name table — the pointer an
    /// indirect transfer actually dispatches through has been replaced.
    IndirectTransfer,
    /// L7: executable bytes outside every function span and unreachable
    /// from every CFG root.
    UnreachableCode,
    /// L8: a CFG-reachable `rel32` transfer at an offset the linear sweep
    /// never decodes (sweep-vs-CFG disagreement).
    HiddenTransfer,
    /// L9: two CFG-reachable instructions decode the same bytes at
    /// different offsets.
    OverlappingDecode,
}

impl Lint {
    /// Short code (`L1`..`L9`).
    pub fn code(self) -> &'static str {
        match self {
            Lint::EntryRedirect => "L1",
            Lint::EscapingTransfer => "L2",
            Lint::CavePayload => "L3",
            Lint::PeStructure => "L4",
            Lint::ModuleList => "L5",
            Lint::IndirectTransfer => "L6",
            Lint::UnreachableCode => "L7",
            Lint::HiddenTransfer => "L8",
            Lint::OverlappingDecode => "L9",
        }
    }

    /// Human-readable lint name.
    pub fn name(self) -> &'static str {
        match self {
            Lint::EntryRedirect => "entry-redirect",
            Lint::EscapingTransfer => "escaping-transfer",
            Lint::CavePayload => "cave-payload",
            Lint::PeStructure => "pe-structure",
            Lint::ModuleList => "module-list",
            Lint::IndirectTransfer => "indirect-transfer",
            Lint::UnreachableCode => "unreachable-code",
            Lint::HiddenTransfer => "hidden-transfer",
            Lint::OverlappingDecode => "overlapping-decode",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Notable but not actionable alone.
    Info,
    /// Deviates from the clean-corpus profile.
    Warning,
    /// Structurally impossible in a clean module.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        })
    }
}

/// How certain the lint is that the finding is real.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// Heuristic; expect false positives on unusual-but-legitimate code.
    Low,
    /// Profile-based; solid for this corpus, plausible FPs elsewhere.
    Medium,
    /// Invariant-based; a clean module cannot trigger it.
    High,
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Confidence::Low => "low",
            Confidence::Medium => "medium",
            Confidence::High => "high",
        })
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// Finding severity.
    pub severity: Severity,
    /// Lint confidence.
    pub confidence: Confidence,
    /// Guest VA the finding anchors to.
    pub va: u64,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}/{} @ {:#x}: {}",
            self.lint, self.severity, self.confidence, self.va, self.detail
        )
    }
}

/// Result of analyzing one module image (or one module list).
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// VM the subject came from.
    pub vm_name: String,
    /// Module name, or `"PsLoadedModuleList"` for L5 reports.
    pub module: String,
    /// Findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
    /// Instructions length-decoded during the scan.
    pub instructions_decoded: usize,
    /// Bytes covered by the scan.
    pub bytes_scanned: usize,
}

impl AnalysisReport {
    /// True when nothing was flagged.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one finding of `lint` is present.
    pub fn has(&self, lint: Lint) -> bool {
        self.diagnostics.iter().any(|d| d.lint == lint)
    }

    /// The most severe finding's severity, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "static analysis of {} on {}: {} finding(s) ({} instruction(s) over {} byte(s))",
            self.module,
            self.vm_name,
            self.diagnostics.len(),
            self.instructions_decoded,
            self.bytes_scanned
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Tunables for the lint engine.
#[derive(Clone, Debug)]
pub struct AnalyzerConfig {
    /// DLL names a kernel module may legitimately import (case-insensitive).
    /// Mirrors the clean corpus: kernel modules bind only the kernel itself
    /// and the HAL.
    pub import_allowlist: Vec<String>,
    /// Cap on reported findings per subject.
    pub max_diagnostics: usize,
    /// Run the linear-sweep lints (L2/L3) on 64-bit images too. Off by
    /// default: a linear sweep of x86-64 code is only sound with function
    /// metadata (unwind info) to anchor on, and the synthetic W64 corpus
    /// additionally embeds 32-bit-only literals (`0x49` `DEC ECX`, a REX
    /// prefix in long mode) that make the stream ambiguous. The paper's
    /// guests are 32-bit XP SP2, where the sweep is exact. L1, L4 and L5
    /// run regardless of width.
    pub sweep_64bit: bool,
    /// Run the CFG-powered lints (L6–L9). On by default. L6 (import-table
    /// integrity, decode-free) and L7 (unreachable executable bytes,
    /// anchored on function spans and CFG reachability) are width-agnostic
    /// and run on 64-bit images too — this is what closes the former
    /// x86-64 coverage gap. L8/L9 compare against the linear sweep and so
    /// share `sweep_64bit`'s gating. Turning this off yields the
    /// sweep-only engine (L1–L5) for differential testing.
    pub cfg_lints: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            import_allowlist: vec!["ntoskrnl.exe".to_string(), "hal.dll".to_string()],
            max_diagnostics: 64,
            sweep_64bit: false,
            cfg_lints: true,
        }
    }
}

/// Analysis failure: the subject could not be examined at all. Individual
/// findings never surface as errors — they are [`Diagnostic`]s.
#[derive(Debug)]
pub enum AnalysisError {
    /// The image does not parse as a PE module.
    Pe(PeError),
    /// Guest memory could not be read (L5).
    Vmi(VmiError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Pe(e) => write!(f, "image does not parse: {e}"),
            AnalysisError::Vmi(e) => write!(f, "guest memory unreadable: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<PeError> for AnalysisError {
    fn from(e: PeError) -> Self {
        AnalysisError::Pe(e)
    }
}

impl From<VmiError> for AnalysisError {
    fn from(e: VmiError) -> Self {
        AnalysisError::Vmi(e)
    }
}

/// The lint engine.
#[derive(Clone, Debug, Default)]
pub struct Analyzer {
    /// Engine configuration.
    pub config: AnalyzerConfig,
}

impl Analyzer {
    /// An analyzer with the default configuration.
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// An analyzer with a custom configuration.
    pub fn with_config(config: AnalyzerConfig) -> Self {
        Analyzer { config }
    }

    /// Runs lints L1–L4 over one captured memory-layout module image.
    ///
    /// `base` is the module's load address (`DllBase`); `bytes` is the
    /// `SizeOfImage`-long capture, as produced by the Module-Searcher.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Pe`] when the capture does not parse as a PE image
    /// (which a caller may reasonably treat as a finding in itself).
    pub fn analyze_image(
        &self,
        vm_name: &str,
        module: &str,
        base: u64,
        bytes: &[u8],
    ) -> Result<AnalysisReport, AnalysisError> {
        let parsed = mc_pe::parser::ParsedModule::parse_memory(bytes)?;
        let (mut diagnostics, stats) = lints::run(&parsed, base, bytes, &self.config);
        diagnostics.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.va.cmp(&b.va)));
        diagnostics.truncate(self.config.max_diagnostics);
        Ok(AnalysisReport {
            vm_name: vm_name.to_string(),
            module: module.to_string(),
            diagnostics,
            instructions_decoded: stats.instructions,
            bytes_scanned: stats.bytes,
        })
    }

    /// Runs lint L5 over one guest's `PsLoadedModuleList` (read-only VMI).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Vmi`] when the list head cannot even be located or
    /// the first link is unreadable; anomalies *within* a reachable list
    /// are findings, not errors.
    pub fn analyze_module_list(
        &self,
        session: &mut VmiSession<'_>,
    ) -> Result<AnalysisReport, AnalysisError> {
        let (mut diagnostics, bytes_scanned) = list::run(session, &self.config)?;
        diagnostics.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.va.cmp(&b.va)));
        diagnostics.truncate(self.config.max_diagnostics);
        Ok(AnalysisReport {
            vm_name: session.vm_name().to_string(),
            module: "PsLoadedModuleList".to_string(),
            diagnostics,
            instructions_decoded: 0,
            bytes_scanned,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_guest::{build_cloud_with_modules, GuestOs};
    use mc_hypervisor::{AddressWidth, Hypervisor, PAGE_SIZE};
    use mc_pe::corpus::ModuleBlueprint;
    use mc_pe::parser::ParsedModule;

    fn blueprints(width: AddressWidth) -> Vec<ModuleBlueprint> {
        vec![
            ModuleBlueprint::new("ntoskrnl.exe", width, 32 * 1024)
                .with_exports(&["KeBugCheck", "ExAllocatePool"]),
            ModuleBlueprint::new("hal.dll", width, 16 * 1024)
                .with_exports(&["HalInitSystem", "HalReturnToFirmware"])
                .with_imports(&[("ntoskrnl.exe", &["KeBugCheck"])]),
            ModuleBlueprint::new("http.sys", width, 24 * 1024).with_imports(&[
                ("ntoskrnl.exe", &["ExAllocatePool"]),
                ("hal.dll", &["HalInitSystem"]),
            ]),
        ]
    }

    fn cloud(width: AddressWidth) -> (Hypervisor, Vec<GuestOs>) {
        let mut hv = Hypervisor::new();
        let guests = build_cloud_with_modules(&mut hv, 1, width, &blueprints(width)).unwrap();
        (hv, guests)
    }

    /// Captures a loaded module's memory image straight off the guest.
    fn capture(hv: &Hypervisor, guest: &GuestOs, name: &str) -> (u64, Vec<u8>) {
        let m = guest.find_module(name).unwrap();
        let mut s = mc_vmi::VmiSession::attach(hv, guest.vm).unwrap();
        let mut bytes = vec![0u8; m.size as usize];
        for (i, chunk) in bytes.chunks_mut(PAGE_SIZE).enumerate() {
            s.read_va(m.base + (i * PAGE_SIZE) as u64, chunk).unwrap();
        }
        (m.base, bytes)
    }

    #[test]
    fn clean_modules_yield_zero_findings() {
        for width in [AddressWidth::W32, AddressWidth::W64] {
            let (hv, guests) = cloud(width);
            for bp in blueprints(width) {
                let (base, bytes) = capture(&hv, &guests[0], &bp.name);
                let report = Analyzer::new()
                    .analyze_image("dom1", &bp.name, base, &bytes)
                    .unwrap();
                assert!(
                    report.is_clean(),
                    "{} ({width:?}) must be clean, got:\n{report}",
                    bp.name
                );
                if width == AddressWidth::W32 {
                    assert!(report.instructions_decoded > 100, "the sweep really ran");
                } else {
                    // L2/L3 sweeps stay opt-in on x86-64, but the CFG
                    // traversal (L6/L7) still covers the image: exported
                    // modules get decoded streams, and the unreachable-code
                    // scan always walks the executable bytes.
                    assert!(report.bytes_scanned > 0, "the CFG lints really ran");
                    if !bp.exports.is_empty() {
                        assert!(report.instructions_decoded > 0, "exports seed the CFG");
                    }
                }
            }
            let mut s = mc_vmi::VmiSession::attach(&hv, guests[0].vm).unwrap();
            let list = Analyzer::new().analyze_module_list(&mut s).unwrap();
            assert!(list.is_clean(), "clean list flagged:\n{list}");
        }
    }

    #[test]
    fn hand_rolled_inline_hook_trips_l1_l2_l3() {
        let (mut hv, guests) = cloud(AddressWidth::W32);
        // Regenerate the deterministic geometry the guest's hal.dll carries.
        let art = blueprints(AddressWidth::W32).remove(1).generate();
        let f = art.code.functions[0];
        let cave = art.code.caves[0];
        let (base, bytes) = capture(&hv, &guests[0], "hal.dll");
        let parsed = ParsedModule::parse_memory(&bytes).unwrap();
        let text_va = u64::from(parsed.sections[0].virtual_address);

        // entry: JMP rel32 -> cave; cave: PUSHA payload.
        let rel = (i64::from(cave.offset) - i64::from(f.entry) - 5) as i32;
        let mut jmp = vec![0xE9u8];
        jmp.extend(rel.to_le_bytes());
        guests[0]
            .patch_module(&mut hv, "hal.dll", text_va + u64::from(f.entry), &jmp)
            .unwrap();
        guests[0]
            .patch_module(
                &mut hv,
                "hal.dll",
                text_va + u64::from(cave.offset),
                &[0x60, 0x90, 0x90, 0x61],
            )
            .unwrap();

        let (base, bytes) = {
            let _ = (base, bytes);
            capture(&hv, &guests[0], "hal.dll")
        };
        let report = Analyzer::new()
            .analyze_image("dom1", "hal.dll", base, &bytes)
            .unwrap();
        assert!(report.has(Lint::EntryRedirect), "L1 missing:\n{report}");
        assert!(report.has(Lint::EscapingTransfer), "L2 missing:\n{report}");
        assert!(report.has(Lint::CavePayload), "L3 missing:\n{report}");
        assert_eq!(report.max_severity(), Some(Severity::Critical));
    }

    #[test]
    fn rel32_escaping_the_image_is_critical() {
        let (mut hv, guests) = cloud(AddressWidth::W32);
        let art = blueprints(AddressWidth::W32).remove(1).generate();
        let f = art.code.functions[1];
        let (_, bytes) = capture(&hv, &guests[0], "hal.dll");
        let parsed = ParsedModule::parse_memory(&bytes).unwrap();
        let text_va = u64::from(parsed.sections[0].virtual_address);
        // CALL rel32 far past SizeOfImage, planted mid-function.
        let mut call = vec![0xE8u8];
        call.extend(0x0100_0000i32.to_le_bytes());
        guests[0]
            .patch_module(&mut hv, "hal.dll", text_va + u64::from(f.entry + 6), &call)
            .unwrap();
        let (base, bytes) = capture(&hv, &guests[0], "hal.dll");
        let report = Analyzer::new()
            .analyze_image("dom1", "hal.dll", base, &bytes)
            .unwrap();
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::EscapingTransfer)
            .expect("L2 fires");
        assert_eq!(d.severity, Severity::Critical);
        assert!(
            d.detail.contains("outside the module image"),
            "{}",
            d.detail
        );
    }

    #[test]
    fn stub_message_tamper_trips_l4() {
        let (mut hv, guests) = cloud(AddressWidth::W32);
        let (_, bytes) = capture(&hv, &guests[0], "http.sys");
        let at = bytes
            .windows(3)
            .position(|w| w == b"DOS")
            .expect("stub message present") as u64;
        guests[0]
            .patch_module(&mut hv, "http.sys", at, b"CHK")
            .unwrap();
        let (base, bytes) = capture(&hv, &guests[0], "http.sys");
        let report = Analyzer::new()
            .analyze_image("dom1", "http.sys", base, &bytes)
            .unwrap();
        assert!(report.has(Lint::PeStructure), "L4 missing:\n{report}");
        assert!(report.diagnostics[0].detail.contains("DOS stub"));
    }

    #[test]
    fn foreign_import_trips_l4() {
        let width = AddressWidth::W32;
        let mut bps = blueprints(width);
        bps.push(
            ModuleBlueprint::new("dummy.sys", width, 12 * 1024)
                .with_imports(&[("inject.dll", &["callMessageBox"])]),
        );
        let mut hv = Hypervisor::new();
        let guests = build_cloud_with_modules(&mut hv, 1, width, &bps).unwrap();
        let (base, bytes) = capture(&hv, &guests[0], "dummy.sys");
        let report = Analyzer::new()
            .analyze_image("dom1", "dummy.sys", base, &bytes)
            .unwrap();
        assert!(report.has(Lint::PeStructure), "L4 missing:\n{report}");
        assert!(report.diagnostics[0].detail.contains("inject.dll"));
    }

    #[test]
    fn dkom_hidden_module_found_by_orphan_scan() {
        for width in [AddressWidth::W32, AddressWidth::W64] {
            let (mut hv, guests) = cloud(width);
            guests[0].dkom_hide(&mut hv, "hal.dll").unwrap();
            let mut s = mc_vmi::VmiSession::attach(&hv, guests[0].vm).unwrap();
            let report = Analyzer::new().analyze_module_list(&mut s).unwrap();
            assert!(
                report.has(Lint::ModuleList),
                "L5 missing ({width:?}):\n{report}"
            );
            let orphan = report
                .diagnostics
                .iter()
                .find(|d| d.detail.contains("unlinked"))
                .expect("orphan diagnostic");
            assert!(orphan.detail.contains("hal.dll"), "{}", orphan.detail);
        }
    }

    #[test]
    fn blink_corruption_trips_l5_symmetry() {
        let (mut hv, guests) = cloud(AddressWidth::W32);
        let offs = mc_guest::ldr::LdrOffsets::for_width(AddressWidth::W32);
        let entry = guests[0].modules[1].ldr_entry_va;
        hv.vm_mut(guests[0].vm)
            .unwrap()
            .write_ptr(entry + offs.blink, 0xDEAD_0000)
            .unwrap();
        let mut s = mc_vmi::VmiSession::attach(&hv, guests[0].vm).unwrap();
        let report = Analyzer::new().analyze_module_list(&mut s).unwrap();
        assert!(
            report.has(Lint::ModuleList),
            "symmetry check missing:\n{report}"
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.detail.contains("BLINK")));
    }

    #[test]
    fn garbage_capture_is_a_typed_error() {
        let err = Analyzer::new()
            .analyze_image("dom1", "junk", 0x1000, &[0u8; 64])
            .unwrap_err();
        assert!(matches!(err, AnalysisError::Pe(_)), "{err}");
    }
}
