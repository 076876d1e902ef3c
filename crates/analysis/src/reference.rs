//! The image analyzer as it ran before the one-sweep pipeline: the lints'
//! linear sweep, then a second sweep inside the CFG build that collects
//! every instruction start into a `BTreeSet`, and a traversal recording
//! reachable instructions in a `BTreeMap`. Kept as the oracle for the
//! differential test below, which requires `Debug`-identical reports —
//! diagnostic order, `instructions_decoded` and `bytes_scanned` included —
//! over the clean corpus, every attack technique and thousands of seeded
//! mutants, under the default, `sweep_64bit` and `cfg_lints: false`
//! configurations.
//!
//! The lints that never touched the sweep or the CFG structures (L1, the
//! section-slack half of L3, L4, L6) are shared with the live engine.

use std::collections::{BTreeMap, BTreeSet};

use mc_pe::consts::DIR_BASERELOC;
use mc_pe::parser::{ParsedModule, SectionView};
use mc_pe::reloc::parse_reloc_section;
use mc_pe::AddressWidth;

use crate::cfg::{EPILOGUE, PROLOGUE as FN_PROLOGUE};
use crate::decoder::{decode, Kind, Mode, Sweep};
use crate::lints::{
    branch_mnemonic, lint_entry_redirects, lint_import_integrity, lint_pe_structure,
    lint_section_slack, ImageStats,
};
use crate::{
    AnalysisError, AnalysisReport, Analyzer, AnalyzerConfig, Confidence, Diagnostic, Lint, Severity,
};

/// The cave lint's prologue (`PUSH EBP; MOV EBP, ESP`).
const PROLOGUE: [u8; 3] = [0x55, 0x89, 0xE5];

impl Analyzer {
    /// [`Analyzer::analyze_image`] through the reference engine.
    pub(crate) fn reference_analyze_image(
        &self,
        vm_name: &str,
        module: &str,
        base: u64,
        bytes: &[u8],
    ) -> Result<AnalysisReport, AnalysisError> {
        let parsed = ParsedModule::parse_memory(bytes)?;
        let (mut diagnostics, stats) = run(&parsed, base, bytes, &self.config);
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
}

/// Recursive-descent result for one executable section.
struct SectionCfg {
    section: usize,
    insns: BTreeMap<usize, (usize, Kind)>,
    sweep_boundaries: BTreeSet<usize>,
    function_spans: Vec<(usize, usize)>,
}

fn run(
    p: &ParsedModule,
    base: u64,
    image: &[u8],
    cfg: &AnalyzerConfig,
) -> (Vec<Diagnostic>, ImageStats) {
    let mode = match p.width {
        AddressWidth::W32 => Mode::Bits32,
        AddressWidth::W64 => Mode::Bits64,
    };
    let mut out = Vec::new();
    let mut stats = ImageStats::default();
    let sweep = mode == Mode::Bits32 || cfg.sweep_64bit;
    lint_entry_redirects(p, base, image, mode, &mut out);
    for sec in p.sections.iter().filter(|s| s.is_executable()) {
        let Some(data) = image.get(sec.data_range.clone()) else {
            continue;
        };
        if sweep {
            sweep_section(p, sec, data, base, mode, &mut out, &mut stats);
        }
        lint_section_slack(p, sec, base, image, &mut out);
    }
    lint_pe_structure(p, base, image, cfg, &mut out);
    if cfg.cfg_lints {
        let (sections, instructions) = build_cfg(p, base, image, mode);
        stats.instructions += instructions;
        lint_import_integrity(p, base, image, &mut out);
        for scfg in &sections {
            let sec = &p.sections[scfg.section];
            let Some(data) = image.get(sec.data_range.clone()) else {
                continue;
            };
            if !sweep {
                stats.bytes += data.len();
            }
            lint_unreachable_code(sec, data, base, scfg, &mut out);
            if sweep {
                lint_hidden_transfers(p, sec, scfg, base, &mut out);
                lint_overlapping_decodes(sec, scfg, base, &mut out);
            }
        }
    }
    (out, stats)
}

fn sweep_section(
    p: &ParsedModule,
    sec: &SectionView,
    data: &[u8],
    base: u64,
    mode: Mode,
    out: &mut Vec<Diagnostic>,
    stats: &mut ImageStats,
) {
    let sec_va = u64::from(sec.virtual_address);
    let mut ret_ends: Vec<usize> = Vec::new();
    let mut unknown = 0usize;

    for insn in Sweep::new(data, mode) {
        stats.instructions += 1;
        match insn.kind {
            Kind::RelBranch {
                opcode,
                target,
                rel32: true,
            } => {
                let va = base + sec_va + insn.offset as u64;
                let target_rva = sec_va as i64 + target;
                let (severity, confidence, class) = if target_rva < 0
                    || target_rva >= i64::from(p.size_of_image)
                {
                    (
                        Severity::Critical,
                        Confidence::High,
                        "resolves outside the module image",
                    )
                } else if !p.sections.iter().any(|s| {
                    s.is_executable()
                        && target_rva >= i64::from(s.virtual_address)
                        && target_rva < i64::from(s.virtual_address) + s.data_range.len() as i64
                }) {
                    (
                        Severity::Critical,
                        Confidence::High,
                        "lands in a non-executable section",
                    )
                } else {
                    (
                        Severity::Warning,
                        Confidence::Medium,
                        "is absent from the clean driver profile (absolute indirect transfers only) — consistent with a hook trampoline",
                    )
                };
                let target_va = (base as i64 + target_rva) as u64;
                out.push(Diagnostic {
                    lint: Lint::EscapingTransfer,
                    severity,
                    confidence,
                    va,
                    detail: format!(
                        "{} rel32 to {target_va:#x} {class}",
                        branch_mnemonic(opcode)
                    ),
                });
            }
            Kind::Ret => ret_ends.push(insn.end()),
            Kind::Unknown => unknown += 1,
            _ => {}
        }
    }
    stats.bytes += data.len();

    if unknown > 0 {
        out.push(Diagnostic {
            lint: Lint::EscapingTransfer,
            severity: Severity::Info,
            confidence: Confidence::Low,
            va: base + sec_va,
            detail: format!(
                "{unknown} undecodable opcode(s) in section {} — sweep resynchronized byte-wise",
                sec.name
            ),
        });
    }

    lint_caves(sec, data, base, &ret_ends, out);
}

fn lint_caves(
    sec: &SectionView,
    data: &[u8],
    base: u64,
    ret_ends: &[usize],
    out: &mut Vec<Diagnostic>,
) {
    let mut prologues: Vec<usize> = Vec::new();
    if data.len() >= PROLOGUE.len() {
        for i in 0..=data.len() - PROLOGUE.len() {
            if data[i..i + PROLOGUE.len()] == PROLOGUE {
                prologues.push(i);
            }
        }
    }

    for &gap_start in ret_ends {
        let gap_end = prologues
            .iter()
            .find(|&&pp| pp >= gap_start)
            .copied()
            .unwrap_or(data.len());
        let gap = &data[gap_start.min(data.len())..gap_end];
        let nonzero = gap.iter().filter(|&&b| b != 0).count();
        if nonzero == 0 {
            continue;
        }
        let first = gap_start + gap.iter().position(|&b| b != 0).unwrap_or(0);
        let preview: Vec<u8> = data[first..(first + 8).min(gap_end)].to_vec();
        out.push(Diagnostic {
            lint: Lint::CavePayload,
            severity: Severity::Critical,
            confidence: Confidence::Medium,
            va: base + u64::from(sec.virtual_address) + first as u64,
            detail: format!(
                "{nonzero} non-zero byte(s) in the opcode cave after the RET at \
                 {:#x} (starts {preview:02X?}) — executable payload outside any function",
                base + u64::from(sec.virtual_address) + gap_start as u64 - 1,
            ),
        });
    }
}

/// The CFG build: roots, then per executable section a second linear
/// sweep into a `BTreeSet` and a `BTreeMap`-recorded traversal. Returns
/// the section results and the traversal's instruction count.
fn build_cfg(p: &ParsedModule, base: u64, image: &[u8], mode: Mode) -> (Vec<SectionCfg>, usize) {
    let mut roots: Vec<u32> = Vec::new();
    if let Some(ep) = p.entry_point(image).filter(|&ep| ep != 0) {
        roots.push(ep);
    }
    roots.extend(p.export_function_rvas(image));
    roots.extend(relocated_prologue_targets(p, base, image));

    let mut sections = Vec::new();
    let mut instructions = 0usize;
    for (index, sec) in p.sections.iter().enumerate() {
        if !sec.is_executable() {
            continue;
        }
        let Some(data) = image.get(sec.data_range.clone()) else {
            continue;
        };
        let mut scfg = SectionCfg {
            section: index,
            insns: BTreeMap::new(),
            sweep_boundaries: Sweep::new(data, mode).map(|i| i.offset).collect(),
            function_spans: function_spans(data),
        };
        let mut pending: BTreeSet<usize> = roots
            .iter()
            .filter_map(|&rva| {
                let local = rva.checked_sub(sec.virtual_address)? as usize;
                (local < data.len()).then_some(local)
            })
            .collect();
        while let Some(start) = pending.pop_first() {
            instructions += walk_stream(data, start, mode, &mut scfg.insns, &mut pending);
        }
        sections.push(scfg);
    }
    (sections, instructions)
}

fn walk_stream(
    data: &[u8],
    start: usize,
    mode: Mode,
    insns: &mut BTreeMap<usize, (usize, Kind)>,
    pending: &mut BTreeSet<usize>,
) -> usize {
    let mut at = start;
    let mut recorded = 0usize;
    loop {
        if insns.contains_key(&at) {
            return recorded;
        }
        let Some(insn) = decode(data, at, mode) else {
            return recorded;
        };
        insns.insert(at, (insn.len, insn.kind.clone()));
        recorded += 1;
        match insn.kind {
            Kind::Ret | Kind::Unknown => return recorded,
            Kind::RelBranch { opcode, target, .. } => {
                let unconditional = matches!(opcode, 0xE9 | 0xEB);
                let follow = unconditional || opcode == 0xE8;
                if follow {
                    if let Ok(t) = usize::try_from(target) {
                        if t < data.len() && !insns.contains_key(&t) {
                            pending.insert(t);
                        }
                    }
                }
                if unconditional {
                    return recorded;
                }
            }
            Kind::IndirectBranch { call: false, .. } => return recorded,
            _ => {}
        }
        at = insn.end();
    }
}

fn relocated_prologue_targets(p: &ParsedModule, base: u64, image: &[u8]) -> Vec<u32> {
    const MAX_SLOTS: usize = 1 << 16;

    let mut out = Vec::new();
    let Some((dir_rva, dir_size)) = p.data_directory(image, DIR_BASERELOC) else {
        return out;
    };
    if dir_rva == 0 || dir_size == 0 {
        return out;
    }
    let Some(dir_off) = p.rva_to_offset(dir_rva) else {
        return out;
    };
    let Some(reloc_bytes) = image.get(dir_off..dir_off.saturating_add(dir_size as usize)) else {
        return out;
    };
    let Some(slot_rvas) = parse_reloc_section(reloc_bytes) else {
        return out;
    };
    let slot_len = p.width.bytes();
    for slot_rva in slot_rvas.into_iter().take(MAX_SLOTS) {
        let Some(off) = p.rva_to_offset(slot_rva) else {
            continue;
        };
        let Some(bytes) = image.get(off..off + slot_len) else {
            continue;
        };
        let value = match p.width {
            AddressWidth::W32 => u64::from(u32::from_le_bytes(bytes.try_into().unwrap())),
            AddressWidth::W64 => u64::from_le_bytes(bytes.try_into().unwrap()),
        };
        let target = value.wrapping_sub(base);
        let Ok(target) = u32::try_from(target) else {
            continue;
        };
        let points_at_prologue = p.sections.iter().any(|s| {
            s.is_executable()
                && target >= s.virtual_address
                && image
                    .get(s.data_range.clone())
                    .and_then(|d| {
                        let local = (target - s.virtual_address) as usize;
                        d.get(local..local + FN_PROLOGUE.len())
                    })
                    .is_some_and(|w| w == FN_PROLOGUE)
        });
        if points_at_prologue {
            out.push(target);
        }
    }
    out
}

fn function_spans(data: &[u8]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    if data.len() < FN_PROLOGUE.len() {
        return spans;
    }
    let mut epilogue_from = 0usize;
    for start in 0..=data.len() - FN_PROLOGUE.len() {
        if data[start..start + FN_PROLOGUE.len()] != FN_PROLOGUE {
            continue;
        }
        let from = epilogue_from.max(start);
        let end = data[from..]
            .windows(EPILOGUE.len())
            .position(|w| w == EPILOGUE)
            .map_or(data.len(), |pos| from + pos + EPILOGUE.len());
        epilogue_from = end;
        match spans.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => spans.push((start, end)),
        }
    }
    spans
}

fn lint_unreachable_code(
    sec: &SectionView,
    data: &[u8],
    base: u64,
    scfg: &SectionCfg,
    out: &mut Vec<Diagnostic>,
) {
    const MAX_REGIONS: usize = 4;

    let mut intervals: Vec<(usize, usize)> = scfg.function_spans.clone();
    intervals.extend(scfg.insns.iter().map(|(&off, &(len, _))| (off, off + len)));
    intervals.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }

    merged.push((data.len(), data.len()));
    let mut reported = 0usize;
    let mut cursor = 0usize;
    for (gap_end, next_cursor) in merged {
        let gap = &data[cursor.min(data.len())..gap_end.min(data.len())];
        let mut at = 0usize;
        while at < gap.len() && reported < MAX_REGIONS {
            if gap[at] == 0 {
                at += 1;
                continue;
            }
            let run_len = gap[at..].iter().take_while(|&&b| b != 0).count();
            let va = base + u64::from(sec.virtual_address) + (cursor + at) as u64;
            out.push(Diagnostic {
                lint: Lint::UnreachableCode,
                severity: Severity::Critical,
                confidence: Confidence::High,
                va,
                detail: format!(
                    "{run_len} non-zero byte(s) in section {} outside every function span \
                     and unreachable from all CFG roots — injected code",
                    sec.name
                ),
            });
            reported += 1;
            at += run_len;
        }
        cursor = next_cursor.max(cursor);
        if reported >= MAX_REGIONS {
            break;
        }
    }
}

fn lint_hidden_transfers(
    p: &ParsedModule,
    sec: &SectionView,
    scfg: &SectionCfg,
    base: u64,
    out: &mut Vec<Diagnostic>,
) {
    let sec_va = u64::from(sec.virtual_address);
    for (&off, (_, kind)) in &scfg.insns {
        let Kind::RelBranch {
            opcode,
            target,
            rel32: true,
        } = *kind
        else {
            continue;
        };
        if scfg.sweep_boundaries.contains(&off) {
            continue;
        }
        let target_rva = sec_va as i64 + target;
        let target_va = (base as i64 + target_rva) as u64;
        let escapes = target_rva < 0 || target_rva >= i64::from(p.size_of_image);
        out.push(Diagnostic {
            lint: Lint::HiddenTransfer,
            severity: Severity::Critical,
            confidence: Confidence::High,
            va: base + sec_va + off as u64,
            detail: format!(
                "{} rel32 to {target_va:#x}{} is reachable through the CFG but never \
                 decoded by the linear sweep — anti-disassembly junk insertion",
                branch_mnemonic(opcode),
                if escapes {
                    " (outside the module image)"
                } else {
                    ""
                }
            ),
        });
    }
}

fn lint_overlapping_decodes(
    sec: &SectionView,
    scfg: &SectionCfg,
    base: u64,
    out: &mut Vec<Diagnostic>,
) {
    const MAX_OVERLAPS: usize = 8;

    let sec_va = u64::from(sec.virtual_address);
    let mut max_end = 0usize;
    let mut owner = (0usize, 0usize);
    let mut reported = 0usize;
    for (&off, &(len, _)) in &scfg.insns {
        if off < max_end && reported < MAX_OVERLAPS {
            out.push(Diagnostic {
                lint: Lint::OverlappingDecode,
                severity: Severity::Critical,
                confidence: Confidence::High,
                va: base + sec_va + off as u64,
                detail: format!(
                    "reachable instruction at {:#x} begins inside the {}-byte reachable \
                     instruction at {:#x} — overlapping decode (opcode aliasing)",
                    base + sec_va + off as u64,
                    owner.1,
                    base + sec_va + owner.0 as u64,
                ),
            });
            reported += 1;
        }
        if off + len > max_end {
            max_end = off + len;
            owner = (off, len);
        }
    }
}

#[cfg(test)]
mod tests {
    use mc_attacks::Technique;
    use mc_hypervisor::{Vm, VmId};
    use mc_pe::corpus::{standard_corpus, ModuleBlueprint};
    use mc_pe::parser::ParsedModule;
    use mc_pe::PeFile;

    use super::*;

    /// The three engine configurations the reports must agree under.
    fn configs() -> [(&'static str, Analyzer); 3] {
        [
            ("default", Analyzer::new()),
            (
                "sweep_64bit",
                Analyzer::with_config(AnalyzerConfig {
                    sweep_64bit: true,
                    ..AnalyzerConfig::default()
                }),
            ),
            (
                "sweep-only",
                Analyzer::with_config(AnalyzerConfig {
                    cfg_lints: false,
                    ..AnalyzerConfig::default()
                }),
            ),
        ]
    }

    /// Loads `pe` the way the guest loader does (memory layout, base
    /// relocations applied) and captures its `SizeOfImage` bytes.
    fn capture(pe: &PeFile, width: AddressWidth, base: u64) -> Vec<u8> {
        let mut vm = Vm::new(VmId(0), "ref", width);
        let m = mc_guest::load_module(&mut vm, pe, "ref.sys", base).unwrap();
        let mut image = vec![0u8; m.size as usize];
        vm.read_virt(m.base, &mut image).unwrap();
        image
    }

    fn base_for(width: AddressWidth) -> u64 {
        match width {
            AddressWidth::W32 => 0xF700_0000,
            AddressWidth::W64 => 0xFFFF_F800_0120_0000,
        }
    }

    /// Asserts `Debug`-identical results from both engines under every
    /// configuration; returns how many configurations produced findings.
    fn assert_agree(label: &str, base: u64, image: &[u8]) -> usize {
        let mut flagged = 0;
        for (name, analyzer) in configs() {
            let live = analyzer.analyze_image("dom1", label, base, image);
            let reference = analyzer.reference_analyze_image("dom1", label, base, image);
            let (live, reference) = (format!("{live:?}"), format!("{reference:?}"));
            assert_eq!(live, reference, "{label} under {name}");
            flagged += usize::from(live.contains("diagnostics: [Diagnostic"));
        }
        flagged
    }

    #[test]
    fn clean_corpus_matches_the_reference_on_both_widths() {
        for width in [AddressWidth::W32, AddressWidth::W64] {
            for bp in standard_corpus(width) {
                let image = capture(&bp.build().unwrap(), width, base_for(width));
                assert_agree(&format!("{} ({width:?})", bp.name), base_for(width), &image);
            }
        }
    }

    #[test]
    fn every_attack_technique_matches_the_reference() {
        let width = AddressWidth::W32;
        let corpus = standard_corpus(width);
        let mut flagged = 0;
        for technique in Technique::COMPLETE {
            let infection = technique.infection();
            let bp = corpus
                .iter()
                .find(|bp| bp.name == infection.target_module())
                .unwrap();
            let pe = infection.infect(&bp.generate()).unwrap();
            let image = capture(&pe, width, base_for(width));
            flagged += assert_agree(&technique.to_string(), base_for(width), &image);
        }
        assert!(
            flagged >= 6 * 2,
            "the attacks exercise the lints: {flagged}"
        );
    }

    /// SplitMix64: a dependency-free seeded stream for the mutants.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        fn byte(&mut self) -> u8 {
            self.next() as u8
        }
    }

    /// Byte sequences that steer the sweep, the traversal and the cave
    /// and span scans: transfers, returns, prologues, epilogues, junk.
    fn plant(rng: &mut Mix) -> Vec<u8> {
        let rel32 = |op: u8, rng: &mut Mix| {
            let mut v = vec![op];
            v.extend((rng.below(0x4000) as i32 - 0x2000).to_le_bytes());
            v
        };
        match rng.below(10) {
            0 => rel32(0xE9, rng),
            1 => rel32(0xE8, rng),
            2 => vec![0xEB, rng.byte()],
            3 => vec![0xC3],
            4 => vec![0xC3, 0x55, 0x89, 0xE5],
            5 => FN_PROLOGUE.to_vec(),
            6 => EPILOGUE.to_vec(),
            7 => vec![0xFF, 0x25, rng.byte(), rng.byte(), 0, 0],
            8 => vec![0; 1 + rng.below(48)],
            _ => (0..1 + rng.below(8)).map(|_| rng.byte()).collect(),
        }
    }

    /// One seeded mutant of `clean`: planted bytes in `.text`, random
    /// bytes in `.reloc`, or a header field (entry point or raw bytes).
    fn mutate(clean: &[u8], p: &ParsedModule, rng: &mut Mix) -> Vec<u8> {
        let mut image = clean.to_vec();
        let section = |name: &str| p.sections.iter().find(|s| s.name == name);
        let write = |image: &mut Vec<u8>, at: usize, bytes: &[u8]| {
            for (i, &b) in bytes.iter().enumerate() {
                if let Some(slot) = image.get_mut(at + i) {
                    *slot = b;
                }
            }
        };
        for _ in 0..1 + rng.below(3) {
            match rng.below(10) {
                0..=5 => {
                    let text = section(".text").unwrap().data_range.clone();
                    let at = text.start + rng.below(text.len());
                    let bytes = plant(rng);
                    write(&mut image, at, &bytes);
                }
                6 | 7 => {
                    let Some(reloc) = section(".reloc") else {
                        continue;
                    };
                    let at = reloc.data_range.start + rng.below(reloc.data_range.len());
                    let bytes: Vec<u8> = (0..1 + rng.below(4)).map(|_| rng.byte()).collect();
                    write(&mut image, at, &bytes);
                }
                8 => {
                    // AddressOfEntryPoint → an arbitrary .text offset: a
                    // root the traversal starts mid-instruction from.
                    let text = section(".text").unwrap();
                    let ep = text.virtual_address + rng.below(text.data_range.len()) as u32;
                    write(&mut image, p.e_lfanew as usize + 0x28, &ep.to_le_bytes());
                }
                _ => {
                    let at = rng.below(0x400);
                    let bytes = [rng.byte()];
                    write(&mut image, at, &bytes);
                }
            }
        }
        image
    }

    #[test]
    fn seeded_mutants_match_the_reference() {
        const MUTANTS: usize = 2_000;
        let mut clean = Vec::new();
        for width in [AddressWidth::W32, AddressWidth::W64] {
            for (name, text) in [("a.sys", 4 * 1024), ("b.sys", 6 * 1024)] {
                let pe = ModuleBlueprint::new(name, width, text)
                    .with_exports(&["EntryA", "EntryB", "EntryC"])
                    .with_imports(&[("ntoskrnl.exe", &["KeBugCheck", "ExAllocatePool"])])
                    .build()
                    .unwrap();
                let image = capture(&pe, width, base_for(width));
                let parsed = ParsedModule::parse_memory(&image).unwrap();
                clean.push((width, image, parsed));
            }
        }
        let mut rng = Mix(0x5EED_0019);
        let mut flagged = 0;
        for i in 0..MUTANTS {
            let (width, image, parsed) = &clean[i % clean.len()];
            let mutant = mutate(image, parsed, &mut rng);
            flagged += assert_agree(
                &format!("mutant {i} ({width:?})"),
                base_for(*width),
                &mutant,
            );
        }
        // Most mutants must actually reach the lints, or the agreement
        // above proves little.
        assert!(flagged > MUTANTS, "only {flagged} flagged runs");
    }
}
