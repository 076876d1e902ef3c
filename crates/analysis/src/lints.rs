//! Image lints L1–L4: everything decidable from one captured module image.
//!
//! The lints lean on two kinds of ground truth. *Invariants* hold for any
//! well-formed driver (sections don't overlap, the MSVC DOS stub carries its
//! canonical message, entry points live in executable sections). *Profile
//! facts* hold for this corpus's clean codegen and for the large class of
//! real drivers it models: inter-function caves are zero, kernel modules
//! import only the kernel and HAL, and intra-module calls go through
//! absolute indirect operands rather than `rel32` branches — so a bare
//! `E8`/`E9` is itself reportable, which is exactly the inline-hook
//! trampoline idiom (paper §V.B.2, Figure 5).
//!
//! The CFG lints L6–L9 (see [`crate::cfg`]) close the sweep's classic
//! blind spots: hooks routed through pointer tables the sweep treats as
//! data (L6), payload the attacker never links into file order (L7), and
//! streams deliberately desynchronized from file order (L8/L9).

use mc_pe::consts::{DIR_IMPORT, DOS_HEADER_SIZE, DOS_STUB_MESSAGE};
use mc_pe::parser::{ParsedModule, SectionView};
use mc_pe::AddressWidth;

use crate::cfg::{sweep_boundaries, Cfg, SectionCfg};
use crate::decoder::{decode, Kind, Mode, Sweep};
use crate::{read_thunk, read_u32_at, AnalyzerConfig, Confidence, Diagnostic, Lint, Severity};

/// The fixed function prologue the clean codegen emits (`PUSH EBP; MOV
/// EBP, ESP`). Used to delimit inter-function caves.
const PROLOGUE: [u8; 3] = [0x55, 0x89, 0xE5];

/// Scan statistics for the report.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ImageStats {
    pub instructions: usize,
    pub bytes: usize,
}

/// Runs L1–L4 and returns unsorted findings plus scan statistics.
pub(crate) fn run(
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

    // The linear sweep is exact for the 32-bit profile. On x86-64 a sweep
    // needs function metadata (unwind info) to stay synchronized — and this
    // corpus's W64 codegen additionally embeds `0x49` literals that are REX
    // prefixes in long mode — so L2/L3 stay opt-in there (see
    // `AnalyzerConfig::sweep_64bit`). L1/L4/L5 and the raw-byte slack lint
    // are width-universal.
    let sweep = mode == Mode::Bits32 || cfg.sweep_64bit;
    // Each section's sweep marks its instruction starts here, so the CFG
    // below reuses them instead of decoding the section a second time.
    let mut boundaries: Vec<Option<Vec<bool>>> = vec![None; p.sections.len()];
    lint_entry_redirects(p, base, image, mode, &mut out);
    for (index, sec) in p.sections.iter().enumerate() {
        if !sec.is_executable() {
            continue;
        }
        let Some(data) = image.get(sec.data_range.clone()) else {
            continue;
        };
        if sweep {
            boundaries[index] = Some(sweep_section(
                p, sec, data, base, mode, &mut out, &mut stats,
            ));
        }
        lint_section_slack(p, sec, base, image, &mut out);
    }
    lint_pe_structure(p, base, image, cfg, &mut out);

    // The CFG lints. L6 is decode-free and L7 anchors on function spans +
    // reachability, so both are sound on either width; L8/L9 compare the
    // CFG against the linear sweep and share its gating.
    if cfg.cfg_lints {
        let graph = Cfg::build_with(p, base, image, mode, |index, data| {
            boundaries[index]
                .take()
                .unwrap_or_else(|| sweep_boundaries(data, mode))
        });
        stats.instructions += graph.instructions;
        lint_import_integrity(p, base, image, &mut out);
        for scfg in &graph.sections {
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

/// L1 — does any entry point (AddressOfEntryPoint or exported function)
/// begin with a control transfer instead of a function body?
pub(crate) fn lint_entry_redirects(
    p: &ParsedModule,
    base: u64,
    image: &[u8],
    mode: Mode,
    out: &mut Vec<Diagnostic>,
) {
    let mut candidates: Vec<(u32, &'static str)> = Vec::new();
    // The corpus builder leaves AddressOfEntryPoint at 0 for drivers; 0
    // means "unset", never "entry at the DOS header".
    if let Some(ep) = p.entry_point(image).filter(|&ep| ep != 0) {
        candidates.push((ep, "AddressOfEntryPoint"));
    }
    for rva in p.export_function_rvas(image) {
        candidates.push((rva, "exported function"));
    }

    for (rva, what) in candidates {
        let Some(sec) = p.sections.iter().filter(|s| s.is_executable()).find(|s| {
            rva >= s.virtual_address && rva - s.virtual_address < s.data_range.len() as u32
        }) else {
            out.push(Diagnostic {
                lint: Lint::PeStructure,
                severity: Severity::Critical,
                confidence: Confidence::High,
                va: base + u64::from(rva),
                detail: format!("{what} RVA {rva:#x} falls outside every executable section"),
            });
            continue;
        };
        let data = &image[sec.data_range.clone()];
        let local = (rva - sec.virtual_address) as usize;
        let Some(insn) = decode(data, local, mode) else {
            continue;
        };
        match insn.kind {
            Kind::RelBranch { opcode, target, .. } => {
                let target_va = base + u64::from(sec.virtual_address) + target.max(0) as u64;
                out.push(Diagnostic {
                    lint: Lint::EntryRedirect,
                    severity: Severity::Critical,
                    confidence: Confidence::High,
                    va: base + u64::from(rva),
                    detail: format!(
                        "{what} begins with a relative {} to {target_va:#x} instead of a \
                         function prologue — inline-hook redirection",
                        branch_mnemonic(opcode)
                    ),
                });
            }
            _ => {
                // PUSH imm32; RET — the other classic entry trampoline.
                if data.get(local) == Some(&0x68) && data.get(local + 5) == Some(&0xC3) {
                    out.push(Diagnostic {
                        lint: Lint::EntryRedirect,
                        severity: Severity::Critical,
                        confidence: Confidence::High,
                        va: base + u64::from(rva),
                        detail: format!("{what} begins with a PUSH imm32 / RET trampoline"),
                    });
                }
                // FF /4 or /5 — indirect JMP at the entry.
                if data.get(local) == Some(&0xFF)
                    && data
                        .get(local + 1)
                        .is_some_and(|m| matches!((m >> 3) & 7, 4 | 5))
                {
                    out.push(Diagnostic {
                        lint: Lint::EntryRedirect,
                        severity: Severity::Critical,
                        confidence: Confidence::High,
                        va: base + u64::from(rva),
                        detail: format!("{what} begins with an indirect JMP"),
                    });
                }
            }
        }
    }
}

/// L2 + L3 over one executable section in a single linear sweep. Returns
/// the sweep's instruction starts as a dense table over `data` (see
/// [`SectionCfg::sweep_boundaries`]).
fn sweep_section(
    p: &ParsedModule,
    sec: &SectionView,
    data: &[u8],
    base: u64,
    mode: Mode,
    out: &mut Vec<Diagnostic>,
    stats: &mut ImageStats,
) -> Vec<bool> {
    let sec_va = u64::from(sec.virtual_address);
    let mut ret_ends: Vec<usize> = Vec::new();
    let mut unknown = 0usize;
    let mut boundaries = vec![false; data.len()];

    for insn in Sweep::new(data, mode) {
        stats.instructions += 1;
        boundaries[insn.offset] = true;
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
                    // In-image, executable target. Clean driver code in this
                    // profile transfers control through absolute indirect
                    // operands only; a rel32 branch is the hook idiom.
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
    boundaries
}

/// L3 — inter-function caves. In clean code every gap between a `RET` and
/// the next function prologue is zero-filled; the inline hook parks its
/// payload, the displaced entry bytes and a back-jump exactly there.
fn lint_caves(
    sec: &SectionView,
    data: &[u8],
    base: u64,
    ret_ends: &[usize],
    out: &mut Vec<Diagnostic>,
) {
    // All prologue positions, one pass, ascending.
    let mut prologues: Vec<usize> = Vec::new();
    if data.len() >= PROLOGUE.len() {
        for i in 0..=data.len() - PROLOGUE.len() {
            if data[i] == PROLOGUE[0] && data[i..i + PROLOGUE.len()] == PROLOGUE {
                prologues.push(i);
            }
        }
    }

    for &gap_start in ret_ends {
        // The gap runs to the first prologue at or after its start.
        let next = prologues.partition_point(|&pp| pp < gap_start);
        let gap_end = prologues.get(next).copied().unwrap_or(data.len());
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

/// L3 (slack variant) — bytes between the end of an executable section's
/// declared data and the next section must be the loader's zero fill.
pub(crate) fn lint_section_slack(
    p: &ParsedModule,
    sec: &SectionView,
    base: u64,
    image: &[u8],
    out: &mut Vec<Diagnostic>,
) {
    let slack_start = sec.data_range.end;
    let slack_end = p
        .sections
        .iter()
        .map(|s| s.data_range.start)
        .filter(|&s| s >= slack_start)
        .min()
        .unwrap_or(image.len())
        .min(image.len());
    if slack_start >= slack_end {
        return;
    }
    let slack = &image[slack_start..slack_end];
    if let Some(pos) = slack.iter().position(|&b| b != 0) {
        out.push(Diagnostic {
            lint: Lint::CavePayload,
            severity: Severity::Critical,
            confidence: Confidence::High,
            va: base + (slack_start + pos) as u64,
            detail: format!(
                "non-zero byte(s) in the page slack after section {} — \
                 content hidden outside the hashed VirtualSize range",
                sec.name
            ),
        });
    }
}

/// L4 — PE structural invariants.
pub(crate) fn lint_pe_structure(
    p: &ParsedModule,
    base: u64,
    image: &[u8],
    cfg: &AnalyzerConfig,
    out: &mut Vec<Diagnostic>,
) {
    // DOS stub message. Every MSVC-linked driver carries the canonical
    // string; EXP-B3 rewrites three bytes of it.
    if p.e_lfanew as usize > DOS_HEADER_SIZE {
        let stub = &image[DOS_HEADER_SIZE..p.e_lfanew as usize];
        let intact = stub
            .windows(DOS_STUB_MESSAGE.len())
            .any(|w| w == DOS_STUB_MESSAGE);
        if !intact {
            out.push(Diagnostic {
                lint: Lint::PeStructure,
                severity: Severity::Critical,
                confidence: Confidence::High,
                va: base + DOS_HEADER_SIZE as u64,
                detail: "DOS stub does not carry the canonical \"This program cannot be \
                         run in DOS mode.\" message — stub modification"
                    .to_string(),
            });
        }
    }

    // Import allowlist. Kernel modules bind the kernel and the HAL; a
    // user-mode DLL in a driver's import table is the EXP-B4 signature.
    for dll in p.import_dlls(image) {
        if !cfg
            .import_allowlist
            .iter()
            .any(|ok| ok.eq_ignore_ascii_case(&dll))
        {
            out.push(Diagnostic {
                lint: Lint::PeStructure,
                severity: Severity::Critical,
                confidence: Confidence::High,
                va: base,
                detail: format!(
                    "import table references '{dll}', which is outside the kernel-module \
                     allowlist {:?}",
                    cfg.import_allowlist
                ),
            });
        }
    }

    // Section table geometry: ascending, disjoint, covered by SizeOfImage.
    for w in p.sections.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if b.virtual_address < a.virtual_address + a.virtual_size {
            out.push(Diagnostic {
                lint: Lint::PeStructure,
                severity: Severity::Critical,
                confidence: Confidence::High,
                va: base + u64::from(b.virtual_address),
                detail: format!(
                    "sections {} and {} overlap in virtual address space",
                    a.name, b.name
                ),
            });
        }
    }
    if let Some(last) = p.sections.last() {
        let end = u64::from(last.virtual_address) + u64::from(last.virtual_size);
        if end > u64::from(p.size_of_image) {
            out.push(Diagnostic {
                lint: Lint::PeStructure,
                severity: Severity::Critical,
                confidence: Confidence::High,
                va: base + u64::from(last.virtual_address),
                detail: format!(
                    "section {} extends to RVA {end:#x}, beyond SizeOfImage {:#x}",
                    last.name, p.size_of_image
                ),
            });
        }
    }
}

/// L6 — import-table integrity, decode-free. The loader in this profile
/// never rebinds imports: the IAT (`FirstThunk` array) must stay
/// byte-identical to the import name table (`OriginalFirstThunk` array) in
/// memory, so any divergent slot is a planted pointer — the address an
/// indirect `CALL`/`JMP [disp32]` through that slot actually dispatches to.
pub(crate) fn lint_import_integrity(
    p: &ParsedModule,
    base: u64,
    image: &[u8],
    out: &mut Vec<Diagnostic>,
) {
    const DESC_SIZE: usize = 20;
    const DESC_NAME: usize = 12;
    const DESC_FIRST_THUNK: usize = 16;
    const MAX_DESCRIPTORS: usize = 64;
    const MAX_THUNKS: usize = 4096;

    let Some((dir_rva, _)) = p.data_directory(image, DIR_IMPORT) else {
        return;
    };
    if dir_rva == 0 {
        return;
    }
    let Some(dir_off) = p.rva_to_offset(dir_rva) else {
        return;
    };
    let thunk = p.width.bytes();
    for i in 0..MAX_DESCRIPTORS {
        let at = dir_off + i * DESC_SIZE;
        let Some(name_rva) = read_u32_at(image, at + DESC_NAME) else {
            return;
        };
        if name_rva == 0 {
            return; // null terminator descriptor
        }
        let dll = import_dll_name(p, image, name_rva).unwrap_or_else(|| format!("descriptor {i}"));
        let (Some(oft_rva), Some(ft_rva)) = (
            read_u32_at(image, at),
            read_u32_at(image, at + DESC_FIRST_THUNK),
        ) else {
            return;
        };
        if oft_rva == 0 || ft_rva == 0 {
            continue; // legacy single-array layout: nothing to cross-check
        }
        let (Some(oft_off), Some(ft_off)) = (p.rva_to_offset(oft_rva), p.rva_to_offset(ft_rva))
        else {
            continue;
        };
        for j in 0..MAX_THUNKS {
            let expected = read_thunk(image, oft_off + j * thunk, p.width);
            let actual = read_thunk(image, ft_off + j * thunk, p.width);
            let (Some(expected), Some(actual)) = (expected, actual) else {
                break;
            };
            if expected == 0 || actual == 0 {
                if expected != actual {
                    out.push(Diagnostic {
                        lint: Lint::IndirectTransfer,
                        severity: Severity::Critical,
                        confidence: Confidence::High,
                        va: base + u64::from(ft_rva) + (j * thunk) as u64,
                        detail: format!(
                            "IAT for '{dll}' terminates at a different slot than its \
                             import name table — thunk array length forged"
                        ),
                    });
                }
                break;
            }
            if actual != expected {
                out.push(Diagnostic {
                    lint: Lint::IndirectTransfer,
                    severity: Severity::Critical,
                    confidence: Confidence::High,
                    va: base + u64::from(ft_rva) + (j * thunk) as u64,
                    detail: format!(
                        "IAT slot {j} for '{dll}' holds {actual:#x} where the import name \
                         table expects {expected:#x}{} — pointer-table hook: every indirect \
                         transfer through this slot dispatches to the planted address",
                        describe_iat_target(p, base, actual)
                    ),
                });
            }
        }
    }
}

/// Where a diverted IAT slot value actually points, for the L6 detail.
/// The value may be an RVA (file layout / unrelocated) or an absolute VA.
fn describe_iat_target(p: &ParsedModule, base: u64, value: u64) -> String {
    let rva = if value >= base && value - base < u64::from(p.size_of_image) {
        value - base
    } else if value < u64::from(p.size_of_image) {
        value
    } else {
        return ", resolving outside the module image".to_string();
    };
    match p.sections.iter().find(|s| {
        rva >= u64::from(s.virtual_address)
            && rva < u64::from(s.virtual_address) + s.data_range.len() as u64
    }) {
        Some(s) if s.is_executable() => format!(", redirected into section {}", s.name),
        Some(s) => format!(", redirected into non-executable section {}", s.name),
        None => ", resolving into the headers".to_string(),
    }
}

/// Null-terminated ASCII DLL name at `name_rva`, bounds-checked.
fn import_dll_name(p: &ParsedModule, image: &[u8], name_rva: u32) -> Option<String> {
    const MAX_NAME: usize = 256;
    let off = p.rva_to_offset(name_rva)?;
    let bytes = image.get(off..image.len().min(off + MAX_NAME))?;
    let len = bytes.iter().position(|&b| b == 0)?;
    let name = std::str::from_utf8(&bytes[..len]).ok()?;
    (!name.is_empty()).then(|| name.to_string())
}

/// L7 — non-zero executable bytes that are outside every function span
/// *and* unreachable from every CFG root. Subsumes L3's cave heuristic:
/// the cave lint needs the sweep to find the `RET`s, whereas this works
/// from raw byte patterns plus reachability, on either width.
fn lint_unreachable_code(
    sec: &SectionView,
    data: &[u8],
    base: u64,
    scfg: &SectionCfg,
    out: &mut Vec<Diagnostic>,
) {
    const MAX_REGIONS: usize = 4;

    // Covered intervals: function spans plus every reachable instruction.
    let mut intervals: Vec<(usize, usize)> = scfg.function_spans.clone();
    intervals.extend(scfg.insns.iter().map(|i| (i.offset, i.end())));
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

/// L8 — sweep-vs-CFG disagreement on control flow: a `rel32` transfer the
/// CFG proves reachable but the linear sweep never decodes at that offset.
/// This is the junk-byte anti-disassembly signature: the attacker hides
/// the transfer inside the operand bytes of a sweep-visible instruction.
fn lint_hidden_transfers(
    p: &ParsedModule,
    sec: &SectionView,
    scfg: &SectionCfg,
    base: u64,
    out: &mut Vec<Diagnostic>,
) {
    let sec_va = u64::from(sec.virtual_address);
    for insn in &scfg.insns {
        let Kind::RelBranch {
            opcode,
            target,
            rel32: true,
        } = insn.kind
        else {
            continue;
        };
        let off = insn.offset;
        if scfg.on_sweep_boundary(off) {
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

/// L9 — two CFG-reachable instructions decoding the same bytes at
/// different offsets: deliberate opcode aliasing. Clean code, even with
/// multiple entry points, always converges on one instruction stream.
fn lint_overlapping_decodes(
    sec: &SectionView,
    scfg: &SectionCfg,
    base: u64,
    out: &mut Vec<Diagnostic>,
) {
    const MAX_OVERLAPS: usize = 8;

    let sec_va = u64::from(sec.virtual_address);
    let mut max_end = 0usize;
    let mut owner = (0usize, 0usize); // (offset, len) of the instruction reaching max_end
    let mut reported = 0usize;
    for insn in &scfg.insns {
        let (off, len) = (insn.offset, insn.len);
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

/// Mnemonic for a relative-branch opcode (one-byte map or `0F`-escaped).
pub(crate) fn branch_mnemonic(opcode: u8) -> &'static str {
    match opcode {
        0xE8 => "CALL",
        0xE9 | 0xEB => "JMP",
        _ => "Jcc",
    }
}
