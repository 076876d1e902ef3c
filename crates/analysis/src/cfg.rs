//! Recursive-descent disassembly: a deterministic basic-block CFG per
//! captured image.
//!
//! The linear sweep (lints L2/L3) decodes every byte of an executable
//! section exactly once, in file order. That is exact for straight-line
//! code but is defeated by classic anti-disassembly tricks: a junk byte
//! after an unconditional jump desynchronizes the sweep, and the bytes the
//! attacker actually executes are never decoded at their real offsets.
//! This module decodes the image the way the CPU would: start from known
//! control-flow *roots* and follow the instruction stream, so the decoded
//! set is "what can execute", not "what the file order suggests".
//!
//! ## Roots
//!
//! * `AddressOfEntryPoint`, when non-zero and inside an executable section
//!   (the corpus builder leaves it 0 for drivers; real modules set it);
//! * every RVA in the export directory's `AddressOfFunctions` array;
//! * every *relocated function pointer*: a base-relocation slot whose
//!   relocated value, rebased to an RVA, lands in an executable section on
//!   the corpus's canonical 6-byte function prologue. These are the
//!   dispatch-table entries an indirect `CALL`/`JMP` reads — the transfer
//!   targets a sweep can never see.
//!
//! ## Traversal
//!
//! From each root the stream is decoded forward. Unconditional transfers
//! (`JMP rel8/rel32`) end the stream and enqueue their target; `CALL
//! rel32` enqueues its target and falls through; `RET`, undecodable
//! opcodes, indirect `JMP`s and the section end terminate. Conditional
//! branch targets are *not* followed: the synthetic corpus emits `Jcc
//! rel8` forms whose displacements are opaque profile bytes, not real
//! control flow, and following them would decode deliberately meaningless
//! streams. (Both taken and not-taken paths of real compiler output are
//! reachable via fall-through from the roots anyway.)
//!
//! ## Determinism
//!
//! The traversal marks decoded offsets in a dense per-section `seen`
//! table and drains its worklist in ascending offset order; the result is
//! an offset-sorted vector. The reachable set is the closure of the roots
//! under "fall through, or follow an unconditional transfer", so it does
//! not depend on the order streams are walked in — the ascending drain
//! only keeps the walk itself reproducible. No host pointer or hash-map
//! iteration order ever influences the result: two analyses of the same
//! bytes produce byte-identical reports, which the fleet scheduler's
//! bucket-level replication relies on.

use std::collections::BTreeSet;

use mc_pe::consts::DIR_BASERELOC;
use mc_pe::parser::ParsedModule;
use mc_pe::reloc::parse_reloc_section;

use crate::decoder::{decode, Instruction, Kind, Mode, Sweep};
use crate::read_thunk;

/// The corpus codegen's fixed function prologue
/// (`PUSH EBP; MOV EBP, ESP; SUB ESP, 0x20`).
pub const PROLOGUE: [u8; 6] = [0x55, 0x89, 0xE5, 0x83, 0xEC, 0x20];
/// The matching epilogue (`MOV ESP, EBP; POP EBP; RET`).
pub const EPILOGUE: [u8; 4] = [0x89, 0xEC, 0x5D, 0xC3];

/// Why an RVA was used to seed the traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RootKind {
    /// `AddressOfEntryPoint`.
    EntryPoint,
    /// Export directory function RVA.
    Export,
    /// Base-relocation slot value that points at a function prologue.
    RelocatedPointer,
}

/// Recursive-descent result for one executable section.
#[derive(Clone, Debug)]
pub struct SectionCfg {
    /// Index of the section within [`ParsedModule::sections`].
    pub section: usize,
    /// Reachable instructions in ascending offset order (section-local
    /// offsets; each offset appears once).
    pub insns: Vec<Instruction>,
    /// The *linear sweep*'s instruction starts over the same bytes, as a
    /// dense table: `sweep_boundaries[off]` is true when the sweep decodes
    /// an instruction at `off`. The comparison set for the sweep-vs-CFG
    /// disagreement lint.
    pub sweep_boundaries: Vec<bool>,
    /// Function spans `[start, end)` delimited by the corpus
    /// prologue/epilogue byte patterns, merged into disjoint intervals.
    pub function_spans: Vec<(usize, usize)>,
}

impl SectionCfg {
    /// True when the traversal decoded an instruction at `offset`.
    pub fn reaches(&self, offset: usize) -> bool {
        self.insns
            .binary_search_by_key(&offset, |i| i.offset)
            .is_ok()
    }

    /// True when the linear sweep decodes an instruction at `offset`.
    pub fn on_sweep_boundary(&self, offset: usize) -> bool {
        self.sweep_boundaries.get(offset) == Some(&true)
    }
}

/// A deterministic control-flow graph over one captured module image.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Traversal roots as (RVA, kind), sorted and deduplicated.
    pub roots: Vec<(u32, RootKind)>,
    /// Per-executable-section results, in section-table order.
    pub sections: Vec<SectionCfg>,
    /// Total instructions decoded by the traversal (sweep excluded).
    pub instructions: usize,
}

impl Cfg {
    /// Builds the CFG for a parsed memory capture loaded at `base`.
    ///
    /// Never fails: malformed directories degrade to fewer roots, and an
    /// image with no roots yields an empty (but still valid) graph.
    pub fn build(p: &ParsedModule, base: u64, image: &[u8], mode: Mode) -> Cfg {
        Self::build_with(p, base, image, mode, |_, data| sweep_boundaries(data, mode))
    }

    /// [`Cfg::build`] with each executable section's sweep boundary table
    /// supplied by `boundaries(section_index, section_bytes)` — the lint
    /// engine's linear sweep has already decoded every byte, so the graph
    /// reuses its marks instead of sweeping a second time.
    pub(crate) fn build_with(
        p: &ParsedModule,
        base: u64,
        image: &[u8],
        mode: Mode,
        mut boundaries: impl FnMut(usize, &[u8]) -> Vec<bool>,
    ) -> Cfg {
        let mut roots: Vec<(u32, RootKind)> = Vec::new();
        if let Some(ep) = p.entry_point(image).filter(|&ep| ep != 0) {
            roots.push((ep, RootKind::EntryPoint));
        }
        for rva in p.export_function_rvas(image) {
            roots.push((rva, RootKind::Export));
        }
        roots.extend(
            relocated_prologue_targets(p, base, image)
                .into_iter()
                .map(|rva| (rva, RootKind::RelocatedPointer)),
        );
        roots.sort_unstable();
        roots.dedup_by_key(|r| r.0);

        let mut sections = Vec::new();
        let mut instructions = 0usize;
        for (index, sec) in p.sections.iter().enumerate() {
            if !sec.is_executable() {
                continue;
            }
            let Some(data) = image.get(sec.data_range.clone()) else {
                continue;
            };
            // Worklist of pending stream starts, drained in ascending
            // order for determinism.
            let mut pending: BTreeSet<usize> = roots
                .iter()
                .filter_map(|&(rva, _)| {
                    let local = rva.checked_sub(sec.virtual_address)? as usize;
                    (local < data.len()).then_some(local)
                })
                .collect();
            let mut seen = vec![false; data.len()];
            let mut insns = Vec::new();
            while let Some(start) = pending.pop_first() {
                walk_stream(data, start, mode, &mut seen, &mut insns, &mut pending);
            }
            insns.sort_unstable_by_key(|i| i.offset);
            instructions += insns.len();
            sections.push(SectionCfg {
                section: index,
                insns,
                sweep_boundaries: boundaries(index, data),
                function_spans: function_spans(data),
            });
        }
        Cfg {
            roots,
            sections,
            instructions,
        }
    }

    /// The section CFG covering `section_index`, if executable.
    pub fn section(&self, section_index: usize) -> Option<&SectionCfg> {
        self.sections.iter().find(|s| s.section == section_index)
    }
}

/// The linear sweep's instruction starts over `data`, as a dense table.
pub(crate) fn sweep_boundaries(data: &[u8], mode: Mode) -> Vec<bool> {
    let mut marks = vec![false; data.len()];
    for insn in Sweep::new(data, mode) {
        marks[insn.offset] = true;
    }
    marks
}

/// Decodes one stream starting at `start`, recording instructions into
/// `insns` (and `seen`) until a terminator or an already-decoded offset.
/// Branch targets worth following are added to `pending`.
fn walk_stream(
    data: &[u8],
    start: usize,
    mode: Mode,
    seen: &mut [bool],
    insns: &mut Vec<Instruction>,
    pending: &mut BTreeSet<usize>,
) {
    let mut at = start;
    // Stop on joining an already-decoded stream or running off the end.
    while seen.get(at) == Some(&false) {
        let Some(insn) = decode(data, at, mode) else {
            return;
        };
        seen[at] = true;
        at = insn.end();
        let stop = match insn.kind {
            Kind::Ret | Kind::Unknown | Kind::IndirectBranch { call: false, .. } => true,
            Kind::RelBranch { opcode, target, .. } => {
                // The unconditional transfers (and only those) are real
                // control flow in this profile; see the module docs.
                let unconditional = matches!(opcode, 0xE9 | 0xEB);
                if unconditional || opcode == 0xE8 {
                    if let Ok(t) = usize::try_from(target) {
                        if seen.get(t) == Some(&false) {
                            pending.insert(t);
                        }
                    }
                }
                unconditional
            }
            _ => false,
        };
        insns.push(insn);
        if stop {
            return;
        }
    }
}

/// Base-relocation slot values that, rebased to RVAs, point at a function
/// prologue inside an executable section. Malformed relocation data yields
/// an empty list rather than an error.
pub(crate) fn relocated_prologue_targets(p: &ParsedModule, base: u64, image: &[u8]) -> Vec<u32> {
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
    for slot_rva in slot_rvas.into_iter().take(MAX_SLOTS) {
        let Some(off) = p.rva_to_offset(slot_rva) else {
            continue;
        };
        let Some(value) = read_thunk(image, off, p.width) else {
            continue;
        };
        // The loader wrote `RVA + base` into the slot; undo the rebase.
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
                        d.get(local..local + PROLOGUE.len())
                    })
                    .is_some_and(|w| w == PROLOGUE)
        });
        if points_at_prologue {
            out.push(target);
        }
    }
    out
}

/// Function spans `[start, end)`: each prologue occurrence through the end
/// of the first epilogue at or after it (or the section end), merged into
/// disjoint ascending intervals.
fn function_spans(data: &[u8]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    if data.len() < PROLOGUE.len() {
        return spans;
    }
    let mut epilogue_from = 0usize;
    for start in 0..=data.len() - PROLOGUE.len() {
        if data[start] != PROLOGUE[0] || data[start..start + PROLOGUE.len()] != PROLOGUE {
            continue;
        }
        // Epilogue search never needs to restart behind the previous
        // span's end: spans are processed in ascending start order.
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

#[cfg(test)]
mod tests {
    use super::*;
    use mc_pe::builder::{PeBuilder, SectionSpec};
    use mc_pe::consts::TEXT_CHARACTERISTICS;
    use mc_pe::corpus::ModuleBlueprint;
    use mc_pe::AddressWidth;

    /// Builds a file image and re-parses it as memory layout is not
    /// possible directly; instead parse the *file* layout and treat file
    /// offsets as the data ranges — sufficient for CFG-over-bytes tests.
    fn parsed_file(bytes: &[u8]) -> ParsedModule {
        ParsedModule::parse_file(bytes).unwrap()
    }

    #[test]
    fn clean_corpus_cfg_matches_the_sweep_on_reachable_code() {
        let bp = ModuleBlueprint::new("hal.dll", AddressWidth::W32, 32 * 1024)
            .with_exports(&["HalInitSystem", "HalReturnToFirmware"]);
        let pe = bp.build().unwrap();
        let p = parsed_file(pe.bytes());
        let cfg = Cfg::build(&p, 0, pe.bytes(), Mode::Bits32);
        assert!(!cfg.roots.is_empty(), "exports + reloc targets seed roots");
        let text = cfg.sections.first().expect(".text has a CFG");
        assert!(cfg.instructions > 50, "traversal really ran");
        // Every reachable instruction sits on a linear-sweep boundary: the
        // clean corpus contains no anti-disassembly constructs.
        for insn in &text.insns {
            assert!(
                text.on_sweep_boundary(insn.offset),
                "clean CFG offset {:#x} disagrees with the sweep",
                insn.offset
            );
        }
        // No overlap either.
        let mut max_end = 0usize;
        for insn in &text.insns {
            assert!(insn.offset >= max_end, "overlapping decode in clean code");
            max_end = insn.end();
        }
    }

    #[test]
    fn cfg_is_deterministic() {
        let bp =
            ModuleBlueprint::new("ntfs.sys", AddressWidth::W32, 16 * 1024).with_exports(&["NtfsA"]);
        let pe = bp.build().unwrap();
        let p = parsed_file(pe.bytes());
        let a = Cfg::build(&p, 0, pe.bytes(), Mode::Bits32);
        let b = Cfg::build(&p, 0, pe.bytes(), Mode::Bits32);
        assert_eq!(a.roots, b.roots);
        assert_eq!(a.instructions, b.instructions);
        for (sa, sb) in a.sections.iter().zip(&b.sections) {
            assert_eq!(sa.insns, sb.insns);
            assert_eq!(sa.sweep_boundaries, sb.sweep_boundaries);
            assert_eq!(sa.function_spans, sb.function_spans);
        }
    }

    #[test]
    fn unconditional_jump_targets_are_followed() {
        // .text: JMP +3 over junk, then NOP NOP RET at the target.
        let text = vec![0xEB, 0x03, 0xCC, 0xCC, 0xCC, 0x90, 0x90, 0xC3];
        let mut b = PeBuilder::new(AddressWidth::W32).entry_point(0x1000);
        let t = b.add_section(SectionSpec::new(".text", TEXT_CHARACTERISTICS, text));
        b.add_reloc_sites(t, [2u32]); // keep a .reloc so the build is typical
        let pe = b.build().unwrap();
        let p = parsed_file(pe.bytes());
        let cfg = Cfg::build(&p, 0, pe.bytes(), Mode::Bits32);
        let s = &cfg.sections[0];
        assert!(s.reaches(0), "root instruction decoded");
        assert!(s.reaches(5), "jump target followed");
        assert!(
            !s.reaches(2),
            "junk after the unconditional jump is not fall-through"
        );
    }

    #[test]
    fn streams_stop_at_visited_offsets_and_self_loops() {
        // JMP -2 (self loop) must terminate.
        let text = vec![0xEB, 0xFE, 0xC3];
        let mut b = PeBuilder::new(AddressWidth::W32).entry_point(0x1000);
        b.add_section(SectionSpec::new(".text", TEXT_CHARACTERISTICS, text));
        let pe = b.build().unwrap();
        let p = parsed_file(pe.bytes());
        let cfg = Cfg::build(&p, 0, pe.bytes(), Mode::Bits32);
        assert_eq!(cfg.instructions, 1);
    }

    #[test]
    fn function_spans_merge_and_cover_bodies() {
        let mut data = Vec::new();
        data.extend(PROLOGUE);
        data.extend([0x90, 0x90]);
        data.extend(EPILOGUE);
        data.extend([0u8; 8]); // cave
        data.extend(PROLOGUE);
        data.extend(EPILOGUE);
        let spans = function_spans(&data);
        assert_eq!(spans, vec![(0, 12), (20, 30)]);
        // A prologue with no epilogue spans to the end (conservative).
        let spans = function_spans(&PROLOGUE);
        assert_eq!(spans, vec![(0, PROLOGUE.len())]);
    }

    #[test]
    fn garbage_images_never_panic_cfg_construction() {
        // A parseable header with hostile section bytes must degrade, not
        // panic: decode everything reachable and stop.
        let text: Vec<u8> = (0..512u32).map(|i| (i * 37 + 11) as u8).collect();
        let mut b = PeBuilder::new(AddressWidth::W32).entry_point(0x1000);
        b.add_section(SectionSpec::new(".text", TEXT_CHARACTERISTICS, text));
        let pe = b.build().unwrap();
        let p = parsed_file(pe.bytes());
        let _ = Cfg::build(&p, 0, pe.bytes(), Mode::Bits32);
        let _ = Cfg::build(&p, 0xFFFF_FFFF_0000_0000, pe.bytes(), Mode::Bits64);
    }
}
