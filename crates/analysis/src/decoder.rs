//! From-scratch x86/x86-64 length disassembler.
//!
//! ModChecker's cross-VM comparison needs no instruction knowledge, but the
//! single-VM lint engine does: telling an inline hook's `JMP rel32` apart
//! from the four instruction bytes it overwrote requires walking `.text` on
//! instruction boundaries. This module implements just enough of the x86
//! instruction grammar to do that walk — legacy prefixes, REX (64-bit mode
//! only), the one-byte and common two-byte opcode maps, and the
//! ModRM/SIB/displacement/immediate tail — without modelling semantics
//! beyond the three classes the lints care about: relative branches,
//! returns, and everything else.
//!
//! The decoder is a *length* decoder: it never fails, it only degrades. An
//! opcode outside the implemented maps yields [`Kind::Unknown`] with a
//! one-byte length so the linear sweep resynchronizes instead of aborting;
//! lints treat unknown opcodes as low-confidence signals, not errors.

/// Decoding mode, per the module's pointer width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// 32-bit protected mode (PE32 modules).
    Bits32,
    /// 64-bit long mode (PE32+ modules): `0x40..=0x4F` are REX prefixes.
    Bits64,
}

/// Instruction class, as coarse as the lints need.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `CALL`/`JMP`/`Jcc` with an IP-relative displacement. `target` is the
    /// branch destination as a byte offset into the decoded buffer (may be
    /// out of range — that is exactly what lint L2 checks). `rel32` is true
    /// for 16/32-bit displacement forms (`E8`, `E9`, `0F 8x`), false for
    /// the short `rel8` forms.
    RelBranch {
        /// Primary opcode byte (the second byte for `0F`-escaped forms).
        opcode: u8,
        /// Destination as an offset into the decoded buffer.
        target: i64,
        /// Wide-displacement form (`rel16`/`rel32`), not `rel8`.
        rel32: bool,
    },
    /// `RET`/`RETF`/`IRET` family.
    Ret,
    /// `FF /2` (`CALL rm`) or `FF /4` (`JMP rm`): control transfer through
    /// a register or memory operand. `call` distinguishes the two (a call
    /// falls through, a jump does not). `slot` is the buffer offset of the
    /// 4-byte displacement for the `[disp32]` addressing form (`FF 15` /
    /// `FF 25`) — the form that reads a pointer table such as the IAT —
    /// and `None` for every other operand shape.
    IndirectBranch {
        /// `CALL rm` (true) vs `JMP rm` (false).
        call: bool,
        /// Offset of the `disp32` bytes for the `[disp32]` form.
        slot: Option<usize>,
    },
    /// Any other successfully length-decoded instruction.
    Other,
    /// Opcode outside the implemented maps; length is 1 byte (resync).
    Unknown,
}

/// One decoded instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instruction {
    /// Offset of the first byte (prefixes included) in the buffer.
    pub offset: usize,
    /// Total encoded length in bytes.
    pub len: usize,
    /// Coarse classification.
    pub kind: Kind,
}

impl Instruction {
    /// Offset of the byte after this instruction.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }
}

/// Immediate-operand class of an opcode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Imm {
    /// No immediate.
    None,
    /// 1 byte.
    B1,
    /// 2 bytes (e.g. `RET imm16`).
    B2,
    /// 3 bytes (`ENTER imm16, imm8`).
    B3,
    /// Word-or-dword by operand size (the spec's *z*): 2 with a `66`
    /// prefix, else 4.
    Z,
    /// Full-width (*v*): like `Z`, but 8 bytes under REX.W (`MOV r64,
    /// imm64` is the one GPR instruction with a 64-bit immediate).
    V,
    /// Absolute memory offset (`MOV AL/eAX, moffs`): sized by *address*
    /// size — 8 in 64-bit mode, else 4, halved by a `67` prefix.
    Moffs,
    /// Far pointer `ptr16:16/32` (`CALL`/`JMP` far): 2 + operand size.
    Far,
}

/// Per-opcode decode recipe.
#[derive(Clone, Copy, Debug)]
struct OpSpec {
    modrm: bool,
    imm: Imm,
}

const fn spec(modrm: bool, imm: Imm) -> OpSpec {
    OpSpec { modrm, imm }
}

/// Decodes the instruction at `offset`. Returns `None` only when `offset`
/// is at or past the end of the buffer; truncated tails decode as
/// [`Kind::Unknown`] spanning the remaining bytes so sweeps terminate.
pub fn decode(buf: &[u8], offset: usize, mode: Mode) -> Option<Instruction> {
    if offset >= buf.len() {
        return None;
    }
    let unknown = |len: usize| Instruction {
        offset,
        len: len.max(1).min(buf.len() - offset),
        kind: Kind::Unknown,
    };

    let mut at = offset;
    let mut opsize16 = false;
    let mut addrsize = false;
    let mut rex_w = false;

    // Legacy prefixes (order-free, may repeat); cap at the architectural
    // 15-byte instruction limit.
    while at < buf.len() && at - offset < 14 {
        match buf[at] {
            0x66 => opsize16 = true,
            0x67 => addrsize = true,
            0xF0 | 0xF2 | 0xF3 | 0x2E | 0x36 | 0x3E | 0x26 | 0x64 | 0x65 => {}
            _ => break,
        }
        at += 1;
    }
    // REX (64-bit mode only; must be the last prefix before the opcode).
    if mode == Mode::Bits64 {
        while at < buf.len() && (0x40..=0x4F).contains(&buf[at]) {
            rex_w = buf[at] & 0x08 != 0;
            at += 1;
            if at - offset >= 14 {
                return Some(unknown(at - offset));
            }
        }
    }
    if at >= buf.len() {
        return Some(unknown(at - offset));
    }

    let opcode = buf[at];
    at += 1;

    // Two-byte map.
    if opcode == 0x0F {
        if at >= buf.len() {
            return Some(unknown(at - offset));
        }
        let op2 = buf[at];
        at += 1;
        let Some(sp) = two_byte_spec(op2) else {
            return Some(unknown(at - offset));
        };
        let Some(end) = finish(buf, offset, at, sp, mode, opsize16, addrsize, rex_w) else {
            return Some(unknown(buf.len() - offset));
        };
        let len = end - offset;
        let kind = if (0x80..=0x8F).contains(&op2) {
            rel_branch(buf, offset, len, op2, true, opsize16)
        } else {
            Kind::Other
        };
        return Some(Instruction { offset, len, kind });
    }

    let Some(sp) = one_byte_spec(opcode, mode, buf, at) else {
        return Some(unknown(at - offset));
    };
    let Some(end) = finish(buf, offset, at, sp, mode, opsize16, addrsize, rex_w) else {
        return Some(unknown(buf.len() - offset));
    };
    let len = end - offset;
    let kind = classify(buf, offset, len, opcode, opsize16, at);
    Some(Instruction { offset, len, kind })
}

/// Computes the final length: ModRM/SIB/displacement, then the immediate.
/// Returns `None` if the instruction is truncated by the end of the buffer.
#[allow(clippy::too_many_arguments)]
fn finish(
    buf: &[u8],
    start: usize,
    mut at: usize,
    sp: OpSpec,
    mode: Mode,
    opsize16: bool,
    addrsize: bool,
    rex_w: bool,
) -> Option<usize> {
    if sp.modrm {
        let modrm = *buf.get(at)?;
        at += 1;
        let md = modrm >> 6;
        let rm = modrm & 7;
        if md != 3 {
            if mode == Mode::Bits32 && addrsize {
                // 16-bit addressing: no SIB; disp16 for mod=2 or mod=0/rm=6.
                match (md, rm) {
                    (0, 6) | (2, _) => at += 2,
                    (1, _) => at += 1,
                    _ => {}
                }
            } else {
                if rm == 4 {
                    let sib = *buf.get(at)?;
                    at += 1;
                    if md == 0 && sib & 7 == 5 {
                        at += 4;
                    }
                }
                match (md, rm) {
                    (0, 5) => at += 4, // disp32 (RIP-relative in 64-bit)
                    (1, _) => at += 1,
                    (2, _) => at += 4,
                    _ => {}
                }
            }
        }
    }
    let word = if opsize16 { 2 } else { 4 };
    at += match sp.imm {
        Imm::None => 0,
        Imm::B1 => 1,
        Imm::B2 => 2,
        Imm::B3 => 3,
        Imm::Z => word,
        Imm::V => {
            if rex_w {
                8
            } else {
                word
            }
        }
        Imm::Moffs => match (mode, addrsize) {
            (Mode::Bits64, false) => 8,
            (Mode::Bits64, true) | (Mode::Bits32, false) => 4,
            (Mode::Bits32, true) => 2,
        },
        Imm::Far => 2 + word,
    };
    if at > buf.len() || at - start > 15 {
        return None;
    }
    Some(at)
}

/// Classifies a one-byte-map instruction once its length is known.
/// `modrm_at` is the buffer offset of the ModRM byte (the byte after the
/// opcode), needed to resolve the `FF` group's reg-field selector.
fn classify(
    buf: &[u8],
    offset: usize,
    len: usize,
    opcode: u8,
    opsize16: bool,
    modrm_at: usize,
) -> Kind {
    match opcode {
        0x70..=0x7F | 0xE0..=0xE3 | 0xEB => rel_branch(buf, offset, len, opcode, false, opsize16),
        0xE8 | 0xE9 => rel_branch(buf, offset, len, opcode, true, opsize16),
        0xC2 | 0xC3 | 0xCA | 0xCB | 0xCF => Kind::Ret,
        0xFF => match buf.get(modrm_at).map(|m| (m >> 3) & 7) {
            Some(reg @ (2 | 4)) => {
                let m = buf[modrm_at];
                // `[disp32]` form: mod=0, rm=5 — no SIB, disp follows ModRM.
                let slot = (m >> 6 == 0 && m & 7 == 5).then_some(modrm_at + 1);
                Kind::IndirectBranch {
                    call: reg == 2,
                    slot,
                }
            }
            _ => Kind::Other,
        },
        _ => Kind::Other,
    }
}

/// Builds the `RelBranch` kind by reading the trailing displacement.
fn rel_branch(
    buf: &[u8],
    offset: usize,
    len: usize,
    opcode: u8,
    rel32: bool,
    opsize16: bool,
) -> Kind {
    let end = offset + len;
    let rel: i64 = if !rel32 {
        i64::from(buf[end - 1] as i8)
    } else if opsize16 {
        i64::from(i16::from_le_bytes([buf[end - 2], buf[end - 1]]))
    } else {
        i64::from(i32::from_le_bytes([
            buf[end - 4],
            buf[end - 3],
            buf[end - 2],
            buf[end - 1],
        ]))
    };
    Kind::RelBranch {
        opcode,
        target: end as i64 + rel,
        rel32,
    }
}

/// One-byte opcode map. `None` marks opcodes left out of the implemented
/// grammar (including mode-invalid ones), which decode as `Unknown`.
fn one_byte_spec(opcode: u8, mode: Mode, buf: &[u8], at: usize) -> Option<OpSpec> {
    let m64 = mode == Mode::Bits64;
    Some(match opcode {
        // ALU block: op rm,r / op r,rm / op AL,imm8 / op eAX,immz, with
        // segment push/pop (invalid in 64-bit) on the 06/07-style slots.
        0x00..=0x3F => match opcode & 7 {
            0..=3 => spec(true, Imm::None),
            4 => spec(false, Imm::B1),
            5 => spec(false, Imm::Z),
            _ => {
                // 06/07/0E/16/17/1E/1F push/pop seg; 27/2F/37/3F BCD ops.
                // 0F is the two-byte escape, handled by the caller.
                if m64 {
                    return None;
                }
                spec(false, Imm::None)
            }
        },
        // INC/DEC r32 (32-bit); REX prefixes in 64-bit (consumed earlier,
        // so reaching here as an opcode is impossible in Bits64).
        0x40..=0x4F => spec(false, Imm::None),
        0x50..=0x5F => spec(false, Imm::None), // PUSH/POP r
        0x60 | 0x61 => {
            // PUSHA/POPA — invalid in 64-bit mode.
            if m64 {
                return None;
            }
            spec(false, Imm::None)
        }
        0x62 => {
            if m64 {
                return None; // BOUND (EVEX prefix in 64-bit — unmodelled)
            }
            spec(true, Imm::None)
        }
        0x63 => spec(true, Imm::None),         // ARPL / MOVSXD
        0x68 => spec(false, Imm::Z),           // PUSH immz
        0x69 => spec(true, Imm::Z),            // IMUL r, rm, immz
        0x6A => spec(false, Imm::B1),          // PUSH imm8
        0x6B => spec(true, Imm::B1),           // IMUL r, rm, imm8
        0x6C..=0x6F => spec(false, Imm::None), // INS/OUTS
        0x70..=0x7F => spec(false, Imm::B1),   // Jcc rel8
        0x80 | 0x82 | 0x83 => {
            if opcode == 0x82 && m64 {
                return None;
            }
            spec(true, Imm::B1)
        }
        0x81 => spec(true, Imm::Z),
        0x84..=0x8F => spec(true, Imm::None), // TEST/XCHG/MOV/LEA/POP rm
        0x90..=0x97 => spec(false, Imm::None), // NOP/XCHG eAX, r
        0x98 | 0x99 => spec(false, Imm::None),
        0x9A => {
            if m64 {
                return None; // CALL far — invalid in 64-bit
            }
            spec(false, Imm::Far)
        }
        0x9B..=0x9F => spec(false, Imm::None),
        0xA0..=0xA3 => spec(false, Imm::Moffs), // MOV acc <-> [moffs]
        0xA4..=0xA7 => spec(false, Imm::None),  // MOVS/CMPS
        0xA8 => spec(false, Imm::B1),           // TEST AL, imm8
        0xA9 => spec(false, Imm::Z),            // TEST eAX, immz
        0xAA..=0xAF => spec(false, Imm::None),  // STOS/LODS/SCAS
        0xB0..=0xB7 => spec(false, Imm::B1),    // MOV r8, imm8
        0xB8..=0xBF => spec(false, Imm::V),     // MOV r, immv
        0xC0 | 0xC1 => spec(true, Imm::B1),     // shift rm, imm8
        0xC2 => spec(false, Imm::B2),           // RET imm16
        0xC3 => spec(false, Imm::None),         // RET
        0xC4 | 0xC5 => {
            if m64 {
                return None; // LES/LDS are VEX prefixes in 64-bit
            }
            spec(true, Imm::None)
        }
        0xC6 => spec(true, Imm::B1),           // MOV rm8, imm8
        0xC7 => spec(true, Imm::Z),            // MOV rm, immz
        0xC8 => spec(false, Imm::B3),          // ENTER imm16, imm8
        0xC9 => spec(false, Imm::None),        // LEAVE
        0xCA => spec(false, Imm::B2),          // RETF imm16
        0xCB | 0xCC => spec(false, Imm::None), // RETF / INT3
        0xCD => spec(false, Imm::B1),          // INT imm8
        0xCE => {
            if m64 {
                return None; // INTO
            }
            spec(false, Imm::None)
        }
        0xCF => spec(false, Imm::None),       // IRET
        0xD0..=0xD3 => spec(true, Imm::None), // shift rm, 1/CL
        0xD4 | 0xD5 => {
            if m64 {
                return None; // AAM/AAD
            }
            spec(false, Imm::B1)
        }
        0xD7 => spec(false, Imm::None),       // XLAT
        0xD8..=0xDF => spec(true, Imm::None), // x87 escapes
        0xE0..=0xE3 => spec(false, Imm::B1),  // LOOPcc/JCXZ rel8
        0xE4..=0xE7 => spec(false, Imm::B1),  // IN/OUT imm8
        0xE8 | 0xE9 => spec(false, Imm::Z),   // CALL/JMP relz
        0xEA => {
            if m64 {
                return None; // JMP far
            }
            spec(false, Imm::Far)
        }
        0xEB => spec(false, Imm::B1),                 // JMP rel8
        0xEC..=0xEF => spec(false, Imm::None),        // IN/OUT DX
        0xF1 | 0xF4 | 0xF5 => spec(false, Imm::None), // INT1/HLT/CMC
        0xF6 | 0xF7 => {
            // TEST rm, imm when the ModRM reg field selects /0 or /1.
            let has_imm = buf.get(at).is_some_and(|m| (m >> 3) & 7 <= 1);
            match (has_imm, opcode) {
                (false, _) => spec(true, Imm::None),
                (true, 0xF6) => spec(true, Imm::B1),
                (true, _) => spec(true, Imm::Z),
            }
        }
        0xF8..=0xFD => spec(false, Imm::None), // CLC..STD
        0xFE | 0xFF => spec(true, Imm::None),  // INC/DEC/CALL/JMP/PUSH rm
        // 0x26/2E/36/3E/64/65/66/67/F0/F2/F3 are prefixes (consumed
        // earlier); 0xD6 (SALC) and anything else: unmodelled.
        _ => return None,
    })
}

/// Two-byte (`0F`-escaped) opcode map — the common subset.
fn two_byte_spec(op2: u8) -> Option<OpSpec> {
    Some(match op2 {
        0x05 | 0x06 | 0x08 | 0x09 | 0x0B => spec(false, Imm::None), // SYSCALL/CLTS/INVD/WBINVD/UD2
        0x1F => spec(true, Imm::None),                              // multi-byte NOP
        0x10..=0x17 => spec(true, Imm::None),                       // SSE moves
        0x28..=0x2F => spec(true, Imm::None),
        0x30..=0x33 => spec(false, Imm::None), // WRMSR/RDTSC/RDMSR/RDPMC
        0x40..=0x4F => spec(true, Imm::None),  // CMOVcc
        0x54..=0x57 => spec(true, Imm::None),  // logic (XORPS etc.)
        0x6E | 0x6F | 0x7E | 0x7F => spec(true, Imm::None), // MMX/SSE moves
        0x80..=0x8F => spec(false, Imm::Z),    // Jcc relz
        0x90..=0x9F => spec(true, Imm::None),  // SETcc
        0xA0 | 0xA1 | 0xA8 | 0xA9 => spec(false, Imm::None), // PUSH/POP FS/GS
        0xA2 => spec(false, Imm::None),        // CPUID
        0xA3 | 0xAB | 0xB3 | 0xBB => spec(true, Imm::None), // BT/BTS/BTR/BTC
        0xA4 | 0xAC => spec(true, Imm::B1),    // SHLD/SHRD imm8
        0xA5 | 0xAD => spec(true, Imm::None),
        0xAE => spec(true, Imm::None),        // fence/XSAVE group
        0xAF => spec(true, Imm::None),        // IMUL r, rm
        0xB0 | 0xB1 => spec(true, Imm::None), // CMPXCHG
        0xB6 | 0xB7 | 0xBE | 0xBF => spec(true, Imm::None), // MOVZX/MOVSX
        0xBA => spec(true, Imm::B1),          // BT group imm8
        0xC0 | 0xC1 => spec(true, Imm::None), // XADD
        0xC7 => spec(true, Imm::None),        // CMPXCHG8B
        0xC8..=0xCF => spec(false, Imm::None), // BSWAP
        _ => return None,
    })
}

/// Iterator running a linear sweep over a byte buffer.
#[derive(Debug)]
pub struct Sweep<'a> {
    buf: &'a [u8],
    at: usize,
    mode: Mode,
}

impl<'a> Sweep<'a> {
    /// Starts a sweep at offset 0.
    pub fn new(buf: &'a [u8], mode: Mode) -> Self {
        Sweep { buf, at: 0, mode }
    }
}

impl Iterator for Sweep<'_> {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        let insn = decode(self.buf, self.at, self.mode)?;
        self.at = insn.end();
        Some(insn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(bytes: &[u8], mode: Mode) -> Instruction {
        decode(bytes, 0, mode).unwrap()
    }

    #[test]
    fn corpus_inventory_lengths() {
        // Every encoding the synthetic codegen emits, at its exact length.
        let cases: &[(&[u8], usize)] = &[
            (&[0x90], 1),                         // NOP
            (&[0x55], 1),                         // PUSH EBP
            (&[0x5D], 1),                         // POP EBP
            (&[0x89, 0xE5], 2),                   // MOV EBP, ESP
            (&[0x83, 0xEC, 0x20], 3),             // SUB ESP, 0x20
            (&[0x89, 0xEC], 2),                   // MOV ESP, EBP
            (&[0xC3], 1),                         // RET
            (&[0x49], 1),                         // DEC ECX
            (&[0xB8, 0x10, 0x00, 0x00, 0x00], 5), // MOV EAX, imm32
            (&[0x85, 0xC0], 2),                   // TEST EAX, EAX
            (&[0x74, 0x05], 2),                   // JZ rel8
            (&[0xA1, 0, 0, 0, 0], 5),             // MOV EAX, [moffs32]
            (&[0xA3, 0, 0, 0, 0], 5),             // MOV [moffs32], EAX
            (&[0xFF, 0x15, 0, 0, 0, 0], 6),       // CALL [abs32]
            (&[0x68, 0, 0, 0, 0], 5),             // PUSH imm32
        ];
        for (bytes, want) in cases {
            let insn = one(bytes, Mode::Bits32);
            assert_eq!(insn.len, *want, "length of {bytes:02X?}");
            assert_ne!(insn.kind, Kind::Unknown, "decodability of {bytes:02X?}");
        }
    }

    #[test]
    fn rel_branches_compute_targets() {
        // E9 rel32 forward.
        let i = one(&[0xE9, 0x10, 0x00, 0x00, 0x00], Mode::Bits32);
        assert_eq!(
            i.kind,
            Kind::RelBranch {
                opcode: 0xE9,
                target: 5 + 0x10,
                rel32: true
            }
        );
        // E8 rel32 backward.
        let i = one(&[0xE8, 0xFB, 0xFF, 0xFF, 0xFF], Mode::Bits32);
        assert_eq!(
            i.kind,
            Kind::RelBranch {
                opcode: 0xE8,
                target: 0,
                rel32: true
            }
        );
        // Jcc rel8.
        let i = one(&[0x75, 0xFE], Mode::Bits32);
        assert_eq!(
            i.kind,
            Kind::RelBranch {
                opcode: 0x75,
                target: 0,
                rel32: false
            }
        );
        // Two-byte Jcc rel32.
        let i = one(&[0x0F, 0x84, 0x00, 0x01, 0x00, 0x00], Mode::Bits32);
        assert_eq!(i.len, 6);
        assert_eq!(
            i.kind,
            Kind::RelBranch {
                opcode: 0x84,
                target: 6 + 0x100,
                rel32: true
            }
        );
    }

    #[test]
    fn ff_group_indirect_branches_classify() {
        // CALL [abs32] — the corpus's canonical import-call encoding: the
        // disp32 slot starts right after the ModRM byte.
        let i = one(&[0xFF, 0x15, 0x10, 0x20, 0x00, 0x00], Mode::Bits32);
        assert_eq!(i.len, 6);
        assert_eq!(
            i.kind,
            Kind::IndirectBranch {
                call: true,
                slot: Some(2)
            }
        );
        // JMP [abs32] — the IAT-pivot trampoline form.
        let i = one(&[0xFF, 0x25, 0, 0, 0, 0], Mode::Bits32);
        assert_eq!(
            i.kind,
            Kind::IndirectBranch {
                call: false,
                slot: Some(2)
            }
        );
        // CALL EAX — register operand, no readable slot.
        let i = one(&[0xFF, 0xD0], Mode::Bits32);
        assert_eq!(
            i.kind,
            Kind::IndirectBranch {
                call: true,
                slot: None
            }
        );
        // JMP [EAX+8] — memory operand but not [disp32].
        let i = one(&[0xFF, 0x60, 0x08], Mode::Bits32);
        assert_eq!(
            i.kind,
            Kind::IndirectBranch {
                call: false,
                slot: None
            }
        );
        // FF /0 (INC rm) stays Other.
        assert_eq!(one(&[0xFF, 0xC0], Mode::Bits32).kind, Kind::Other);
        // With an operand-size prefix the slot shifts by the prefix byte.
        let i = one(&[0x66, 0xFF, 0x15, 0, 0, 0, 0], Mode::Bits32);
        assert_eq!(
            i.kind,
            Kind::IndirectBranch {
                call: true,
                slot: Some(3)
            }
        );
    }

    #[test]
    fn mode_sensitivity_of_0x49() {
        // 32-bit: DEC ECX, standalone.
        let i = one(&[0x49, 0x90], Mode::Bits32);
        assert_eq!(i.len, 1);
        // 64-bit: REX.WB prefix fused with the following instruction.
        let i = one(&[0x49, 0x90], Mode::Bits64);
        assert_eq!(i.len, 2);
    }

    #[test]
    fn rex_w_widens_mov_imm() {
        // MOV RAX, imm64 — the W64 codegen's relocation carrier.
        let i = one(&[0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8], Mode::Bits64);
        assert_eq!(i.len, 10);
        assert_eq!(i.kind, Kind::Other);
        // Without REX.W it stays imm32.
        let i = one(&[0xB8, 1, 2, 3, 4], Mode::Bits64);
        assert_eq!(i.len, 5);
    }

    #[test]
    fn modrm_sib_disp_grammar() {
        let cases: &[(&[u8], usize)] = &[
            (&[0x89, 0x04, 0x24], 3),             // MOV [ESP], EAX (SIB)
            (&[0x89, 0x44, 0x24, 0x08], 4),       // MOV [ESP+8], EAX
            (&[0x89, 0x84, 0x24, 0, 1, 0, 0], 7), // MOV [ESP+disp32], EAX
            (&[0x89, 0x05, 0, 0, 0, 0], 6),       // MOV [disp32], EAX
            (&[0x89, 0x40, 0x04], 3),             // MOV [EAX+4], EAX
            (&[0x8B, 0x80, 0, 0, 0, 1], 6),       // MOV EAX, [EAX+disp32]
            (&[0x83, 0x3D, 0, 0, 0, 0, 0x01], 7), // CMP [disp32], imm8
            (&[0xC7, 0x00, 1, 2, 3, 4], 6),       // MOV [EAX], imm32
            (&[0xF7, 0x00, 1, 2, 3, 4], 6),       // TEST [EAX], imm32 (/0)
            (&[0xF7, 0xD8], 2),                   // NEG EAX (/3, no imm)
            (&[0x0F, 0x1F, 0x44, 0x00, 0x00], 5), // canonical 5-byte NOP
        ];
        for (bytes, want) in cases {
            assert_eq!(
                one(bytes, Mode::Bits32).len,
                *want,
                "length of {bytes:02X?}"
            );
        }
    }

    #[test]
    fn operand_size_prefix_shrinks_immz() {
        assert_eq!(one(&[0x66, 0xB8, 0x34, 0x12], Mode::Bits32).len, 4); // MOV AX, imm16
        assert_eq!(one(&[0xB8, 0x34, 0x12, 0, 0], Mode::Bits32).len, 5);
    }

    #[test]
    fn unknown_and_truncated_degrade_gracefully() {
        // 0xD6 (SALC) is unmodelled: 1-byte Unknown, sweep resyncs.
        let i = one(&[0xD6, 0x90], Mode::Bits32);
        assert_eq!((i.len, i.kind), (1, Kind::Unknown));
        // Truncated CALL rel32 at end of buffer: Unknown spanning the rest.
        let i = one(&[0xE8, 0x01], Mode::Bits32);
        assert_eq!(i.kind, Kind::Unknown);
        assert_eq!(i.end(), 2);
        // Empty buffer: None.
        assert!(decode(&[], 0, Mode::Bits32).is_none());
        // PUSHA valid in 32-bit, invalid in 64-bit.
        assert_eq!(one(&[0x60], Mode::Bits32).kind, Kind::Other);
        assert_eq!(one(&[0x60], Mode::Bits64).kind, Kind::Unknown);
    }

    #[test]
    fn sweep_stays_on_boundaries_through_caves() {
        // prologue, body, epilogue, 4-byte cave, next prologue.
        let mut text = Vec::new();
        text.extend([0x55, 0x89, 0xE5, 0x83, 0xEC, 0x20]); // prologue
        text.extend([0x90, 0x85, 0xC0]); // body
        text.extend([0x89, 0xEC, 0x5D, 0xC3]); // epilogue
        text.extend([0x00, 0x00, 0x00, 0x00]); // cave
        text.extend([0x55, 0x89, 0xE5, 0x83, 0xEC, 0x20]); // next prologue
        let boundaries: Vec<usize> = Sweep::new(&text, Mode::Bits32).map(|i| i.offset).collect();
        // The second prologue's PUSH EBP must be decoded exactly at its
        // offset — i.e. the zero cave (ADD [EAX], AL pairs) didn't desync.
        assert!(boundaries.contains(&17), "boundaries: {boundaries:?}");
        let total: usize = Sweep::new(&text, Mode::Bits32).map(|i| i.len).sum();
        assert_eq!(total, text.len());
    }
}
