//! Portable Executable (PE) image model for the ModChecker reproduction.
//!
//! The ModChecker paper checks MS Windows kernel modules, which are PE
//! images (`.sys` drivers and `.dll` libraries). This crate provides every
//! PE-shaped piece the reproduction needs, built from scratch:
//!
//! * [`consts`] — header field offsets and flag constants for the subset of
//!   the PE specification the paper's Figure 3 describes (DOS, NT, FILE and
//!   OPTIONAL headers plus section headers).
//! * [`builder`] — [`builder::PeBuilder`] constructs byte-exact PE
//!   *files* (file layout, with `PointerToRawData`), including a DOS stub, a
//!   `.reloc` base-relocation section, and optional export/import
//!   directories.
//! * [`parser`] — parses raw bytes in either file layout or loaded
//!   memory layout into header/section views. This implements the paper's
//!   Algorithm 1 (header and section-data extraction) at the byte level.
//! * [`codegen`] — a deterministic synthetic machine-code generator that
//!   emits driver-like `.text` contents: realistic opcode mix, embedded
//!   absolute-address operands (the thing Algorithm 2 must undo), function
//!   entry points, and "opcode caves" used by the inline-hooking attack.
//! * [`corpus`] — the evaluation module set (`hal.dll`, `http.sys`,
//!   `dummy.sys`, ...) with paper-plausible sizes, generated deterministically
//!   so every cloned VM observes the identical file image.
//!
//! Real driver binaries are unavailable in this environment; per DESIGN.md
//! the synthetic corpus preserves what the integrity checker actually
//! depends on — PE header structure and address-bearing executable bytes.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod builder;
pub mod codegen;
pub mod consts;
pub mod corpus;
pub mod parser;
pub mod reloc;

mod error;

pub use builder::{PeBuilder, PeFile, SectionSpec};
pub use codegen::{CodeGenConfig, GeneratedCode};
pub use corpus::{standard_corpus, ModuleBlueprint};
pub use error::PeError;
pub use parser::{ParsedModule, SectionView};

/// Pointer width of the guest ISA.
///
/// The paper's testbed is 32-bit Windows XP; the reproduction also supports
/// 64-bit guests (ablation ABL-4 in DESIGN.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AddressWidth {
    /// 32-bit guest: 4-byte absolute addresses, PE32 optional header.
    W32,
    /// 64-bit guest: 8-byte absolute addresses, PE32+ optional header.
    W64,
}

impl AddressWidth {
    /// Size of an absolute address in bytes (the unit Algorithm 2 rewrites).
    pub fn bytes(self) -> usize {
        match self {
            AddressWidth::W32 => 4,
            AddressWidth::W64 => 8,
        }
    }

    /// The optional-header magic for this width.
    pub fn optional_magic(self) -> u16 {
        match self {
            AddressWidth::W32 => consts::OPTIONAL_MAGIC_PE32,
            AddressWidth::W64 => consts::OPTIONAL_MAGIC_PE32_PLUS,
        }
    }

    /// `IMAGE_FILE_HEADER.Machine` value.
    pub fn machine(self) -> u16 {
        match self {
            AddressWidth::W32 => consts::MACHINE_I386,
            AddressWidth::W64 => consts::MACHINE_AMD64,
        }
    }
}

/// Reads a little-endian `u16` at `off`; `None` if out of bounds.
pub fn read_u16(buf: &[u8], off: usize) -> Option<u16> {
    let b = buf.get(off..off + 2)?;
    Some(u16::from_le_bytes([b[0], b[1]]))
}

/// Reads a little-endian `u32` at `off`; `None` if out of bounds.
pub fn read_u32(buf: &[u8], off: usize) -> Option<u32> {
    let b = buf.get(off..off + 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Reads a little-endian `u64` at `off`; `None` if out of bounds.
pub fn read_u64(buf: &[u8], off: usize) -> Option<u64> {
    let b = buf.get(off..off + 8)?;
    Some(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Writes a little-endian `u16` at `off` (panics on OOB).
pub fn write_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Writes a little-endian `u32` at `off` (panics on OOB).
pub fn write_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Writes a little-endian `u64` at `off` (panics on OOB).
pub fn write_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Rounds `v` up to the next multiple of `align` (which must be a power of
/// two, as PE alignments are).
pub(crate) fn align_up(v: u32, align: u32) -> u32 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 0x1000), 0);
        assert_eq!(align_up(1, 0x1000), 0x1000);
        assert_eq!(align_up(0x1000, 0x1000), 0x1000);
        assert_eq!(align_up(0x1001, 0x200), 0x1200);
    }

    #[test]
    fn le_readers_handle_bounds() {
        let buf = [1u8, 0, 0, 0, 2, 0, 0, 0];
        assert_eq!(read_u32(&buf, 0), Some(1));
        assert_eq!(read_u32(&buf, 4), Some(2));
        assert_eq!(read_u32(&buf, 5), None);
        assert_eq!(read_u16(&buf, 7), None);
        assert_eq!(read_u64(&buf, 0), Some(0x0000_0002_0000_0001));
        assert_eq!(read_u64(&buf, 1), None);
    }

    #[test]
    fn width_properties() {
        assert_eq!(AddressWidth::W32.bytes(), 4);
        assert_eq!(AddressWidth::W64.bytes(), 8);
        assert_ne!(
            AddressWidth::W32.optional_magic(),
            AddressWidth::W64.optional_magic()
        );
        assert_ne!(AddressWidth::W32.machine(), AddressWidth::W64.machine());
    }
}
